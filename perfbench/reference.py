"""Host-speed reference: a fixed kernel timed between units of work.

On a shared host other tenants slow this process down by up to 2x, in
phases that last from a fraction of a second to over a minute. On the 2-CPU
host this benchmark was written on, one-second medians of a single odlt
solve (n=50) moved between 0.60 and 1.30 ms within one minute, with no CPU
steal recorded, and medians of whole 12-15 s runs of identical code spread
by 13-30% (quartile distance over median). Every run therefore times this
kernel after each item once INTERVAL seconds of work have passed, and the
end-to-end latencies and throughput are expressed in units of its local
median duration ("ref"), taken over the NEIGHBOURS calls around each
moment. Over ten 30 s runs per workload that brought the spread of the
median solve times down to 0.7-6% and of throughput to 1.3-2.9%. Tails
cancel less: the 99th percentile still spread by 7-18%. The raw
milliseconds are printed in the report lines.

The kernel is per-point Python objects plus a frozen, numpy-only normalized
DLT on a fixed problem of the workload's typical size, so it is made of the
same kind of work as what it measures (interpreted Python, object lists,
small numpy calls, one tall SVD), but no change to odlt can change it.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds of work between two reference calls, and the number of calls
# around a moment whose median duration is that moment's time scale.
INTERVAL = 0.01
NEIGHBOURS = 16

# Points that also pass through per-point Python objects in each call, as
# Correspondence lists do (capped so that large problems stay cheap).
OBJECTS = 200

# Bound at import, before a tracer replaces the numpy attributes, so the
# kernel does the same work in traced and untraced runs.
_svd = np.linalg.svd
_det = np.linalg.det
_solve = np.linalg.solve
_norm = np.linalg.norm


class HostClock:
    """Interleaves reference calls with the work and rescales work times."""

    def __init__(self, n: int):
        rng = np.random.default_rng(20241017)
        self._ps = rng.uniform(-2.0, 2.0, (n, 3)) + (0.0, 0.0, 6.0)
        self._us = 800.0 * self._ps[:, :2] / self._ps[:, 2:] + 320.0
        self._rows = list(self._ps)
        self.ref_t = []  # mid time of each reference call
        self.ref_d = []  # its duration
        self.work_t = []  # mid time of each stretch of work between calls
        self.work_d = []  # its duration
        self._since = time.perf_counter()

    def kernel(self) -> float:
        """The fixed reference work: objects, gather, normalize, assemble, SVD."""
        finite = all(np.isfinite(np.asarray(r, dtype=float).reshape(3)).all()
                     for r in self._rows[:OBJECTS])
        ps, us = np.array(self._rows), self._us
        n = ps.shape[0]
        cu = us.mean(axis=0)
        usn = (us - cu) * (np.sqrt(2.0) / _norm(us - cu, axis=1).mean())
        cp = ps.mean(axis=0)
        psn = (ps - cp) * (np.sqrt(3.0) / _norm(ps - cp, axis=1).mean())
        pbar = np.empty((n, 4))
        pbar[:, :3] = psn
        pbar[:, 3] = 1.0
        su = np.zeros((n, 2, 3))
        su[:, 0, 1] = -1.0
        su[:, 0, 2] = usn[:, 1]
        su[:, 1, 0] = 1.0
        su[:, 1, 2] = -usn[:, 0]
        A = (pbar[:, None, :, None] * su[:, :, None, :]).reshape(2 * n, 12)
        _, _, Vt = _svd(A, full_matrices=False)
        P = Vt[-1].reshape(4, 3).T
        U, _, V = _svd(P[:, :3])
        sign = _det(U) * _det(V)
        _solve(P[:, :3], P[:, 3])
        w = psn @ P[:, :3].T + P[:, 3]
        rms = float(np.sqrt(np.mean(np.sum((usn - w[:, :2] / w[:, 2:3]) ** 2, axis=1))))
        return rms + sign + finite

    def _reference(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.ref_t.append(0.5 * (t0 + t1))
        self.ref_d.append(t1 - t0)

    def _close_work(self, now: float) -> None:
        self.work_t.append(0.5 * (self._since + now))
        self.work_d.append(now - self._since)

    def tick(self) -> None:
        """Call between units of work: times the kernel every INTERVAL s."""
        now = time.perf_counter()
        if now - self._since >= INTERVAL:
            self._close_work(now)
            self._reference()
            self._since = time.perf_counter()

    def stop(self) -> None:
        """Close the last stretch of work; make sure a scale exists."""
        self._close_work(time.perf_counter())
        while len(self.ref_d) < NEIGHBOURS:
            self._reference()

    def scale(self, times) -> np.ndarray:
        """Median reference duration around each of `times` (perf_counter s)."""
        ref_t = np.asarray(self.ref_t)
        ref_d = np.asarray(self.ref_d)
        k = min(NEIGHBOURS, ref_d.size)
        medians = np.median(np.lib.stride_tricks.sliding_window_view(ref_d, k), axis=1)
        start = np.searchsorted(ref_t, np.asarray(times, dtype=float)) - k // 2
        return medians[np.clip(start, 0, medians.size - 1)]

    def work_seconds(self) -> float:
        """Time spent on the work itself, without the reference calls."""
        return float(np.sum(self.work_d))

    def work_refs(self) -> float:
        """The same time in units of the local reference duration."""
        return float(np.sum(np.asarray(self.work_d) / self.scale(self.work_t)))
