"""Spans and call counters around odlt's public functions, from outside.

The tracer never edits odlt's source. `Tracer.installed()` replaces module
attributes inside this process only: every public function of the eight
layer modules (plus the two private stage functions the metrics name), the
`apply` methods of the normalization classes, `Pose.__post_init__`, and the
numpy.linalg / numpy.kron entry points odlt reaches through `np.`. A function
is replaced under every name that binds it in any loaded odlt module, so
calls between modules (`from .dlt import solve_nullspace`) are traced too.
Everything is put back when the context exits.

A span's self time is its duration minus the time of the spans it called.
The span of one `solve()` call is the root of a request: the self times of
all spans under it are summed per layer, so each solve yields one
layer -> seconds split that adds up to its traced wall time.

Counters (calls per span name, numpy calls, bytes of the stacked DLT matrix)
only advance inside a solve and only while `counting` is true, so a caller
can count over a fixed prefix of its inputs and get exactly repeatable
counts however long the timed loop runs.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "geometry",
    "normalization",
    "weighting",
    "dlt",
    "se3",
    "solvers",
    "evaluation",
    "colmap",
)

# Private functions that are stage boundaries named by the metrics.
PRIVATE_SPANS = {
    "dlt": ("_assemble_arrays",),
    "weighting": ("_preliminary_normalized",),
}

# odlt calls these as np.linalg.<fn> and np.kron, so replacing the attribute
# on the numpy module is enough. numpy's own internal calls (cond's SVD) go
# through its private module and are not counted twice.
LINALG_COUNTED = ("svd", "cond", "det", "kron", "solve", "eigh", "qr")

ROOT_SPAN = "solvers.solve"


class Tracer:
    """Span self times, per-solve layer splits and per-method call counts."""

    def __init__(self):
        self.counting = True
        self.self_times = defaultdict(list)  # span name -> [seconds]
        self.solve_layers = defaultdict(list)  # method -> [{layer: seconds}]
        self.solve_start = defaultdict(list)  # method -> [perf_counter at solve start]
        self.solves = Counter()  # method -> solves counted
        self.calls = Counter()  # (method, span name, parent layer) -> calls
        self.numpy_calls = Counter()  # (method, numpy function) -> calls
        self.a_bytes = Counter()  # method -> bytes of matrices given to solve_nullspace
        self._stack = []  # open spans: [name, child seconds]
        self._method = None  # method of the solve in progress
        self._layers = None  # layer -> self seconds of the solve in progress
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack
        self_times = self.self_times[name]
        is_root = name == ROOT_SPAN
        is_nullspace = name == "dlt.solve_nullspace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_root and self._method is None:
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                self._method = cfg.method if cfg is not None else "odlt"
                self._layers = defaultdict(float)
                root = True
            else:
                root = False
            counting = self.counting and self._method is not None
            if counting:
                parent = stack[-1][0].split(".", 1)[0] if stack else None
                self.calls[(self._method, name, parent)] += 1
                if is_nullspace:
                    self.a_bytes[self._method] += getattr(args[0], "nbytes", 0)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                own = dt - frame[1]
                self_times.append(own)
                if self._layers is not None:
                    self._layers[layer] += own
                if root:
                    self.solve_layers[self._method].append(dict(self._layers))
                    self.solve_start[self._method].append(t0)
                    if self.counting:
                        self.solves[self._method] += 1
                    self._method = None
                    self._layers = None

        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.counting and self._method is not None:
                self.numpy_calls[(self._method, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install(self):
        odlt_modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "odlt" or name.startswith("odlt."))
        ]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"odlt.{layer}"]
            for attr, value in vars(module).items():
                public = not attr.startswith("_") or attr in PRIVATE_SPANS.get(layer, ())
                if public and inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[id(value)] = self._span(f"{layer}.{attr}", value)
        # Rebind every name that refers to a wrapped function, in every module.
        for module in odlt_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])

        geometry = sys.modules["odlt.geometry"]
        normalization = sys.modules["odlt.normalization"]
        self._patch(geometry.Pose, "__post_init__",
                    self._span("geometry.Pose", geometry.Pose.__post_init__))
        for cls in (normalization.PixelNormalization, normalization.PointNormalization):
            self._patch(cls, "apply", self._span(f"normalization.{cls.__name__}.apply", cls.apply))

        for attr in LINALG_COUNTED:
            owner = np if attr == "kron" else np.linalg
            self._patch(owner, attr, self._counted(attr, getattr(owner, attr)))

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace odlt for the duration of the block; restore on exit."""
        try:
            self._install()
            yield self
        finally:
            self._restore()

    # -- queries ------------------------------------------------------------

    def span_calls(self, name, method=None, parent=None) -> int:
        """Counted calls of a span, optionally for one method / parent layer."""
        return sum(
            c for (m, n, p), c in self.calls.items()
            if n == name and (method is None or m == method) and (parent is None or p == parent)
        )
