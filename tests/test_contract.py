"""The input contract, swept: every solve returns a finite pose or raises a PnpError.

The scenes come from one seeded generator: the identity pose,
DEFAULT_INTRINSICS, pixels projected exactly and then given N(0, 1) noise,
scene `seed` of case `k` drawn from default_rng(1000 k + seed). The cases:

    1-3  slabs of 30 points, (-2, 2)^2 wide at depth 6 and t = 0.1, 0.01 or 0
         thick (t = 0 is a plane);
    4    a t = 4 slab whose first 5 of 30 pixels are moved by +200 px in u and v;
    5-6  n = 6 and 7 points from the uncentered box, next to the minimum count;
    7    6 correspondences over 5 distinct points (point 5 = point 0), centered box.

Each scene is solved in six input forms (float64, float32, Fortran order,
strided views, pixels scaled by 1e-6 together with K's first two rows, and
points scaled by 1e-13) by all five methods. Any other exception fails the
test, and so does a numpy RuntimeWarning (pyproject's filterwarnings). Which
outcome each cell gives is not pinned yet: many are silent bad poses or
name the wrong cause today.
"""

import numpy as np
import pytest

from odlt.errors import PnpError
from odlt.evaluation import CENTERED_BOX, DEFAULT_INTRINSICS, UNCENTERED_BOX
from odlt.solvers import METHODS, SolverConfig, solve

SEEDS = range(20)
K = DEFAULT_INTRINSICS.matrix


def slab(rng, t, n=30):
    return np.c_[rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(6.0 - t / 2, 6.0 + t / 2, n)]


def box(rng, corners, n):
    return rng.uniform(*corners, (n, 3))


def repeated(rng):
    ps = box(rng, CENTERED_BOX, 6)
    ps[5] = ps[0]
    return ps


CASES = {  # case number: (name, the points of one scene, pixel offset of the first 5)
    1: ("slab t=0.1", lambda rng: slab(rng, 0.1), 0.0),
    2: ("slab t=0.01", lambda rng: slab(rng, 0.01), 0.0),
    3: ("slab t=0", lambda rng: slab(rng, 0.0), 0.0),
    4: ("slab t=4, 5 outliers", lambda rng: slab(rng, 4.0), 200.0),
    5: ("uncentered n=6", lambda rng: box(rng, UNCENTERED_BOX, 6), 0.0),
    6: ("uncentered n=7", lambda rng: box(rng, UNCENTERED_BOX, 7), 0.0),
    7: ("6 over 5 distinct points", repeated, 0.0),
}

VARIANTS = {  # name: (ps, us, K) -> the same problem in another input form
    "float64": lambda ps, us, K: (ps, us, K),
    "float32": lambda ps, us, K: (ps.astype(np.float32), us.astype(np.float32), K),
    "fortran": lambda ps, us, K: (np.asfortranarray(ps), np.asfortranarray(us), K),
    "strided": lambda ps, us, K: (np.repeat(ps, 2, axis=0)[::2], np.repeat(us, 2, axis=0)[::2], K),
    "pixels 1e-6": lambda ps, us, K: (ps, us * 1e-6, np.diag([1e-6, 1e-6, 1.0]) @ K),
    "points 1e-13": lambda ps, us, K: (ps * 1e-13, us, K),
}


def scene(case, seed):
    """(points, pixels) of one scene of one case."""
    _, points, offset = CASES[case]
    rng = np.random.default_rng(1000 * case + seed)
    ps = points(rng)
    us = ps[:, :2] / ps[:, 2:] @ K[:2, :2].T + K[:2, 2] + rng.standard_normal((ps.shape[0], 2))
    us[:5] += offset
    return ps, us


def outcome(ps, us, K, method):
    """"pose" for a finite pose, else the name of the PnpError the solve raised."""
    try:
        pose = solve((ps, us), K, SolverConfig(method=method)).pose
    except PnpError as exc:
        return type(exc).__name__
    assert np.isfinite(pose.R).all() and np.isfinite(pose.r).all()
    return "pose"


def outcomes(case, method):
    """The outcome of every seed and input form of one case under one method."""
    cells = []
    for seed in SEEDS:
        ps, us = scene(case, seed)
        for variant in VARIANTS.values():
            cells.append(outcome(*variant(ps, us, K), method))
    return cells


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(CASES), ids=[CASES[k][0] for k in sorted(CASES)])
def test_every_solve_is_a_finite_pose_or_a_pnp_error(case, method):
    outcomes(case, method)  # outcome() asserts each pose finite; other exceptions propagate
