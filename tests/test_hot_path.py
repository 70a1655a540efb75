"""Operation-count guard for the per-solve hot path.

Counts the numpy.linalg / numpy.kron calls one solve() makes at the paper's
operating point (n=50). Unlike a timing, the counts are exact and repeatable,
so any extra decomposition on the hot path, or a reintroduced Kronecker
product or hidden condition-number SVD, fails here on any host.
"""

from collections import Counter

import numpy as np
import pytest

from odlt.evaluation import SyntheticScenario, generate_scene
from odlt.geometry import correspondence_arrays
from odlt.solvers import METHODS, SolverConfig, solve

# Per method: null spaces (preliminary + final for the weighted methods) each
# take one SVD of the 12x12 R factor; every nearest_rotation takes one SVD and
# two determinants; declamping takes one determinant, shared with the
# Procrustes scale and the reflection check; each Pose validation takes one.
EXPECTED = {
    "dlt": {"svd": 2, "det": 4, "solve": 1, "cond": 0, "kron": 0},
    "ndlt": {"svd": 2, "det": 4, "solve": 1, "cond": 0, "kron": 0},
    "odlt": {"svd": 4, "det": 6, "solve": 1, "cond": 0, "kron": 0},
    "odlt_lost": {"svd": 4, "det": 7, "solve": 1, "cond": 0, "kron": 0},
    "ndlt_gn": {"svd": 3, "det": 7, "solve": 4, "cond": 0, "kron": 0},
}


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def shim(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, shim)

    for name in ("svd", "cond", "det", "solve"):
        counted(np.linalg, name)
    counted(np, "kron")
    return tally


@pytest.mark.parametrize("method", METHODS)
def test_linalg_calls_per_solve(method, counts):
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    cs, _ = generate_scene(sc, 0)
    arrays = correspondence_arrays(cs)
    counts.clear()
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    observed = {name: counts[name] for name in EXPECTED[method]}
    assert observed == EXPECTED[method]
