"""Operation-count guards for the hot paths.

Counts the numpy.linalg / numpy.kron calls one solve() makes at the paper's
operating point (n=50), the QR calls, constraint-matrix assemblies and bytes
handed to the null space on both sides of the chunked-QR crossover (n=50 and
n=2000), the stage functions and input checks solve() calls per method, the
Pose validations and the Python-level calls made from odlt's own frames per
solve, and the Correspondence objects the Monte Carlo harness, the COLMAP
problem builder and the CLI create. Unlike a timing, the counts are exact
and repeatable, so any extra decomposition on the hot path, a reintroduced
Kronecker product or hidden condition-number SVD, a wrong stage-table row,
a stage that re-checks what solve() already checked, a re-validated
internal pose, added per-call overhead, a return to per-point objects on an
array path (the Monte Carlo harness, build_problems, eval-colmap, odlt
solve's problem file), a null space that silently stops (or starts)
chunking, a null space handed the 2n x 12 matrix above the crossover, or a
weighted solve that assembles a second matrix below the crossover fails
here on any host.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import odlt.geometry as geometry_module
import odlt.solvers as solvers_module
import odlt.weighting as weighting_module
from odlt.cli import main
from odlt.colmap import build_problems, parse_model
from odlt.evaluation import UNCENTERED_BOX, SyntheticScenario, generate_scene, run_monte_carlo
from odlt.geometry import Correspondence
from odlt.solvers import METHODS, SolverConfig, solve

SOLVABLE = Path(__file__).parent / "fixtures" / "colmap_solvable"

# Per method: null spaces (preliminary + final for the weighted methods) each
# take one SVD of the 12x12 R factor; every nearest_rotation takes one SVD and
# reads the sign of det(U V^T) from a cofactor expansion; declamping takes the
# one determinant, shared with the Procrustes scale and the reflection check.
EXPECTED = {
    "dlt": {"svd": 2, "det": 1, "solve": 1, "cond": 0, "kron": 0},
    "ndlt": {"svd": 2, "det": 1, "solve": 1, "cond": 0, "kron": 0},
    "odlt": {"svd": 4, "det": 1, "solve": 1, "cond": 0, "kron": 0},
    "odlt_lost": {"svd": 4, "det": 1, "solve": 1, "cond": 0, "kron": 0},
    "ndlt_gn": {"svd": 3, "det": 1, "solve": 4, "cond": 0, "kron": 0},
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

    for name in ("svd", "cond", "det", "solve", "qr"):
        counted(np.linalg, name)
    counted(np, "kron")
    return tally


# QR calls per solve: one per null space of a matrix below the chunked-QR
# crossover, two (stacked blocks, then their R factors) for a chunked one. At
# n=2000 the final system is assembled from the chunked R factor of the
# 2000-row moment matrix (two calls), and its 24-row L(R) and the 24-row
# preliminary subset each take one more.
QR_EXPECTED = {
    50: {"dlt": 1, "ndlt": 1, "odlt": 2, "odlt_lost": 2, "ndlt_gn": 1},
    2000: {"dlt": 3, "ndlt": 3, "odlt": 4, "odlt_lost": 4, "ndlt_gn": 3},
}


@pytest.mark.parametrize("method", METHODS)
def test_linalg_calls_per_solve(method, counts):
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    counts.clear()
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    observed = {name: counts[name] for name in EXPECTED[method]}
    assert observed == EXPECTED[method]


@pytest.mark.parametrize("n", sorted(QR_EXPECTED))
@pytest.mark.parametrize("method", METHODS)
def test_qr_calls_per_solve(method, n, counts):
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    counts.clear()
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert counts["qr"] == QR_EXPECTED[n][method]


# Constraint matrices assembled per solve, under every odlt binding. Below the
# chunked-QR crossover a weighted solve builds one A for its preliminary and,
# rows weighted in place, its final null space; at n=2000 it assembles the
# seeded subset's A and then the weighted one.
ASSEMBLY_EXPECTED = {
    50: {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 1},
    2000: {"dlt": 1, "ndlt": 1, "odlt": 2, "odlt_lost": 2, "ndlt_gn": 1},
}


@pytest.mark.parametrize("n", sorted(ASSEMBLY_EXPECTED))
@pytest.mark.parametrize("method", METHODS)
def test_assemblies_per_solve(method, n, monkeypatch):
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    tally = Counter()
    assemble = solvers_module._assemble_arrays

    def counted(*args, **kwargs):
        tally["assemble"] += 1
        return assemble(*args, **kwargs)

    for module in (solvers_module, weighting_module):
        monkeypatch.setattr(module, "_assemble_arrays", counted)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert tally["assemble"] == ASSEMBLY_EXPECTED[n][method]


# Bytes of each matrix handed to solve_nullspace per solve, under every odlt
# binding (what perfbench's dlt.A_bytes_per_solve adds up). Below the
# crossover that is the 2n x 12 A (100 x 12 floats at n=50); from it up, the
# 24 x 12 L(R) made from the moment matrix's R factor, so a return to the
# 2n x 12 matrix at n=2000 fails here without a timing. At n=2000 the
# weighted methods' preliminary subset of 12 points gives 24 rows too; at
# n=50 their preliminary takes the shared A's null vector without
# solve_nullspace.
NULLSPACE_BYTES = {
    50: {"dlt": [9600], "ndlt": [9600], "odlt": [9600], "odlt_lost": [9600], "ndlt_gn": [9600]},
    2000: {
        "dlt": [2304],
        "ndlt": [2304],
        "odlt": [2304, 2304],
        "odlt_lost": [2304, 2304],
        "ndlt_gn": [2304],
    },
}


@pytest.mark.parametrize("n", sorted(NULLSPACE_BYTES))
@pytest.mark.parametrize("method", METHODS)
def test_nullspace_input_bytes_per_solve(method, n, monkeypatch):
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    nbytes = []
    solve_nullspace = solvers_module.solve_nullspace

    def recorded(A, *args, **kwargs):
        nbytes.append(A.nbytes)
        return solve_nullspace(A, *args, **kwargs)

    for module in (solvers_module, weighting_module):
        monkeypatch.setattr(module, "solve_nullspace", recorded)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert nbytes == NULLSPACE_BYTES[n][method]


# Calls solve() makes through odlt.solvers' own bindings, per method. At n=50
# the weighted stage assembles the one A and its preliminary takes A's null
# vector inside weighting, so only the final null space counts here; the
# weights q = 1/(sigma_u depth) are computed once, and once more for LOST.
# perfbench traces these names.
STAGE_CALLS = {
    "_assemble_arrays": {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 1},
    "_preliminary_normalized": {"dlt": 0, "ndlt": 0, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 0},
    "weight_factors": {"dlt": 0, "ndlt": 0, "odlt": 1, "odlt_lost": 2, "ndlt_gn": 0},
    "solve_nullspace": {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 1},
    "lost_translation": {"dlt": 0, "ndlt": 0, "odlt": 0, "odlt_lost": 1, "ndlt_gn": 0},
    "refine_gauss_newton": {"dlt": 0, "ndlt": 0, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 1},
    "_reprojection_rms": {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 1},
}


@pytest.mark.parametrize("method", METHODS)
def test_stage_calls_per_solve(method, monkeypatch):
    tally = Counter()
    for name in STAGE_CALLS:
        fn = getattr(solvers_module, name)

        def shim(*args, _fn=fn, _name=name, **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solvers_module, name, shim)
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert {name: tally[name] for name in STAGE_CALLS} == {
        name: calls[method] for name, calls in STAGE_CALLS.items()
    }


# Input checks per solve, counted under every odlt module's binding. solve()
# checks the arrays and K once, at entry, and the stages take what it checked.
INPUT_CHECKS = {
    "correspondence_arrays": {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 1},
    "intrinsic_matrix": {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 1},
}


@pytest.mark.parametrize("method", METHODS)
def test_input_checks_per_solve(method, monkeypatch):
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    tally = Counter()
    modules = [m for key, m in sys.modules.items() if key == "odlt" or key.startswith("odlt.")]
    for name in INPUT_CHECKS:
        fn = getattr(geometry_module, name)

        def shim(*args, _fn=fn, _name=name, **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, shim)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert {name: tally[name] for name in INPUT_CHECKS} == {
        name: calls[method] for name, calls in INPUT_CHECKS.items()
    }


@pytest.mark.parametrize("method", METHODS)
def test_no_pose_validation_per_solve(method, monkeypatch):
    # Every pose solve() builds comes from nearest_rotation; none goes
    # through Pose's checks, which are for outside input.
    tally = Counter()
    post_init = geometry_module.Pose.__post_init__

    def counted(self):
        tally["Pose"] += 1
        post_init(self)

    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    monkeypatch.setattr(geometry_module.Pose, "__post_init__", counted)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert tally["Pose"] == 0


# Calls made from odlt's own frames in one n=50 solve: Python calls and calls
# of builtins (numpy functions, methods, dispatchers), counted by
# sys.setprofile. Ufuncs and operators are not calls to the profiler. A
# budget, not an exact count: numpy's own layering moves it by a few calls
# between versions. Counted with numpy 2.4.
CALL_BUDGET = {"dlt": 87, "ndlt": 111, "odlt": 160, "odlt_lost": 184, "ndlt_gn": 198}


@pytest.mark.parametrize("method", METHODS)
def test_calls_per_solve(method):
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    cfg = SolverConfig(method=method)
    package = str(Path(geometry_module.__file__).parent)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            frame = frame.f_back
        elif event != "c_call":
            return
        if frame is not None and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        solve(arrays, sc.intrinsics, cfg)
    finally:
        sys.setprofile(previous)
    assert calls <= CALL_BUDGET[method]


@pytest.fixture
def constructions(monkeypatch):
    tally = Counter()
    post_init = Correspondence.__post_init__

    def counted(self):
        tally["Correspondence"] += 1
        post_init(self)

    monkeypatch.setattr(Correspondence, "__post_init__", counted)
    from_checked = Correspondence._from_checked.__func__

    def counted_unchecked(cls, p, u):
        tally["unchecked"] += 1
        return from_checked(cls, p, u)

    monkeypatch.setattr(Correspondence, "_from_checked", classmethod(counted_unchecked))
    return tally


def test_monte_carlo_builds_no_correspondence_objects(constructions):
    summary = run_monte_carlo(SyntheticScenario(n=50, trials=3), METHODS, timing_reps=0)
    assert [row["failures"] for row in summary] == [0] * len(METHODS)
    assert constructions["Correspondence"] == 0


def test_build_problems_builds_no_correspondence_objects(constructions):
    # Problems carry the 48 usable observations as (ps, us) arrays; the
    # correspondences property builds unchecked objects only when read.
    problems, skipped = build_problems(parse_model(SOLVABLE))
    assert skipped == 0
    assert sum(prob.ps.shape[0] for prob in problems) == 48
    assert constructions == {}
    assert len(problems[0].correspondences) == 24
    assert constructions == {"unchecked": 24}


def test_eval_colmap_noise_builds_no_correspondence_objects(constructions, tmp_path):
    argv = ["eval-colmap", "--model-dir", str(SOLVABLE), "--noise-px", "1"]
    assert main(argv + ["--out", str(tmp_path / "eval.csv")]) == 0
    assert constructions == {}


def test_solve_problem_file_builds_no_correspondence_objects(constructions, tmp_path):
    sc = SyntheticScenario(n=30, trials=1)
    (ps, us), _ = generate_scene(sc, 0)
    lines = ["800.0 800.0 320.0 240.0"]
    lines += [" ".join(repr(float(v)) for v in (*u, *p)) for p, u in zip(ps, us)]
    path = tmp_path / "problem.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--input", str(path)]) == 0
    assert constructions["Correspondence"] == 0
