"""Operation-count guards for the hot paths.

Counts the numpy.linalg / numpy.kron calls one solve() makes at the paper's
operating point (n=50), the QR calls and constraint-matrix assemblies on both
sides of the chunked-QR crossover (n=50 and n=2000), the stage functions and
input checks solve() calls per method, the Pose validations and the Python-level calls made from
odlt's own frames per solve, and the Correspondence objects the Monte Carlo
harness, the COLMAP problem builder and the CLI create. Unlike a timing, the
counts are exact and repeatable, so any extra decomposition on the hot path,
a reintroduced Kronecker product or hidden condition-number SVD, a wrong
stage-table row, a stage that re-checks what solve() already checked, a
re-validated internal pose, added per-call overhead, a return to per-point
objects on an array path (the Monte Carlo harness, eval-colmap's noise step,
odlt solve's problem file), a null space that silently stops (or starts)
chunking, or a weighted solve that assembles a second matrix below the
crossover fails here on any host.
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


# QR calls per solve: one per null space below the chunked-QR crossover, two
# (stacked blocks, then their R factors) for a chunked one. At n=2000 the
# final 4000-row system is chunked; the 24-row preliminary subset is not.
QR_EXPECTED = {
    50: {"dlt": 1, "ndlt": 1, "odlt": 2, "odlt_lost": 2, "ndlt_gn": 1},
    2000: {"dlt": 2, "ndlt": 2, "odlt": 3, "odlt_lost": 3, "ndlt_gn": 2},
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
    return tally


def test_monte_carlo_builds_no_correspondence_objects(constructions):
    summary = run_monte_carlo(SyntheticScenario(n=50, trials=3), METHODS, timing_reps=0)
    assert [row["failures"] for row in summary] == [0] * len(METHODS)
    assert constructions["Correspondence"] == 0


def test_build_problems_builds_one_object_per_usable_observation(constructions):
    model = parse_model(SOLVABLE)
    usable = sum(int((img.point3d_ids >= 0).sum()) for img in model.images.values())
    _, skipped = build_problems(model)
    assert skipped == 0
    assert constructions["Correspondence"] == usable == 48


def test_eval_colmap_noise_builds_no_correspondence_objects(constructions, tmp_path):
    # The 48 come from build_problems; the noise step works on arrays.
    argv = ["eval-colmap", "--model-dir", str(SOLVABLE), "--noise-px", "1"]
    assert main(argv + ["--out", str(tmp_path / "eval.csv")]) == 0
    assert constructions["Correspondence"] == 48


def test_solve_problem_file_builds_no_correspondence_objects(constructions, tmp_path):
    sc = SyntheticScenario(n=30, trials=1)
    (ps, us), _ = generate_scene(sc, 0)
    lines = ["800.0 800.0 320.0 240.0"]
    lines += [" ".join(repr(float(v)) for v in (*u, *p)) for p, u in zip(ps, us)]
    path = tmp_path / "problem.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--input", str(path)]) == 0
    assert constructions["Correspondence"] == 0
