"""Operation-count guards for the hot paths.

Counts the numpy.linalg / numpy.kron calls one solve() makes at the paper's
operating point (n=50), none of them a det or solve outside ndlt_gn's
Gauss-Newton normal equations and no eigh but the weighted methods' two Gram
eigh (the preliminary's and the weighted system's), the QR calls,
constraint-matrix assemblies and bytes handed to the null space on both
sides of the L(R) route (n=50 and n=2000), the stage functions
and input checks solve() calls per method, the step attempts, projections and
normal-equation builds of one ndlt_gn solve (n=50 and n=2000), the weighted
Procrustes normal-equation solves per solve (n=50 and n=2000), the Pose
validations and the Python-level calls made from odlt's own frames per solve,
and the Correspondence objects the Monte Carlo harness, the COLMAP problem
builder and the CLI create. Unlike a timing, the counts are exact
and repeatable, so any extra decomposition on the hot path, a reintroduced
Kronecker product or hidden condition-number SVD, a wrong stage-table row,
a numpy determinant, solve or eigenvalue call back in the 3x3 recovery
algebra, a stage that re-checks what solve() already checked, a re-validated
internal pose, added per-call overhead, a return to per-point objects on an
array path (the Monte Carlo harness, build_problems, eval-colmap, odlt
solve's problem file), a moment reduction that silently stops (or starts)
chunking, a QR back in the null space, a null space handed the 2n x 12
matrix above the route, a weighted solve that assembles or factors any
matrix above n = 7, a fit pass, a second moment fill or a normalized copy of the points
or pixels, rows other than the filled ones (or their R factor, from the
route up) handed to the assembly, an assembly that writes its input, a
mirrored solve that weighs or projects its rotation before it raises
ReflectionDetected, a dlt solve that normalizes or hands its recovery
anything but None for the normalizations, a LOST handed mask copies when no
point is dropped, or a Gauss-Newton that keeps evaluating the cost once it
has converged, builds
normal equations after its last small step, projects a pose twice (or once
more after the refine, for the reported residual), re-copies
its point and pixel rows or allocates its feature rows per projection or
build, or a Procrustes projection back to a fixed step count fails here on
any host.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import odlt.dlt as dlt_module
import odlt.geometry as geometry_module
import odlt.normalization as normalization_module
import odlt.se3 as se3_module
import odlt.solvers as solvers_module
from odlt.cli import main
from odlt.colmap import build_problems, parse_model
from odlt.errors import ReflectionDetected
from odlt.evaluation import UNCENTERED_BOX, SyntheticScenario, generate_scene, run_monte_carlo
from odlt.geometry import Correspondence
from odlt.solvers import METHODS, STAGES, SolverConfig, solve

SOLVABLE = Path(__file__).parent / "fixtures" / "colmap_solvable"


def odlt_modules():
    return [m for key, m in sys.modules.items() if key == "odlt" or key.startswith("odlt.")]

# Per method: the null space takes one SVD of its (m, 12) system, or for the
# weighted methods one eigh of the weighted system's 12x12 Gram A^T A, after
# their preliminary's eigh of the unweighted one; every
# nearest_rotation takes one SVD and reads the sign of det(U V^T) from a
# cofactor expansion, and the weighted Procrustes step takes one (its start).
# Everything else after the null space is closed-form 3x3 algebra on floats:
# declamping's determinant and adjugate solve, the Procrustes and LOST normal
# equations (no eigh) and the polar update. The only solves left are ndlt_gn's
# Gauss-Newton normal equations, one per build (GN_EXPECTED's rows).
EXPECTED = {
    "dlt": {"svd": 2, "det": 0, "solve": 0, "eigh": 0, "cond": 0, "kron": 0},
    "ndlt": {"svd": 2, "det": 0, "solve": 0, "eigh": 0, "cond": 0, "kron": 0},
    "odlt": {"svd": 1, "det": 0, "solve": 0, "eigh": 2, "cond": 0, "kron": 0},
    "odlt_lost": {"svd": 1, "det": 0, "solve": 0, "eigh": 2, "cond": 0, "kron": 0},
    "ndlt_gn": {"svd": 2, "det": 0, "solve": 3, "eigh": 0, "cond": 0, "kron": 0},
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

    for name in ("svd", "cond", "det", "solve", "eigh", "qr"):
        counted(np.linalg, name)
    counted(np, "kron")
    return tally


# QR calls per solve: only the moment reduction makes them, from the L(R)
# route's 256 points up; the null space hands its system straight to svd. At
# n=2000 each system is assembled from the chunked R factor of the 2000-row
# moment matrix: two calls, the stacked 512-row blocks, then their R factors
# with the leftover rows; ndlt's normalization reads its Gram off the same R
# factor. The weighted methods take no QR: both their null vectors come from
# Grams of the moment rows, and their normalization reads the filled rows' Gram.
QR_EXPECTED = {
    50: {"dlt": 0, "ndlt": 0, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 0},
    2000: {"dlt": 2, "ndlt": 2, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 2},
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


# Constraint matrices assembled per solve, under every odlt binding. At these n
# a weighted solve assembles none: its preliminary and its weighted null space
# both come from Grams of the moment rows, with no A.
ASSEMBLY_EXPECTED = {
    50: {"dlt": 1, "ndlt": 1, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 1},
    2000: {"dlt": 1, "ndlt": 1, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 1},
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

    for module in odlt_modules():
        if vars(module).get("_assemble_arrays") is assemble:
            monkeypatch.setattr(module, "_assemble_arrays", counted)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert tally["assemble"] == ASSEMBLY_EXPECTED[n][method]


# Bytes of each matrix handed to solve_nullspace per solve, under every odlt
# binding (what perfbench's dlt.A_bytes_per_solve adds up). Below the L(R)
# route (256 points) that is the 2n x 12 A (100 x 12 floats at n=50); from it up, the
# 24 x 12 L(R) made from the moment matrix's R factor, so a return to the
# 2n x 12 matrix at n=2000 fails here without a timing. The weighted
# methods hand solve_nullspace nothing: both their null vectors come from a
# Gram's eigh.
NULLSPACE_BYTES = {
    50: {"dlt": [9600], "ndlt": [9600], "odlt": [], "odlt_lost": [], "ndlt_gn": [9600]},
    2000: {"dlt": [2304], "ndlt": [2304], "odlt": [], "odlt_lost": [], "ndlt_gn": [2304]},
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

    for module in odlt_modules():
        if vars(module).get("solve_nullspace") is solve_nullspace:
            monkeypatch.setattr(module, "solve_nullspace", recorded)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    assert nbytes == NULLSPACE_BYTES[n][method]


# Weighted Procrustes normal-equation solves (se3._solve_psd) per solve on the
# uncentered box: one per step, plus the one whose predicted decrease falls
# below the cost's rounding and ends the steps (3 steps at n=50, 2 at n=2000);
# LOST adds its translation solve. A fixed step count (one step, or five
# that ignore the stop rules) fails here without a timing.
PROCRUSTES_SOLVES = {50: 4, 2000: 3}


@pytest.mark.parametrize("n", sorted(PROCRUSTES_SOLVES))
@pytest.mark.parametrize("method", METHODS)
def test_procrustes_solves_per_solve(method, n, monkeypatch):
    tally = Counter()
    solve_psd = se3_module._solve_psd

    def counted(*args):
        tally["solve_psd"] += 1
        return solve_psd(*args)

    monkeypatch.setattr(se3_module, "_solve_psd", counted)
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    stages = STAGES[method]
    assert tally["solve_psd"] == PROCRUSTES_SOLVES[n] * stages.weighted + stages.lost


# Calls solve() makes through odlt.solvers' own bindings, per method. The
# weighted stage's preliminary forms its Gram and takes its null vector
# inside weighting; its weighted null space is one solve_gram, which assembles
# nothing at n=50.
# ndlt_gn reports the cost its refine left, so it projects no pose after it.
# perfbench traces these names.
STAGE_CALLS = {
    "_assemble_arrays": {"dlt": 1, "ndlt": 1, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 1},
    "_preliminary_normalized": {"dlt": 0, "ndlt": 0, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 0},
    "solve_nullspace": {"dlt": 1, "ndlt": 1, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 1},
    "solve_gram": {"dlt": 0, "ndlt": 0, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 0},
    "lost_translation": {"dlt": 0, "ndlt": 0, "odlt": 0, "odlt_lost": 1, "ndlt_gn": 0},
    "refine_gauss_newton": {"dlt": 0, "ndlt": 0, "odlt": 0, "odlt_lost": 0, "ndlt_gn": 1},
    "_reprojection_rms": {"dlt": 1, "ndlt": 1, "odlt": 1, "odlt_lost": 1, "ndlt_gn": 0},
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


# The centered n=50 scene mirrored in z, seen at the pixels of the unmirrored
# one: the camera diag(1, 1, -1) explains it, and no rotation does. Declamping
# judges the determinant, so the solve ends there, before the rotation weights,
# the Procrustes steps or any nearest_rotation.
@pytest.mark.parametrize("method", METHODS)
def test_reflection_ends_the_solve_at_declamping(method, monkeypatch):
    called = []
    for owner, name in (
        (solvers_module, "rotation_weights"),
        (solvers_module, "weighted_procrustes"),
        (solvers_module, "nearest_rotation"),
        (se3_module, "nearest_rotation"),
    ):

        def recorded(*args, _fn=getattr(owner, name), _name=name):
            called.append(_name)
            return _fn(*args)

        monkeypatch.setattr(owner, name, recorded)
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    (ps, us), _ = generate_scene(sc, 0)
    with pytest.raises(ReflectionDetected):
        solve((ps * (1.0, 1.0, -1.0), us), sc.intrinsics, SolverConfig(method=method))
    assert called == []


# Gauss-Newton's work in one ndlt_gn solve on the uncentered box: step
# attempts (one rodrigues each), projections (the start plus one per attempt;
# the accepted pose's projection also serves the next normal equations) and
# normal-equation builds (one _gn_normal_equations each, from the Gram of the
# (12, n) feature rows). At n=50 the last step predicts less than _GN_REL_TOL
# of the residual variance, so no normal equations are built after it.
# Neither scene needs a halving. A second projection per step, a cost
# evaluated after convergence or a confirming build after the last small step
# fails here without a timing.
GN_EXPECTED = {
    50: {"attempts": 3, "projections": 4, "builds": 3},
    2000: {"attempts": 2, "projections": 3, "builds": 3},
}


@pytest.mark.parametrize("n", sorted(GN_EXPECTED))
def test_gn_projections_per_solve(n, monkeypatch):
    tally = Counter()
    rows_in = set()
    rodrigues, project, build = (
        solvers_module.rodrigues, solvers_module._gn_project, solvers_module._gn_normal_equations
    )

    def counted_rodrigues(*args):
        tally["attempts"] += 1
        return rodrigues(*args)

    def counted_project(pts, uv, *args):
        tally["projections"] += 1
        rows_in.add(
            (id(pts), id(uv), pts.shape, uv.shape, pts.flags.c_contiguous, uv.flags.c_contiguous)
        )
        return project(pts, uv, *args)

    def counted_build(*args):
        tally["builds"] += 1
        return build(*args)

    monkeypatch.setattr(solvers_module, "rodrigues", counted_rodrigues)
    monkeypatch.setattr(solvers_module, "_gn_project", counted_project)
    monkeypatch.setattr(solvers_module, "_gn_normal_equations", counted_build)
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    solve(arrays, sc.intrinsics, SolverConfig(method="ndlt_gn"))
    assert tally["projections"] == 1 + tally["attempts"]
    assert dict(tally) == GN_EXPECTED[n]
    # One contiguous (4, n) array of homogeneous points and one (2, n) pixel
    # array, built once per refine, serve every projection.
    ((_, _, *layout),) = rows_in
    assert layout == [(4, n), (2, n), True, True]


@pytest.mark.parametrize("n", sorted(GN_EXPECTED))
def test_gn_rows_share_one_buffer_per_refine(n, monkeypatch):
    # Every projection and normal-equation build in one refine writes the same
    # C-ordered (12, n) feature rows, allocated once per refine, not a fresh
    # 12n floats per pose or per build.
    seen = []  # held, so a freed and reused block cannot pass
    project, build = solvers_module._gn_project, solvers_module._gn_normal_equations

    def recorded_project(pts, uv, Km, R, r, F):
        seen.append(("project", F))
        return project(pts, uv, Km, R, r, F)

    def recorded_build(F, *args):
        seen.append(("build", F))
        return build(F, *args)

    monkeypatch.setattr(solvers_module, "_gn_project", recorded_project)
    monkeypatch.setattr(solvers_module, "_gn_normal_equations", recorded_build)
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    solve(arrays, sc.intrinsics, SolverConfig(method="ndlt_gn"))
    kinds = Counter(kind for kind, _ in seen)
    assert kinds == {"project": GN_EXPECTED[n]["projections"], "build": GN_EXPECTED[n]["builds"]}
    assert {(F.shape, F.flags.c_contiguous) for _, F in seen} == {((12, n), True)}
    assert {F.ctypes.data for _, F in seen} == {seen[0][1].ctypes.data}


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
    modules = odlt_modules()
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


@pytest.mark.parametrize("n", [50, 255, 256, 2000])
@pytest.mark.parametrize("method", METHODS)
def test_one_moment_fill_and_no_normalized_copy(method, n, monkeypatch):
    # One pass over the points: solve() fills the moment rows once, from the
    # raw points and pixels (less the first of each for the normalized
    # methods, which the basis B absorbs), and normalizes through B. It makes
    # no fit pass and calls no apply, so it builds no normalized (n, 3) or
    # (n, 2) copy. The unweighted methods hand the assembly the filled rows
    # themselves below 256 points, and from 256 up the 12 x 12 R^T of their
    # moment reduction; the weighted methods hand solve_gram the filled rows
    # themselves, scaled in place, at every n. Neither writes them. The one
    # cheirality sign reads the checked points themselves, through the point
    # normalization.
    tally = Counter()
    filled, assembled, signed = [], [], []

    def counting(name, fn, record=None):
        def shim(*args, **kwargs):
            tally[name] += 1
            if record is not None:  # the array, and its values before the call
                record.append(args[1] if name == "sign" else (args[0], args[0].copy()))
            out = fn(*args, **kwargs)
            if name in ("assemble", "gram"):
                np.testing.assert_array_equal(args[0], record[-1][1])
            return out

        return shim

    for cls in (normalization_module.PixelNormalization, normalization_module.PointNormalization):
        monkeypatch.setattr(cls, "apply", counting("apply", cls.apply))
    patched = {
        "fit_pixel_normalization": counting("fit", normalization_module.fit_pixel_normalization),
        "fit_point_normalization": counting("fit", normalization_module.fit_point_normalization),
        "_fill_moments": counting("fill", solvers_module._fill_moments, filled),
    }
    for module in odlt_modules():
        for name, shim in patched.items():
            if name in vars(module):
                monkeypatch.setattr(module, name, shim)
    assemble, gram = solvers_module._assemble_arrays, solvers_module.solve_gram
    monkeypatch.setattr(solvers_module, "_assemble_arrays", counting("assemble", assemble, assembled))
    monkeypatch.setattr(solvers_module, "solve_gram", counting("gram", gram, assembled))
    monkeypatch.setattr(dlt_module, "_cheirality", counting("sign", dlt_module._cheirality, signed))
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
    (ps, us), _ = generate_scene(sc, 0)
    solve((ps, us), sc.intrinsics, SolverConfig(method=method))
    weighted = STAGES[method].weighted
    assert tally == {"fill": 1, "gram" if weighted else "assemble": 1, "sign": 1}
    ((Mt, values),) = filled
    normalize = STAGES[method].normalize
    np.testing.assert_array_equal(values[:3], (ps - ps[0]).T if normalize else ps.T)
    np.testing.assert_array_equal(values[7::4], (us - us[0]).T if normalize else us.T)
    ((rows, _),) = assembled
    if n >= 256 and not weighted:
        assert rows.shape == (12, 12) and not np.shares_memory(rows, Mt)
    else:
        assert rows is Mt
    ((points,),) = [signed]
    assert np.shares_memory(points, ps) and points.shape == ps.shape


@pytest.mark.parametrize("method", METHODS)
def test_unnormalized_is_none(method, monkeypatch):
    # dlt solves in raw coordinates: it calls no moment_normalization and hands
    # declamping None for both normalizations. Each normalized method hands it
    # the pair that moment_normalization returned, not a copy.
    fitted, declamped = [], []
    moment, declamp = solvers_module.moment_normalization, solvers_module.declamp_denormalize

    def recorded_moment(*args):
        out = moment(*args)
        fitted.append(out[:2])
        return out

    def recorded_declamp(sol, Km, pix, pt):
        declamped.append((pix, pt))
        return declamp(sol, Km, pix, pt)

    monkeypatch.setattr(solvers_module, "moment_normalization", recorded_moment)
    monkeypatch.setattr(solvers_module, "declamp_denormalize", recorded_declamp)
    sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    solve(arrays, sc.intrinsics, SolverConfig(method=method))
    ((pix, pt),) = declamped
    if STAGES[method].normalize:
        ((fit_pix, fit_pt),) = fitted
        assert pix is fit_pix and pt is fit_pt
    else:
        assert fitted == [] and pix is None and pt is None


def test_lost_takes_the_solve_arrays_when_every_depth_is_positive(monkeypatch):
    checked, seen = [], []
    split, lost = solvers_module.correspondence_arrays, solvers_module.lost_translation

    def recorded_split(cs):
        checked.append(split(cs))
        return checked[-1]

    def recorded_lost(ps, us, *args):
        seen.append((ps, us))
        return lost(ps, us, *args)

    monkeypatch.setattr(solvers_module, "correspondence_arrays", recorded_split)
    monkeypatch.setattr(solvers_module, "lost_translation", recorded_lost)
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=2000, sigma_u=1.0, trials=1, seed=0)
    arrays, _ = generate_scene(sc, 0)
    solve(arrays, sc.intrinsics, SolverConfig(method="odlt_lost"))
    (((ps, us),), ((lost_ps, lost_us),)) = checked, seen
    # Views of the checked arrays, not mask copies.
    assert np.shares_memory(lost_ps, ps) and lost_ps.shape == ps.shape
    assert np.shares_memory(lost_us, us) and lost_us.shape == us.shape


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
CALL_BUDGET = {"dlt": 70, "ndlt": 90, "odlt": 138, "odlt_lost": 167, "ndlt_gn": 136}


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
