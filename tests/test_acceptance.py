"""Release acceptance suite.

Each test pins one required behavior of the package, in order: exactness on
noise-free data, the accuracy ordering of the methods under noise, intrinsics
recovery quality, runtime ratios and scaling, algebraic reduction identities,
oracle equivalences for every derived quantity, translation re-triangulation
optimality, COLMAP fixture fidelity, and CLI determinism.

The Monte Carlo criteria run at seed 0 with 500 paired trials and are fully
deterministic; their orderings are properties of the estimators, not luck.
Set ODLT_ETH3D_DIR to a directory of COLMAP text scenes to enable the
real-data comparison; it is skipped otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from odlt.cli import main as cli_main
from odlt.colmap import build_problems, parse_model, write_model
from odlt.dlt import _assemble_arrays, solve_nullspace
from odlt.evaluation import (
    CENTERED_BOX,
    UNCENTERED_BOX,
    SyntheticScenario,
    generate_scene,
    run_monte_carlo,
)
from odlt.geometry import (
    Correspondence,
    Pose,
    compose_projection,
    correspondence_arrays,
    cross_matrix,
    nearest_rotation,
    rotation_angle_deg,
)
from odlt.normalization import fit_pixel_normalization, fit_point_normalization
from odlt.se3 import (
    declamp_denormalize,
    intrinsic_inverse,
    recover_scale_and_position,
    rotation_weights,
    weighted_procrustes,
)
from odlt.solvers import (
    METHODS,
    SolverConfig,
    _linear_solve,
    solve,
)
from odlt.weighting import depths_under
from conftest import (
    WeightContext,
    gn_rows_at,
    intrinsics_rmse_experiment,
    make_exact_scene,
    moment_rows,
    oracle_project,
    residual_covariance,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Published reference values for the intrinsics-recovery experiment
# (centered box, n=50, sigma=1). Reproductions must land within +-30%.
REFERENCE_INTRINSICS_RMSE = {
    "ndlt": {"fx": 4.088, "fy": 4.225, "cx": 4.014, "cy": 3.695},
    "odlt": {"fx": 3.917, "fy": 4.060, "cx": 3.823, "cy": 3.516},
}


def method_row(summary, name):
    return next(row for row in summary if row["method"] == name)


@pytest.fixture(scope="module")
def centered_summary():
    sc = SyntheticScenario(box=CENTERED_BOX, n=50, sigma_u=1.0, trials=500, seed=0)
    return run_monte_carlo(sc, list(METHODS), timing_reps=0)


@pytest.fixture(scope="module")
def uncentered_summary():
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=50, sigma_u=1.0, trials=500, seed=0)
    return run_monte_carlo(sc, ["ndlt", "odlt"], timing_reps=0)


def test_criterion_01_zero_noise_exactness():
    start = time.perf_counter()
    for box in (CENTERED_BOX, UNCENTERED_BOX):
        for n in (6, 20, 100):
            sc = SyntheticScenario(box=box, n=n, sigma_u=0.0, trials=100, seed=0)
            for trial in range(sc.trials):
                cs, truth = generate_scene(sc, trial)
                arrays = correspondence_arrays(cs)
                for method in METHODS:
                    result = solve(arrays, sc.intrinsics, SolverConfig(method=method))
                    rot = rotation_angle_deg(result.pose.R, truth.R)
                    pos = np.linalg.norm(result.pose.r - truth.r)
                    assert rot < 1e-6, (box, n, trial, method, rot)
                    assert pos < 1e-8, (box, n, trial, method, pos)
    assert time.perf_counter() - start < 60.0


def test_criterion_02_centered_accuracy_ordering(centered_summary):
    rot = {row["method"]: row["rot_rmse_deg"] for row in centered_summary}
    assert rot["dlt"] > rot["ndlt"] > rot["odlt"]
    assert rot["odlt"] <= 1.10 * rot["ndlt_gn"]
    reproj_lost = method_row(centered_summary, "odlt_lost")["mean_reproj_px"]
    reproj_gn = method_row(centered_summary, "ndlt_gn")["mean_reproj_px"]
    assert reproj_lost <= 1.03 * reproj_gn
    assert all(row["failures"] == 0 for row in centered_summary)


def test_criterion_03_uncentered_weighting_gain(uncentered_summary):
    rot_ndlt = method_row(uncentered_summary, "ndlt")["rot_rmse_deg"]
    rot_odlt = method_row(uncentered_summary, "odlt")["rot_rmse_deg"]
    assert rot_odlt <= 0.85 * rot_ndlt


@pytest.fixture(scope="module")
def intrinsics_table():
    sc = SyntheticScenario(box=CENTERED_BOX, n=50, sigma_u=1.0, trials=500, seed=0)
    return intrinsics_rmse_experiment(sc)


def test_criterion_04_intrinsics_recovery(intrinsics_table):
    for key in ("fx", "fy", "cx", "cy"):
        assert intrinsics_table["odlt"][key] < intrinsics_table["ndlt"][key], key
    for method, reference in REFERENCE_INTRINSICS_RMSE.items():
        for key, ref in reference.items():
            got = intrinsics_table[method][key]
            assert 0.7 * ref <= got <= 1.3 * ref, (method, key, got, ref)


@pytest.fixture(scope="module")
def runtime_table():
    # Mean over 25 scenes of each method's median solve time (ms). Per scene,
    # every repeat times ndlt, odlt and odlt_lost back to back, so that load
    # from outside the process lands on all three alike, and the median over
    # repeats drops a repeat that it hit.
    methods = ("ndlt", "odlt", "odlt_lost")
    configs = [SolverConfig(method=method) for method in methods]
    table = {}
    for n in (100, 1000, 5000):
        sc = SyntheticScenario(box=CENTERED_BOX, n=n, sigma_u=1.0, trials=25, seed=0)
        times = np.empty((sc.trials, 5, len(methods)))
        for trial in range(sc.trials):
            arrays, _ = generate_scene(sc, trial)
            for rep in range(times.shape[1]):
                for j, cfg in enumerate(configs):
                    t0 = time.perf_counter()
                    solve(arrays, sc.intrinsics, cfg)
                    times[trial, rep, j] = time.perf_counter() - t0
        ms = 1e3 * np.median(times, axis=1).mean(axis=0)
        table[n] = dict(zip(methods, ms.tolist()))
    return table


def test_criterion_05a_runtime_ratios(runtime_table):
    at_1000 = runtime_table[1000]
    assert at_1000["odlt"] <= 2.0 * at_1000["ndlt"], at_1000
    assert at_1000["odlt_lost"] <= 2.5 * at_1000["ndlt"], at_1000


def test_criterion_05b_runtime_loglog_slope(runtime_table):
    # Runtime must grow no faster than linearly in n: a slope above 1.2
    # means a super-linear step that dominates the solve at n=5000 (an
    # explicit 2n x 2n row-weight matrix, say) has entered the solve path.
    # No lower bound is asserted, because a linear-time solve t(n) = a + b*n
    # with a fixed cost per call fits any slope in (0, 1] over these sizes:
    # the slope reaches 0.8 only when a <= 1.18*100*b.
    # With b ~ 0.3-0.5 us/point that allows a <= 40-60 us, about what the bare
    # LAPACK calls alone cost (12x12 eigh ~30 us, 3x3 SVD ~15 us), while the
    # measured fixed cost, the solve at n=6, is ~0.4-1.2 ms.
    ns = np.array(sorted(runtime_table))
    slopes = {}
    for method in ("ndlt", "odlt", "odlt_lost"):
        ms = np.array([runtime_table[n][method] for n in ns])
        slopes[method] = float(np.polyfit(np.log(ns), np.log(ms), 1)[0])
    for method, slope in slopes.items():
        assert slope <= 1.2, f"log-log slopes {slopes}"


def test_criterion_06_unit_weight_reduction(rng):
    # odlt with every weight one is ndlt, stage by stage: unit row weights
    # assemble the unweighted rows bit for bit, and the weighted Procrustes
    # step with W = ones on ndlt's declamped solution gives ndlt's pose.
    for _ in range(100):
        Km, R, r, ps, us = make_exact_scene(rng, n=15)
        us = us + rng.standard_normal(us.shape)
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        np.testing.assert_array_equal(
            _assemble_arrays(moment_rows(psn, usn, np.ones(15))),
            _assemble_arrays(moment_rows(psn, usn)),
        )
        out = _linear_solve(ps, us, normalize=True, weighted=False)
        R_acute, r_acute, det = declamp_denormalize(out.sol, Km, out.pix, out.pt)
        R_unit, fallback = weighted_procrustes(R_acute, np.ones((3, 3)), det)
        assert not fallback
        unit = recover_scale_and_position(r_acute, R_unit, det)
        plain = solve((ps, us), Km, SolverConfig(method="ndlt"))
        np.testing.assert_allclose(unit.R, plain.pose.R, atol=1e-12)
        np.testing.assert_allclose(unit.r, plain.pose.r, atol=1e-12)


def test_criterion_07_weight_scale_invariance(rng):
    for _ in range(20):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        for method in METHODS:
            a = solve((ps, us), Km, SolverConfig(method=method, sigma_u=1.0))
            b = solve((ps, us), Km, SolverConfig(method=method, sigma_u=10.0))
            rel_R = np.linalg.norm(a.pose.R - b.pose.R) / np.linalg.norm(a.pose.R)
            rel_r = np.linalg.norm(a.pose.r - b.pose.r) / np.linalg.norm(a.pose.r)
            assert rel_R <= 1e-10, method
            assert rel_r <= 1e-10, method


def test_criterion_08a_nullspace_vs_dense_eigensolver(rng):
    # Compared on similarity-normalized data, the scale at which the solver
    # actually runs; raw pixel-scale columns would square an avoidable
    # condition number into the Gram matrix and test nothing real.
    for _ in range(50):
        _, _, _, ps, us = make_exact_scene(rng, n=12)
        us = us + 0.5 * rng.standard_normal(us.shape)
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        A = _assemble_arrays(moment_rows(psn, usn))
        sol = solve_nullspace(A, points=psn)
        evals, evecs = np.linalg.eigh(A.T @ A)
        x = evecs[:, 0]
        x = x / np.linalg.norm(x)
        got = sol.P.T.reshape(12)
        if np.dot(got, x) < 0:
            x = -x
        assert np.linalg.norm(got - x) < 1e-9


def _quat_grid_rotations(rng, count):
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    R = np.empty((count, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _procrustes_cost(R, Rs, W):
    return float(np.sum((W * (R - Rs)) ** 2))


def _grid_refine_oracle(Rs, W, rng):
    """Best weighted cost over a random rotation grid plus local refinement."""
    grid = _quat_grid_rotations(rng, 20000)
    costs = np.einsum("kij,kij->k", (W * (grid - Rs)), (W * (grid - Rs)))
    best = grid[int(np.argmin(costs))]
    best_cost = float(costs.min())
    radius = 0.3
    while radius > 1e-7:
        dphi = radius * rng.standard_normal((400, 3))
        half = np.linalg.norm(dphi, axis=1) / 2.0
        qw = np.cos(half)
        qv = dphi * (0.5 * np.sinc(half / np.pi))[:, None]
        q = np.column_stack([qw, qv])
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        dR = np.empty((400, 3, 3))
        dR[:, 0, 0] = 1 - 2 * (y * y + z * z)
        dR[:, 0, 1] = 2 * (x * y - w * z)
        dR[:, 0, 2] = 2 * (x * z + w * y)
        dR[:, 1, 0] = 2 * (x * y + w * z)
        dR[:, 1, 1] = 1 - 2 * (x * x + z * z)
        dR[:, 1, 2] = 2 * (y * z - w * x)
        dR[:, 2, 0] = 2 * (x * z - w * y)
        dR[:, 2, 1] = 2 * (y * z + w * x)
        dR[:, 2, 2] = 1 - 2 * (x * x + y * y)
        cands = dR @ best
        costs = np.einsum("kij,kij->k", (W * (cands - Rs)), (W * (cands - Rs)))
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best = cands[k]
        else:
            radius *= 0.5
    return best_cost


def test_criterion_08b_procrustes_vs_grid_refine_oracle(rng):
    # Instances are real (R_acute, W) pairs from noisy solves, the problem
    # class the projection is built for. The implementation minimizes
    # ||W o (R - s R_acute)||^2 with s = det(R_acute)^(-1/3), so the oracle
    # searches the same objective.
    for _ in range(50):
        Km, _, _, ps, us = make_exact_scene(rng, n=20)
        us = us + rng.standard_normal(us.shape)
        out = _linear_solve(ps, us, normalize=True, weighted=True)
        R_acute, _, det = declamp_denormalize(out.sol, Km, out.pix, out.pt)
        W_raw = rotation_weights(out.sol, Km, out.pix, out.pt)
        s = np.linalg.det(R_acute) ** (-1.0 / 3.0)
        Rs = s * R_acute
        W = W_raw / W_raw.max()
        R_impl, fallback = weighted_procrustes(R_acute, W_raw, det)
        assert not fallback
        cost_impl = _procrustes_cost(R_impl, Rs, W)
        cost_oracle = _grid_refine_oracle(Rs, W, rng)
        assert cost_impl <= cost_oracle * (1 + 1e-6) + 1e-12


def test_criterion_08c_gn_jacobian_vs_central_differences(rng):
    for _ in range(10):
        Km, R, r, ps, us = make_exact_scene(rng, n=10)
        us = us + rng.standard_normal(us.shape)
        e, G, _, _ = gn_rows_at(ps, us, Km, R, r)  # J read from the production feature rows
        J = G.T

        def residuals(step):
            c = np.linalg.norm(step[:3])
            if c < 1e-14:
                Rp = R
            else:
                axis = step[:3] / c
                Kx = cross_matrix(axis)
                Rp = (np.eye(3) + np.sin(c) * Kx + (1 - np.cos(c)) * (Kx @ Kx)) @ R
            pred = oracle_project(Km, Rp, r + step[3:], ps)
            return (us - pred).T.reshape(-1)  # all u rows, then all v rows

        h = 1e-6
        J_fd = np.empty_like(J)
        for k in range(6):
            step = np.zeros(6)
            step[k] = h
            J_fd[:, k] = (residuals(step) - residuals(-step)) / (2 * h)
        assert np.abs(J - J_fd).max() <= 1e-5 * np.abs(J_fd).max()


def test_criterion_08d_residual_covariance_vs_monte_carlo(rng):
    for _ in range(3):
        Km, R, r, ps, _ = make_exact_scene(rng, n=1)
        P0 = compose_projection(Km, Pose(R=R, r=r))
        p = ps[0]
        sigma = rng.uniform(0.5, 2.0)
        ctx = WeightContext(P0=P0, sigma_u=sigma)
        u = oracle_project(Km, R, r, ps)[0]
        predicted = residual_covariance(ctx, Correspondence(p=p, u=u))
        draws = 1_000_000
        utilde = np.column_stack(
            [
                u[0] + sigma * rng.standard_normal(draws),
                u[1] + sigma * rng.standard_normal(draws),
                np.ones(draws),
            ]
        )
        w = P0 @ np.append(p, 1.0)
        eps = np.cross(utilde, w)
        sample = np.cov(eps.T)
        assert np.abs(sample - predicted).max() <= 0.02 * np.abs(predicted).max()


def test_criterion_09_lost_translation_is_optimal(rng):
    hits = 0
    for trial in range(100):
        Km, R_true, r_true, ps, us = make_exact_scene(rng, n=50)
        us = us + rng.standard_normal(us.shape)
        cfg = SolverConfig(method="odlt")
        full = solve((ps, us), Km, cfg)
        lost = solve((ps, us), Km, SolverConfig(method="odlt_lost"))
        R = full.pose.R
        np.testing.assert_array_equal(R, lost.pose.R)

        P_final = compose_projection(Km, full.pose)
        depths = ps @ P_final[2, :3] + P_final[2, 3]
        front = depths > 0
        q = 1.0 / depths_under(P_final, ps[front])
        Kinv = intrinsic_inverse(Km)
        xb = np.concatenate(
            [us[front] @ Kinv[:2, :2].T + Kinv[:2, 2], np.ones((front.sum(), 1))],
            axis=1,
        )

        def objective(t):
            res = np.cross(xb, ps[front] @ R.T + t)[:, :2]
            return float(np.sum((q[:, None] * res) ** 2))

        cost_lost = objective(-R @ lost.pose.r)
        cost_full = objective(-R @ full.pose.r)
        assert cost_lost <= cost_full * (1 + 1e-9) + 1e-15
        if cost_lost < cost_full:
            hits += 1
    assert hits > 90  # strictly better almost always, not just tied


def test_criterion_10_colmap_fixture_fidelity(tmp_path):
    golden = parse_model(FIXTURES / "colmap_golden")
    assert golden.cameras[1].intrinsics.fx == 800.5
    assert golden.images[2].name == "frame 001.png"
    assert golden.points3d[7].error == 0.75
    write_model(golden, tmp_path / "copy")
    again = parse_model(tmp_path / "copy")
    np.testing.assert_array_equal(golden.images[1].xys, again.images[1].xys)
    np.testing.assert_array_equal(golden.images[2].qvec, again.images[2].qvec)

    problems, skipped = build_problems(parse_model(FIXTURES / "colmap_solvable"))
    assert skipped == 0 and len(problems) == 2
    for problem in problems:
        for method in ("ndlt", "odlt"):
            result = solve(
                problem.correspondences, problem.intrinsics, SolverConfig(method=method)
            )
            assert rotation_angle_deg(result.pose.R, problem.truth.R) < 1e-6


def test_criterion_10_eth3d_scenes():
    root = os.environ.get("ODLT_ETH3D_DIR")
    if not root:
        pytest.skip("ODLT_ETH3D_DIR not set; real-scene comparison needs local data")
    scene_dirs = sorted({p.parent for p in Path(root).glob("**/cameras.txt")})
    assert scene_dirs, f"no COLMAP text scenes under {root}"
    wins = 0
    for scene in scene_dirs:
        problems, _ = build_problems(parse_model(scene))
        rmse = {}
        for method in ("ndlt", "odlt"):
            errs = []
            for problem in problems:
                try:
                    result = solve(
                        problem.correspondences,
                        problem.intrinsics,
                        SolverConfig(method=method),
                    )
                except Exception:
                    continue
                errs.append(rotation_angle_deg(result.pose.R, problem.truth.R) ** 2)
            rmse[method] = float(np.sqrt(np.mean(errs))) if errs else float("inf")
        if rmse["odlt"] < rmse["ndlt"]:
            wins += 1
    assert wins * 2 > len(scene_dirs), f"odlt won {wins} of {len(scene_dirs)} scenes"


def test_criterion_11_cli_determinism(tmp_path):
    argv = [
        "synthetic",
        "--n-list", "20,40",
        "--sigma-list", "0.5,2.0",
        "--trials", "5",
        "--methods", "dlt,ndlt,odlt,odlt_lost,ndlt_gn",
        "--no-timing",
    ]
    assert cli_main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    rows_a = [l for l in (tmp_path / "a.csv").read_text().splitlines() if not l.startswith("#")]
    rows_b = [l for l in (tmp_path / "b.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows_a == rows_b

    timed = [
        "synthetic",
        "--n-list", "20",
        "--trials", "3",
        "--methods", "odlt",
    ]
    assert cli_main(timed + ["--out", str(tmp_path / "t1.csv")]) == 0
    assert cli_main(timed + ["--out", str(tmp_path / "t2.csv")]) == 0

    def strip_runtime(path):
        rows = []
        for line in Path(path).read_text().splitlines():
            if line.startswith("#"):
                continue
            cells = line.split(",")
            cells[7] = ""
            rows.append(cells)
        return rows

    assert strip_runtime(tmp_path / "t1.csv") == strip_runtime(tmp_path / "t2.csv")

    colmap = [
        "eval-colmap",
        "--model-dir", str(FIXTURES / "colmap_solvable"),
        "--methods", "ndlt,odlt",
        "--noise-px", "1.0",
    ]
    assert cli_main(colmap + ["--out", str(tmp_path / "c1.csv")]) == 0
    assert cli_main(colmap + ["--out", str(tmp_path / "c2.csv")]) == 0
    rows_c1 = [l for l in (tmp_path / "c1.csv").read_text().splitlines() if not l.startswith("#")]
    rows_c2 = [l for l in (tmp_path / "c2.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows_c1 == rows_c2
