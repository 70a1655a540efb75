"""Command line interface.

Subcommands:
  synthetic    run the synthetic Monte Carlo benchmark over a grid of point
               counts and noise levels, writing one CSV row per cell/method
  eval-colmap  evaluate solvers against the poses stored in COLMAP text
               models, optionally with extra pixel noise
  solve        solve a single problem from a small text file and print the
               pose

Every CSV starts with a comment manifest (command line, config as JSON,
seed, package version, start time) so a results file is reproducible from
its own header. Floats are written with repr() so rows are exact.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import __version__
from .colmap import _data_lines, _numbers, build_problems, parse_model
from .errors import MalformedLine, PnpError
from .evaluation import (
    CENTERED_BOX,
    UNCENTERED_BOX,
    SyntheticScenario,
    run_monte_carlo,
    score,
    summarize,
)
from .geometry import CameraIntrinsics
from .solvers import METHODS, SolverConfig, solve

CSV_COLUMNS = (
    "scenario",
    "n",
    "sigma",
    "method",
    "rot_rmse_deg",
    "pos_rmse",
    "mean_reproj_px",
    "mean_runtime_ms",
    "failures",
    "trials",
)

_SCENARIO_BOXES = {"centered": CENTERED_BOX, "uncentered": UNCENTERED_BOX}


def _fmt(x) -> str:
    return repr(float(x))


def _aggregate_cell(x) -> str:
    """An aggregate cell; empty when summarize() had no success to average."""
    return "" if math.isnan(x) else _fmt(x)


def _manifest_lines(args: argparse.Namespace, config: dict) -> list:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [
        "# command: " + " ".join(sys.argv if sys.argv else ["odlt"]),
        "# config: " + json.dumps(config, sort_keys=True),
        f"# seed: {getattr(args, 'seed', 0)}",
        f"# version: {__version__}",
        f"# started: {started}",
    ]


def _write_csv(path, manifest, header, rows) -> None:
    out = sys.stdout if path == "-" else open(path, "w")
    try:
        for line in manifest:
            out.write(line + "\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok]


def _method_list(text: str) -> list:
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r} (choose from {', '.join(METHODS)})"
            )
    return methods


def _cmd_synthetic(args: argparse.Namespace) -> int:
    config = {
        "scenario": args.scenario,
        "n_list": args.n_list,
        "sigma_list": args.sigma_list,
        "trials": args.trials,
        "seed": args.seed,
        "methods": args.methods,
        "timing": not args.no_timing,
        "timing_reps": args.timing_reps,
        "workers": args.workers,
    }
    rows = []
    for n in args.n_list:
        for sigma in args.sigma_list:
            scenario = SyntheticScenario(
                box=_SCENARIO_BOXES[args.scenario],
                n=n,
                sigma_u=sigma,
                trials=args.trials,
                seed=args.seed,
            )
            summary = run_monte_carlo(
                scenario,
                args.methods,
                timing_reps=0 if args.no_timing else max(1, args.timing_reps),
                workers=args.workers,
            )
            for method, agg in zip(args.methods, summary):
                runtime = "" if args.no_timing else _fmt(agg["mean_runtime_ms"])
                rows.append(
                    (
                        args.scenario,
                        str(n),
                        _fmt(sigma),
                        method,
                        _fmt(agg["rot_rmse_deg"]),
                        _fmt(agg["pos_rmse"]),
                        _fmt(agg["mean_reproj_px"]),
                        runtime,
                        str(agg["failures"]),
                        str(agg["trials"]),
                    )
                )
    _write_csv(args.out, _manifest_lines(args, config), CSV_COLUMNS, rows)
    return 0


def _cmd_eval_colmap(args: argparse.Namespace) -> int:
    config = {
        "model_dirs": args.model_dir,
        "methods": args.methods,
        "min_points": args.min_points,
        "noise_px": args.noise_px,
        "seed": args.seed,
    }
    header = (
        "model",
        "method",
        "images",
        "skipped",
        "rot_rmse_deg",
        "pos_rmse",
        "mean_reproj_px",
        "failures",
    )
    detail_rows = []
    rows = []
    for model_dir in args.model_dir:
        model = parse_model(model_dir)
        problems, skipped = build_problems(model, min_points=args.min_points)
        rng = np.random.default_rng(args.seed)
        noisy = []
        for prob in problems:
            us = prob.us
            if args.noise_px > 0.0:
                us = us + args.noise_px * rng.standard_normal(us.shape)
            noisy.append((prob.ps, us))
        for method in args.methods:
            cfg = SolverConfig(method=method, sigma_u=max(args.noise_px, 1.0), seed=args.seed)
            metrics = [
                score(cfg, arrays, prob.intrinsics, prob.truth)
                for prob, arrays in zip(problems, noisy)
            ]
            if args.per_image:
                for prob, m in zip(problems, metrics):
                    if m is None:
                        cells = ("", "", "", "failed")
                    else:
                        cells = (_fmt(m.rot_err_deg), _fmt(m.pos_err), _fmt(m.mean_reproj_err), "ok")
                    detail_rows.append((str(model_dir), method, prob.name, *cells))
            agg = summarize(method, metrics)
            rows.append(
                (
                    str(model_dir),
                    method,
                    str(agg["trials"]),
                    str(skipped),
                    _aggregate_cell(agg["rot_rmse_deg"]),
                    _aggregate_cell(agg["pos_rmse"]),
                    _aggregate_cell(agg["mean_reproj_px"]),
                    str(agg["failures"]),
                )
            )
    _write_csv(args.out, _manifest_lines(args, config), header, rows)
    if args.per_image:
        detail_header = ("model", "method", "image", "rot_err_deg", "pos_err", "mean_reproj_px", "status")
        _write_csv(args.per_image, _manifest_lines(args, config), detail_header, detail_rows)
    return 0


def _read_problem(path):
    """Read a single-problem text file into (intrinsics, (ps, us)).

    Line 1: fx fy cx cy [skew]; following lines: px py X Y Z. Blank lines
    and '#' comments are ignored but counted, so a MalformedLine names the
    file's own line number. ps (n, 3) and us (n, 2) are C-contiguous.
    """
    stream = sys.stdin if path == "-" else open(path, "r")
    try:
        lines = list(_data_lines(enumerate(stream, start=1)))
    finally:
        if stream is not sys.stdin:
            stream.close()
    if not lines:
        raise MalformedLine(path, 1, "empty problem file, no intrinsics line")
    line_number, line = lines[0]
    fields = line.split()
    if len(fields) not in (4, 5):
        raise MalformedLine(
            path, line_number, f"intrinsics line needs 4 or 5 numbers, got {len(fields)}"
        )
    head = _numbers(path, line_number, fields, "intrinsics line").tolist()
    skew = head[4] if len(head) == 5 else 0.0
    try:
        intr = CameraIntrinsics(fx=head[0], fy=head[1], cx=head[2], cy=head[3], skew=skew)
    except ValueError as exc:
        raise MalformedLine(path, line_number, str(exc)) from None
    rows = []
    for line_number, line in lines[1:]:
        fields = line.split()
        if len(fields) != 5:
            raise MalformedLine(
                path, line_number, f"correspondence line needs 5 numbers, got {len(fields)}"
            )
        rows.append(_numbers(path, line_number, fields, "correspondence line"))
    data = np.array(rows).reshape(-1, 5)
    return intr, (np.ascontiguousarray(data[:, 2:]), np.ascontiguousarray(data[:, :2]))


def _cmd_solve(args: argparse.Namespace) -> int:
    intr, arrays = _read_problem(args.input)
    cfg = SolverConfig(method=args.method, sigma_u=args.sigma_u, seed=args.seed)
    result = solve(arrays, intr, cfg)
    pose = result.pose
    if args.format == "json-lines":
        payload = {
            "method": args.method,
            "R": [[float(v) for v in row] for row in pose.R],
            "r": [float(v) for v in pose.r],
            "reprojection_rms": float(result.reprojection_rms),
            "flags": sorted(result.flags),
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"method: {args.method}")
    print("rotation (world to camera):")
    for row in pose.R:
        print("  " + " ".join(_fmt(v) for v in row))
    print("camera center (world): " + " ".join(_fmt(v) for v in pose.r))
    print(f"reprojection rms (px): {_fmt(result.reprojection_rms)}")
    if result.flags:
        print("flags: " + ", ".join(sorted(result.flags)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odlt", description="Camera pose estimation from 2D-3D correspondences."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthetic", help="run the synthetic benchmark grid")
    p_syn.add_argument(
        "--scenario", choices=sorted(_SCENARIO_BOXES), default="centered",
        help="point cloud placement (default: centered)",
    )
    p_syn.add_argument(
        "--n-list", type=_int_list, default=[50],
        help="comma separated point counts (default: 50)",
    )
    p_syn.add_argument(
        "--sigma-list", type=_float_list, default=[1.0],
        help="comma separated pixel noise levels (default: 1.0)",
    )
    p_syn.add_argument("--trials", type=int, default=500, help="trials per cell (default: 500)")
    p_syn.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    p_syn.add_argument(
        "--methods", type=_method_list, default=list(METHODS),
        help="comma separated methods (default: all)",
    )
    p_syn.add_argument("--out", default="-", help="output CSV path, - for stdout (default: -)")
    p_syn.add_argument(
        "--no-timing", action="store_true",
        help="skip runtime measurement so rows are byte-identical across hosts",
    )
    p_syn.add_argument(
        "--timing-reps", type=int, default=1,
        help="repetitions per trial for timing, median kept (default: 1)",
    )
    p_syn.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; timing runs force 1 (default: 1)",
    )
    p_syn.set_defaults(func=_cmd_synthetic)

    p_col = sub.add_parser("eval-colmap", help="evaluate against COLMAP text models")
    p_col.add_argument(
        "--model-dir", action="append", required=True,
        help="model directory with cameras.txt/images.txt/points3D.txt (repeatable)",
    )
    p_col.add_argument(
        "--methods", type=_method_list, default=list(METHODS),
        help="comma separated methods (default: all)",
    )
    p_col.add_argument(
        "--min-points", type=int, default=6,
        help="skip images with fewer usable observations (default: 6)",
    )
    p_col.add_argument(
        "--noise-px", type=float, default=0.0,
        help="extra Gaussian pixel noise added to observations (default: 0)",
    )
    p_col.add_argument(
        "--seed", type=int, default=0,
        help="seed of the pixel noise, and of the preliminary subset of every image "
        "with 768 or more observations (default: 0)",
    )
    p_col.add_argument("--out", default="-", help="output CSV path, - for stdout (default: -)")
    p_col.add_argument("--per-image", default=None, help="also write per-image rows to this CSV")
    p_col.set_defaults(func=_cmd_eval_colmap)

    p_solve = sub.add_parser("solve", help="solve one problem from a text file")
    p_solve.add_argument(
        "--input", required=True,
        help="problem file: 'fx fy cx cy [skew]' then 'px py X Y Z' lines, - for stdin",
    )
    p_solve.add_argument(
        "--method", choices=METHODS, default="odlt", help="solver (default: odlt)"
    )
    p_solve.add_argument(
        "--sigma-u", type=float, default=1.0, help="pixel noise scale (default: 1.0)"
    )
    p_solve.add_argument("--seed", type=int, default=0, help="subset seed for n >= 768 (default: 0)")
    p_solve.add_argument(
        "--format", choices=("text", "json-lines"), default="text",
        help="output format (default: text)",
    )
    p_solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PnpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
