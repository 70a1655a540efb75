"""Command line interface.

Subcommands:
  synthetic    run the synthetic Monte Carlo benchmark over a grid of point
               counts and noise levels, writing one CSV row per cell/method
  eval-colmap  evaluate solvers against the poses stored in COLMAP text
               models, optionally with extra pixel noise
  solve        solve a single problem from a small text file and print the
               pose

Every CSV starts with a comment manifest (the command line, as odlt and the
arguments main() parsed, config as JSON, seed, package version, start time)
so a results file is reproducible from its own header. Floats are written
with repr() so rows are exact.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import shlex
import sys

import numpy as np

from . import __version__
from .colmap import _data_lines, _numbered_lines, _numbers, build_problems, parse_model
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

CSV_COLUMNS = tuple(
    "scenario n sigma method rot_rmse_deg pos_rmse mean_reproj_px mean_runtime_ms failures trials".split()
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
        "# command: " + shlex.join(["odlt", *args.argv]),
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


def _count(text: str, least: int = 1) -> int:
    """An integer >= least, 1 or 0; argparse names the option."""
    if not text.strip().isdecimal() or int(text) < least:
        kind = "a positive" if least else "a non-negative"
        raise argparse.ArgumentTypeError(f"expected {kind} integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    return _count(text, 0)


def _split(text: str, item) -> list:
    """The comma separated items of text, empty ones skipped, each parsed by
    item; at least one. The one place the list options are split."""
    items = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected a non-empty comma separated list, got {text!r}")
    return items


def _count_list(text: str) -> list:
    return _split(text, _count)


def _noise_level(text: str, rule: str = ">= 0") -> float:
    """A finite pixel noise, >= 0 or > 0 as rule says; argparse names the option."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (0 < x < math.inf or x == 0 and rule == ">= 0"):
        raise argparse.ArgumentTypeError(f"must be finite and {rule}, got {text!r}")
    return x


def _stated_noise(text: str) -> float:
    return _noise_level(text, "> 0")


def _sigma_list(text: str) -> list:
    return _split(text, _noise_level)


def _method(text: str) -> str:
    if text not in METHODS:
        raise argparse.ArgumentTypeError(
            f"unknown method {text!r} (choose from {', '.join(METHODS)})"
        )
    return text


def _method_list(text: str) -> list:
    return _split(text, _method)


def _cmd_synthetic(args: argparse.Namespace) -> int:
    config = dict(
        scenario=args.scenario, n_list=args.n_list, sigma_list=args.sigma_list, trials=args.trials,
        seed=args.seed, methods=args.methods, timing=not args.no_timing,
        timing_reps=args.timing_reps, workers=args.workers,
    )
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
                timing_reps=0 if args.no_timing else args.timing_reps,
                workers=args.workers,
            )
            for method, agg in zip(args.methods, summary):
                runtime = "" if args.no_timing else _aggregate_cell(agg["mean_runtime_ms"])
                errors = (_aggregate_cell(agg[k]) for k in ("rot_rmse_deg", "pos_rmse", "mean_reproj_px"))
                rows.append((args.scenario, str(n), _fmt(sigma), method, *errors, runtime,
                             str(agg["failures"]), str(agg["trials"])))
    _write_csv(args.out, _manifest_lines(args, config), CSV_COLUMNS, rows)
    return 0


def _cmd_eval_colmap(args: argparse.Namespace) -> int:
    config = dict(model_dirs=args.model_dir, methods=args.methods, min_points=args.min_points,
                  noise_px=args.noise_px, seed=args.seed)
    header = tuple("model method images skipped rot_rmse_deg pos_rmse mean_reproj_px failures".split())
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
            cfg = SolverConfig(method=method, sigma_u=max(args.noise_px, 1.0))
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
            errors = (_aggregate_cell(agg[k]) for k in ("rot_rmse_deg", "pos_rmse", "mean_reproj_px"))
            rows.append((str(model_dir), method, str(agg["trials"]), str(skipped), *errors,
                         str(agg["failures"])))
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
        lines = list(_data_lines(_numbered_lines(path, stream)))
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
    cfg = SolverConfig(method=args.method, sigma_u=args.sigma_u)
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
        "--n-list", type=_count_list, default=[50],
        help="comma separated point counts (default: 50)",
    )
    p_syn.add_argument(
        "--sigma-list", type=_sigma_list, default=[1.0],
        help="comma separated pixel noise levels (default: 1.0)",
    )
    p_syn.add_argument("--trials", type=_count, default=500, help="trials per cell (default: 500)")
    p_syn.add_argument("--seed", type=_seed, default=0, help="base seed, >= 0 (default: 0)")
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
        "--timing-reps", type=_count, default=1,
        help="repetitions per trial for timing, median kept (default: 1)",
    )
    p_syn.add_argument(
        "--workers", type=_count, default=1,
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
        "--min-points", type=_count, default=6,
        help="skip images with fewer usable observations (default: 6)",
    )
    p_col.add_argument(
        "--noise-px", type=_noise_level, default=0.0,
        help="extra Gaussian pixel noise added to observations (default: 0)",
    )
    p_col.add_argument(
        "--seed", type=_seed, default=0,
        help="seed of the added pixel noise, >= 0; the solvers draw no random numbers (default: 0)",
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
        "--sigma-u", type=_stated_noise, default=1.0,
        help="stated pixel noise; the pose does not depend on it (default: 1.0)",
    )
    p_solve.add_argument(
        "--format", choices=("text", "json-lines"), default="text",
        help="output format (default: text)",
    )
    p_solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest's command line
    try:
        return args.func(args)
    except (PnpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
