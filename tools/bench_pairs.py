"""Compare the benchmark of two checkouts of odlt in alternating pairs of runs.

Usage:

    python tools/bench_pairs.py PARENT CHANGE --workloads paper_n50 large_n \\
        --pairs 10 --seconds 30 --claim TEXT --out BENCH_x.json [--traced paper_n50]

PARENT and CHANGE are checkouts (directories holding perfbench/ and src/).
For each workload and each seed 1..N, the tool runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

once in each checkout, one run at a time: the parent first on odd seeds, the
change first on even seeds. A run that exits non-zero stops the tool with its
error output, since its metrics were not checked.

The JSON written to --out holds, per workload and end-to-end metric of the
change's BENCHMARK.json: the median, q1 and q3 of each side's runs (linear
interpolation), the pairs the change won and lost (ties count for neither),
median_change_rel (change median over parent median, less 1), parent_iqr
(q3 - q1), parent_spread_rel ((max - min) / median of the parent's runs), the
metric's bound, worse_than_bound (the change's median worse than the parent's
by more than the bound, relative to the parent's median) and unresolved (the
rule is written into the file). It also holds each pair's results, the failed
operations per pair and one verdict line per workload, which names the
metrics worse than their bound, the unresolved ones and those that gained by
the claim rule: the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's IQR.

With --traced W, after the pairs the tool runs two traced pairs of the same
command with --trace 1 on workload W: seed 1 parent first, then seed 2 change
first, so that host drift between the runs of a pair shows as opposite moves
in the two pairs rather than as a saving. Under "traced" it writes each
pair's per-layer metrics for both sides with each metric's relative change
(change over parent, less 1; null where the parent reads 0), and each
metric's median relative change over the two pairs (null if either is).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMAND = (
    "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} "
    "--trace {trace}"
)
UNRESOLVED_RULE = (
    "a metric is unresolved on a workload when the parent's own runs spread (max - min over "
    "median) wider than its bound, unless every change run is better than every parent run"
)
GAIN_SHARE = 0.9
TRACED_SEEDS = (1, 2)  # the parent runs first on odd seeds, as in the pairs


def run(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> tuple[dict, dict]:
    """(result, host block) of one benchmark run in checkout, with each metric's
    value in place of its {"value", "unit"} object."""
    args = COMMAND.format(workload=workload, seed=seed, seconds=seconds, trace=trace).split()
    proc = subprocess.run([sys.executable, *args[1:]], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    host = next(json.loads(line[len("# host "):]) for line in lines if line.startswith("# host "))
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result, host


def git_commit(checkout: Path) -> str:
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True
        ).stdout.strip()

    commit = git("rev-parse", "HEAD") or "unknown"
    return commit + (" with uncommitted changes" if git("status", "--porcelain") else "")


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def worse_sign(metric: dict) -> float:
    """+1 for a lower-is-better metric, -1 otherwise: sign * (x - y) > 0 when x is worse."""
    return 1.0 if metric["better"] == "lower" else -1.0


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's summary over the pairs (parent[i], change[i])."""
    sign = worse_sign(metric)
    p, c = quartiles(parent), quartiles(change)
    rel = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
    spread = (max(parent) - min(parent)) / p["median"] if p["median"] else 0.0
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(sign * (x - y) > 0 for x, y in zip(parent, change)),
        "change_losses": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
        "median_change_rel": rel,
        "parent_iqr": p["q3"] - p["q1"],
        "parent_spread_rel": spread,
        "bound": metric["bound"],
        "worse_than_bound": sign * rel > metric["bound"],
        "unresolved": spread > metric["bound"]
        and not all(sign * (x - y) > 0 for x in parent for y in change),
    }


def pair_order(seed: int) -> tuple[str, str]:
    return ("parent", "change") if seed % 2 else ("change", "parent")


def relative_changes(parent: dict, change: dict) -> dict:
    """Each parent metric's change over parent, less 1; None where the parent
    reads 0 or the change lacks it."""
    return {
        name: change[name] / parent[name] - 1.0
        if parent[name] and change.get(name) is not None else None
        for name in parent
    }


def gained(metric: dict, s: dict, pairs: int) -> bool:
    """The claim rule: the change won at least GAIN_SHARE of the pairs and its
    median is better than the parent's by more than the parent's IQR."""
    better = worse_sign(metric) * (s["parent"]["median"] - s["change"]["median"])
    return s["change_wins"] >= GAIN_SHARE * pairs and better > s["parent_iqr"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", metavar="WORKLOAD",
                        help="after the pairs, one --trace 1 run per side on this workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    report = {
        "claim": args.claim,
        "command": COMMAND.replace("{seconds}", f"{args.seconds:g}").replace("{trace}", "0"),
        "protocol": (
            f"{args.pairs} alternating pairs per workload (seeds 1-{args.pairs}), parent first "
            "on odd seeds and change first on even seeds; one run at a time, each from its own "
            "checkout"
        ),
        "parent_commit": git_commit(args.parent),
        "change": git_commit(args.change),
        "unresolved_rule": UNRESOLVED_RULE,
        "host": None,
        "workloads": {},
        "verdict": [],
    }
    for workload in args.workloads:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = pair_order(seed)
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], host = run(getattr(args, side), workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['metrics'])}",
                      file=sys.stderr)
            report["host"] = report["host"] or {k: v for k, v in host.items() if k != "git_commit"}
            pairs.append(pair)
        summary = {
            m["name"]: summarize(
                m,
                [p["parent"]["metrics"][m["name"]] for p in pairs],
                [p["change"]["metrics"][m["name"]] for p in pairs],
            )
            for m in metrics
        }
        report["workloads"][workload] = {
            "summary": summary,
            "failed_parent_change": [[p["parent"]["failed"], p["change"]["failed"]] for p in pairs],
            "pairs": pairs,
        }

        def names(test):
            return ", ".join(m["name"] for m in metrics if test(m, summary[m["name"]])) or "none"

        report["verdict"].append(
            f"{workload}: worse than bound: {names(lambda m, s: s['worse_than_bound'])}; "
            f"unresolved: {names(lambda m, s: s['unresolved'])}; "
            f"gain by the claim rule: {names(lambda m, s: gained(m, s, args.pairs))}"
        )
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # each workload as it ends
    if args.traced:
        traced = {"workload": args.traced, "command": COMMAND.format(
            workload=args.traced, seed="{seed}", seconds=f"{args.seconds:g}", trace=1), "pairs": []}
        for seed in TRACED_SEEDS:
            order = pair_order(seed)
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(getattr(args, side), args.traced, seed, args.seconds, trace=1)[0]
            pair["change_rel"] = relative_changes(pair["parent"]["metrics"], pair["change"]["metrics"])
            traced["pairs"].append(pair)
        rels = [pair["change_rel"] for pair in traced["pairs"]]
        traced["median_change_rel"] = {
            name: None if None in (r.get(name) for r in rels)
            else float(np.median([r[name] for r in rels]))
            for name in rels[0]
        }
        report["traced"] = traced
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(report["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
