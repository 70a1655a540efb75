"""Time two source trees of odlt side by side in one process, and compare their outputs.

Usage:

    python tools/ab.py PARENT_SRC CHANGE_SRC --name NAME [--n-list 6,12,50,100,1000,5000,20000]
        [--methods odlt,ndlt] [--scenes 10] [--rounds 25]

PARENT_SRC and CHANGE_SRC are directories that hold the odlt package, such as
the src/ of two checkouts. Both load into this process under distinct package
names (odlt_parent, odlt_change), so they see the same interpreter, numpy and
BLAS and the same scenes. Run as a script, the tool pins one BLAS thread
before numpy loads, as perfbench does.

For both boxes (centered, uncentered) and each n, the parent tree's
generate_scene draws --scenes seeded scenes (seed 7, 1 px noise), which both
trees solve as plain arrays with K as a 3x3 array (a CameraIntrinsics object
of one tree is not one of the other's). Each of --rounds rounds times, per method, the solves of every scene
by both trees back to back, the parent first on even rounds and the change
first on odd ones. Per method and cell it reports the median of the per-round
change/parent time ratios with their quartiles, the median per-solve times,
and per stage of PnpResult.timings the median of the per-round stage ratios.

The outputs of the first round are compared scene by scene: the bytes of the
pose's R and r, repr of reprojection_rms, the flags, and the class name of a
PnpError (the two trees' classes differ as objects). Where a pose moved it
prints the largest rotation change in degrees.

Writes BENCH_ab_NAME.json in the current directory: the command, perfbench's
host block, the git commit of each tree, the protocol and one entry per box,
n and method. It gates nothing; perfbench's pairs decide a speed claim.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import git_commit, quartiles  # noqa: E402
from run import host_block  # noqa: E402

SIDES = ("parent", "change")
NORTH_STAR_N = (6, 12, 50, 100, 1000, 5000, 20000)
BOXES = ("centered", "uncentered")
SIGMA = 1.0
SEED = 7


def load(src: Path, alias: str):
    """The odlt package under src, imported afresh as alias (its submodules as alias.<name>)."""
    for name in [n for n in sys.modules if n == alias or n.startswith(alias + ".")]:
        del sys.modules[name]
    pkg = Path(src) / "odlt"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def outcome(tree, method, ps, us, K):
    """(result or None, comparable output, seconds) of one solve."""
    t0 = time.perf_counter()
    try:
        res = tree.solve((ps, us), K, tree.SolverConfig(method=method))
    except tree.PnpError as exc:
        return None, ("error", type(exc).__name__), time.perf_counter() - t0
    dt = time.perf_counter() - t0
    pose = res.pose
    return res, (pose.R.tobytes(), pose.r.tobytes(), repr(res.reprojection_rms),
                 tuple(sorted(res.flags))), dt


def rotation_change_deg(Ra, Rb) -> float:
    """The angle of Ra^T Rb from ||Ra - Rb||_F = 2 sqrt(2) sin(angle / 2), which,
    unlike the arccos of the trace, resolves angles near 0."""
    return float(np.degrees(2.0 * np.arcsin(min(1.0, np.linalg.norm(Ra - Rb) / 8**0.5))))


def compare(first: dict) -> dict:
    """Per-scene output agreement of the two trees' first round."""
    same = sum(a[1] == b[1] for a, b in zip(first["parent"], first["change"]))
    rot = pos = 0.0
    for (ra, _), (rb, _) in zip(first["parent"], first["change"]):
        if ra is not None and rb is not None:
            rot = max(rot, rotation_change_deg(ra.pose.R, rb.pose.R))
            pos = max(pos, float(np.linalg.norm(ra.pose.r - rb.pose.r)))
    return {"identical": same, "scenes": len(first["parent"]), "max_rot_change_deg": rot,
            "max_pos_change": pos}


def run_cell(trees, scenes, K, method, rounds) -> dict:
    times = {side: [] for side in SIDES}  # per round: seconds over all scenes
    stages = {side: defaultdict(list) for side in SIDES}  # stage -> per-round seconds
    first = {}
    for rnd in range(rounds):
        for side in SIDES if rnd % 2 == 0 else SIDES[::-1]:
            total, stage = 0.0, defaultdict(float)
            outs = []
            for ps, us in scenes:
                res, out, dt = outcome(trees[side], method, ps, us, K)
                total += dt
                outs.append((res, out))
                for key, seconds in (res.timings.items() if res is not None else ()):
                    stage[key] += seconds
            times[side].append(total)
            for key, seconds in stage.items():
                stages[side][key].append(seconds)
            first.setdefault(side, outs)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    stage_ratios = {
        key: float(np.median(np.divide(stages["change"][key], stages["parent"][key])))
        for key in stages["parent"]
        if len(stages["change"].get(key, ())) == rounds == len(stages["parent"][key])
        and min(stages["parent"][key]) > 0.0
    }
    per_solve = len(scenes)
    return {
        "ratio": quartiles(ratios),
        "parent_ms": 1e3 * float(np.median(times["parent"])) / per_solve,
        "change_ms": 1e3 * float(np.median(times["change"])) / per_solve,
        "stage_ratios": stage_ratios,
        "outputs": compare(first),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--name", required=True, help="writes BENCH_ab_NAME.json")
    parser.add_argument("--n-list", default=",".join(map(str, NORTH_STAR_N)))
    parser.add_argument("--methods", default=None, help="comma separated (default: all)")
    parser.add_argument("--scenes", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.scenes < 1 or args.rounds < 1:
        parser.error("--scenes and --rounds must be at least 1")

    trees = {side: load(getattr(args, side), f"odlt_{side}") for side in SIDES}
    ev = importlib.import_module("odlt_parent.evaluation")
    boxes = {"centered": ev.CENTERED_BOX, "uncentered": ev.UNCENTERED_BOX}
    methods = args.methods.split(",") if args.methods else list(trees["parent"].METHODS)
    report = {
        "command": " ".join(["python3 tools/ab.py", *(argv if argv is not None else sys.argv[1:])]),
        "host": host_block(),
        "parent_commit": git_commit(args.parent),
        "change_commit": git_commit(args.change),
        "protocol": (
            f"{args.scenes} scenes (seed {SEED}, sigma {SIGMA:g} px) per box and n; "
            f"{args.rounds} rounds, each timing per method both trees' solves of every scene back "
            "to back, parent first on even rounds; ratios are change over parent"
        ),
        "cells": [],
    }
    for box in BOXES:
        for n in (int(x) for x in args.n_list.split(",")):
            sc = ev.SyntheticScenario(box=boxes[box], n=n, sigma_u=SIGMA, trials=args.scenes,
                                      seed=SEED)
            scenes = [ev.generate_scene(sc, trial)[0] for trial in range(args.scenes)]
            K = np.array(sc.intrinsics.matrix)
            for method in methods:
                cell = {"box": box, "n": n, "method": method,
                        **run_cell(trees, scenes, K, method, args.rounds)}
                report["cells"].append(cell)
                r, out = cell["ratio"], cell["outputs"]
                moved = ("identical" if out["identical"] == out["scenes"] else
                         f"{out['scenes'] - out['identical']} differ, max rot change "
                         f"{out['max_rot_change_deg']:.2g} deg")
                print(f"{box} n={n} {method}: change/parent {r['median']:.3f} "
                      f"[{r['q1']:.3f}, {r['q3']:.3f}]; {cell['parent_ms']:.3f} -> "
                      f"{cell['change_ms']:.3f} ms; outputs {moved}", flush=True)
    Path(f"BENCH_ab_{args.name}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
