"""Check that two source trees of odlt write the same output rows.

Usage:

    python tools/same_rows.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the odlt package, such as
the src/ of two checkouts. Each tree runs one fixed grid of CLI commands with
PYTHONPATH set to it:

    synthetic --no-timing, centered and uncentered, n 6, 10, 11, 12, 50, 255,
        256, 767, 768, 1535, 1536, 2000, sigma 0, 1, 3, 20 trials;
    eval-colmap on tests/fixtures/colmap_golden and tests/fixtures/colmap_solvable,
        --noise-px 0 and 1, with --per-image;
    solve --format json-lines, all five methods, on four problem files the
        tool writes once from a fixed numpy seed (the synthetic boxes, camera
        at the origin): centered n=50 sigma 1 and uncentered n=300 sigma 3,
        which solve, and two that fail: the first mirrored in z with its
        pixels kept (ReflectionDetected for every method), and 6
        correspondences over 5 distinct points at sigma 0 (RankDeficient).

The CSV rows are compared with their comment manifests left out, since those
hold a start time. A solve's output is compared as printed: its JSON line,
which holds reprojection_rms and the flags, its exit code and its stderr
line, which tells one PnpError from another. No CSV row holds any of these.
Prints "identical" and exits 0 when every row and line matches byte for
byte. Otherwise, for each output that differs, prints the first differing
rows; for CSV rows also, per method, the largest relative change over the
numeric cells of its differing rows, separately for rows with noise
(sigma > 0, --noise-px > 0) and without, where values at the rounding level
dominate; and whether the failure counts per method and failure class (the
per-image status) match. It exits 1. Both trees run with one BLAS thread, so
that they use the same kernels.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# 10, 11: 20 and 22 rows, either side of the QR that LAPACK's gesdd runs itself;
# 1535, 1536: either side of the moment reduction's chunked QR.
N_LIST = "6,10,11,12,50,255,256,767,768,1535,1536,2000"
SYNTHETIC = ["--n-list", N_LIST, "--sigma-list", "0,1,3", "--trials", "20"]
METHODS = ("dlt", "ndlt", "odlt", "odlt_lost", "ndlt_gn")
# solve's solvable problems: (name, box (lo, hi) as in odlt.evaluation, n, pixel sigma).
PROBLEMS = (
    ("centered n=50 sigma 1", ((-2.0, -2.0, 4.0), (2.0, 2.0, 8.0)), 50, 1.0),
    ("uncentered n=300 sigma 3", ((1.0, 1.0, 4.0), (2.0, 2.0, 8.0)), 300, 3.0),
)
PROBLEM_SEED = 20240607


def project(ps: np.ndarray) -> np.ndarray:
    return 800.0 * ps[:, :2] / ps[:, 2:] + (320.0, 240.0)


def write_problems(workdir: Path) -> list[tuple[str, Path]]:
    """Write PROBLEMS and the two failing problems (see above) as odlt solve
    problem files, fx = fy = 800 and principal point (320, 240), the camera
    at the origin looking down +z, the values written by repr so that both
    trees read the same floats."""
    rng = np.random.default_rng(PROBLEM_SEED)
    scenes = []
    for name, (lo, hi), n, sigma in PROBLEMS:
        ps = rng.uniform(lo, hi, (n, 3))
        scenes.append((name, ps, project(ps) + sigma * rng.standard_normal((n, 2))))
    _, ps, us = scenes[0]
    scenes.append(("centered n=50 sigma 1 mirrored in z", ps * (1.0, 1.0, -1.0), us))
    ps = rng.uniform(*PROBLEMS[0][1], (5, 3))[[0, 1, 2, 3, 4, 0]]
    scenes.append(("6 over 5 distinct points sigma 0", ps, project(ps)))
    out = []
    for k, (name, ps, us) in enumerate(scenes):
        lines = ["800.0 800.0 320.0 240.0"]
        lines += [" ".join(repr(float(v)) for v in (*u, *p)) for p, u in zip(ps, us)]
        path = workdir / f"problem{k}.txt"
        path.write_text("\n".join(lines) + "\n")
        out.append((name, path))
    return out


def grid(problems: list[tuple[str, Path]]):
    """(name, CLI arguments, whether it writes a per-image CSV, its noise or None
    when a sigma column holds it) of every run; solve runs write no CSV."""
    for scenario in ("centered", "uncentered"):
        args = ["synthetic", "--no-timing", "--scenario", scenario, *SYNTHETIC]
        yield f"synthetic {scenario}", args, False, None
    for fixture in ("colmap_golden", "colmap_solvable"):
        for noise in ("0", "1"):
            args = ["eval-colmap", "--model-dir", str(FIXTURES / fixture), "--noise-px", noise]
            yield f"eval-colmap {fixture} noise {noise}", args, True, float(noise)
    for name, path in problems:
        for method in METHODS:
            args = ["solve", "--input", str(path), "--method", method, "--format", "json-lines"]
            yield f"solve {name} {method}", args, False, None


def data_rows(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def run(src: Path, args: list[str], per_image: bool, workdir: Path) -> dict[str, list[str]]:
    """The data rows of one CLI run on the tree src, by output name: the CSV
    rows, or solve's printed lines, exit code and stderr lines. Only solve may
    fail, with exit 3 (a PnpError)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    solving = args[0] == "solve"
    out, detail = workdir / "rows.csv", workdir / "per_image.csv"
    extra = [] if solving else ["--out", str(out)]
    extra += ["--per-image", str(detail)] if per_image else []
    cmd = [sys.executable, "-m", "odlt.cli", *args, *extra]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode not in ((0, 3) if solving else (0,)):
        raise SystemExit(f"{src}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    if solving:
        lines = [*done.stdout.splitlines(), f"exit {done.returncode}", *done.stderr.splitlines()]
        return {"output": lines}
    rows = {"rows": data_rows(out)}
    if per_image:
        rows["per-image rows"] = data_rows(detail)
    return rows


def relative_change(a: str, b: str) -> float:
    """Largest relative change between two CSV rows' numeric cells; inf when any
    other cell differs."""
    worst = 0.0
    for x, y in zip(a.split(","), b.split(",")):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return math.inf
        if math.isnan(fx) or math.isnan(fy):
            return math.inf
        worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def failure_counts(rows: list[str]) -> Counter:
    """Failures per (method, class) of CSV rows: a failures column's counts, or
    a per-image status other than ok."""
    counts = Counter()
    for row in csv.DictReader(rows):
        if "status" in row:
            counts[(row["method"], row["status"])] += row["status"] != "ok"
        else:
            counts[(row["method"], "failures")] += int(row["failures"])
    return +counts


def compare(name: str, parent: list[str], change: list[str], noise, shown: int = 3) -> bool:
    """Print how change's rows differ from parent's; True when they are identical."""
    if parent == change:
        return True
    print(f"{name}: {len(parent)} lines in the parent, {len(change)} in the change")
    if name.startswith("solve "):  # printed lines, no CSV header
        for a, b in zip(parent, change):
            print(f"  parent: {a}\n  change: {b}")
        return False
    header = parent[0].split(",")
    pairs = [(a, b) for a, b in zip(parent[1:], change[1:]) if a != b]
    for a, b in pairs[:shown]:
        print(f"  parent: {a}\n  change: {b}")
    worst = {}  # (noisy, method) -> largest relative change
    for a, b in pairs:
        row = dict(zip(header, a.split(",")))
        noisy = float(row["sigma"]) > 0 if noise is None else noise > 0
        key = (noisy, row["method"])
        worst[key] = max(worst.get(key, 0.0), relative_change(a, b))
    print(f"  {len(pairs)} rows differ; largest relative change per method:")
    for noisy in (True, False):
        cells = [f"{m} {w:.2g}" for (k, m), w in worst.items() if k == noisy]
        if cells:
            print(f"    {'with noise' if noisy else 'noise-free'}: {', '.join(cells)}")
    before, after = failure_counts(parent), failure_counts(change)
    if before == after:
        print(f"  failure counts per method and class identical: {dict(before) or 'none'}")
    else:
        print(f"  failure counts differ: parent {dict(before)}, change {dict(after)}")
    return False


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_rows.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = (Path(a).resolve() for a in argv)
    for src in (parent_src, change_src):
        if not (src / "odlt" / "cli.py").is_file():
            print(f"{src} holds no odlt package", file=sys.stderr)
            return 2
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, args, per_image, noise in grid(write_problems(workdir)):
            parent = run(parent_src, args, per_image, workdir)
            change = run(change_src, args, per_image, workdir)
            for output in parent:
                same &= compare(f"{name} {output}", parent[output], change[output], noise)
    if same:
        print("identical")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
