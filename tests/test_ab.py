"""tools/ab.py, run on one source tree against itself.

Both sides load the same tree under two package names, so every output must
match byte for byte. No timing is asserted: the host is shared and noisy.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(autouse=True)
def unload_trees():
    """Drop the trees a test loaded under other package names."""
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if name.startswith(("odlt_", "ab_tool")):
            del sys.modules[name]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself(tmp_path, monkeypatch, capsys):
    ab = load_tool()
    monkeypatch.chdir(tmp_path)
    argv = [str(SRC), str(SRC), "--name", "self", "--n-list", "6,50", "--methods", "dlt,odlt",
            "--scenes", "2", "--rounds", "3"]
    assert ab.main(argv) == 0
    report = json.loads((tmp_path / "BENCH_ab_self.json").read_text())
    assert report["command"] == "python3 tools/ab.py " + " ".join(argv)
    assert {"python", "numpy", "blas"} <= set(report["host"])
    assert report["parent_commit"] == report["change_commit"]
    cells = report["cells"]
    assert [(c["box"], c["n"], c["method"]) for c in cells] == [
        (box, n, method)
        for box in ("centered", "uncentered")
        for n in (6, 50)
        for method in ("dlt", "odlt")
    ]
    for cell in cells:
        assert cell["outputs"] == {
            "identical": 2, "scenes": 2, "max_rot_change_deg": 0.0, "max_pos_change": 0.0
        }
        ratio = cell["ratio"]
        assert 0.0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert cell["parent_ms"] > 0.0 and cell["change_ms"] > 0.0
        assert {"normalize", "solve", "recover", "total"} <= set(cell["stage_ratios"])
    assert capsys.readouterr().out.count("outputs identical") == len(cells)


def test_a_failure_is_compared_by_class_name():
    ab = load_tool()
    trees = [ab.load(SRC, name) for name in ("odlt_ab_a", "odlt_ab_b")]
    ps = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3)) + (0.0, 0.0, 6.0)
    K = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
    us = ps[:, :2] / ps[:, 2:] * 800.0 + (320.0, 240.0)
    outs = [ab.outcome(tree, "odlt", ps, us, K) for tree in trees]
    assert outs[0][0] is None and outs[1][0] is None
    assert outs[0][1] == outs[1][1] == ("error", "TooFewPoints")
