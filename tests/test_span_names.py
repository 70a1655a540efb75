"""Every span name the benchmark reads resolves to an odlt attribute.

perfbench/tracing.py wraps odlt's functions by name, and perfbench/run.py
reads the resulting spans by name ("se3.recover_scale_and_position"). A
span whose function was renamed or removed reads as a zero or a missing
median rather than as an error, so these names are checked here, from the
benchmark's own source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Calls whose first argument is a span name: med_ms(span),
# tracer.span_calls(span, ...) and self_times.get(span, ...).
SPAN_READERS = ("med_ms", "span_calls", "get")


def _constant(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _run_span_names() -> set:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in SPAN_READERS and _constant(node.args[0]):
                if called != "get" or getattr(func.value, "id", None) == "self_times":
                    names.add(node.args[0].value)
        # sum(med_ms(s) for s in ("normalization.fit_pixel_normalization", ...))
        if isinstance(node, ast.GeneratorExp) and isinstance(node.elt, ast.Call):
            if getattr(node.elt.func, "id", None) == "med_ms":
                for gen in node.generators:
                    if isinstance(gen.iter, ast.Tuple):
                        names.update(_constant(e) for e in gen.iter.elts)
    names.discard(None)
    return names


def _tracing_constants() -> dict:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def _span_names() -> list:
    constants = _tracing_constants()
    names = _run_span_names() | {constants["ROOT_SPAN"]}
    for layer, attrs in constants["PRIVATE_SPANS"].items():
        names.update(f"{layer}.{attr}" for attr in attrs)
    return sorted(names)


def test_run_reads_the_expected_kinds_of_span():
    names = _span_names()
    # A parse that finds nothing would pass the check below vacuously.
    for name in (
        "solvers.solve",
        "se3.recover_scale_and_position",
        "weighting._preliminary_normalized",
        "normalization.PixelNormalization.apply",
        "colmap.parse_model",
    ):
        assert name in names


@pytest.mark.parametrize("span", _span_names())
def test_span_resolves_to_an_odlt_attribute(span):
    layer, *path = span.split(".")
    assert layer in _tracing_constants()["LAYERS"], span
    owner = importlib.import_module(f"odlt.{layer}")
    for attr in path:
        assert hasattr(owner, attr), f"{span}: odlt.{layer} has no {'.'.join(path)}"
        owner = getattr(owner, attr)
    assert callable(owner), span
