"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name; a name that no longer resolves makes ``run.py --trace 1`` fail.
Every such name must stay defined in the modules the tracer scans."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_constants(*names):
    """Literal values of the module-level assignments ``names`` in
    spans.py, read without running it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    found = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body
             if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in names}
    return [found[name] for name in names]


def test_every_traced_name_resolves():
    modules, traced = _spans_constants("MODULES", "TRACED")
    mods = [importlib.import_module(f"secrecy_sor.{m}") for m in modules]
    missing = [name for name in traced
               if not any(name in vars(m) for m in mods)]
    assert not missing, missing
    # the tracer also wraps these two by attribute
    cli = importlib.import_module("secrecy_sor.cli")
    assert callable(cli._apply_sweep) and callable(cli.main)
