"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name; a name that no longer resolves makes ``run.py --trace 1`` fail.
Every such name must stay defined in the modules the tracer scans, and so
must the parameters and attributes the benchmark reads by name."""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

from secrecy_sor import AllocationResult, McRunSpec, SorBoundary
from secrecy_sor import crosstalk
from secrecy_sor.mc_oracle import empirical_sop

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


def test_attributes_the_benchmark_reads_resolve():
    # spans.py binds empirical_sop's arguments by name and reads the run
    # spec, the boundary's angles and algorithm 2's trace; rep.py and the
    # tracer read the kernel-table cache statistics on every repetition

    params = inspect.signature(empirical_sop).parameters
    assert {"cfg", "alloc", "region", "spec"} <= set(params)
    spec = McRunSpec(n_samples=4, master_seed=0)
    for name in ("n_samples", "master_seed", "rician_k", "threads"):
        assert hasattr(spec, name), name
    assert callable(crosstalk._kernel_tables.cache_info)
    assert "thetas" in {f.name for f in fields(SorBoundary)}
    assert "trace" in {f.name for f in fields(AllocationResult)}
