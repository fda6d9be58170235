"""Tests for the benchmark's own logic.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import math
import re
from pathlib import Path

import pytest

import check
import run
import workloads
from spans import Span, layer_metrics, self_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_with_nested_and_overlapping_children():
    root = Span("main", "cli", 0.0, 10.0)
    a = Span("optimize_phi_uniform", "alloc", 1.0, 5.0, parent=root)
    # two children of ``a`` overlapping each other (threads): their union
    # covers [2, 4.5], not 1.5 + 2.0
    a1 = Span("sop_closed_form", "sop", 2.0, 3.5, parent=a)
    a2 = Span("sop_closed_form", "sop", 2.5, 4.5, parent=a)
    # grandchild: counts against a1 only
    a11 = Span("_cdf_batch", "crosstalk", 2.2, 3.0, parent=a1)
    # a child sticking out past its parent's end is clipped
    b = Span("empirical_sop", "mc_oracle", 6.0, 9.0, parent=root)
    b1 = Span("_kernel_tables", "crosstalk", 8.5, 9.5, parent=b)
    spans = [root, a, a1, a2, a11, b, b1]
    got = dict(zip(map(id, spans), self_times(spans)))
    assert got[id(root)] == pytest.approx(10.0 - 4.0 - 3.0)
    assert got[id(a)] == pytest.approx(4.0 - 2.5)
    assert got[id(a1)] == pytest.approx(1.5 - 0.8)
    assert got[id(a2)] == pytest.approx(2.0)
    assert got[id(a11)] == pytest.approx(0.8)
    assert got[id(b)] == pytest.approx(3.0 - 0.5)
    assert got[id(b1)] == pytest.approx(1.0)


def test_self_times_sum_to_root_duration_without_overlap():
    root = Span("main", "cli", 0.0, 4.0)
    kids = [Span("sor_area", "asymptotic", t, t + 0.5, parent=root)
            for t in (0.5, 1.5, 2.5)]
    assert sum(self_times([root, *kids])) == pytest.approx(4.0)


HEADER = ["bob_dist_m", "phi_opt", "objective", "warning"]
TOLS = {"phi_opt": ("abs", 1e-9), "objective": ("rel", 1e-6)}
REF = ["0.674039467", "3394.76126", ""]


def test_row_passes_at_reference_and_within_tolerance():
    assert check.row_ok(HEADER, ["100", *REF], REF, TOLS)
    near = ["100", "0.6740394675", "3394.7646", "a warning"]
    assert check.row_ok(HEADER, near, REF, TOLS)


@pytest.mark.parametrize("row", [
    ["100", "0.674039469", "3394.76126", ""],      # phi off by 2e-9
    ["100", "0.674039467", "3394.7647", ""],       # area off by 1.1e-6
    ["100", "nan", "nan", "infeasible"],           # nan row
    ["100", "0.674039467", "nan", ""],             # one nan
    ["100", "0.674039467", "x", ""],               # not a number
])
def test_row_fails_past_tolerance_or_nan(row):
    assert not check.row_ok(HEADER, row, REF, TOLS)


def test_row_without_reference_fails():
    assert not check.row_ok(HEADER, ["105", *REF], None, TOLS)


def test_monte_carlo_rule_uses_closed_form_p():
    header = ["phi", "phi_used", "sop_closed", "sop_mc", "binom_se",
              "warning"]
    n = 2000
    tols = {"sop_closed": ("abs", 1e-9), "sop_mc": ("mc3se", n)}
    p = 0.0083
    ref = ["0.5", str(p), "0.01", "0.002", ""]
    three_se = 3.0 * math.sqrt(p * (1.0 - p) / n)
    inside = ["0.5", "0.5", str(p), str(p + 0.9 * three_se), "9", ""]
    outside = ["0.5", "0.5", str(p), str(p + 1.1 * three_se), "9", ""]
    assert check.row_ok(header, inside, ref, tols)
    assert not check.row_ok(header, outside, ref, tols)


def _invocation():
    return next(inv for inv in workloads.build("area_fig5", 0)
                if inv.name == "area_algo2")


def test_failed_invocation_fails_every_row(tmp_path):
    inv = _invocation()
    assert check.check_invocation(inv, tmp_path / "missing.csv", 1, {}) \
        == (1, 1, 0, 0)


def test_invocation_rows_checked_against_reference(tmp_path):
    inv = _invocation()
    tables = {inv.ref: {"100": ["0.85", "254.613435", ""]}}
    out = tmp_path / "o.csv"
    header = "bob_dist_m,phi_opt,objective,warning\n"
    out.write_text(header + "100,0.85,254.6134352,\n")
    assert check.check_invocation(inv, out, 0, tables) == (1, 0, 0, 0)
    out.write_text(header + "100,0.85,254.6137,\n")
    assert check.check_invocation(inv, out, 0, tables) == (1, 1, 0, 0)
    out.write_text(header)
    assert check.check_invocation(inv, out, 0, tables) == (1, 1, 0, 0)
    # the 100 m row also has to match test_04a's frozen area
    tables[inv.ref]["100"] = ["0.85", "254.7", ""]
    out.write_text(header + "100,0.85,254.7,\n")
    assert check.check_invocation(inv, out, 0, tables) == (1, 1, 0, 0)


def test_thread_twin_must_match_bytes(tmp_path):
    inv = workloads.build("mc_validate", 3)[1]
    assert inv.twin is not None
    out = tmp_path / "o.csv"
    out.write_text("phi,phi_used,sop_closed,sop_mc,binom_se,warning\n"
                   "0.1,0.1,0.0177269274,0.018,0.002,\n")
    tables = {inv.ref: {"0.1": ["0.1", "0.0177269274", "0.016", "0.002",
                                ""]}}
    assert check.check_invocation(inv, out, 0, tables,
                                  out.read_bytes())[1] == 0
    assert check.check_invocation(inv, out, 0, tables, b"other")[1] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed_and_stay_in_the_reference(workload):
    tables = check.load_reference()
    assert [i.manifest for i in workloads.build(workload, 5)] \
        == [i.manifest for i in workloads.build(workload, 5)]
    seen = set()
    for seed in range(40):
        invocations = workloads.build(workload, seed)
        seen.add(json.dumps([i.manifest for i in invocations]))
        for inv in invocations:
            assert inv.ref in tables
            if inv.command != "sor-map":
                for value in inv.manifest["sweep"]["grid"]:
                    assert f"{value:.9g}" in tables[inv.ref]
    assert len(seen) > 1


def test_sweep_is_scaled_by_the_median_probe_slowdown():
    ref = run.PROBE_REFERENCE_S
    slow = {"sweep_s": 10.0, "probe_s": [2 * ref, 9 * ref, 2 * ref]}
    idle = {"sweep_s": 6.0, "probe_s": [ref]}
    assert run.slowdown(slow) == pytest.approx(2.0)
    reps = [{"result": slow}, {"result": idle}, {"result": None}]
    assert run._median_norm(reps) == pytest.approx((5.0 + 6.0) / 2)


def test_metric_names():
    declared = [m["name"] for m in BENCHMARK["end_to_end"]
                + BENCHMARK["per_layer"]]
    produced = list(layer_metrics([], 0)) + [
        f"cli.{k}" for k in ("invocations", "rows", "rows_nan", "warnings")
    ] + ["run.cpu_s", "run.sweep_wall_s", "run.host_slowdown",
         "run.trace_overhead"]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared)
    assert len(set(declared)) == len(declared)
    assert sorted(produced) == sorted(m["name"]
                                      for m in BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
