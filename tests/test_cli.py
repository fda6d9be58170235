"""End-to-end checks of the manifest-driven command line front end.

Everything runs through ``main(argv)`` in-process, so the exit codes and
stderr text are asserted directly; only the check of what a fresh run
imports starts a subprocess.
"""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import secrecy_sor.cli as cli
from secrecy_sor import (
    ArrayGeometry,
    McRunSpec,
    ScenarioConfig,
    SuspiciousRegion,
    algorithm1_directional,
    algorithm2_iterative,
    algorithm3_two_lobes,
    empirical_sop,
    grid_oracle_phi,
    optimize_phi_uniform,
    phi_max,
    phi_opt_closed_form,
    sop_closed_form,
    sop_intersection,
    sor_area,
    sor_boundary_directional,
    sor_boundary_nojam,
    sor_boundary_uniform,
)
from secrecy_sor.alloc import _region_beam_allocation
from secrecy_sor.asymptotic import _uniform_allocation
from secrecy_sor.cli import main
from secrecy_sor.crosstalk import _kernel_tables

# main-lobe radius of the reference broadside setup (N_t=100, R_th=10,
# d_b=100 m) with the whole budget on the data signal; frozen from
# sor_boundary_nojam at theta=0
MAIN_RADIUS_NOJAM = 1044.8555257055427


# the expected sha256 of every benchmark and figure CSV, by file name, as
# tools/csv_digests.py prints them
DIGESTS = {name: digest for digest, name in (
    line.split() for line in (Path(__file__).resolve().parent.parent / "tools"
                              / "csv_digests.sha256").read_text().splitlines())}


def assert_digest(path, name):
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


def write_manifest(path, **blocks):
    path.write_text(json.dumps(blocks))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def base_manifest(tmp_path, **extra):
    blocks = {
        "scenario": {"n_antennas": 100, "r_th": 10.0, "bob_dist_m": 100.0,
                     "n_eves": 10},
        "region": {"angles_deg": [-15.0, 15.0], "d_min_m": 50.0,
                   "d_max_m": 100.0},
        "sweep": {"parameter": "phi", "grid": [0.0, 0.3, 0.6]},
        "scheme": "uniform",
    }
    blocks.update(extra)
    return write_manifest(tmp_path / "manifest.json", **blocks)


def test_reproduce_fig2_values(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    rc = main(["reproduce", "fig2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "phi"] + [f"lobe{m}_m" for m in range(7)] \
        + ["warning"]
    assert float(rows[1][1]) == 0.005
    first = rows[0]
    assert float(first[0]) == 3.0 and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(MAIN_RADIUS_NOJAM, rel=1e-8)
    # side lobes are strictly inside the main lobe without jamming
    radii = [float(v) for v in first[2:9]]
    assert all(radii[m] < radii[0] for m in range(1, 7))
    err = capsys.readouterr().err
    assert "reproduce fig2: wrote" in err
    assert_digest(out, "fig2.csv")
    both = tmp_path / "fig2_both-alpha.csv"
    assert main(["reproduce", "fig2", "--both-alpha", "--out", str(both)]) == 0
    assert_digest(both, "fig2_both-alpha.csv")


def _reference_cfg(n_antennas, r_th, bob_dist, n_eves=1):
    """The reference figures' scenario: d_0=0.5, alpha=3, P_tot=1 W,
    N_0=1e-8 W, Bob at broadside."""
    return ScenarioConfig(geometry=ArrayGeometry(n_antennas, 0.5), alpha=3.0,
                          p_tot=1.0, n0=1e-8, r_th=r_th, bob_theta=0.0,
                          bob_dist=bob_dist, n_eves=n_eves)


def test_reproduce_fig3_and_fig4_rows(tmp_path):
    fmt = cli._fmt
    out3, out4 = tmp_path / "fig3.csv", tmp_path / "fig4.csv"
    assert main(["reproduce", "fig3", "--out", str(out3)]) == 0
    assert main(["reproduce", "fig4", "--out", str(out4)]) == 0
    assert_digest(out3, "fig3.csv")
    assert_digest(out4, "fig4.csv")

    header, rows = read_csv(out3)
    assert header == ["phi", "sop_uniform_nt100", "sop_directional_nt100",
                      "sop_uniform_nt50", "warning"]
    assert len(rows) == 101
    cfg = _reference_cfg(100, 10.0, 100.0, n_eves=10)
    region = SuspiciousRegion((math.radians(-15.0), math.radians(15.0)),
                              50.0, 100.0)
    phis = [min(float(p), 1.0) for p in np.arange(0.0, 1.005, 0.01)]
    assert [r[0] for r in rows] == [fmt(p) for p in phis]
    # from phi_max on Bob misses the target rate: secrecy always fails
    beyond = [r[2] for p, r in zip(phis, rows) if p >= phi_max(cfg)]
    assert beyond and set(beyond) == {"1"}
    phi = phis[40]
    boundary = sor_boundary_directional(
        cfg, _region_beam_allocation(cfg, region, phi))
    assert rows[40][1:3] == [
        fmt(sop_closed_form(cfg, phi, region)),
        fmt(sop_intersection(boundary, region, cfg.n_eves))]

    header, rows = read_csv(out4)
    configs = (_reference_cfg(50, 5.0, 100.0), _reference_cfg(100, 5.0, 100.0),
               _reference_cfg(100, 5.0, 150.0))
    assert header == ["s_eb"] + [
        f"phi_{kind}_{name}"
        for name in ("nt50_db100", "nt100_db100", "nt100_db150")
        for kind in ("closed", "oracle")] + ["warning"]
    assert len(rows) == 20
    s_eb = np.linspace(0.05, 0.95, 20)[7]
    want = [fmt(s_eb)]
    for config in configs:
        want += [fmt(phi_opt_closed_form(config, s_eb, 50.0)[0]),
                 fmt(grid_oracle_phi(config, s_eb, 50.0))]
    assert rows[7] == want + [""]


def test_reproduce_fig5_bytes(tmp_path):
    # every allocation search scores its areas here, on the default grid
    out = tmp_path / "fig5.csv"
    assert main(["reproduce", "fig5", "--out", str(out)]) == 0
    assert_digest(out, "fig5.csv")


def test_integer_sweep_parameters(tmp_path):
    cfg = _reference_cfg(100, 10.0, 100.0)
    region = SuspiciousRegion((math.radians(-15.0), math.radians(15.0)),
                              50.0, 100.0)
    scheme = {"kind": "uniform", "phi": 0.3}
    out = tmp_path / "o.csv"
    path = base_manifest(tmp_path, scheme=scheme,
                         sweep={"parameter": "n_eves", "grid": [1, 3]})
    assert main(["sop", "--manifest", path, "--out", str(out)]) == 0
    assert read_csv(out)[1] == [
        [str(n_eves), "0.3",
         cli._fmt(sop_closed_form(replace(cfg, n_eves=n_eves), 0.3, region)),
         ""] for n_eves in (1, 3)]
    for parameter, value in (("n_antennas", 32.5), ("n_eves", 2.5)):
        path = base_manifest(tmp_path, scheme=scheme,
                             sweep={"parameter": parameter, "grid": [value]})
        assert main(["sop", "--manifest", path, "--out", str(out)]) == 0
        assert read_csv(out)[1] == [[
            str(value), "nan", "nan",
            f"{parameter} grid value {value} is not integer"]]


def test_manifest_error_unknown_field(tmp_path, capsys):
    path = base_manifest(tmp_path)
    blocks = json.loads((tmp_path / "manifest.json").read_text())
    blocks["scenario"]["n_antenas"] = 64  # typo on purpose
    (tmp_path / "manifest.json").write_text(json.dumps(blocks))
    rc = main(["sop", "--manifest", path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("manifest error at scenario.n_antenas:")


def test_manifest_error_empty_grid(tmp_path, capsys):
    path = base_manifest(tmp_path, sweep={"parameter": "phi", "grid": []})
    rc = main(["sop", "--manifest", path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "sweep.grid: empty sweep grid" in capsys.readouterr().err


def test_manifest_error_missing_file(tmp_path, capsys):
    rc = main(["sop", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "manifest error at manifest: cannot read" \
        in capsys.readouterr().err


def test_manifest_error_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["sop", "--manifest", str(bad),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_phi_sweep_rejected_for_self_tuning_scheme(tmp_path, capsys):
    path = base_manifest(tmp_path, scheme="algo2")
    rc = main(["sop", "--manifest", path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "sweep.parameter" in capsys.readouterr().err


def test_sop_sweep_deterministic_bytes(tmp_path):
    path = base_manifest(tmp_path)
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["sop", "--manifest", path, "--out", str(out1)]) == 0
    assert main(["sop", "--manifest", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["phi", "phi_used", "sop", "warning"]
    sops = [float(r[2]) for r in rows]
    # more jamming, less outage over this near sector
    assert sops[0] > sops[1] > sops[2]


def test_algo1_searches_at_the_phi_step(tmp_path):
    # algo1 splits the uniform SOP optimum over its beams, searched on the
    # same phi grid, so both report the same fraction
    used = {}
    for kind in ("uniform", "algo1"):
        path = base_manifest(tmp_path, scheme=kind, sweep={
            "parameter": "bob_dist_m", "grid": [100.0]})
        out = tmp_path / f"{kind}.csv"
        assert main(["sop", "--manifest", path, "--out", str(out)]) == 0
        used[kind] = read_csv(out)[1][0][1]
    assert used["algo1"] == used["uniform"]


def test_out_precedence(tmp_path):
    inner = tmp_path / "from_manifest.csv"
    path = base_manifest(tmp_path, output_path=str(inner))
    assert main(["sop", "--manifest", path]) == 0
    assert inner.exists()
    explicit = tmp_path / "explicit.csv"
    assert main(["sop", "--manifest", path, "--out", str(explicit)]) == 0
    assert explicit.read_bytes() == inner.read_bytes()


def test_sor_map_refinement_keeps_coarse_nodes(tmp_path):
    path = base_manifest(tmp_path, scheme={"kind": "uniform", "phi": 0.3})
    coarse = tmp_path / "coarse.csv"
    fine = tmp_path / "fine.csv"
    assert main(["sor-map", "--manifest", path, "--out", str(coarse),
                 "--grid", "721"]) == 0
    assert main(["sor-map", "--manifest", path, "--out", str(fine),
                 "--grid", "1441"]) == 0
    _, rows_c = read_csv(coarse)
    _, rows_f = read_csv(fine)
    assert len(rows_c) == 721 and len(rows_f) == 1441
    fine_map = {r[0]: r[1] for r in rows_f}
    for theta_deg, radius, _ in rows_c:
        assert fine_map[theta_deg] == radius


def test_infeasible_row_becomes_nan_with_note(tmp_path, capsys):
    path = base_manifest(
        tmp_path,
        sweep={"parameter": "bob_dist_m", "grid": [100.0, 5000.0]},
        scheme={"kind": "uniform", "objective": "sop"})
    out = tmp_path / "opt.csv"
    rc = main(["optimize", "--manifest", path, "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["bob_dist_m", "phi_opt", "objective", "warning"]
    good, bad = rows
    assert 0.0 < float(good[1]) < 1.0 and 0.0 <= float(good[2]) <= 1.0
    assert good[3] == ""
    assert bad[1] == "nan" and bad[2] == "nan"
    assert "infeasible" in bad[3]
    err = capsys.readouterr().err
    assert re.search(r"optimize: wrote .* \(2 rows, 1 warnings\) "
                     r"in \d+\.\d\ds", err)


def _benchmark_workloads():
    """``perfbench/workloads.py``, the one home of the benchmark's
    manifests, loaded by path (``perfbench`` is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mc_validate_pool_bytes(tmp_path):
    # both Monte Carlo shapes of the benchmark pool (master seed 1) at one
    # and two threads: every CSV byte, not only the SOP within 3 SE
    workloads = _benchmark_workloads()
    invocations = workloads.build("mc_validate", 0)
    assert sorted(inv.name for inv in invocations) == [
        "mc_n100_e10_t1", "mc_n100_e10_t2", "mc_n400_e1_t1", "mc_n400_e1_t2"]
    for inv, argv, out in workloads.write_manifests(invocations, tmp_path):
        assert inv.manifest["mc"]["master_seed"] == 1
        assert main(argv) == 0
        assert_digest(out, out.name)


def test_crosstalk_cdf_pool_bytes(tmp_path):
    # every CSV of the sop_fig6 and cold_keys reference pools, the two
    # workloads whose rows run through the crosstalk CDF, and of the
    # area_fig5 pool, whose rows run through the default grid's lobe arcs
    # and the two-lobe scan's side-lobe ranking
    workloads = _benchmark_workloads()
    invocations = (workloads.pool("sop_fig6") + workloads.pool("cold_keys")
                   + workloads.pool("area_fig5"))
    assert len(invocations) == 126
    for _, argv, out in workloads.write_manifests(invocations, tmp_path):
        assert main(argv) == 0
        assert_digest(out, out.name)


@pytest.mark.parametrize("workload, schemes", [
    ("area_fig5", {"no_jam", "uniform", "algo2", "algo3"}),
    ("sop_fig6", {"no_jam", "uniform", "algo1", "algo3"}),
    ("cold_keys", {"uniform", "no_jam"}),
])
def test_a_run_imports_no_numpy_ma_and_builds_one_parser(workload, schemes,
                                                         tmp_path):
    # np.unique and np.setdiff1d import numpy.ma (about 9 ms and 1 MB) on
    # their first call; every scheme of the benchmark's fig5 and fig6 rows
    # runs in one fresh process without it, and so do cold_keys' sop sweeps
    # over n_antennas and bob_theta_deg and its sor-maps (one repetition's
    # invocations), and the parser is built on the first main call, not at
    # import
    workloads = _benchmark_workloads()
    if workload == "cold_keys":
        invocations = workloads.build(workload, 0)
        assert {inv.command for inv in invocations} == {"sop", "sor-map"}
    else:
        invocations = workloads.pool(workload)
    assert {_scheme_kind(inv.manifest) for inv in invocations} == schemes
    argvs = [argv for _, argv, _ in
             workloads.write_manifests(invocations, tmp_path)]
    code = ("import json, sys\n"
            "from secrecy_sor.cli import build_parser, main\n"
            "assert build_parser.cache_info().currsize == 0\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "assert build_parser.cache_info().misses == 1\n"
            "print('numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _scheme_kind(manifest):
    scheme = manifest["scheme"]
    return scheme if isinstance(scheme, str) else scheme["kind"]


def test_cold_keys_sop_rows_locate_no_side_lobe_peak(tmp_path):
    # every cold_keys level lies above every side lobe's peak bound, so the
    # sweeps over n_antennas and bob_theta_deg build each geometry's main
    # lobe table and bound only: no peak search and no side-lobe row
    workloads = _benchmark_workloads()
    invocations = [inv for inv in workloads.build("cold_keys", 0)
                   if inv.command == "sop"]
    assert {inv.manifest["sweep"]["parameter"] for inv in invocations} == {
        "n_antennas", "bob_theta_deg"}
    _kernel_tables.cache_clear()
    for _, argv, _ in workloads.write_manifests(invocations, tmp_path):
        assert main(argv) == 0
    # the theta sweep's scenario has 100 elements
    n_values = set(invocations[0].manifest["sweep"]["grid"]) | {100}
    assert _kernel_tables.cache_info().currsize == len(n_values)
    for n in n_values:
        tables = _kernel_tables(n, 0.5)
        assert tables.cap >= 15
        assert tables._located == 0 and tables._rows == {}
    _kernel_tables.cache_clear()


def test_mc_validate_thread_invariance(tmp_path):
    path = write_manifest(
        tmp_path / "mc.json",
        scenario={"n_antennas": 32, "r_th": 4.0, "bob_dist_m": 80.0},
        region={"angles_deg": [-20.0, 20.0], "d_min_m": 40.0,
                "d_max_m": 120.0},
        sweep={"parameter": "phi", "grid": [0.3]},
        scheme="uniform",
        mc={"n_samples": 300, "master_seed": 11})
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    assert main(["mc-validate", "--manifest", path, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["mc-validate", "--manifest", path, "--out", str(out4),
                 "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["phi", "phi_used", "sop_closed", "sop_mc", "binom_se",
                      "warning"]
    closed, mc, se = (float(v) for v in rows[0][2:5])
    assert abs(mc - closed) < 4.0 * max(se, 1e-3)


@pytest.mark.parametrize("command, blocks, field", [
    ("optimize", {"region": None,
                  "sweep": {"parameter": "bob_dist_m", "grid": [100.0]},
                  "scheme": {"kind": "uniform", "objective": "sop"}},
     "region"),
    ("sor-map", {"scheme": "uniform"}, "scheme.phi"),
    ("optimize", {"sweep": {"parameter": "bob_dist_m", "grid": [100.0]},
                  "scheme": {"kind": "uniform", "phi": 0.3}}, "scheme.phi"),
    ("sop", {"scheme": {"kind": "uniform", "objective": "sor_area"}},
     "scheme.objective"),
    ("mc-validate", {"scheme": {"kind": "uniform", "objective": "sop"},
                     "mc": {"n_samples": 10}}, "scheme.objective"),
    ("sor-map", {"scheme": {"kind": "no_jam", "objective": "sor_area"}},
     "scheme.objective"),
    # region angles past +-90 degrees
    ("sop", {"region": {"angles_deg": [-100.0, 100.0], "d_min_m": 50.0,
                        "d_max_m": 200.0}}, "region"),
    ("mc-validate", {"region": {"angles_deg": [-100.0, 100.0],
                                "d_min_m": 50.0, "d_max_m": 200.0},
                     "mc": {"n_samples": 10}}, "region"),
    # the thread count comes from --threads only
    ("mc-validate", {"mc": {"n_samples": 10, "threads": 2}}, "mc.threads"),
    # the Monte Carlo Rician factor comes from scenario.k_eb only
    ("mc-validate", {"mc": {"n_samples": 10, "rician_k": 2.0}},
     "mc.rician_k"),
    # a sweep grid is a list of numbers
    ("sop", {"sweep": {"parameter": "phi",
                       "grid": {"start": 0.0, "stop": 0.6, "step": 0.2}}},
     "sweep.grid"),
    # json reads NaN, Infinity and overflowing literals such as 1e999 (as
    # inf); a non-finite number is a manifest error, not a NaN row
    ("sop", {"scenario": {"n_antennas": math.nan, "r_th": 10.0,
                          "bob_dist_m": 100.0}}, "scenario.n_antennas"),
    ("mc-validate", {"mc": {"n_samples": math.inf}}, "mc.n_samples"),
    ("sop", {"scenario": {"n_antennas": 100, "r_th": 10.0,
                          "bob_dist_m": math.nan}}, "scenario.bob_dist_m"),
    ("sop", {"region": {"angles_deg": [-15.0, 15.0], "d_min_m": 50.0,
                        "d_max_m": 1e999}}, "region.d_max_m"),
    ("sop", {"sweep": {"parameter": "bob_dist_m", "grid": [math.nan]}},
     "sweep.grid"),
    # a master seed is a Philox key: two 64-bit words
    ("mc-validate", {"mc": {"n_samples": 10, "master_seed": 2 ** 128}},
     "mc.master_seed"),
])
def test_command_scheme_requirements_fail_at_load(tmp_path, capsys, command,
                                                  blocks, field):
    path = base_manifest(tmp_path, **blocks)
    out = tmp_path / "o.csv"
    rc = main([command, "--manifest", path, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"manifest error at {field}:")
    assert not out.exists()


# flags these commands no longer have (each figure and search runs at one
# fixed resolution, and the Monte Carlo seed comes from mc.master_seed):
# argparse rejects them, also at values the runs once accepted, instead of
# ignoring them
RETIRED_FLAGS = ("--phi-step", "--seed", "--grid")


def assert_exits_2(argv, field, capsys):
    """``main(argv)`` exits 2 naming ``field``: argparse for a retired flag,
    a manifest error for a bad value."""
    if field in RETIRED_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {field}" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"manifest error at {field}:")


@pytest.mark.parametrize("extra, field", [
    (["--phi-step", "0.01"], "--phi-step"),
    (["--threads", "0"], "--threads"),
    (["--seed", "3"], "--seed"),
])
def test_bad_command_line_values_exit_2(tmp_path, capsys, extra, field):
    path = base_manifest(tmp_path, mc={"n_samples": 10})
    assert_exits_2(["mc-validate", "--manifest", path,
                    "--out", str(tmp_path / "o.csv")] + extra, field, capsys)


@pytest.mark.parametrize("argv, field", [
    (["fig2", "--phi-step", "0.1"], "--phi-step"),
    (["fig3", "--phi-step", "0"], "--phi-step"),
    (["fig4", "--grid", "5"], "--grid"),
    (["fig2", "--grid", "3"], "--grid"),
    # the one flag a figure reads, on a figure that does not read it
    (["fig3", "--both-alpha"], "--both-alpha"),
    (["fig4", "--phi-step", "0.3"], "--phi-step"),
    (["fig5", "--grid", "5"], "--grid"),
    (["fig6", "--phi-step", "0.01"], "--phi-step"),
])
def test_bad_reproduce_arguments_exit_2(tmp_path, capsys, argv, field):
    out = tmp_path / "fig.csv"
    assert_exits_2(["reproduce", *argv, "--out", str(out)], field, capsys)
    assert not out.exists()


def test_rejected_grid_value_becomes_nan_row(tmp_path):
    path = base_manifest(tmp_path,
                         sweep={"parameter": "alpha", "grid": [3.0, 7.0]},
                         scheme={"kind": "uniform", "phi": 0.3})
    out = tmp_path / "o.csv"
    assert main(["sop", "--manifest", path, "--out", str(out)]) == 0
    _, (good, bad) = read_csv(out)
    assert good[2] != "nan" and good[3] == ""
    assert bad[1:] == ["nan", "nan", "alpha must lie in [2; 6]"]


def test_library_value_error_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken library call")
    monkeypatch.setattr(cli, "sop_closed_form", broken)
    path = base_manifest(tmp_path)
    with pytest.raises(ValueError, match="broken library call"):
        main(["sop", "--manifest", path, "--out", str(tmp_path / "o.csv")])


# ------------------------------------------------------------------------
# every command x scheme value against the library call that defines it

MATRIX_CFG = ScenarioConfig(geometry=ArrayGeometry(32, 0.5), alpha=3.0,
                            p_tot=1.0, n0=1e-8, r_th=4.0, bob_theta=0.0,
                            bob_dist=80.0, n_eves=3)
MATRIX_REGION = SuspiciousRegion((math.radians(-40.0), math.radians(40.0)),
                                 40.0, 120.0)
MATRIX_PHI = 0.3  # sor-map needs a fixed fraction for scheme uniform
MATRIX_GRID = 37
MATRIX_MC = McRunSpec(n_samples=40, master_seed=3)


def _library_values(kind):
    """What each command must write for a scheme, straight from the library:
    the fraction and SOP of ``sop``/``mc-validate``, the fraction of
    ``optimize`` per objective, the area, the map radii and the allocation
    the Monte Carlo engine must simulate."""
    cfg, region = MATRIX_CFG, MATRIX_REGION
    thetas = np.linspace(-0.5 * math.pi, 0.5 * math.pi, MATRIX_GRID)
    if kind == "no_jam":
        return dict(phi=0.0, phi_sop=0.0, phi_area=0.0,
                    sop=sop_closed_form(cfg, 0.0, region),
                    area=sor_area(sor_boundary_nojam(cfg)),
                    radii=sor_boundary_nojam(cfg, thetas).radii,
                    mc=_uniform_allocation(cfg, 0.0))
    if kind == "uniform":
        by_sop = optimize_phi_uniform(cfg, region, objective="sop")
        by_area = optimize_phi_uniform(cfg, None, objective="sor_area")
        return dict(phi=by_sop.phi_opt, phi_sop=by_sop.phi_opt,
                    phi_area=by_area.phi_opt, sop=by_sop.objective,
                    area=by_area.objective,
                    radii=sor_boundary_uniform(cfg, MATRIX_PHI, thetas).radii,
                    mc=_uniform_allocation(cfg, by_sop.phi_opt))
    res = {"algo1": lambda: algorithm1_directional(cfg, region),
           "algo2": lambda: algorithm2_iterative(cfg),
           "algo3": lambda: algorithm3_two_lobes(cfg)}[kind]()
    boundary = sor_boundary_directional(cfg, res.allocation)
    return dict(phi=res.phi_opt, phi_sop=res.phi_opt, phi_area=res.phi_opt,
                sop=res.objective if kind == "algo1"
                else sop_intersection(boundary, region, cfg.n_eves),
                area=sor_area(boundary),
                radii=sor_boundary_directional(cfg, res.allocation,
                                               thetas).radii,
                mc=res.allocation)


@pytest.mark.parametrize("kind", ["no_jam", "uniform", "algo1", "algo2",
                                  "algo3"])
def test_every_command_scores_the_scheme_allocation(tmp_path, kind):
    want = _library_values(kind)
    fmt = cli._fmt
    scenario = {"n_antennas": 32, "r_th": 4.0, "bob_dist_m": 80.0,
                "n_eves": 3}
    region = {"angles_deg": [-40.0, 40.0], "d_min_m": 40.0,
              "d_max_m": 120.0}
    sweep = {"parameter": "bob_dist_m", "grid": [80.0]}

    def run(command, scheme, *extra, **blocks):
        path = write_manifest(tmp_path / "m.json", scenario=scenario,
                              region=region, scheme=scheme, **blocks)
        out = tmp_path / "o.csv"
        assert main([command, "--manifest", path, "--out", str(out),
                     *extra]) == 0
        return read_csv(out)[1]

    (row,) = run("sop", {"kind": kind}, sweep=sweep)
    assert row[1:] == [fmt(want["phi"]), fmt(want["sop"]), ""]
    (row,) = run("optimize", {"kind": kind, "objective": "sop"}, sweep=sweep)
    assert row[1:] == [fmt(want["phi_sop"]), fmt(want["sop"]), ""]
    (row,) = run("optimize", {"kind": kind, "objective": "sor_area"},
                 sweep=sweep)
    assert row[1:] == [fmt(want["phi_area"]), fmt(want["area"]), ""]
    map_scheme = {"kind": kind}
    if kind == "uniform":
        map_scheme["phi"] = MATRIX_PHI
    rows = run("sor-map", map_scheme, "--grid", str(MATRIX_GRID))
    assert [r[1] for r in rows] == [fmt(r) for r in want["radii"]]
    (row,) = run("mc-validate", {"kind": kind}, sweep=sweep,
                 mc={"n_samples": MATRIX_MC.n_samples,
                     "master_seed": MATRIX_MC.master_seed})
    empirical = empirical_sop(MATRIX_CFG, want["mc"], MATRIX_REGION,
                              MATRIX_MC)
    assert row[1:4] == [fmt(want["phi"]), fmt(want["sop"]), fmt(empirical)]
