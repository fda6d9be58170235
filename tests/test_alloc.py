"""Jamming power optimization: closed forms, the 1-D fraction search, and
the three directional allocation algorithms.

Brute-force grids in this file re-derive the optima independently; frozen
numbers were produced by those same grids at higher resolution.
"""

import dataclasses
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from secrecy_sor import (
    ArrayGeometry,
    DegenerateArrayError,
    InfeasibleRateError,
    ResolutionWarning,
    ScenarioConfig,
    SuspiciousRegion,
    algorithm1_directional,
    algorithm2_iterative,
    algorithm3_two_lobes,
    boundary_scale,
    build_dft_basis,
    grid_oracle_phi,
    optimize_phi_uniform,
    phi_max,
    phi_opt_closed_form,
    s_kernel,
    sop_closed_form,
    sor_area,
    sor_boundary_directional,
    sor_boundary_uniform,
    sor_constants,
)
from secrecy_sor import alloc
from secrecy_sor import sop as sop_module
from secrecy_sor.asymptotic import _default_arcs, _default_grid
from secrecy_sor.alloc import (
    _BLOCK_ROWS,
    _DirectionalAreaEvaluator,
    _beam_line_descent,
    _jam_beam_indices,
    _pow_2_over_alpha,
    _two_lobe_scan,
    lobe_notch_objective,
)

G = ArrayGeometry
CFG50 = ScenarioConfig(G(50, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
CFG100 = ScenarioConfig(G(100, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0, 100.0, n_eves=10)
CFG32 = ScenarioConfig(G(32, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0, 80.0)
CFG8 = ScenarioConfig(G(8, 0.5), 3.0, 1.0, 1e-8, 2.0, 0.0, 100.0)
REG60 = SuspiciousRegion((-np.pi / 3, np.pi / 3), 50.0, 350.0)
REG15 = SuspiciousRegion((-np.pi / 12, np.pi / 12), 50.0, 100.0)


# ---------------------------------------------------------------- dft basis

def _dft_columns(n):
    """Column ``j`` of the n-point DFT basis: exp(-2j pi j k / n)/sqrt(n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def test_dft_basis_is_unitary_and_mapped():
    for n in (8, 64):
        columns = _dft_columns(n)
        gram = columns.conj().T @ columns
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        # half-wavelength spacing: every column maps into the visible range
        angles = build_dft_basis(G(n, 0.5))
        assert angles.size == n
        assert np.all(np.abs(angles) <= np.pi / 2 + 1e-12)
    angles8 = build_dft_basis(G(8, 0.5))
    assert angles8[0] == 0.0
    # analytic mapping sin(theta) = k/(n d) with wrap-around
    want = np.arcsin(np.array([0, 1, 2, 3, 4, -3, -2, -1]) / 4.0)
    assert np.max(np.abs(angles8 - want)) < 1e-12


def test_dft_mapping_agrees_with_grid_argmax():
    geom = G(16, 0.5)
    angles = build_dft_basis(geom)
    th = np.linspace(-np.pi / 2, np.pi / 2, 20001)
    steer = np.exp(-2j * np.pi * geom.spacing
                   * np.outer(np.arange(16), np.sin(th)))
    resp = np.abs(_dft_columns(16).conj().T @ steer) ** 2
    peak_th = th[np.argmax(resp, axis=1)]
    err = np.abs(np.sin(peak_th) - np.sin(angles))
    err = np.minimum(err, 2.0 - err)  # sin(+-pi/2) label the same edge beam
    assert np.max(err) <= 1.1 * (2.0 / 20001) * np.pi  # one grid step in sine
    # the eligible set for a broadside user excludes the main-lobe column(s)
    idx = _jam_beam_indices(CFG8, build_dft_basis(G(8, 0.5)))
    assert 0 not in idx and len(idx) == 7


# ------------------------------------------------------- closed-form phi

def test_phi_opt_closed_form_branches():
    cfg = ScenarioConfig(G(100, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
    # stationary branch, pinned to its analytic value
    p, br = phi_opt_closed_form(cfg, 0.5, 300.0)
    assert br == "phi_g"
    assert abs(p - (1.0 - (31.0 + np.sqrt(99200.0)) / 1e4)) < 1e-12
    # cheap branch: the fraction that parks the boundary at d_min satisfies
    # its defining large-array identity  s*2^R*d_b^a - (1-s)*Ptot/N0*phi = d_min^a
    p0, br0 = phi_opt_closed_form(cfg, 0.05, 50.0)
    assert br0 == "phi_0"
    lhs = 0.05 * 2.0 ** 5 * 100.0 ** 3 - 0.95 * cfg.p_tilde_tot * p0
    assert abs(lhs - 50.0 ** 3) < 1e-6 * 50.0 ** 3
    # branch flips as the eavesdropper aligns with the user
    _, br_lo = phi_opt_closed_form(cfg, 0.05, 50.0)
    _, br_hi = phi_opt_closed_form(cfg, 0.95, 50.0)
    assert (br_lo, br_hi) == ("phi_0", "phi_g")
    with pytest.raises(DegenerateArrayError):
        phi_opt_closed_form(cfg, 1.0, 50.0)
    with pytest.raises(ValueError):
        phi_opt_closed_form(cfg, -0.2, 50.0)


def test_phi_0_branch_ignores_element_count():
    c50 = ScenarioConfig(G(50, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
    c100 = ScenarioConfig(G(100, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
    for s in (0.05, 0.2, 0.4):
        pa, ba = phi_opt_closed_form(c50, s, 50.0)
        pb, bb = phi_opt_closed_form(c100, s, 50.0)
        assert ba == bb == "phi_0"
        assert abs(pa - pb) < 1e-9


def test_grid_oracle_close_to_closed_form():
    cfg = ScenarioConfig(G(100, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
    for s in (0.05, 0.3, 0.7, 0.95):
        p, _ = phi_opt_closed_form(cfg, s, 50.0)
        g = grid_oracle_phi(cfg, s, 50.0)
        print(f"s={s}: closed {p:.6f} oracle {g:.6f}")
        assert abs(p - g) <= 0.05


# ------------------------------------------------------- uniform 1-D search

def test_optimize_phi_uniform_frozen_and_deterministic():
    res = optimize_phi_uniform(CFG50, REG60, objective="sop")
    print(f"phi_opt={res.phi_opt!r} sop={res.objective!r}")
    assert abs(res.phi_opt - 0.8747739820199815) < 1e-9
    assert abs(res.objective - 0.007194072323246314) < 1e-12
    res2 = optimize_phi_uniform(CFG50, REG60, objective="sop")
    assert res2.phi_opt == res.phi_opt and res2.objective == res.objective
    assert res.allocation.basis == "null_space_uniform"
    assert 0.0 <= res.phi_opt <= phi_max(CFG50)
    # the optimum beats a coarse sweep of alternatives
    for phi in np.linspace(0.0, phi_max(CFG50) - 1e-6, 23):
        assert res.objective <= sop_closed_form(CFG50, phi, REG60) + 1e-12


def test_optimize_phi_uniform_area_objective():
    res = optimize_phi_uniform(CFG50, None, objective="sor_area")
    print(f"area objective: phi={res.phi_opt!r} area={res.objective!r}")
    assert abs(res.phi_opt - 0.8671485505499117) < 1e-9
    assert abs(res.objective - 934.9900778134988) < 1e-6
    re_eval = sor_area(sor_boundary_uniform(CFG50, res.phi_opt))
    assert abs(res.objective - re_eval) <= 1e-9 * max(re_eval, 1.0)


# ------------------------------------------------------ area evaluator

def test_pow_2_over_alpha_matches_power():
    gap = np.concatenate(([0.0], np.geomspace(1e-12, 1e20, 400)))
    for alpha in (2.0, 2.5, 3.0, 4.0, 6.0):
        want = gap ** (2.0 / alpha)
        got = _pow_2_over_alpha(gap.copy(), alpha)
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] / want[1:] - 1.0)) <= 1e-14, alpha


def test_uniform_areas_match_boundary_quadrature():
    for alpha, d_b in ((2.0, 80.0), (3.0, 80.0), (4.5, 40.0)):
        cfg = ScenarioConfig(G(32, 0.5), alpha, 1.0, 1e-8, 4.0, 0.0, d_b)
        phis = np.linspace(0.0, phi_max(cfg), 7, endpoint=False)
        got = _DirectionalAreaEvaluator(cfg, ()).uniform_areas(phis)
        want = [sor_area(sor_boundary_uniform(cfg, p)) for p in phis]
        assert np.max(np.abs(got / want - 1.0)) <= 4e-15, alpha


def test_uniform_areas_blocked_equal_row_by_row():
    # at N=50 the later blocks and the single rows score live columns only
    for cfg in (CFG32, CFG50):
        ev = _DirectionalAreaEvaluator(cfg, ())
        grid = np.linspace(0.0, phi_max(cfg), 2 * _BLOCK_ROWS + 50,
                           endpoint=False)
        blocked = ev.uniform_areas(grid)
        rows = np.array([ev.uniform_areas(grid[i:i + 1])[0]
                         for i in range(grid.size)])
        # one dot product per row either way; only its BLAS kernel differs
        assert np.max(np.abs(blocked / rows - 1.0)) <= 1e-14


# ------------------------------------------------------ live columns

FIG6_150 = ScenarioConfig(G(100, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0, 150.0,
                          n_eves=10)
SHARES = np.column_stack([np.linspace(0.0, 1.0, 201),
                          np.linspace(1.0, 0.0, 201)])


def _full_width(ev, scale, noise):
    """Reference: the areas of a block's rows over every grid column, with
    no mask."""
    every = np.arange(ev.s_eb.size)
    gap = np.maximum(np.multiply.outer(scale, ev.s_eb) - noise(every), 0.0)
    return _pow_2_over_alpha(gap, ev.cfg.alpha) @ ev.weights


def _scored_blocks(monkeypatch, run):
    """(areas, full-width reference, live share) of every block the area
    evaluator scores while ``run()`` runs."""
    blocks = []
    areas = _DirectionalAreaEvaluator.areas

    def recorded(ev, scale, floor, noise):
        share = np.mean(np.max(scale) * ev.s_eb > floor)
        want = _full_width(ev, scale, noise)
        out = areas(ev, scale, floor, noise)
        blocks.append((out.copy(), want, share))
        return out
    with monkeypatch.context() as m:
        m.setattr(_DirectionalAreaEvaluator, "areas", recorded)
        run()
    return blocks


def _assert_like_full_width(got, want):
    """Exact zeros where the reference is zero, else within 1e-14
    relative."""
    dead = want == 0.0
    assert np.all(got[dead] == 0.0)
    assert np.all(np.abs(got[~dead] / want[~dead] - 1.0) <= 1e-14)


def _scan_evaluator(cfg):
    angles = build_dft_basis(cfg.geometry)[_two_lobe_scan(cfg)[0]]
    return _DirectionalAreaEvaluator(cfg, angles)


def _descent_run(cfg):
    """Two sweeps of algorithm 2's descent from the two-lobe seed."""
    beam_angles = build_dft_basis(cfg.geometry)
    idx = _jam_beam_indices(cfg, beam_angles)
    seed = alloc._two_lobe_seed(cfg, idx, phi_max(cfg) * cfg.p_tot)
    ev = _DirectionalAreaEvaluator(cfg, beam_angles[idx])
    cap = phi_max(cfg) * cfg.p_tot * (1.0 - 1e-9)
    return lambda: _beam_line_descent(ev, seed.copy(), cap, 2)


def _scan_run(cfg):
    """The two-lobe scan's blocks, one per fraction."""
    ev = _scan_evaluator(cfg)
    return lambda: [alloc._split_areas(ev, phi, SHARES)
                    for phi in np.arange(0.0, phi_max(cfg), 0.01)]


def _uniform_run(cfg):
    def run():
        # a memo hit would score no block
        alloc._uniform_search.cache_clear()
        return optimize_phi_uniform(cfg, None, objective="sor_area")
    return run


@pytest.mark.parametrize("make_run", [_scan_run, _descent_run, _uniform_run],
                         ids=["scan", "descent", "uniform"])
def test_live_columns_score_every_block_like_the_full_width(make_run,
                                                            monkeypatch):
    blocks = _scored_blocks(monkeypatch, make_run(CFG50))
    assert len(blocks) > 1
    for got, want, _ in blocks:
        _assert_like_full_width(got, want)
    # the mask drops most columns of some blocks
    assert min(share for _, _, share in blocks) < 0.1


def test_descent_mask_takes_the_largest_fraction_of_the_block(monkeypatch):
    # beam 1 deposits nothing, so every row carries the same noise and only
    # the row at the largest fraction (the largest scale) outruns it
    ev = _scan_evaluator(CFG50)
    # a copy: the evaluator's matrix may be the shared, read-only one that
    # _beam_responses keeps for repeated calls
    ev.response = ev.response.copy()
    ev.response[1] = 0.0
    powers = np.array([0.2, 0.0])
    cand = np.append(np.linspace(0.0, 0.5, 200, endpoint=False), 0.0)
    phis = (powers[0] + cand) / CFG50.p_tot
    top = int(np.argmax(phis))
    jam_base = ev.jam(powers)
    jam_base += boundary_scale(CFG50, phis[top]) * ev.s_eb * (1.0 - 1e-9)
    # a mask from the level-0 scale would see no live column at all
    assert not np.any(boundary_scale(CFG50, phis[0]) * ev.s_eb > jam_base)
    (got, want, share), = _scored_blocks(
        monkeypatch, lambda: alloc._visit_areas(ev, powers, 1, cand, jam_base))
    _assert_like_full_width(got, want)
    assert got[top] > 0.0 and np.count_nonzero(got) == 1
    assert share < 0.5


def test_all_live_block_takes_the_full_width(monkeypatch):
    # at N=100, 150 m the unjammed scan block is live on every column
    ev = _scan_evaluator(FIG6_150)
    kept = dict(vars(ev))
    (got, want, share), = _scored_blocks(
        monkeypatch, lambda: alloc._split_areas(ev, 0.0, SHARES))
    assert share == 1.0
    _assert_like_full_width(got, want)
    # the evaluator keeps no block between calls
    assert vars(ev).keys() == kept.keys()
    assert all(vars(ev)[name] is value for name, value in kept.items())


def test_block_with_no_live_column_scores_exact_zeros():
    ev = _scan_evaluator(CFG50)
    scale = boundary_scale(CFG50, 0.3)
    floor = scale * ev.s_eb  # no column's gap can be positive
    got = ev.areas(scale, floor, lambda cols: np.tile(floor[cols], (3, 1)))
    assert np.array_equal(got, np.zeros(3))


def test_uniform_block_with_one_live_column_keeps_the_offset(monkeypatch):
    # at 20 m some fractions leave only the grid point on Bob live
    cfg = dataclasses.replace(CFG50, bob_dist=20.0)
    ev = _DirectionalAreaEvaluator(cfg, ())
    grid = np.linspace(0.0, phi_max(cfg), 2001, endpoint=False)
    cons = sor_constants(cfg, grid)
    live = np.count_nonzero(np.multiply.outer(cons.scale, ev.s_eb)
                            > cons.offset[:, None], axis=1)
    phis = grid[np.flatnonzero(live == 1)[:1]]
    assert phis.size == 1
    built = []

    def recorded(cfg, phi):
        built.append(sor_constants(cfg, phi))
        return built[-1]
    monkeypatch.setattr(alloc, "sor_constants", recorded)
    (got,) = ev.uniform_areas(phis)
    (cons,) = built
    assert np.array_equal(cons.offset, phis * cfg.p_tilde_tot)
    want = sor_area(sor_boundary_uniform(cfg, float(phis[0])))
    assert got > 0.0 and abs(got / want - 1.0) <= 1e-14


def _counted_closed_forms(monkeypatch):
    """Clear the uniform-search memo and record every ``sop_closed_form``
    call the searches make."""
    alloc._uniform_search.cache_clear()
    calls = []
    closed = alloc.sop_closed_form

    def counted(*args):
        calls.append(args)
        return closed(*args)
    monkeypatch.setattr(alloc, "sop_closed_form", counted)
    return calls


def test_uniform_search_runs_once_per_scenario_and_region(monkeypatch):
    calls = _counted_closed_forms(monkeypatch)
    uniform = optimize_phi_uniform(CFG32, REG15, objective="sop")
    searched = len(calls)
    assert searched > 1
    # equal scenario and region objects built anew are the same key
    cfg = ScenarioConfig(G(32, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0, 80.0)
    region = SuspiciousRegion((-np.pi / 12, np.pi / 12), 50.0, 100.0)
    assert cfg is not CFG32 and region is not REG15
    directional = algorithm1_directional(cfg, region)
    assert len(calls) == searched
    assert directional.phi_opt == uniform.phi_opt
    assert directional.trace[0] == (uniform.phi_opt, uniform.objective)
    info = alloc._uniform_search.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # another region, or the other objective, is another search
    optimize_phi_uniform(cfg, SuspiciousRegion(region.angle_interval, 50.0,
                                               101.0), objective="sop")
    assert len(calls) > searched
    optimize_phi_uniform(cfg, region, objective="sor_area")
    assert alloc._uniform_search.cache_info().misses == 3


def _assert_immutable(result):
    """Writing to ``result``'s arrays or fields raises."""
    for array in (result.allocation.beam_powers,
                  result.allocation.beam_angles):
        if array is not None:
            with pytest.raises(ValueError):
                array[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        result.objective = 0.0
    with pytest.raises(FrozenInstanceError):
        result.allocation.phi = 0.0


def test_results_and_allocations_compare_by_identity():
    result = algorithm3_two_lobes(CFG32)
    twin = dataclasses.replace(
        result, allocation=dataclasses.replace(result.allocation))
    for one, other in ((result, twin), (result.allocation, twin.allocation)):
        assert one == one and one != other
        assert one in [other, one] and one not in [other]
        assert hash(one) == hash(one)
        assert len({one, other}) == 2


def test_uniform_results_are_the_memoised_result():
    first = optimize_phi_uniform(CFG32, None, objective="sor_area")
    assert len(first.trace) > 1
    _assert_immutable(first)
    assert optimize_phi_uniform(CFG32, None, objective="sor_area") is first


def test_a_memo_hit_warns_like_the_search(monkeypatch):
    # with no panel doublings every radial segment stops unconverged
    calls = _counted_closed_forms(monkeypatch)
    monkeypatch.setattr(sop_module, "_MAX_DOUBLINGS", 0)
    try:
        for _ in range(2):
            with pytest.warns(ResolutionWarning, match="did not converge"):
                optimize_phi_uniform(CFG8, REG15, objective="sop")
        searched = len(calls)
        with pytest.warns(ResolutionWarning, match="did not converge"):
            algorithm1_directional(CFG8, REG15)
        assert len(calls) == searched
        assert alloc._uniform_search.cache_info().misses == 1
    finally:
        # the memo holds the unconverged search
        alloc._uniform_search.cache_clear()


FIG6_100 = ScenarioConfig(G(100, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0, 100.0,
                          n_eves=10)


@pytest.mark.parametrize("cfg", [CFG50, FIG6_100], ids=["n50", "n100"])
def test_split_noise_on_live_columns_equals_the_full_product(cfg,
                                                            monkeypatch):
    # every block of the two-lobe scan, with its split noise built on the
    # live columns alone, against the full-width block, at three distances
    for dist in (60.0, 100.0, 150.0):
        blocks = _scored_blocks(
            monkeypatch, _scan_run(dataclasses.replace(cfg, bob_dist=dist)))
        assert len(blocks) > 50
        for got, want, _ in blocks:
            _assert_like_full_width(got, want)


def _segment_area_loop(th, r):
    """Reference: the former per-triple loop behind ``sor_area``."""
    f = 0.5 * r * r
    total = 0.0
    i = 0
    while i + 2 < len(th):
        h0 = th[i + 1] - th[i]
        h1 = th[i + 2] - th[i + 1]
        total += ((h0 + h1) / 6.0) * (
            f[i] * (2.0 - h1 / h0)
            + f[i + 1] * (h0 + h1) ** 2 / (h0 * h1)
            + f[i + 2] * (2.0 - h0 / h1))
        i += 2
    if i + 1 < len(th):
        total += 0.5 * (f[i] + f[i + 1]) * (th[i + 1] - th[i])
    return total


def test_sor_area_matches_triple_loop_on_uneven_grid():
    rng = np.random.default_rng(11)
    thetas = np.sort(rng.uniform(-np.pi / 2, np.pi / 2, 4000))
    for phi in (0.0, 0.3):
        bd = sor_boundary_uniform(CFG8, phi, thetas)
        counts = [a.hi - a.lo + 1 for a in bd.lobes if a.hi >= a.lo]
        assert any(c % 2 == 0 for c in counts)  # trailing pairs exercised
        want = sum(_segment_area_loop(bd.thetas[a.lo:a.hi + 1],
                                      bd.radii[a.lo:a.hi + 1])
                   for a in bd.lobes if a.hi > a.lo >= 0)
        assert abs(sor_area(bd) / want - 1.0) <= 1e-12


# ------------------------------------------------------------- algorithm 1

def test_algorithm1_full_halfspace_reduces_to_uniform():
    reg_full = SuspiciousRegion((-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6),
                                50.0, 100.0)
    r_dir = algorithm1_directional(CFG100, reg_full)
    r_uni = optimize_phi_uniform(CFG100, reg_full, objective="sop")
    rel = abs(r_dir.objective / r_uni.objective - 1.0)
    print(f"directional {r_dir.objective:.6f} uniform {r_uni.objective:.6f} "
          f"rel {rel:.4f}")
    assert rel <= 2e-2
    # all but the main-lobe beams participate
    assert r_dir.allocation.beam_powers.size >= CFG100.geometry.n_antennas - 4


def test_algorithm1_beats_uniform_on_narrow_region():
    r_dir = algorithm1_directional(CFG100, REG15)
    r_uni = optimize_phi_uniform(CFG100, REG15, objective="sop")
    print(f"narrow region: directional {r_dir.objective:.6f} "
          f"uniform {r_uni.objective:.6f}")
    assert r_dir.objective <= r_uni.objective + 1e-12
    assert r_dir.phi_opt == r_uni.phi_opt  # fraction inherited from step 2
    # equal split over the selected beams, budget respected
    p = r_dir.allocation.beam_powers
    assert np.ptp(p) < 1e-12
    assert abs(np.sum(p) - r_dir.phi_opt * CFG100.p_tot) < 1e-9


# ------------------------------------------------------------- algorithm 2

def test_algorithm2_one_sweep_toy_matches_grid():
    # one sweep of the descent from zero power on two beams
    beam_angles = build_dft_basis(G(8, 0.5))
    idx = _jam_beam_indices(CFG8, beam_angles)
    angles = beam_angles[np.array(idx[:2])]
    ev = _DirectionalAreaEvaluator(CFG8, angles)
    powers, objective, _, _ = _beam_line_descent(
        ev, np.zeros(2), phi_max(CFG8) * CFG8.p_tot * (1.0 - 1e-9), 1)
    phi = float(np.sum(powers) / CFG8.p_tot)
    print(f"toy: phi={phi!r} area={objective!r} powers={powers}")
    assert abs(phi - 0.9016062490983937) < 1e-9
    assert abs(objective - 360.2354451917358) < 1e-6

    # exhaustive 2-D grid over the same simplex
    cap = phi_max(CFG8) * CFG8.p_tot
    grid = np.linspace(0.0, cap, 121, endpoint=False)
    best_area, best_pt = np.inf, None
    for p1 in grid:
        keep = p1 + grid <= cap - 1e-12
        jam = np.outer(np.full(int(np.count_nonzero(keep)), p1),
                       ev.response[0]) + np.outer(grid[keep], ev.response[1])
        areas = ev.areas(boundary_scale(CFG8, (p1 + grid[keep]) / CFG8.p_tot),
                         np.min(jam, axis=0), lambda cols: jam[:, cols])
        j = int(np.argmin(areas))
        if areas[j] < best_area:
            best_area, best_pt = float(areas[j]), (p1, grid[keep][j])
    step = grid[1] - grid[0]
    print(f"grid best {best_area:.4f} at {best_pt}, step {step:.5f}")
    assert objective <= best_area + 1e-9
    assert abs(powers[0] - best_pt[0]) <= step
    assert abs(powers[1] - best_pt[1]) <= step


def test_algorithm2_trace_monotone_and_budget():
    res = algorithm2_iterative(CFG32)
    tr = np.asarray(res.trace)[:, 1]
    assert np.all(np.diff(tr) <= 1e-9)
    total = float(np.sum(res.allocation.beam_powers))
    assert abs(total - res.phi_opt * CFG32.p_tot) < 1e-9
    assert res.phi_opt <= phi_max(CFG32) + 1e-12
    # objective field re-evaluates to the same area
    bd = sor_boundary_directional(CFG32, res.allocation)
    assert abs(res.objective - sor_area(bd)) <= 1e-9 * max(res.objective, 1.0)
    print(f"N=32 descent: phi={res.phi_opt} area={res.objective!r} "
          f"sweeps logged {len(res.trace)}")
    assert abs(res.objective - 206.681935893716) < 1e-6


def test_algorithm2_beats_uniform_optimum():
    r_uni = optimize_phi_uniform(CFG32, None, objective="sor_area")
    r_it = algorithm2_iterative(CFG32)
    print(f"uniform {r_uni.objective:.4f} vs descent {r_it.objective:.4f}")
    assert r_it.objective <= r_uni.objective + 1e-9


# ------------------------------------------------------------- algorithm 3

def test_algorithm3_two_lobes_structure():
    res = algorithm3_two_lobes(CFG32)
    p = res.allocation.beam_powers
    assert p.size == 2
    assert abs(np.sum(p) - res.phi_opt * CFG32.p_tot) < 1e-9
    # for a broadside user the dominating lobes flank the main lobe
    sins = np.abs(np.sin(res.allocation.beam_angles))
    width = 1.0 / (CFG32.geometry.n_antennas * CFG32.geometry.spacing)
    assert np.all(sins < 2.5 * width)
    print(f"N=32 two-lobe: phi={res.phi_opt} area={res.objective!r} "
          f"angles(deg)={np.degrees(res.allocation.beam_angles).round(3)}")
    assert abs(res.objective - 206.681935893716) < 1e-6


def test_algorithm3_never_beats_algorithm2():
    r2 = algorithm2_iterative(CFG32)
    r3 = algorithm3_two_lobes(CFG32)
    assert r3.objective >= r2.objective - 1e-9


def test_algorithm3_needs_two_side_lobes():
    tiny = ScenarioConfig(G(2, 0.5), 3.0, 1.0, 1e-8, 2.0, 0.0, 100.0)
    with pytest.raises(DegenerateArrayError):
        algorithm3_two_lobes(tiny)


# ------------------------------------------- algorithm 2 start, shared scan

CFG2 = ScenarioConfig(G(2, 0.5), 3.0, 1.0, 1e-8, 2.0, 0.0, 100.0)


def _count_descents(monkeypatch):
    """Record the start of every ``_beam_line_descent`` call."""
    starts = []

    def counted(ev, powers, *args):
        starts.append(powers.copy())
        return _beam_line_descent(ev, powers, *args)
    monkeypatch.setattr(alloc, "_beam_line_descent", counted)
    return starts


def _count_scans(monkeypatch):
    """Clear the scan cache and count runs of the uncached scan body (its
    first step ranks the side lobes)."""
    alloc._two_lobe_scan.cache_clear()
    runs = []
    ranked = alloc._side_lobe_peak_angles

    def counted(cfg):
        runs.append(cfg)
        return ranked(cfg)
    monkeypatch.setattr(alloc, "_side_lobe_peak_angles", counted)
    return runs


@pytest.mark.parametrize("cfg", [CFG32, CFG50], ids=["n32", "fig5_100m"])
def test_algorithm2_is_one_descent_from_the_two_lobe_seed(cfg, monkeypatch):
    beam_angles = build_dft_basis(cfg.geometry)
    idx = _jam_beam_indices(cfg, beam_angles)
    cols, scan = _two_lobe_scan(cfg)
    seed = np.zeros(idx.size)
    for col, p in zip(cols, scan.allocation.beam_powers):
        seed[int(np.nonzero(idx == col)[0][0])] = p
    ev = _DirectionalAreaEvaluator(cfg, beam_angles[idx])
    cap = phi_max(cfg) * cfg.p_tot * (1.0 - 1e-9)
    powers, area, trace, converged = _beam_line_descent(
        ev, seed.copy(), cap, 60)
    assert converged

    starts = _count_descents(monkeypatch)
    res = algorithm2_iterative(cfg)
    assert len(starts) == 1
    assert np.array_equal(starts[0], seed)
    assert res.phi_opt == float(np.sum(powers) / cfg.p_tot)
    assert np.array_equal(res.allocation.beam_powers, powers)
    assert res.objective == area
    assert res.trace == trace
    # the descent never raises the objective, so algo2 <= algo3 exactly
    assert res.objective <= algorithm3_two_lobes(cfg).objective


@pytest.mark.parametrize("cfg", [CFG2], ids=["degenerate_scan"])
def test_algorithm2_falls_back_to_one_spread_descent(cfg, monkeypatch):
    with pytest.raises(DegenerateArrayError):
        _two_lobe_scan(cfg)
    idx = _jam_beam_indices(cfg, build_dft_basis(cfg.geometry))
    assert idx.size == 1
    starts = _count_descents(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the spread descent converges
        res = algorithm2_iterative(cfg)
    assert len(starts) == 1
    spread = np.full(idx.size, 0.5 * phi_max(cfg) * cfg.p_tot / idx.size)
    assert np.array_equal(starts[0], spread)
    assert res.allocation.beam_powers.size == idx.size
    assert res.trace[-1][1] == res.objective <= res.trace[0][1]


@pytest.mark.parametrize("order", ["algo2_first", "algo3_first"])
def test_algorithms_2_and_3_share_one_scan(order, monkeypatch):
    runs = _count_scans(monkeypatch)
    calls = [lambda: algorithm2_iterative(CFG32),
             lambda: algorithm3_two_lobes(CFG32)]
    for call in calls if order == "algo2_first" else calls[::-1]:
        call()
    assert runs == [CFG32]
    # an equal scenario built anew is the same key
    algorithm3_two_lobes(ScenarioConfig(G(32, 0.5), 3.0, 1.0, 1e-8, 4.0,
                                        0.0, 80.0))
    assert len(runs) == 1


def test_scan_results_are_the_memoised_result():
    # the memoised scan is shared: algorithm 3 hands out its result itself,
    # and neither it nor the scan's columns can be written to
    cols, scan = _two_lobe_scan(CFG32)
    with pytest.raises(ValueError):
        cols[0] = 0
    _assert_immutable(scan)
    descent = algorithm2_iterative(CFG32)
    first = algorithm3_two_lobes(CFG32)
    assert first is scan and algorithm3_two_lobes(CFG32) is first
    assert list(_two_lobe_scan(CFG32)[0]) == [30, 2]
    again = algorithm2_iterative(CFG32)
    assert np.array_equal(again.allocation.beam_powers,
                          descent.allocation.beam_powers)
    assert again.trace == descent.trace


# ------------------------------------------- the scan's per-fraction bound

def _fig_rows(n_antennas, r_th, dists, **kw):
    return [ScenarioConfig(G(n_antennas, 0.5), 3.0, 1.0, 1e-8, r_th, 0.0,
                           dist, **kw) for dist in dists]


# fig5's 60/100/160 m rows and fig6's 60/100/150 m rows
FIG_ROWS = (_fig_rows(50, 5.0, (60.0, 100.0, 160.0))
            + _fig_rows(100, 10.0, (60.0, 100.0, 150.0), n_eves=10))
FIG_IDS = ["fig5_60m", "fig5_100m", "fig5_160m",
           "fig6_60m", "fig6_100m", "fig6_150m"]


def _every_fraction(cfg):
    """Reference: the scan's fractions, its split shares, and the areas of
    every split at every fraction, each fraction a ``_split_areas`` block
    as the scan scores it."""
    ev = _scan_evaluator(cfg)
    phis = np.arange(0.0, phi_max(cfg), 0.01)
    splits = np.linspace(0.0, 1.0, 201)
    shares = np.column_stack([splits, 1.0 - splits])
    return ev, phis, shares, [alloc._split_areas(ev, phi, shares)
                              for phi in phis]


def _assert_pruned_scan_is_exhaustive(cfg):
    """The bound lies below every split at its fraction, and the pruned
    scan returns the exhaustive loop's split bit for bit: the first
    minimum in phi order.  Returns (fractions scored, fractions)."""
    ev, phis, shares, areas = _every_fraction(cfg)
    bounds = alloc._split_lower_bounds(ev, phis)
    best = None
    for phi, bound, block in zip(phis, bounds, areas):
        k = int(np.argmin(block))
        assert bound <= block[k]
        if best is None or block[k] < best[0]:
            best = (float(block[k]), float(phi), shares[k] * (phi * cfg.p_tot))
    scan = _two_lobe_scan(cfg)[1]
    assert scan.phi_opt == best[1]
    assert np.array_equal(scan.allocation.beam_powers, best[2])
    assert scan.objective == best[0]
    # the trace is the best area of each scored fraction, in phi order
    mins = {float(phi): float(np.min(block))
            for phi, block in zip(phis, areas)}
    phis_scored = [phi for phi, _ in scan.trace]
    assert phis_scored == sorted(phis_scored)
    assert all(mins[phi] == area for phi, area in scan.trace)
    assert (scan.phi_opt, scan.objective) in scan.trace
    # every fraction left out has a bound above the optimum
    left_out = ~np.isin(phis, phis_scored)
    assert np.all(bounds[left_out] > scan.objective)
    return len(scan.trace), phis.size


@pytest.mark.parametrize("cfg", FIG_ROWS, ids=FIG_IDS)
def test_pruned_scan_equals_the_exhaustive_scan(cfg):
    scored, total = _assert_pruned_scan_is_exhaustive(cfg)
    # the bound skips at least 40% of every figure row's fractions
    assert 1 < scored < 0.6 * total


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=64),
       st.sampled_from([0.4, 0.5, 0.7]),
       st.sampled_from([2.0, 3.0, 3.5, 4.0]),
       st.floats(min_value=0.5, max_value=6.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=20.0, max_value=200.0),
       st.floats(min_value=0.2, max_value=1.0))
# 97 fractions tie at area 0, each with bound 0: all are scored, and the
# first in phi order wins
@example(24, 0.7, 2.0, 1.93, -0.92, 30.1, 0.27)
def test_pruned_scan_equals_the_exhaustive_scan_anywhere(
        n, spacing, alpha, r_th, bob_theta, bob_dist, k_eb):
    cfg = ScenarioConfig(G(n, spacing), alpha, 1.0, 1e-8, r_th, bob_theta,
                         bob_dist, k_eb=k_eb)
    try:
        _two_lobe_scan(cfg)
    except (DegenerateArrayError, InfeasibleRateError):
        reject()
    _assert_pruned_scan_is_exhaustive(cfg)


@pytest.mark.parametrize("search", [
    lambda: optimize_phi_uniform(CFG32, REG15, objective="sop"),
    lambda: algorithm1_directional(CFG32, REG15),
    lambda: algorithm2_iterative(CFG32),
    lambda: algorithm3_two_lobes(CFG32),
], ids=["uniform", "algo1", "algo2", "algo3"])
def test_every_trace_is_phi_value_pairs(search):
    res = search()
    assert isinstance(res.trace, tuple) and len(res.trace) > 1
    for step in res.trace:
        assert isinstance(step, tuple) and len(step) == 2
        assert all(isinstance(v, float) for v in step)
    assert (res.phi_opt, res.objective) in res.trace


def test_default_grid_is_one_read_only_memo_per_scenario():
    cfg = ScenarioConfig(G(32, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0, 85.0)
    _default_grid.cache_clear()
    alloc._two_lobe_scan.cache_clear()
    thetas, arcs, s_eb, weights = _default_arcs(cfg)
    for array in (thetas, *arcs, s_eb, weights):
        assert not array.flags.writeable
    first = sor_boundary_uniform(cfg, 0.0)
    peak = first.lobes[0].max_radius
    assert peak > 0.0
    first.lobes[0].max_radius = -1.0
    assert sor_boundary_uniform(cfg, 0.0).lobes[0].max_radius == peak
    ev = _DirectionalAreaEvaluator(cfg, ())
    assert ev.s_eb is s_eb and ev.weights is weights
    _two_lobe_scan(cfg)
    assert _default_grid.cache_info().misses == 1


def test_default_grid_is_shared_by_scenarios_at_other_distances():
    # the grid reads only the geometry, bob_theta and k_eb
    _default_grid.cache_clear()
    grids = [_default_arcs(ScenarioConfig(G(32, 0.5), 3.0, 1.0, 1e-8, 4.0,
                                          0.0, dist))
             for dist in (70.0, 85.0, 100.0)]
    assert _default_grid.cache_info().misses == 1
    assert all(grid is grids[0] for grid in grids)
    _default_arcs(ScenarioConfig(G(32, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.1, 85.0))
    assert _default_grid.cache_info().misses == 2


def test_lobe_notch_objective_concave_at_fixed_fraction():
    # noise floor chosen so the per-lobe notch stays below the lobe
    # amplitude across the whole budget: the regime the concavity argument
    # speaks about (past saturation the clipped terms go flat instead)
    cfg = ScenarioConfig(G(16, 0.5), 3.0, 1.0, 1e-4, 2.0, 0.0, 30.0)
    angles = np.arcsin(np.array([1.5, 2.5]) / 8.0)  # first two lobe peaks
    phi, budget = 0.2, 0.2
    f = lambda p: lobe_notch_objective(cfg, phi, angles, p)
    # concave along the fixed-budget segment (B,0) -> (0,B)
    ends = (np.array([budget, 0.0]), np.array([0.0, budget]))
    mid = 0.5 * (ends[0] + ends[1])
    assert f(mid) >= 0.5 * (f(ends[0]) + f(ends[1])) - 1e-9
    # decreasing along each power axis at fixed fraction
    assert f(np.array([0.1, 0.0])) < f(np.zeros(2))
    assert f(np.array([0.1, 0.1])) < f(np.array([0.1, 0.0]))
    # consequence: the segment minimum sits at an endpoint
    lam = np.linspace(0.0, 1.0, 41)
    vals = [f(l * ends[1] + (1 - l) * ends[0]) for l in lam]
    assert np.argmin(vals) in (0, len(lam) - 1)

