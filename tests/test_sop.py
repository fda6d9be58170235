"""Outage probability against randomly placed eavesdroppers.

The closed-form radial integration and the geometric boundary-intersection
route are independent implementations of the same probability; several tests
here pin them against each other and against frozen spot values.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import secrecy_sor.sop as sop_module
from secrecy_sor import (
    ArrayGeometry,
    ScenarioConfig,
    SuspiciousRegion,
    is_jamming_beneficial,
    jamming_beneficial_dmax,
    lobe_radii,
    phi_max,
    sop_closed_form,
    sop_intersection,
    sor_boundary_directional,
    sor_boundary_uniform,
)
from secrecy_sor.asymptotic import (
    SorConstants,
    _outage_gap,
    _uniform_allocation,
    sor_constants,
)
from secrecy_sor.crosstalk import _KernelTables, _kernel_tables
from secrecy_sor.sop import _region_area, _sor_region_overlap
from secrecy_sor.errors import InfeasibleRateError, ResolutionWarning

CFG100 = ScenarioConfig(ArrayGeometry(100, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0,
                        100.0, n_eves=10)
CFG50 = ScenarioConfig(ArrayGeometry(50, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
REG15 = SuspiciousRegion((-np.pi / 12, np.pi / 12), 50.0, 100.0)
REG60 = SuspiciousRegion((-np.pi / 3, np.pi / 3), 50.0, 350.0)


def test_regions_compare_and_hash_by_value():
    same = SuspiciousRegion(np.array([-np.pi / 12, np.pi / 12]), 50, 100)
    assert same is not REG15
    assert same == REG15 and hash(same) == hash(REG15)
    assert same.angle_interval == REG15.angle_interval
    wider = SuspiciousRegion(REG15.angle_interval, 50.0, 100.5)
    assert wider != REG15
    assert len({REG15, same, wider}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        same.d_max = 120.0


def test_region_validation_and_area():
    with pytest.raises(ValueError):
        SuspiciousRegion((0.5, 0.1), 50.0, 100.0)
    with pytest.raises(ValueError):
        SuspiciousRegion((-0.5, 0.5), 120.0, 100.0)
    with pytest.raises(ValueError):
        SuspiciousRegion((-0.5, 0.5), -1.0, 100.0)
    # past +-pi/2 the closed form would clip the angles and the geometric
    # route would not, so the two SOPs would disagree
    for angles in [(-1.75, 1.75), (-1.75, 0.5), (-0.5, 1.75)]:
        with pytest.raises(ValueError, match="pi/2"):
            SuspiciousRegion(angles, 50.0, 200.0)
    SuspiciousRegion((-np.pi / 2, np.pi / 2), 50.0, 200.0)
    # annular sector area: (hi-lo)/2 * (d_max^2 - d_min^2)
    want = (np.pi / 6) / 2.0 * (100.0 ** 2 - 50.0 ** 2)
    assert abs(_region_area(REG15) - want) < 1e-9


def test_sop_frozen_values():
    got = sop_closed_form(CFG100, 0.0, REG15)
    print(f"sop(0) = {got!r}")
    assert abs(got - 0.9999954953299784) < 1e-9
    assert abs(sop_closed_form(CFG100, 0.3, REG15) - 0.66133565) < 1e-6
    assert abs(sop_closed_form(CFG50, 0.0, REG60) - 0.01886445) < 1e-6


def test_sop_closed_vs_geometric():
    grid = np.linspace(-np.pi / 2, np.pi / 2, 262145)
    worst = 0.0
    for cfg, reg, phis in [(CFG100, REG15, (0.0, 0.3, 0.6)),
                           (CFG50, REG60, (0.0, 0.5, 0.9))]:
        for phi in phis:
            a = sop_closed_form(cfg, phi, reg)
            b = sop_intersection(
                sor_boundary_directional(cfg, _uniform_allocation(cfg, phi),
                                         theta_grid=grid), reg, cfg.n_eves)
            worst = max(worst, abs(a - b))
            print(f"N={cfg.geometry.n_antennas} phi={phi}: "
                  f"closed={a:.8f} geometric={b:.8f}")
    print(f"worst |closed - geometric| = {worst:.2e}")
    assert worst <= 1e-3


def test_sop_intersection_refuses_a_grid_short_of_the_region():
    cfg = ScenarioConfig(ArrayGeometry(16, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0,
                         80.0)
    alloc = _uniform_allocation(cfg, 0.3)
    region = SuspiciousRegion((-np.pi / 6, np.pi / 6), 20.0, 120.0)
    # each grid misses part of the region's angles
    for grid in (np.linspace(0.3, 0.5, 2001),
                 np.linspace(-0.001, 0.001, 2001)):
        bd = sor_boundary_directional(cfg, alloc, grid)
        with pytest.raises(ValueError, match="does not span the region"):
            sop_intersection(bd, region, 1)
    # a grid on exactly the region's angles, and the default one, span it
    closed = sop_closed_form(cfg, 0.3, region)
    exact = sor_boundary_directional(
        cfg, alloc, np.linspace(*region.angle_interval, 200_001))
    assert abs(sop_intersection(exact, region, 1) - closed) <= 1e-6
    default = sor_boundary_uniform(cfg, 0.3)
    assert abs(sop_intersection(default, region, 1) - closed) <= 1e-3


def test_sop_multi_eve_composition():
    # L independent eavesdroppers: SOP_L = 1 - (1 - SOP_1)^L, exactly
    single = dataclasses.replace(CFG100, n_eves=1)
    p1 = sop_closed_form(single, 0.3, REG15)
    p10 = sop_closed_form(CFG100, 0.3, REG15)
    assert abs(p10 - (1.0 - (1.0 - p1) ** 10)) < 1e-12


def test_sop_saturates_past_phi_max():
    pm = phi_max(CFG100)
    assert sop_closed_form(CFG100, pm, REG15) == 1.0
    assert sop_closed_form(CFG100, min(1.0, pm + 0.05), REG15) == 1.0


def test_sop_monotone_in_region_distance_band():
    # pushing the same angular window outward (away from the outage region's
    # bulk) must not raise the outage probability at strong jamming
    near = SuspiciousRegion((-np.pi / 12, np.pi / 12), 50.0, 100.0)
    far = SuspiciousRegion((-np.pi / 12, np.pi / 12), 400.0, 450.0)
    p_near = sop_closed_form(CFG100, 0.6, near)
    p_far = sop_closed_form(CFG100, 0.6, far)
    print(f"near {p_near:.6f} far {p_far:.6f}")
    assert p_far < p_near


def test_overlap_against_region_area():
    bd = sor_boundary_uniform(CFG100, 0.0)
    ov = _sor_region_overlap(bd, REG15)
    assert 0.0 < ov <= _region_area(REG15) + 1e-9
    # a sliver tucked entirely inside the no-jam main lobe is fully covered
    inner = SuspiciousRegion((-0.002, 0.002), 50.0, 60.0)
    ov_in = _sor_region_overlap(bd, inner)
    assert abs(ov_in - _region_area(inner)) < 1e-3 * _region_area(inner)
    assert sop_intersection(bd, inner, 1) == pytest.approx(1.0, abs=1e-9)


def test_sop_intersection_takes_only_a_whole_eavesdropper_count():
    bd = sor_boundary_uniform(CFG50, 0.0)
    for bad in (0, -1, 2.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="n_eves"):
            sop_intersection(bd, REG15, bad)
    assert sop_intersection(bd, REG15, 2.0) == sop_intersection(bd, REG15, 2)


def test_jamming_beneficial_dmax_is_the_no_jamming_main_lobe_radius():
    # Bob's own direction lies in the front half space, so the strongest
    # crosstalk there is k_eb, wherever he stands and whatever the geometry
    for geom in (ArrayGeometry(2, 1.0), ArrayGeometry(37, 0.25),
                 ArrayGeometry(64, 0.5), ArrayGeometry(400, 0.05)):
        for theta in (0.0, 0.4, np.pi / 2, -np.pi / 2):
            for k_eb in (1.0, 0.3, 0.0):
                for alpha in (2.0, 3.7, 6.0):
                    cfg = ScenarioConfig(geom, alpha, 1.0, 1e-8, 5.0, theta,
                                         10.0, k_eb=k_eb)
                    got = jamming_beneficial_dmax(cfg)
                    want = lobe_radii(cfg, 0.0)[0]
                    assert abs(got - want) <= 1e-15 * want, (cfg, got, want)


def test_jamming_beneficial_limit_and_witness():
    lim50 = jamming_beneficial_dmax(CFG50)
    print(f"benefit limit N=50: {lim50!r}")
    assert abs(lim50 - 318.13906129403034) < 1e-6
    # broadside user: the limit equals the no-jam main radius
    cfg1 = dataclasses.replace(CFG100, n_eves=1)
    assert abs(jamming_beneficial_dmax(cfg1) - lobe_radii(cfg1, 0.0)[0]) < 1e-9

    inside = SuspiciousRegion((-0.8, -0.1), 60.0, 250.0)
    ok, w = is_jamming_beneficial(CFG50, inside)
    assert ok and 0.0 < w < phi_max(CFG50)
    assert sop_closed_form(CFG50, w, inside) < sop_closed_form(CFG50, 0.0, inside)

    outside = SuspiciousRegion((-0.8, -0.1), 60.0, 400.0)
    ok2, w2 = is_jamming_beneficial(CFG50, outside)
    assert not ok2 and w2 is None


# the fig6 scenario: N=100, r_th=10, 10 eavesdroppers, region +-30 deg,
# 50-200 m
FIG6_REGION = SuspiciousRegion((-np.pi / 6, np.pi / 6), 50.0, 200.0)


@pytest.mark.parametrize("bob_dist", [60.0, 150.0])
def test_sop_array_form_equals_scalar_calls(bob_dist):
    cfg = dataclasses.replace(CFG100, bob_dist=bob_dist)
    grid = np.arange(0.0, phi_max(cfg), 1e-3)
    got = sop_closed_form(cfg, grid, FIG6_REGION)
    want = np.array([sop_closed_form(cfg, p, FIG6_REGION) for p in grid])
    assert got.shape == grid.shape
    assert np.array_equal(got, want)


def test_sop_block_with_varying_cut_counts_equals_scalar_calls():
    # lobe 1's radius falls through d_max and then d_min across the block,
    # and the higher lobes die out: 0 to 6 branch radii cut the region
    region = SuspiciousRegion((-np.pi / 6, np.pi / 6), 120.0, 300.0)
    phis = np.linspace(0.0, phi_max(CFG100), 41)[:-1]
    radii = sop_module._branch_radii(CFG100, sor_constants(CFG100, phis))
    inside = (radii > region.d_min) & (radii < region.d_max)
    assert set(np.sum(inside, axis=1)) == {0, 1, 2, 3, 6}
    got = sop_closed_form(CFG100, phis, region)
    want = np.array([sop_closed_form(CFG100, p, region) for p in phis])
    assert np.array_equal(got, want)


def _branch_radii_reference(cfg, cons):
    """``_branch_radii`` with every peak located: one column per lobe."""
    geom = cfg.geometry
    peaks = _KernelTables(geom.n_antennas, geom.spacing).s_peak
    gaps = _outage_gap(cons.scale, cfg.k_eb * peaks, cons.offset[:, None])
    radii = np.full(gaps.shape, np.nan)
    live = gaps > 0
    radii[live] = [g ** (1.0 / cfg.alpha) for g in gaps[live].tolist()]
    return radii


def _branch_radii_cases():
    for cfg in (CFG100, CFG50, dataclasses.replace(CFG100, k_eb=0.6),
                dataclasses.replace(CFG50, k_eb=0.0)):
        phis = np.linspace(0.0, phi_max(cfg), 41)[:-1]
        yield cfg, sor_constants(cfg, phis)
        # one fraction at a time: the reached lobes shrink as phi grows
        for phi in phis[::4]:
            yield cfg, sor_constants(cfg, np.array([phi]))
        # unit scale and offsets at the peaks and bounds, and one ulp either
        # side (the gap is 0 or the smallest either way), the largest
        # offsets first, so the first rows reach few lobes
        geom = cfg.geometry
        tables = _KernelTables(geom.n_antennas, geom.spacing)
        marks = np.sort(cfg.k_eb * np.concatenate(
            [tables.s_peak, tables.bound]))[::-1]
        for offset in (marks, np.nextafter(marks, 0.0),
                       np.nextafter(marks, 2.0)):
            for rows in range(1, offset.size + 1, max(1, offset.size // 9)):
                yield cfg, SorConstants(np.ones(rows), offset[:rows], None)


def test_branch_radii_locate_only_the_lobes_with_a_gap():
    for cfg, cons in _branch_radii_cases():
        geom = cfg.geometry
        _kernel_tables.cache_clear()
        got = sop_module._branch_radii(cfg, cons)
        located = _kernel_tables(geom.n_antennas, geom.spacing)._located
        want = _branch_radii_reference(cfg, cons)
        k = got.shape[1]
        assert got.shape[0] == want.shape[0] and located == k - 1
        assert np.array_equal(got, want[:, :k], equal_nan=True)
        # the lobes left out have no radius in any row
        assert np.all(np.isnan(want[:, k:]))
    _kernel_tables.cache_clear()


def test_sop_array_form_mixed_entries():
    pm = phi_max(CFG100)
    phis = np.array([0.0, pm, pm + 0.01, 0.3, 1.0])
    got = sop_closed_form(CFG100, phis, REG15)
    assert got[0] == sop_closed_form(CFG100, 0.0, REG15)
    assert got[3] == sop_closed_form(CFG100, 0.3, REG15)
    assert np.all(got[[1, 2, 4]] == 1.0)


def test_sop_array_form_saturated_and_infeasible_blocks():
    pm = phi_max(CFG100)
    # nothing left to integrate: every fraction is at or past the limit
    past = np.array([pm, 0.5 * (pm + 1.0), 1.0])
    assert np.array_equal(sop_closed_form(CFG100, past, REG15), np.ones(3))
    assert sop_closed_form(CFG100, np.array([]), REG15).shape == (0,)
    far = dataclasses.replace(CFG100, bob_dist=1e4)
    with pytest.raises(InfeasibleRateError):
        phi_max(far)
    phis = np.array([0.0, 0.2, 0.7])
    assert np.array_equal(sop_closed_form(far, phis, REG15), np.ones(3))
    assert sop_closed_form(far, 0.0, REG15) == 1.0


def test_sop_rejects_negative_and_keeps_scalar_type():
    with pytest.raises(ValueError):
        sop_closed_form(CFG100, np.array([0.1, -1e-9, 0.2]), REG15)
    with pytest.raises(ValueError):
        sop_closed_form(CFG100, -0.1, REG15)
    # above 1 is no jamming fraction, like below 0
    for phi in (1.5, np.inf, np.array([0.2, 7.0])):
        with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\]"):
            sop_closed_form(CFG100, phi, REG15)
    for phi in (0.3, np.float64(0.3), np.array(0.3), 1.0):
        assert type(sop_closed_form(CFG100, phi, REG15)) is float


def test_sop_warns_when_a_segment_hits_the_doubling_limit(monkeypatch):
    phis = np.array([0.0, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged = sop_closed_form(CFG100, phis, REG15)
    monkeypatch.setattr(sop_module, "_MAX_DOUBLINGS", 0)
    with pytest.warns(ResolutionWarning) as caught:
        capped = sop_closed_form(CFG100, phis, REG15)
    assert len(caught) == 1
    assert np.all(np.abs(capped - converged) < 1e-3)
