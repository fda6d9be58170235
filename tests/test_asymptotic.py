"""Outage-region boundaries, lobe radii, areas, and their invariants.

The two workhorse configurations mirror the figure settings used throughout:
a 100-element array protecting a rate-10 user at 100 m, and a 50-element
array protecting a rate-5 user at the same distance.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from secrecy_sor import (
    ArrayGeometry,
    InfeasibleRateError,
    McRunSpec,
    MultiuserScenario,
    PowerAllocation,
    ResolutionWarning,
    ScenarioConfig,
    SuspiciousRegion,
    boundary_scale,
    build_dft_basis,
    delta_theta_max,
    empirical_sop,
    grid_oracle_phi,
    lobe_radii,
    phi_max,
    phi_opt_closed_form,
    s_kernel,
    side_lobe_area_bound,
    sinr_bob_uniform,
    sinr_eve_uniform,
    sor_area,
    sor_boundary_directional,
    sor_boundary_nojam,
    sor_boundary_uniform,
    sor_constants,
)
from secrecy_sor import asymptotic
from secrecy_sor.asymptotic import _default_arcs, _uniform_allocation
from secrecy_sor.crosstalk import (
    _bisect,
    _image_interval,
    _image_maps,
    _kernel_tables,
    _max_side_lobe,
)

CFG100 = ScenarioConfig(ArrayGeometry(100, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0, 100.0)
CFG50 = ScenarioConfig(ArrayGeometry(50, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)


def test_scenario_validation():
    geom = ArrayGeometry(16, 0.5)
    with pytest.raises(ValueError):
        ScenarioConfig(geom, 1.5, 1.0, 1e-8, 5.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        ScenarioConfig(geom, 3.0, -1.0, 1e-8, 5.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        ScenarioConfig(geom, 3.0, 1.0, 1e-8, 5.0, 2.0, 100.0)
    with pytest.raises(ValueError):
        ScenarioConfig(geom, 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0, k_eb=1.2)
    with pytest.raises(ValueError):
        ScenarioConfig(geom, 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0, n_eves=0)
    assert CFG100.p_tilde_tot == 1e8


def test_whole_counts_given_as_floats_are_stored_as_ints():
    # a float count used to be kept as given, and range() then raised in
    # build_dft_basis, the allocation algorithms and the Monte Carlo engine
    geom = ArrayGeometry(16.0, 0.5)
    cfg = ScenarioConfig(geom, 3.0, 1.0, 1e-8, 4.0, 0.0, 80.0, n_eves=2.0)
    assert type(geom.n_antennas) is int and type(cfg.n_eves) is int
    assert geom == ArrayGeometry(16, 0.5)
    assert len(build_dft_basis(geom)) == 16
    region = SuspiciousRegion((-0.5, 0.5), 40.0, 120.0)
    sop = empirical_sop(cfg, _uniform_allocation(cfg, 0.3), region,
                        McRunSpec(8, 1))
    assert 0.0 <= sop <= 1.0


def test_boundary_scale_frozen():
    # signal-to-noise available at Bob: 1e8 * 100^-3 * 100 = 1e4
    got = boundary_scale(CFG100, 0.0)
    print(f"scale(0) = {got!r}")
    assert abs(got - 1140692881.8090677) < 1e-3
    # closed form: 1e8 * 100 * 1024 / (1 + 1e4 - 1024)
    assert abs(got - 1e8 * 100.0 * 1024.0 / (1.0 + 1e4 - 1024.0)) < 1e-3
    assert abs(boundary_scale(CFG50, 0.0) - 32199637.754075266) < 1e-5
    # scale grows without bound as phi approaches phi_max
    pm = phi_max(CFG100)
    assert boundary_scale(CFG100, pm - 1e-6) > 1e4 * got


def test_phi_max_values_and_infeasible():
    assert abs(phi_max(CFG100) - 0.8977) < 1e-12
    assert abs(phi_max(CFG50) - 0.9938) < 1e-12
    far = dataclasses.replace(CFG100, bob_dist=5000.0)
    with pytest.raises(InfeasibleRateError):
        phi_max(far)
    with pytest.raises(InfeasibleRateError):
        boundary_scale(far, 0.0)


def test_sor_constants_on_an_array_equal_the_scalar_calls():
    for cfg in (CFG100, CFG50, dataclasses.replace(CFG50, alpha=2.0)):
        phis = np.linspace(0.0, phi_max(cfg), 101, endpoint=False)
        got = sor_constants(cfg, phis)
        for name, column in zip(got._fields, got):
            want = [getattr(sor_constants(cfg, float(p)), name) for p in phis]
            assert np.array_equal(column, want), name


@pytest.mark.parametrize("fn", [boundary_scale, sor_constants])
@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_fractions_outside_the_unit_interval_rejected(fn, bad, as_array):
    # an array is checked as a scalar is, before any arithmetic: no NaN or
    # out-of-range entry reaches the formulas or their overflow
    phi = np.array([0.1, bad]) if as_array else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\]"):
            fn(CFG50, phi)


def test_main_lobe_radius_frozen():
    radii = lobe_radii(CFG100, 0.0)
    print(f"no-jam radii[:4] = {radii[:4]}")
    assert abs(radii[0] - 1044.8555257055427) < 1e-6
    # every side lobe is alive without jamming, and radii decrease with m
    assert np.all(radii > 0)
    assert np.all(np.diff(radii) < 0)
    # moderate jamming extinguishes the far lobes but not the main one
    r02 = lobe_radii(CFG100, 0.2)
    assert r02[0] > radii[0]
    assert np.all(r02[2:] == 0.0)


def test_sinr_formulas_consistent_with_constants():
    phi = 0.4
    sb = sinr_bob_uniform(CFG100, phi)
    assert abs(sb - 0.6 * 1e8 * 1e-6 * 100) < 1e-9 * sb
    # the boundary is exactly where the secrecy rate hits the target: an
    # eavesdropper on the boundary radius has rate difference == r_th
    cons = sor_constants(CFG100, phi)
    theta_e = 0.017
    s = s_kernel(abs(np.sin(theta_e)), CFG100.geometry)
    if s > cons.cutoff:
        d_e = (cons.scale * s - cons.offset) ** (1.0 / 3.0)
        se = sinr_eve_uniform(CFG100, phi, theta_e, d_e)
        rate = np.log2((1.0 + sb) / (1.0 + se))
        print(f"rate on boundary = {rate!r}")
        assert abs(rate - CFG100.r_th) < 1e-9


def test_boundary_uniform_matches_lobe_radii_and_area_converges():
    phi = 0.5
    bd = sor_boundary_uniform(CFG50, phi)
    assert bd.thetas.size == bd.radii.size
    assert np.all(bd.radii >= 0)
    # peak radius on the default grid reproduces the closed-form main radius
    assert abs(np.max(bd.radii) - lobe_radii(CFG50, phi)[0]) < 1e-6
    a = sor_area(bd)
    dense = sor_area(sor_boundary_directional(
        CFG50, _uniform_allocation(CFG50, phi),
        theta_grid=np.linspace(-np.pi / 2, np.pi / 2, 2_000_001)))
    print(f"area default {a:.4f} dense {dense:.4f}")
    assert abs(a - 1108.5352961265257) < 1e-6
    assert abs(a - dense) <= 5e-3 * dense


def test_nojam_boundary_positive_wherever_crosstalk_positive():
    bd = sor_boundary_nojam(CFG50)
    sins = np.abs(np.sin(bd.thetas) - np.sin(CFG50.bob_theta))
    s = s_kernel(sins, CFG50.geometry)
    inside = np.abs(bd.thetas) <= np.pi / 2
    assert np.all((bd.radii[inside] > 0) == (s[inside] > 0))
    # and identical to the uniform boundary at phi = 0
    bd0 = sor_boundary_uniform(CFG50, 0.0)
    assert np.array_equal(bd.radii, bd0.radii)


def test_boundary_mirror_symmetry():
    left = dataclasses.replace(CFG50, bob_theta=0.35)
    right = dataclasses.replace(CFG50, bob_theta=-0.35)
    grid = np.linspace(-np.pi / 2, np.pi / 2, 20001)
    bl = sor_boundary_directional(left, _uniform_allocation(left, 0.3),
                                  theta_grid=grid)
    br = sor_boundary_directional(right, _uniform_allocation(right, 0.3),
                                  theta_grid=grid)
    assert np.max(np.abs(bl.radii - br.radii[::-1])) < 1e-9


def test_directional_nullspace_reduces_to_uniform():
    phi = 0.45
    alloc = PowerAllocation(phi, np.array([phi * CFG50.p_tot]),
                            "null_space_uniform")
    bd_d = sor_boundary_directional(CFG50, alloc)
    bd_u = sor_boundary_uniform(CFG50, phi)
    assert np.max(np.abs(bd_d.radii - bd_u.radii)) < 1e-9


def test_directional_budget_mismatch_rejected():
    alloc = PowerAllocation(0.5, np.array([0.3]), "null_space_uniform")
    with pytest.raises(ValueError):
        sor_boundary_directional(CFG50, alloc)
    with pytest.raises(ValueError):
        PowerAllocation(0.5, np.array([0.2, 0.3]), "dft_selected")
    with pytest.raises(ValueError):
        PowerAllocation(1.4, np.array([1.4]), "null_space_uniform")
    with pytest.raises(ValueError):
        PowerAllocation(0.5, np.array([-0.1, 0.6]), "dft_selected",
                        np.array([0.1, 0.2]))
    # explicit beams have one basis label
    with pytest.raises(ValueError):
        PowerAllocation(0.3, np.array([0.3]), "custom", np.array([0.0]))


def test_directional_boundary_reuses_one_response_matrix(monkeypatch):
    # consecutive allocations that differ only in their powers share one
    # response matrix, kept read-only from the second call in a row on; a
    # one-off call keeps none, and boundaries on the default grid score
    # exactly as on a user grid of the same angles
    angles = np.arcsin(np.array([-2.5, 1.5, 3.5]) / 25.0)
    thetas = _default_arcs(CFG50)[0]
    slot = [None, None, None]
    monkeypatch.setattr(asymptotic, "_last_response", slot)
    one_off = asymptotic._beam_responses(CFG50, thetas, angles)
    assert slot[2] is None and one_off.flags.writeable
    kept = [asymptotic._beam_responses(CFG50, thetas, angles)
            for _ in range(3)]
    assert kept[0] is not one_off and np.array_equal(kept[0], one_off)
    assert kept[1] is kept[0] and kept[2] is kept[0] and slot[2] is kept[0]
    assert not kept[0].flags.writeable
    asymptotic._beam_responses(CFG50, thetas, angles[:2])
    assert slot[2] is None
    allocs = [PowerAllocation(phi, phi * np.array([0.5, 0.3, 0.2]),
                              "dft_selected", angles)
              for phi in (0.2, 0.45, 0.7, 0.8)]
    radii, matrices = [], []
    for alloc in allocs:
        radii.append(sor_boundary_directional(CFG50, alloc).radii)
        matrices.append(slot[2])
    assert matrices[0] is None
    assert all(m is matrices[1] for m in matrices[1:])
    # a writable grid may change between calls, so its matrix is never kept
    user = np.array(thetas)
    for alloc, r in zip(allocs, radii):
        assert np.array_equal(
            r, sor_boundary_directional(CFG50, alloc, theta_grid=user).radii)
        assert slot[2] is None


def test_constructors_reject_non_finite_inputs():
    geom = ArrayGeometry(16, 0.5)
    args = dict(geometry=geom, alpha=3.0, p_tot=1.0, n0=1e-8, r_th=5.0,
                bob_theta=0.0, bob_dist=100.0)
    bad = [("p_tot", np.inf), ("n0", np.nan), ("r_th", np.inf),
           ("bob_dist", np.nan), ("bob_dist", np.inf), ("n_eves", 2.5),
           ("n_eves", np.nan)]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{**args, name: value})
    for n in (np.inf, np.nan, 2.5):
        with pytest.raises(ValueError, match="n_antennas"):
            ArrayGeometry(n, 0.5)
    with pytest.raises(ValueError):
        SuspiciousRegion((-0.5, 0.5), 50.0, np.inf)
    with pytest.raises(ValueError, match="beam powers"):
        PowerAllocation(0.0, np.array([np.nan]), "null_space_uniform")
    with pytest.raises(ValueError, match="beam powers"):
        PowerAllocation(1.0, np.array([np.inf]), "dft_selected",
                        np.array([0.3]))
    with pytest.raises(ValueError, match="beam angles"):
        PowerAllocation(0.5, np.array([0.5]), "dft_selected",
                        np.array([np.nan]))
    with pytest.raises(ValueError, match="user 1: bob_dist"):
        MultiuserScenario(geom, 3.0, 1e-8, 5.0, (0.0, 0.5), (90.0, np.nan),
                          (1.0, 1.0))
    cfg = ScenarioConfig(**args)
    for grid in ([0.0, np.nan, 0.5], [-np.inf, 0.0, 0.5], [0.0, 0.5, np.inf]):
        with pytest.raises(ValueError, match="theta_grid"):
            sor_boundary_directional(cfg, _uniform_allocation(cfg, 0.1),
                                     grid)
    for d_min in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="d_min"):
            phi_opt_closed_form(cfg, 0.3, d_min)
        with pytest.raises(ValueError, match="d_min"):
            grid_oracle_phi(cfg, 0.3, d_min)


def test_power_allocation_copies_the_callers_arrays():
    powers, angles = np.array([0.1, 0.2]), np.array([0.3, -0.3])
    alloc = PowerAllocation(0.3, powers, "dft_selected", angles)
    for mine, held in ((powers, alloc.beam_powers),
                       (angles, alloc.beam_angles)):
        assert mine.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(mine, held)
        mine[0] = 9.0
        assert held[0] != 9.0


def test_default_grid_areas_read_the_memoised_weights(monkeypatch):
    angles = np.arcsin(np.array([-2.5, 1.5]) / 25.0)
    alloc = PowerAllocation(0.4, [0.3, 0.1], "dft_selected", angles)
    default = [sor_boundary_uniform(CFG50, 0.3),
               sor_boundary_directional(CFG50, alloc)]
    want = [bd.radii ** 2 @ asymptotic._area_weights(
        bd.thetas, zip(bd.lo, bd.hi)) for bd in default]
    user = sor_boundary_directional(CFG50, _uniform_allocation(CFG50, 0.3),
                                    theta_grid=np.array(default[0].thetas))
    calls = []
    weights = asymptotic._area_weights

    def counted(thetas, spans):
        calls.append(thetas)
        return weights(thetas, spans)
    monkeypatch.setattr(asymptotic, "_area_weights", counted)
    assert [sor_area(bd) for bd in default] == want
    assert calls == []
    # a user grid computes its own
    assert default[0].weights is _default_arcs(CFG50)[3]
    assert user.weights is None and sor_area(user) == want[0]
    assert len(calls) == 1


def test_boundary_is_immutable_and_keeps_its_own_grid():
    cfg = ScenarioConfig(ArrayGeometry(16, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0,
                         80.0)
    grid = np.linspace(-1.5, 1.5, 3001)
    angles = np.arcsin(np.array([-1.5, 1.5]) / 8.0)
    allocs = [_uniform_allocation(cfg, 0.3),
              PowerAllocation(0.3, [0.2, 0.1], "dft_selected", angles)]
    user = [sor_boundary_directional(cfg, alloc, grid) for alloc in allocs]
    areas = [sor_area(bd) for bd in user]
    # editing the caller's grid afterwards moves no boundary
    grid[:] = np.linspace(-0.2, 0.2, grid.size)
    assert [sor_area(bd) for bd in user] == areas
    for bd in user + [sor_boundary_uniform(cfg, 0.3)]:
        assert not np.shares_memory(bd.thetas, grid)
        for field in dataclasses.fields(bd):
            array = getattr(bd, field.name)
            if array is None:
                continue
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            bd.radii = np.zeros_like(bd.radii)


def test_directional_beam_kills_targeted_lobe_only():
    # a single explicit beam at the first right side lobe peak should carve
    # that lobe down while leaving the mirror lobe almost unchanged
    geom = CFG50.geometry
    peak1 = np.arcsin(1.5 / (geom.n_antennas * geom.spacing))
    alloc = PowerAllocation(0.3, np.array([0.3]), "dft_selected",
                            np.array([peak1]))
    bd = sor_boundary_directional(CFG50, alloc)
    bd0 = sor_boundary_nojam(CFG50)
    right = np.argmin(np.abs(bd.thetas - peak1))
    left = np.argmin(np.abs(bd.thetas + peak1))
    print(f"targeted {bd.radii[right]:.2f} vs {bd0.radii[right]:.2f}; "
          f"mirror {bd.radii[left]:.2f} vs {bd0.radii[left]:.2f}")
    assert bd.radii[right] < 0.7 * bd0.radii[right]
    assert bd.radii[left] > 0.9 * bd0.radii[left]


def test_delta_theta_max_frozen_and_nojam_full():
    got = np.degrees(delta_theta_max(CFG100, 0.5))
    print(f"reach at phi=0.5: {got:.6f} deg")
    assert abs(got - 1.818298474016466) < 1e-6
    # without jamming the reach is the whole front half space
    assert delta_theta_max(CFG100, 0.0) == np.pi
    # the boundary is indeed zero beyond the reach
    reach = delta_theta_max(CFG100, 0.5)
    bd = sor_boundary_uniform(CFG100, 0.5)
    outside = np.abs(bd.thetas) > reach + 1e-6
    assert np.all(bd.radii[outside] == 0.0)


def _delta_theta_max_reference(cfg, phi):
    """``delta_theta_max`` from the landmark record it was once built on:
    the main-lobe crossing, then each representable side lobe's crossing
    pair or ``None``, walked pair by pair through a generator over
    ``_image_maps``; the bit-for-bit reference for the bracket arrays."""
    cons = sor_constants(cfg, phi)
    if cons.cutoff <= 0.0:
        return np.pi
    if cfg.k_eb <= cons.cutoff:
        return 0.0
    geom = cfg.geometry
    u = cons.cutoff / cfg.k_eb
    tables = _kernel_tables(geom.n_antennas, geom.spacing)
    x_peak, s_peak = tables.peaks(tables.reach(u))
    crossing = np.flatnonzero(s_peak[1:] > u) + 1
    xp = x_peak[crossing]
    roots = _bisect(lambda x: s_kernel(x, geom) - u,
                    np.concatenate(([0.0], crossing * tables.first_null,
                                    xp)),
                    np.concatenate(([tables.first_null], xp,
                                    (crossing + 1) * tables.first_null)))
    k = crossing.size
    pairs = dict(zip(crossing.tolist(),
                     zip(roots[1:k + 1].tolist(), roots[k + 1:].tolist())))
    side = [pairs.get(m) for m in range(1, tables.cap + 1)]
    period = 1.0 / geom.spacing
    half = 0.5 * period
    brackets = [(0.0, min(float(roots[0]), half))]
    for pair in side:
        if pair is not None:
            brackets.append((pair[0], min(pair[1], half)))
    sb = np.sin(cfg.bob_theta)
    best = 0.0
    for sign, side_max in ((1.0, 1.0 - sb), (-1.0, 1.0 + sb)):
        if side_max <= 0:
            continue
        images = (_image_interval(mirror, off, a, b)
                  for mirror, off in _image_maps(period, side_max)
                  for a, b in brackets)
        reach = max(min(hi, side_max) for lo, hi in images if lo < side_max)
        edge = np.arcsin(np.clip(sb + sign * reach, -1.0, 1.0))
        best = max(best, abs(edge - cfg.bob_theta))
    return float(best)


def test_delta_theta_max_equals_the_landmark_walk_bit_for_bit():
    # random scenarios: N 2-400, spacing 0.05-1, Bob at broadside, either
    # end of the half space or anywhere, k_eb 1, 0 or anywhere, alpha 2-6
    rng = np.random.default_rng(28)
    partial = 0
    # and odd arrays whose last side lobe peaks at the half period, at a
    # level below that peak: there the brackets' clamp at the half period
    # decides the last bits of the reach
    for n, spacing, theta in ((7, 0.3, 1.1), (9, 0.4, -0.4), (11, 0.5, 0.1)):
        cfg = ScenarioConfig(ArrayGeometry(n, spacing), 3.0, 1.0, 1e-8, 2.0,
                             theta, 50.0)
        assert delta_theta_max(cfg, 1e-6) == _delta_theta_max_reference(
            cfg, 1e-6)
    for _ in range(300):
        theta = rng.choice([0.0, 0.5 * np.pi, -0.5 * np.pi,
                            rng.uniform(-0.5 * np.pi, 0.5 * np.pi)])
        cfg = ScenarioConfig(
            ArrayGeometry(int(rng.integers(2, 401)), rng.uniform(0.05, 1.0)),
            rng.uniform(2.0, 6.0), 1.0, 1e-8, rng.uniform(0.5, 10.0),
            float(theta), rng.uniform(10.0, 300.0),
            k_eb=float(rng.choice([1.0, 0.0, rng.uniform(0.0, 1.0)])))
        try:
            limit = phi_max(cfg)
        except InfeasibleRateError:
            continue
        for phi in (0.0, rng.uniform(0.0, limit), 0.999 * limit):
            got = delta_theta_max(cfg, phi)
            assert got == _delta_theta_max_reference(cfg, phi), (cfg, phi)
            partial += 0.0 < got < np.pi
    assert partial >= 100


def test_lobe_radii_take_each_side_lobe_at_its_midpoint():
    # without jamming and at alpha = 2 a radius squared is scale * k_eb
    # times the lobe's height, so the squared ratio to the main lobe reads
    # each side lobe's height
    for n in (16, 64, 100):
        geom = ArrayGeometry(n, 0.5)
        cfg = dataclasses.replace(CFG50, geometry=geom, alpha=2.0)
        heights = (lobe_radii(cfg, 0.0) / lobe_radii(cfg, 0.0)[0]) ** 2
        assert heights.size == _max_side_lobe(geom) + 1
        for m in (1, 2, 5):
            mid = (m + 0.5) / (n * geom.spacing)
            assert abs(heights[m] - s_kernel(mid, geom)) < 1e-14
    # the large-array limit 1/(pi(m+1/2))^2 sits below the exact midpoint
    # value and converges to it
    rel = 1.0 / (1.5 * np.pi) ** 2 / heights[1] - 1.0
    assert -1e-3 < rel < 0.0


def test_side_lobe_area_bound_preconditions():
    cfg2 = dataclasses.replace(CFG100, alpha=2.0)
    val = side_lobe_area_bound(cfg2, 0.0, 1)
    assert np.isfinite(val)
    with pytest.raises(ValueError):
        side_lobe_area_bound(CFG100, 0.0, 1)  # alpha != 2
    with pytest.raises(ValueError):
        side_lobe_area_bound(dataclasses.replace(cfg2, bob_theta=0.2), 0.0, 1)
    with pytest.raises(ValueError):
        side_lobe_area_bound(cfg2, 0.0, 0)


def test_coarse_grid_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bd = sor_boundary_directional(CFG50, _uniform_allocation(CFG50, 0.0),
                                      theta_grid=np.linspace(-1.5, 1.5, 301))
        sor_area(bd)
    assert any(issubclass(w.category, ResolutionWarning) for w in caught)


def _per_arc_lobes(cfg, boundary, default):
    """``(index, peak, lo, hi)`` of each arc by the per-arc loop the
    vectorized arcs replaced: a searchsorted pair and an ``np.max`` each."""
    bounds = np.concatenate(([-1.0], asymptotic._null_sins(cfg), [1.0]))
    edges = np.arcsin(bounds)
    main = int(np.searchsorted(bounds, np.sin(cfg.bob_theta))) - 1
    thetas, radii = boundary.thetas, boundary.radii
    if default:
        spans = zip(*(a.tolist() for a in _default_arcs(cfg)[1]))
    else:
        spans = [(abs(j - main),
                  int(np.searchsorted(thetas, edges[j], side="left")),
                  int(np.searchsorted(thetas, edges[j + 1], side="right"))
                  - 1) for j in range(len(edges) - 1)]
    return [(index, float(np.max(radii[lo:hi + 1])) if hi >= lo else 0.0,
             lo, hi) for index, lo, hi in spans]


def test_lobe_arcs_equal_the_per_arc_loop():
    off_axis = dataclasses.replace(CFG50, bob_theta=0.4, k_eb=0.7)
    big = dataclasses.replace(CFG50, geometry=ArrayGeometry(262, 0.5))
    edges = np.arcsin(np.concatenate(
        ([-1.0], asymptotic._null_sins(off_axis), [1.0])))
    sor_map = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 91)
    cases = [
        (CFG100, 0.0, None), (CFG50, 0.3 * phi_max(CFG50), None),
        (off_axis, 0.5 * phi_max(off_axis), None),
        (CFG100, 0.0, sor_map), (big, 0.0, sor_map),
        (big, 0.5 * phi_max(big), sor_map),
        # grid points on every null: neighbouring arcs share them
        (off_axis, 0.0, np.sort(np.concatenate(
            [edges, 0.5 * (edges[:-1] + edges[1:])]))),
        # a grid short of both ends: the outer arcs are empty
        (CFG50, 0.0, np.linspace(-0.3, 0.2, 7)),
        (CFG50, 0.0, np.array([0.05, 0.06])),
    ]
    empty = 0
    for cfg, phi, grid in cases:
        boundary = sor_boundary_directional(
            cfg, _uniform_allocation(cfg, phi), grid)
        got = list(zip(*(a.tolist() for a in (
            boundary.index, boundary.peak, boundary.lo, boundary.hi))))
        want = _per_arc_lobes(cfg, boundary, grid is None)
        assert got == want
        assert all(type(v) is type(w) for g, h in zip(got, want)
                   for v, w in zip(g, h))
        empty += int(np.sum(boundary.lo > boundary.hi))
    assert empty > 0
