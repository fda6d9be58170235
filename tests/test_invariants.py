"""Property checks on the kernel/distribution layer, the closed-form SOP and
the outage area.

Randomized inputs cover the corners the hand-picked cases miss: odd element
counts, reference angles at the range edges, sub-half-wavelength spacing,
jamming fractions on both sides of the feasibility limit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secrecy_sor import (
    ArrayGeometry,
    CrosstalkProfile,
    PowerAllocation,
    ResolutionWarning,
    ScenarioConfig,
    SuspiciousRegion,
    build_dft_basis,
    crosstalk_cdf,
    lobe_radii,
    phi_max,
    s_kernel,
    sop_closed_form,
    sop_intersection,
    sor_area,
    sor_boundary_directional,
    sor_boundary_uniform,
)
from secrecy_sor.alloc import _DirectionalAreaEvaluator, _jam_beam_indices
from secrecy_sor.crosstalk import _delta_cdf

geometries = st.builds(
    ArrayGeometry,
    st.integers(min_value=2, max_value=200),
    st.sampled_from([0.25, 0.4, 0.5]),
)


@given(geometries, st.floats(min_value=0.0, max_value=4.0))
def test_kernel_stays_in_unit_interval(geom, x):
    v = s_kernel(x, geom)
    assert 0.0 <= v <= 1.0 + 1e-12


@given(geometries, st.floats(min_value=0.0, max_value=1.9))
def test_kernel_periodic_in_sine_offset(geom, x):
    period = 1.0 / geom.spacing
    assert abs(s_kernel(x, geom) - s_kernel(x + period, geom)) < 1e-9


@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.4),
       st.floats(min_value=0.05, max_value=1.5))
def test_delta_cdf_is_a_cdf(theta_ref, lo, width):
    theta_ref = float(np.clip(theta_ref, -np.pi / 2, np.pi / 2))
    rng = (lo, lo + width)
    z = np.linspace(-0.1, 2.2, 97)
    c = _delta_cdf(z, theta_ref, rng)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.all(np.diff(c) >= -1e-12)
    assert c[0] == 0.0 and c[-1] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=96),
       st.floats(min_value=-1.2, max_value=1.2),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=-1.3, max_value=0.5))
def test_crosstalk_cdf_is_a_cdf(n, theta_ref, k, lo):
    profile = CrosstalkProfile(ArrayGeometry(n, 0.5),
                               float(np.clip(theta_ref, -np.pi / 2, np.pi / 2)),
                               k)
    rng = (lo, lo + 1.0)
    x = np.concatenate([[0.0], np.geomspace(1e-7, 1.0, 33)])
    c = crosstalk_cdf(x, profile, rng)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.all(np.diff(c) >= -1e-12)
    assert c[-1] == 1.0  # levels at/above k cover everything


# SOP layer: N=50 scenarios over a sector that straddles the user, so every
# fraction has branch cuts inside the region
_SOP_REGION = SuspiciousRegion((-0.6, 0.4), 40.0, 220.0)


def _sop_cfg(bob_dist, n_eves=1):
    return ScenarioConfig(ArrayGeometry(50, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0,
                          bob_dist, n_eves=n_eves)


bob_dists = st.floats(min_value=60.0, max_value=160.0)
unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=25, deadline=None)
@given(bob_dists, st.lists(unit, min_size=1, max_size=6))
def test_sop_array_call_equals_scalar_calls(bob_dist, fractions):
    cfg = _sop_cfg(bob_dist)
    # spread over [0, 1.1 * phi_max] and clipped at 1 (no fraction lies
    # above), so some land past the limit
    phis = np.minimum(np.array(fractions) * 1.1 * phi_max(cfg), 1.0)
    got = sop_closed_form(cfg, phis, _SOP_REGION)
    want = [sop_closed_form(cfg, p, _SOP_REGION) for p in phis]
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(bob_dists, unit, st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20))
def test_sop_nondecreasing_in_eavesdropper_count(bob_dist, frac, l1, l2):
    lo, hi = sorted((l1, l2))
    phi = frac * phi_max(_sop_cfg(bob_dist))
    few = sop_closed_form(_sop_cfg(bob_dist, lo), phi, _SOP_REGION)
    many = sop_closed_form(_sop_cfg(bob_dist, hi), phi, _SOP_REGION)
    assert few <= many


@settings(max_examples=25, deadline=None)
@given(bob_dists, st.lists(unit, min_size=1, max_size=6))
def test_sop_is_one_past_the_feasibility_limit(bob_dist, fractions):
    cfg = _sop_cfg(bob_dist)
    pm = phi_max(cfg)
    phis = pm + np.array(fractions) * (1.0 - pm)
    assert np.all(sop_closed_form(cfg, phis, _SOP_REGION) == 1.0)
    assert sop_closed_form(cfg, float(phis[0]), _SOP_REGION) == 1.0


# the two SOP routes: closed form against the uniform boundary sampled on
# 20,001 points across the region's angles, over scenarios with the user off
# broadside and regions anywhere in the front half space, their radial band
# scaled to the no-jamming main-lobe radius so that most of them meet the
# outage region.  (A grid over the whole half space leaves a narrow region
# too few points: at N=8, r_th=1, 47 m, half the feasible fraction and a
# 0.0625 rad region it missed the closed form by 1.1e-3.)  The pinned
# example stops a radial segment at the doubling limit unconverged.
_UNCONVERGED = dict(n=8, bob_theta=0.6, r_th=1.7419659012468243,
                    bob_dist=149.0550320996723, n_eves=1,
                    frac=0.003115099567248455, lo=0.5958277828867056,
                    width=0.05, d_lo=0.0, d_span=1.0)


def _sop_scenario(n, bob_theta, r_th, bob_dist, n_eves, frac, lo, width,
                  d_lo, d_span):
    """(cfg, phi, region) of one closed-form-vs-boundary case."""
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, r_th,
                         bob_theta, bob_dist, n_eves=n_eves)
    reach = float(lobe_radii(cfg, 0.0)[0])
    region = SuspiciousRegion((lo, min(lo + width, 1.5)), d_lo * reach,
                              (d_lo + d_span) * reach)
    return cfg, frac * phi_max(cfg), region


def _dense_sop(cfg, phi, region, points):
    grid = np.linspace(*region.angle_interval, points)
    return sop_intersection(sor_boundary_uniform(cfg, phi, theta_grid=grid),
                            region, cfg.n_eves)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=8, max_value=64),
       st.floats(min_value=-0.6, max_value=0.6),
       st.floats(min_value=1.0, max_value=6.0),
       st.floats(min_value=40.0, max_value=160.0),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=0.95, exclude_max=True),
       st.floats(min_value=-1.5, max_value=1.4),
       st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.0, max_value=0.8),
       st.floats(min_value=0.05, max_value=1.0))
@example(**_UNCONVERGED)
def test_closed_form_sop_matches_the_dense_boundary(n, bob_theta, r_th,
                                                    bob_dist, n_eves, frac,
                                                    lo, width, d_lo, d_span):
    cfg, phi, region = _sop_scenario(n, bob_theta, r_th, bob_dist, n_eves,
                                     frac, lo, width, d_lo, d_span)
    closed = sop_closed_form(cfg, phi, region)
    assert abs(closed - _dense_sop(cfg, phi, region, 20001)) <= 1e-3


def test_unconverged_closed_form_sop_warns_and_stays_accurate():
    cfg, phi, region = _sop_scenario(**_UNCONVERGED)
    with pytest.warns(ResolutionWarning, match="did not converge"):
        closed = sop_closed_form(cfg, phi, region)
    # measured 3.3e-8 from the dense boundary
    assert abs(closed - _dense_sop(cfg, phi, region, 200_001)) <= 1e-6


# area layer: small arrays with the user at broadside, where the outage
# region is symmetric about theta = 0; the grid is mirrored exactly
# (linspace over [-pi/2, pi/2] is not, to the last bit)
_HALF_GRID = np.linspace(0.0, np.pi / 2, 361)
_MIRROR_GRID = np.concatenate([-_HALF_GRID[:0:-1], _HALF_GRID])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=24),
       st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=40.0, max_value=160.0),
       st.floats(min_value=0.0, max_value=0.99))
def test_uniform_area_nonnegative_and_mirror_symmetric(n, r_th, bob_dist,
                                                       frac):
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, r_th, 0.0,
                         bob_dist)
    phi = frac * phi_max(cfg)
    assert sor_area(sor_boundary_uniform(cfg, phi)) >= 0.0
    radii = sor_boundary_uniform(cfg, phi, theta_grid=_MIRROR_GRID).radii
    assert np.all(np.abs(radii - radii[::-1])
                  <= 1e-9 * np.maximum(radii, radii[::-1]))


# the allocation searches score areas with the blocked evaluator; each
# score must be the area of the boundary the allocation draws.  The user
# sits at a share ``reach`` of the distance where the rate stops being
# feasible, so every path-loss exponent gets a usable budget.
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=8, max_value=64),
       st.sampled_from([2.0, 3.0, 4.5]),
       st.floats(min_value=-0.6, max_value=0.6),
       st.floats(min_value=1.0, max_value=6.0),
       st.floats(min_value=0.2, max_value=0.9),
       st.floats(min_value=0.0, max_value=0.95, exclude_max=True),
       st.data())
def test_area_evaluator_equals_the_boundary_area(n, alpha, bob_theta, r_th,
                                                 reach, frac, data):
    limit = (1e8 * n / (2.0 ** r_th - 1.0)) ** (1.0 / alpha)
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), alpha, 1.0, 1e-8, r_th,
                         bob_theta, reach * limit)
    beam_angles = build_dft_basis(cfg.geometry)
    eligible = _jam_beam_indices(cfg, beam_angles).tolist()
    cols = data.draw(st.lists(st.sampled_from(eligible), min_size=1,
                              max_size=6, unique=True))
    shares = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=len(cols),
        max_size=len(cols))))
    phi = frac * phi_max(cfg)
    powers = phi * cfg.p_tot * shares / max(np.sum(shares), 1.0)
    angles = beam_angles[cols]
    alloc = PowerAllocation(float(np.sum(powers) / cfg.p_tot), powers,
                            "dft_selected", angles)
    got = _DirectionalAreaEvaluator(cfg, angles).area(powers)
    want = sor_area(sor_boundary_directional(cfg, alloc))
    assert abs(got - want) <= 1e-12 * want


# algorithm 2's evaluator drives every eligible DFT beam, some of them off;
# its area must be the area of the boundary the allocation draws, so the
# live-column mask may drop no column that boundary reads.  The budget
# stays a billionth below phi_max: within a few ulps of it the summed beam
# powers round past phi_max, where Bob misses the rate and no boundary
# exists (frac = 1 - 2**-53 raised InfeasibleRateError)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([32, 50]),
       st.floats(min_value=40.0, max_value=160.0),
       st.floats(min_value=0.0, max_value=1.0 - 1e-9),
       st.data())
def test_descent_evaluator_area_equals_the_boundary_area(n, bob_dist, frac,
                                                         data):
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0,
                         bob_dist)
    beam_angles = build_dft_basis(cfg.geometry)
    angles = beam_angles[_jam_beam_indices(cfg, beam_angles)]
    shares = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), unit), min_size=angles.size,
        max_size=angles.size)))
    powers = (frac * phi_max(cfg) * cfg.p_tot * shares
              / max(np.sum(shares), 1.0))
    alloc = PowerAllocation(float(np.sum(powers) / cfg.p_tot), powers,
                            "dft_selected", angles)
    got = _DirectionalAreaEvaluator(cfg, angles).area(powers)
    want = sor_area(sor_boundary_directional(cfg, alloc))
    assert abs(got - want) <= 1e-12 * want
