"""Kernel, lobe-landmark and crosstalk-distribution checks.

Frozen reference numbers come from brute-force quadrature (20e6-point angle
grids) run once and pinned here; the tests hold the closed forms to them.
The lobe landmarks are also held bit for bit to scalar reference searches
kept here: one golden-section search per lobe and scipy's bisection rule.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import secrecy_sor
from secrecy_sor import (
    ArrayGeometry,
    CrosstalkProfile,
    ScenarioConfig,
    crosstalk_cdf,
    s_kernel,
)
from secrecy_sor.asymptotic import _s_eb
from secrecy_sor.crosstalk import (
    _HALF_LOBE_SAMPLES,
    _KernelTables,
    _bisect,
    _cdf_batch,
    _cross_points,
    _delta_cdf,
    _delta_span,
    _golden_max,
    _image_interval,
    _image_maps,
    _kernel_tables,
)

G16 = ArrayGeometry(16, 0.5)
G64 = ArrayGeometry(64, 0.5)
G100 = ArrayGeometry(100, 0.5)


def test_kernel_limits_and_nulls():
    assert s_kernel(0.0, G64) == 1.0
    n, d = 64, 0.5
    # nulls at multiples of 1/(n d), period 1/d
    for k in (1, 2, 5, 63):
        assert abs(s_kernel(k / (n * d), G64)) < 1e-20
    x = 0.1234
    assert abs(s_kernel(x, G64) - s_kernel(x + 1.0 / d, G64)) < 1e-12
    vals = s_kernel(np.linspace(0, 2, 10001), G64)
    assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-12)
    # grating points (offset = multiple of the period) are removable
    # singularities with limit 1, including the reachable far edge x = 2
    assert s_kernel(2.0, G64) == 1.0
    assert s_kernel(4.0, ArrayGeometry(11, 0.25)) == 1.0


def test_delta_cdf_uniform_halfspace():
    # theta ~ U(-pi/2, pi/2): P(|sin theta| <= 1/2) = (2 arcsin .5)/pi = 1/3
    full = (-np.pi / 2, np.pi / 2)
    assert abs(_delta_cdf(0.5, 0.0, full) - 1.0 / 3.0) < 1e-12
    assert _delta_cdf(-0.1, 0.0, full) == 0.0
    assert _delta_cdf(2.5, 0.0, full) == 1.0
    z = np.linspace(0, 2, 301)
    c = _delta_cdf(z, 0.3, (-0.2, 1.1))
    assert np.all(np.diff(c) >= -1e-15) and c[-1] == 1.0


@pytest.mark.parametrize("theta_ref", [0.3, -0.9, 1.4],
                         ids=["inside", "below", "above"])
def test_delta_cdf_is_zero_below_zero_wherever_the_reference_lies(theta_ref):
    # the reference angle inside, below and above the range (-0.2, 1.1):
    # a negative z clamps to 0, where the upper end never exceeds the lower
    angle_range = (-0.2, 1.1)
    neg = -np.array([5e-324, 1e-12, 0.1, 0.7, 2.0, np.inf])
    assert np.all(_delta_cdf(neg, theta_ref, angle_range) == 0.0)
    assert _delta_cdf(-0.1, theta_ref, angle_range) == 0.0
    assert np.isnan(_delta_cdf(np.nan, theta_ref, angle_range))
    # and nonnegative z keep their values: the clamp leaves them alone
    z = np.linspace(0.0, 2.0, 41)
    lo, hi = angle_range
    sr = np.sin(theta_ref)
    upper = np.minimum(np.arcsin(np.minimum(1.0, sr + z)), hi)
    lower = np.maximum(np.arcsin(np.maximum(-1.0, sr - z)), lo)
    assert np.array_equal(_delta_cdf(z, theta_ref, angle_range),
                          np.maximum(upper - lower, 0.0) / (hi - lo))


def test_normalized_crosstalk_scales_kernel():
    cfg = ScenarioConfig(G64, 3.0, 1.0, 1e-8, 5.0, 0.3, 100.0, k_eb=0.7)
    th = 0.45
    want = 0.7 * s_kernel(abs(np.sin(th) - np.sin(0.3)), G64)
    assert abs(_s_eb(cfg, th) - want) < 1e-15
    assert _s_eb(cfg, 0.3) == 0.7


def test_cross_points_solve_the_level_equation():
    for u in (0.5, 0.1, 0.01):
        starts, ends = _cross_points(u, G16)
        # the main-lobe core [0, ends[0]) first, then the side lobes' pairs
        assert starts[0] == 0.0
        assert abs(s_kernel(ends[0], G16) - u) < 1e-9
        assert np.all(starts < ends) and np.all(ends[:-1] < starts[1:])
        assert np.all(np.abs(s_kernel(starts[1:], G16) - u) < 1e-9)
        assert np.all(np.abs(s_kernel(ends[1:], G16) - u) < 1e-9)
    # peaks listed high to low along the decreasing branch
    assert np.all(np.diff(_kernel_tables(16, 0.5).s_peak) <= 0.0)


def _ref_golden_max(f, lo, hi, tol=1e-13):
    """Scalar golden-section maximizer, one lobe at a time."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * max(1.0, abs(lo) + abs(hi)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _ref_bisect(f, xa, xb, xtol=1e-12, rtol=4 * np.finfo(float).eps,
                maxiter=100):
    """scipy.optimize.bisect's update rule, one scalar bracket."""
    fa, fb = f(xa), f(xb)
    if fa * fb > 0:
        raise ValueError("same sign")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(maxiter):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError("no convergence")


# odd and even counts, spacings below and at the grating limit
LANDMARK_GEOMETRIES = [ArrayGeometry(n, d) for n in (2, 3, 5, 8, 17, 40, 100)
                       for d in (0.25, 0.37, 0.5, 1.0)]


@pytest.mark.parametrize("geom", LANDMARK_GEOMETRIES,
                         ids=lambda g: f"n{g.n_antennas}-d{g.spacing}")
def test_kernel_tables_equal_per_lobe_scalar_build(geom):
    tables = _KernelTables(geom.n_antennas, geom.spacing)
    width = 1.0 / (geom.n_antennas * geom.spacing)
    for m in range(1, tables.cap + 1):
        lo, hi = m * width, (m + 1) * width
        xp = _ref_golden_max(lambda x: s_kernel(x, geom), lo, hi)
        xr = np.linspace(lo, xp, _HALF_LOBE_SAMPLES)
        xf = np.linspace(xp, hi, _HALF_LOBE_SAMPLES)
        rise_s, rise_x, fall_s, fall_x = tables.rows(m)
        assert tables.x_peak[m] == xp
        assert tables.s_peak[m] == s_kernel(xp, geom)
        assert np.array_equal(rise_x, xr)
        assert np.array_equal(rise_s,
                              np.maximum.accumulate(s_kernel(xr, geom)))
        assert np.array_equal(fall_x, xf[::-1])
        assert np.array_equal(fall_s, np.maximum.accumulate(
            s_kernel(xf, geom)[::-1]))


# every n up to 600, each at one of these spacings in turn, and a few large n
BOUND_GEOMETRIES = [(n, (0.1, 0.25, 0.37, 0.5, 0.75, 1.0)[n % 6])
                    for n in range(2, 601)] + [
    (n, d) for n in (1000, 2049, 4096) for d in (0.1, 0.5, 1.0)]


def test_peak_bound_lies_above_every_peak_and_falls():
    worst = 0.0
    for n, d in BOUND_GEOMETRIES:
        tables = _KernelTables(n, d)
        bound = tables.bound.copy()
        assert bound[0] == 1.0 and tables.s_peak[0] == 1.0
        assert np.all(tables.s_peak <= bound), (n, d)
        assert np.all(np.diff(bound) < 0), (n, d)
        if tables.cap:
            worst = max(worst, np.max(tables.s_peak[1:] / bound[1:]))
    print(f"largest peak / bound {worst:.7f}")
    assert worst < 1.0


@pytest.mark.parametrize("geom", [G16, ArrayGeometry(101, 0.37),
                                  ArrayGeometry(262, 0.5)],
                         ids=lambda g: f"n{g.n_antennas}-d{g.spacing}")
def test_golden_max_on_a_subset_of_brackets_equals_the_full_call(geom):
    width = 1.0 / (geom.n_antennas * geom.spacing)
    m = np.arange(1, _kernel_tables(geom.n_antennas, geom.spacing).cap + 1)

    def f(x):
        return s_kernel(x, geom)
    full = _golden_max(f, m * width, (m + 1) * width)
    rng = np.random.default_rng(geom.n_antennas)
    subsets = [m[:1], m[-1:], m[:3], m[2:9], m[m.size // 2:],
               *(np.sort(rng.choice(m, k, replace=False))
                 for k in (1, 2, 5, m.size // 3))]
    for sub in subsets:
        got = _golden_max(f, sub * width, (sub + 1) * width)
        assert np.array_equal(got, full[sub - 1]), sub
        assert np.array_equal(f(got), f(full)[sub - 1]), sub


def test_kernel_tables_locate_the_same_peaks_in_any_order():
    eager = _KernelTables(262, 0.5)
    x_all, s_all = eager.x_peak.copy(), eager.s_peak.copy()
    rng = np.random.default_rng(27)
    for order in ([1, 2, 3, 130], [130], [7, 3, 60, 2, 128, 130],
                  rng.integers(0, 131, 12).tolist()):
        tables = _KernelTables(262, 0.5)
        for k in order:
            x, s = tables.peaks(k)
            assert np.array_equal(x, x_all[:k + 1])
            assert np.array_equal(s, s_all[:k + 1])
            assert tables._located >= k
        assert np.array_equal(tables.x_peak, x_all)
        assert np.array_equal(tables.s_peak, s_all)
    # a falling sequence of levels locates a prefix that at least doubles
    tables = _KernelTables(262, 0.5)
    searches = 0
    for level in tables.bound[1:][::-1]:
        before = tables._located
        tables.peaks(tables.reach(0.999 * level))
        searches += tables._located > before
    assert tables._located == tables.cap == 130
    assert searches <= 1 + int(np.log2(130))
    # rows(m) locates lobe m itself
    tables = _KernelTables(100, 0.5)
    tables.rows(5)
    assert tables._located >= 5
    assert tables.x_peak[5] == _KernelTables(100, 0.5).x_peak[5]


def test_reach_covers_every_lobe_above_the_level():
    tables = _KernelTables(100, 0.5)
    s_all = tables.s_peak
    levels = np.concatenate([tables.bound, np.nextafter(tables.bound, 0.0),
                             np.nextafter(tables.bound, 2.0), s_all,
                             np.nextafter(s_all, 0.0), [0.0, 0.5, 1.0]])
    for level in levels:
        k = tables.reach(level)
        assert np.all(s_all[k + 1:] <= level)
        assert np.all(tables.bound[1:k + 1] > level)


def test_kernel_tables_build_lobe_rows_only_when_a_level_crosses_them():
    tables = _KernelTables(100, 0.5)
    assert tables._rows == {}
    # cold_keys' case: every level above the highest side-lobe peak
    _kernel_tables.cache_clear()
    prof = CrosstalkProfile(G100, 0.3, 0.9)
    cached = _kernel_tables(100, 0.5)
    levels = 0.9 * np.array([1.01, 1.5, 2.0, 10.0]) * cached.s_peak[1:].max()
    crosstalk_cdf(levels, prof, (-np.pi / 2, np.pi / 2))
    assert cached._rows == {}
    # the eager part of a 128-lobe table is its bound and main lobe only
    tracemalloc.start()
    try:
        _KernelTables(256, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"_KernelTables(256, 0.5) tracemalloc peak {peak / 1e6:.2f} MB")
    assert peak <= 1_000_000


def test_cross_points_equal_scalar_bisection():
    rng = np.random.default_rng(11)
    for geom in LANDMARK_GEOMETRIES:
        width = 1.0 / (geom.n_antennas * geom.spacing)
        cap = _kernel_tables(geom.n_antennas, geom.spacing).cap
        peaks = {m: _ref_golden_max(lambda x: s_kernel(x, geom),
                                    m * width, (m + 1) * width)
                 for m in range(1, cap + 1)}
        for u in np.concatenate([rng.uniform(0.0, 1.0, 6),
                                 10.0 ** rng.uniform(-6.0, -1.0, 6)]):
            u = float(u)
            starts, ends = _cross_points(u, geom)

            def f(x):
                return s_kernel(x, geom) - u
            crossing = [m for m in range(1, cap + 1)
                        if s_kernel(peaks[m], geom) > u]
            assert starts.tolist() == [0.0] + [
                _ref_bisect(f, m * width, peaks[m]) for m in crossing]
            assert ends.tolist() == [_ref_bisect(f, 0.0, width)] + [
                _ref_bisect(f, peaks[m], (m + 1) * width) for m in crossing]
    with pytest.raises(ValueError):
        _bisect(lambda x: x - 5.0, [0.0, 0.0], [10.0, 1.0])


def _assert_brackets_in_half_lobes(starts, ends, u, geom):
    """``_cross_points``' side-lobe brackets are exactly one per side lobe
    whose located peak exceeds ``u``, each pair inside its lobe's two
    halves (the table's peaks all located)."""
    tables = _kernel_tables(geom.n_antennas, geom.spacing)
    crossing = np.flatnonzero(tables.s_peak[1:] > u) + 1
    assert starts.size == ends.size == crossing.size + 1
    lo, hi = crossing * tables.first_null, (crossing + 1) * tables.first_null
    xp = tables.x_peak[crossing]
    assert np.all((lo <= starts[1:]) & (starts[1:] <= xp))
    assert np.all((xp <= ends[1:]) & (ends[1:] <= hi))


def test_cross_points_report_the_peaks_they_decide_by():
    # levels between a side lobe's midpoint envelope (the height lobe_radii
    # takes) and its true peak: the lobe crosses them, since the located
    # peak lies above
    for geom in (G16, ArrayGeometry(50, 0.5), G100):
        n = geom.n_antennas
        width = 1.0 / (n * geom.spacing)
        tables = _kernel_tables(n, geom.spacing)
        for m in range(1, tables.cap + 1):
            true = s_kernel(_ref_golden_max(lambda x: s_kernel(x, geom),
                                            m * width, (m + 1) * width), geom)
            mid = 1.0 / (n * np.sin(np.pi * (m + 0.5) / n)) ** 2
            u = 0.5 * (mid + true)
            assert mid < u < true
            starts, ends = _cross_points(u, geom)
            assert tables.s_peak[0] == 1.0
            assert tables.s_peak[m] == true
            assert np.all(np.diff(tables.s_peak) <= 0.0)
            _assert_brackets_in_half_lobes(starts, ends, u, geom)


@settings(max_examples=60, deadline=None)
@given(st.builds(ArrayGeometry, st.integers(min_value=2, max_value=200),
                 st.sampled_from([0.25, 0.4, 0.5, 1.0])),
       st.floats(min_value=1e-7, max_value=0.999))
def test_cross_points_solve_the_level_inside_their_half_lobes(geom, u):
    starts, ends = _cross_points(u, geom)
    width = 1.0 / (geom.n_antennas * geom.spacing)
    assert starts[0] == 0.0 and 0.0 <= ends[0] <= width
    assert np.all(np.abs(s_kernel(ends, geom) - u) < 1e-9)
    assert np.all(np.abs(s_kernel(starts[1:], geom) - u) < 1e-9)
    _assert_brackets_in_half_lobes(starts, ends, u, geom)


def test_import_leaves_scipy_out():
    src = str(Path(secrecy_sor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, secrecy_sor.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_defaults_openblas_to_one_thread():
    src = str(Path(secrecy_sor.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    code = ("import os, secrecy_sor; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    for preset, want in ((None, "1"), ("2", "2")):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True,
                             text=True).stdout
        assert out.strip() == want


def _brute_cdf(xs, profile, angle_range, n=2_000_001):
    lo, hi = angle_range
    lo, hi = max(lo, -np.pi / 2), min(hi, np.pi / 2)
    th = np.linspace(lo, hi, n)
    ct = profile.k_factor_product * s_kernel(
        np.abs(np.sin(th) - np.sin(profile.theta_ref)), profile.geometry)
    return np.array([np.count_nonzero(ct <= x) for x in xs]) / n


def test_crosstalk_cdf_frozen_values():
    # pinned from a 20e6-point quadrature (diffs were < 5e-7)
    p1 = CrosstalkProfile(G16, 0.3, 0.9)
    full = (-np.pi / 2, np.pi / 2)
    for x, want in [(1e-4, 0.06845156), (0.01, 0.82849156),
                    (0.05, 0.93325940), (0.2, 0.94784501)]:
        got = crosstalk_cdf(x, p1, full)
        print(f"cdf(x={x:g}) = {got:.8f} want {want:.8f}")
        assert abs(got - want) < 1e-5
    # reference angle outside the range: mass piles up at tiny crosstalk
    p2 = CrosstalkProfile(G64, -0.7, 1.0)
    rng2 = (-0.3, 1.2)
    assert abs(crosstalk_cdf(1e-4, p2, rng2) - 0.36112123) < 1e-5
    assert crosstalk_cdf(0.02, p2, rng2) == 1.0


def test_crosstalk_cdf_tracks_brute_force():
    # below half-wavelength spacing (0.25 at either angle, 0.37 at -0.15)
    # the reachable offsets end short of the last representable lobe, so
    # every lobe past them must add nothing
    rngs = [(-np.pi / 2, np.pi / 2), (0.1, 1.3)]
    xs = np.array([1e-5, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.5, 0.79])
    for spacing in (0.25, 0.37, 0.5, 1.0):
        for theta_ref in (-0.15, 0.7):
            p = CrosstalkProfile(ArrayGeometry(24, spacing), theta_ref, 0.8)
            for r in rngs:
                got = crosstalk_cdf(xs, p, r)
                err = np.max(np.abs(got - _brute_cdf(xs, p, r)))
                print(f"d={spacing} theta_ref={theta_ref} range {r}: "
                      f"max cdf error {err:.2e}")
                assert err < 2e-5
                assert np.all(np.diff(got) >= -1e-15)


def _cdf_batch_reference(x, profile, angle_range):
    """The crosstalk CDF as one sweep of every side lobe over every level,
    masking out the levels a lobe does not cross (the masked loop that
    ``_cdf_batch`` replaced); the bit-for-bit reference."""
    geom = profile.geometry
    k = profile.k_factor_product
    x = np.asarray(x, dtype=float)
    if k == 0.0:
        return np.ones_like(x)
    u = x / k
    tables = _kernel_tables(geom.n_antennas, geom.spacing)
    d_lo, d_hi = _delta_span(profile, angle_range)
    period = 1.0 / geom.spacing
    half = 0.5 * period
    maps = _image_maps(period, d_hi)

    def fd(z):
        return _delta_cdf(z, profile.theta_ref, angle_range)

    def reached(span_lo, span_hi):
        images = []
        for mirror, off in maps:
            i_lo, i_hi = _image_interval(mirror, off, span_lo, span_hi)
            if i_lo < d_hi - 1e-15 and i_hi > d_lo + 1e-15:
                images.append((mirror, off))
        return images

    def add_images(contrib, a, b, images, mask):
        for mirror, off in images:
            b_lo, b_hi = _image_interval(mirror, off, a, b)
            term = fd(b_hi) - fd(b_lo)
            contrib += term if mask is None else np.where(mask, term, 0.0)
        return contrib

    p_above = np.zeros_like(u)
    live = u < 1.0
    if np.any(live):
        ul = u[live]
        contrib = np.zeros_like(ul)
        cp0 = np.interp(ul, tables.main_s, tables.main_x)
        contrib = add_images(contrib, np.zeros_like(cp0), cp0,
                             reached(0.0, tables.first_null), None)
        for m in range(1, tables.cap + 1):
            lo_m, hi_m = m * tables.first_null, (m + 1) * tables.first_null
            crosses = ul < tables.s_peak[m]
            if not np.any(crosses):
                continue
            images = reached(lo_m, min(hi_m, half))
            if not images:
                continue
            rise_s, rise_x, fall_s, fall_x = tables.rows(m)
            c1 = np.interp(ul, rise_s, rise_x)
            c2 = np.minimum(np.interp(ul, fall_s, fall_x), half)
            contrib = add_images(contrib, c1, c2, images, crosses)
        p_above[live] = contrib
    out = np.where(u >= 1.0, 0.0, p_above)
    return np.clip(1.0 - out, 0.0, 1.0)


def _segment_nodes(rng, k):
    """Levels shaped like ``sop._segment_integrals``' nodes: one row of
    Simpson nodes per radial segment, each row mapped through z^3 times
    its own scale, so that the rows spread over the CDF's whole support."""
    a = rng.uniform(50.0, 150.0, 12)
    z = np.linspace(a, a + rng.uniform(1.0, 50.0, 12), 33, axis=1)
    lvl = z ** 3.0 / 200.0 ** 3.0
    return k * lvl * 10.0 ** rng.uniform(-7.0, 0.3, (12, 1))


def _cdf_equality_cases():
    """``(id, x, profile, angle_range)`` for the bit-identity check."""
    rng = np.random.default_rng(25)
    full = (-np.pi / 2, np.pi / 2)
    fig6 = (-np.pi / 6, np.pi / 6)
    t100 = _kernel_tables(100, 0.5)
    t5 = _kernel_tables(5, 0.5)
    spread = np.concatenate([10.0 ** rng.uniform(-8.0, 0.0, 200),
                             rng.uniform(0.0, 1.2, 40)])
    yield ("segment_nodes", _segment_nodes(rng, 0.9),
           CrosstalkProfile(G100, 0.0, 0.9), fig6)
    # k = 1 (and 0.5), so that u equals each peak exactly: lobe m crosses
    # only the levels strictly below s_peak[m]
    yield ("at_the_peaks", t100.s_peak[::-1].copy(),
           CrosstalkProfile(G100, 0.2, 1.0), full)
    yield ("at_the_peaks_half_k", 0.5 * np.concatenate([
        t100.s_peak, np.nextafter(t100.s_peak, 0.0),
        np.nextafter(t100.s_peak, 2.0)]),
        CrosstalkProfile(G100, -0.4, 0.5), fig6)
    yield ("duplicates", np.repeat(rng.choice(spread, 30), 4)[::-1] * 0.7,
           CrosstalkProfile(G64, 0.5, 0.7), full)
    yield ("at_or_above_k", 0.6 * np.array([1.0, 1.5, 2.0, 1e300, np.inf,
                                            0.3, 1e-3, 1.0]),
           CrosstalkProfile(G16, 0.1, 0.6), full)
    yield ("zero_k", spread.reshape(-1, 4), CrosstalkProfile(G16, 0.1, 0.0),
           full)
    yield ("ref_outside_range", spread, CrosstalkProfile(G64, -0.7, 1.0),
           (-0.3, 1.2))
    # spacing 1: the period is 1, and offsets up to sin(1.5) + sin(1.4)
    # reach mirror images about 1 and the periodic image past it
    yield ("endfire_images", spread * 0.8,
           CrosstalkProfile(ArrayGeometry(40, 1.0), -1.4, 0.8), (-1.5, 1.5))
    # odd n: side lobe (n - 1) / 2 peaks at the half period, where the
    # fall crossings are clamped
    yield ("odd_half_period_peak",
           np.concatenate([spread * t5.s_peak[-1],
                           np.linspace(0.0, t5.s_peak[-1], 50)]),
           CrosstalkProfile(ArrayGeometry(5, 0.5), 0.0, 1.0), (0.0, 1.0))
    for geom in LANDMARK_GEOMETRIES:
        peaks = _kernel_tables(geom.n_antennas, geom.spacing).s_peak
        x = rng.permutation(np.concatenate([spread, peaks, peaks[1:4]]))
        yield (f"n{geom.n_antennas}-d{geom.spacing}", 0.75 * x,
               CrosstalkProfile(geom, 0.6, 0.75), (-1.2, 0.9))


def test_cdf_batch_equals_the_masked_sweep_bit_for_bit():
    # the odd case's last lobe peaks at the half period 1.0
    t5 = _kernel_tables(5, 0.5)
    assert t5.cap == 2 and abs(t5.x_peak[2] - 1.0) < 1e-8
    assert len(_image_maps(1.0, np.sin(1.5) + np.sin(1.4))) == 4
    for name, x, profile, angle_range in _cdf_equality_cases():
        got = _cdf_batch(x, profile, angle_range)
        want = _cdf_batch_reference(x, profile, angle_range)
        assert got.shape == want.shape == np.shape(x), name
        assert np.array_equal(got, want), name


def _fresh_tables(geom, eager):
    """A fresh cached table for ``geom``, with every peak located when
    ``eager``."""
    _kernel_tables.cache_clear()
    tables = _kernel_tables(geom.n_antennas, geom.spacing)
    if eager:
        tables.s_peak
    return tables


def _lazy_levels(geom, rng):
    """Random levels plus each peak and bound, and one ulp either side."""
    tables = _KernelTables(geom.n_antennas, geom.spacing)
    marks = np.concatenate([tables.s_peak[1:], tables.bound[1:]])
    return np.concatenate([10.0 ** rng.uniform(-6.0, 0.0, 30), marks,
                           np.nextafter(marks, 0.0),
                           np.nextafter(marks, 2.0)])


LAZY_GEOMETRIES = [G16, G64, ArrayGeometry(5, 0.5), ArrayGeometry(37, 0.25),
                   ArrayGeometry(40, 1.0)]


@pytest.mark.parametrize("geom", LAZY_GEOMETRIES,
                         ids=lambda g: f"n{g.n_antennas}-d{g.spacing}")
def test_cdf_batch_and_cross_points_locate_lazily_bit_for_bit(geom):
    # each call on a fresh table that locates peaks as it needs them, then
    # on one with every peak located
    rng = np.random.default_rng(geom.n_antennas)
    levels = _lazy_levels(geom, rng)
    cases = [(CrosstalkProfile(geom, 0.2, 1.0), (-np.pi / 2, np.pi / 2)),
             (CrosstalkProfile(geom, -0.7, 0.6), (-0.3, 1.2))]
    for profile, angle_range in cases:
        k = profile.k_factor_product
        # the whole set, the top of it and (on the first profile) each
        # level alone
        sets = [k * levels, k * np.sort(levels)[-5:]]
        if profile is cases[0][0]:
            sets += [levels[i:i + 1] for i in range(levels.size)]
        lazy = []
        for x in sets:
            tables = _fresh_tables(geom, False)
            lazy.append(_cdf_batch(x, profile, angle_range))
            u = x / k
            assert tables._located == (tables.reach(u[u < 1.0].min())
                                        if np.any(u < 1.0) else 0)
        _fresh_tables(geom, True)
        for x, got in zip(sets, lazy):
            assert np.array_equal(got, _cdf_batch(x, profile, angle_range))
    inside = levels[(levels > 0.0) & (levels < 1.0)]
    lazy = []
    for u in inside:
        tables = _fresh_tables(geom, False)
        lazy.append(_cross_points(u, geom))
        assert tables._located == tables.reach(u)
    _fresh_tables(geom, True)
    for u, got in zip(inside, lazy):
        want = _cross_points(u, geom)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    _kernel_tables.cache_clear()


def test_crosstalk_cdf_skips_lobes_the_range_cannot_reach():
    # offsets reach sin(pi/2) + sin(0.15) = 1.149; side lobe m spans
    # [m/6, (m+1)/6], so lobes 7-11 start past it (and their mirror
    # images about the period 4 lie past it too)
    _kernel_tables.cache_clear()
    p = CrosstalkProfile(ArrayGeometry(24, 0.25), -0.15, 0.8)
    full = (-np.pi / 2, np.pi / 2)
    tables = _kernel_tables(24, 0.25)
    assert tables.cap == 11
    xs = np.array([1e-5, 1e-4, 1e-3])
    assert np.all(xs / 0.8 < tables.s_peak[1:].min())
    got = crosstalk_cdf(xs, p, full)
    assert sorted(tables._rows) == [1, 2, 3, 4, 5, 6]
    err = np.max(np.abs(got - _brute_cdf(xs, p, full)))
    print(f"max cdf error {err:.2e}")
    assert err < 2e-5
    # levels between the peaks of side lobes m and m + 1 cross lobes 1..m
    # only: the lobes past them have an empty prefix and build no rows
    assert np.all(np.diff(tables.s_peak) < 0)
    for m in range(1, 7):
        _kernel_tables.cache_clear()
        tables = _kernel_tables(24, 0.25)
        between = tables.s_peak[m + 1] + np.array([0.1, 0.5, 0.5, 0.9]) * (
            tables.s_peak[m] - tables.s_peak[m + 1])
        crosstalk_cdf(0.8 * between, p, full)
        assert sorted(tables._rows) == list(range(1, m + 1))


def test_default_lobe_count_tracks_every_reachable_lobe():
    # odd n: the half-integer span n d = 2.5 reaches into side lobe 2
    p = CrosstalkProfile(ArrayGeometry(5, 0.5), 0.0, 1.0)
    rng = (0.0, 1.0)
    xs = np.array([0.01, 0.02])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = crosstalk_cdf(xs, p, rng)
    brute = _brute_cdf(xs, p, rng)
    print(f"cdf {got} brute {brute}")
    assert np.max(np.abs(got - brute)) < 1e-3


def test_crosstalk_cdf_support_edges():
    p = CrosstalkProfile(G16, 0.0, 0.9)
    full = (-np.pi / 2, np.pi / 2)
    assert crosstalk_cdf(0.9, p, full) == 1.0
    assert crosstalk_cdf(5.0, p, full) == 1.0
    assert crosstalk_cdf(0.0, p, full) == 0.0
    for bad in (-0.1, float("nan"), np.array([0.1, np.nan]),
                np.array([[0.1], [-0.1]])):
        with pytest.raises(ValueError):
            crosstalk_cdf(bad, p, full)


def test_profile_validation():
    with pytest.raises(ValueError):
        CrosstalkProfile(G16, 2.0, 0.5)
    with pytest.raises(ValueError):
        CrosstalkProfile(G16, 0.0, 1.5)
    with pytest.raises(ValueError):
        ArrayGeometry(1, 0.5)
