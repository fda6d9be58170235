"""Secrecy outage probability (SOP) against randomly placed eavesdroppers.

Each of ``n_eves`` eavesdroppers sits independently in a suspicious annular
sector: angle uniform on an interval, distance with the area-uniform law
2z/(d_max^2 - d_min^2).  Secrecy fails when any of them lands inside the
outage region, so

    SOP = 1 - (1 - p1)^L,       p1 = Area(SOR intersect region) / Area(region).

Two independent routes compute this: a closed form that integrates the
crosstalk CDF radially (``sop_closed_form``), and direct geometry on a
sampled boundary (``sop_intersection``).  They must agree; the tests hold
them to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotic import (
    _outage_gap,
    bob_profile,
    boundary_scale,
    phi_max,
    sor_constants,
)
from .crosstalk import _cdf_batch, _kernel_tables
from .errors import InfeasibleRateError, ResolutionWarning

_HALF_PI = 0.5 * np.pi
# adaptive Simpson on each radial segment of the closed-form SOP
_START_PANELS = 16
_RTOL = 1e-6
_MAX_DOUBLINGS = 11
# is_jamming_beneficial splits (0, phi_max) into this many grid intervals
_BENEFIT_PHI_POINTS = 400


@dataclass(frozen=True)
class SuspiciousRegion:
    """Annular sector the eavesdroppers are confined to:
    ``SuspiciousRegion((th_lo, th_hi), d_min, d_max)``.  The angles lie in
    the front half space [-pi/2, pi/2].  Regions are immutable and compare
    and hash by value, so equal regions built apart are one memo key."""

    angle_interval: tuple
    d_min: float
    d_max: float

    def __post_init__(self):
        lo, hi = float(self.angle_interval[0]), float(self.angle_interval[1])
        if not lo < hi:
            raise ValueError("angle interval must be nonempty")
        if not (-_HALF_PI <= lo and hi <= _HALF_PI):
            raise ValueError("angle interval must lie within [-pi/2, pi/2]")
        object.__setattr__(self, "angle_interval", (lo, hi))
        object.__setattr__(self, "d_min", float(self.d_min))
        object.__setattr__(self, "d_max", float(self.d_max))
        if not 0.0 <= self.d_min < self.d_max < np.inf:
            raise ValueError("need 0 <= d_min < d_max < inf")


def _branch_radii(cfg, cons):
    """Radii at which the radial integrand changes analytic branch: one per
    lobe peak of the crosstalk CDF (where a new lobe starts crossing), one
    row per entry of the array constants ``cons``; NaN where the lobe has
    no outage radius.  The columns stop at the last lobe whose peak bound
    leaves some row a gap: no later lobe has a radius."""
    geom = cfg.geometry
    tables = _kernel_tables(geom.n_antennas, geom.spacing)
    # bound >= s_peak, scale and k_eb are nonnegative and rounding is
    # monotone, so a lobe whose bound leaves no gap has no gap at its peak
    # either; only the lobes before it are located.  Entry 0 of both is the
    # main lobe's 1.0.
    reached = np.flatnonzero(np.any(_outage_gap(
        cons.scale, cfg.k_eb * tables.bound, cons.offset[:, None]) > 0,
        axis=0))
    peaks = tables.peaks(int(reached[-1]) if reached.size else 0)[1]
    gaps = _outage_gap(cons.scale, cfg.k_eb * peaks, cons.offset[:, None])
    radii = np.full(gaps.shape, np.nan)
    live = gaps > 0
    # the scalar power on each gap keeps libm's rounding, which numpy's
    # array power may not share
    radii[live] = [g ** (1.0 / cfg.alpha) for g in gaps[live].tolist()]
    return radii


def _simpson(fx, h):
    """Composite-Simpson estimates, one per row of node values ``fx`` (odd
    node count) with panel widths ``h``."""
    return h / 3.0 * (fx[:, 0] + fx[:, -1]
                      + 4.0 * np.sum(fx[:, 1:-1:2], axis=1)
                      + 2.0 * np.sum(fx[:, 2:-1:2], axis=1))


def _segment_integrals(f, a, b, scale):
    """Adaptive composite-Simpson integrals of ``f`` over the segments
    [a[i], b[i]].

    Every segment starts on ``_START_PANELS`` panels and doubles them until
    successive estimates agree to ``_RTOL`` relative to the larger of the
    estimate and ``scale``, at most ``_MAX_DOUBLINGS`` times.
    ``f(z, rows)`` returns the integrand at nodes ``z``, one row of nodes
    per segment index in ``rows``, so each doubling round evaluates every
    open segment in one call.  Returns the integrals and whether any
    segment stopped at the doubling limit unconverged.
    """
    n = _START_PANELS
    rows = np.arange(a.size)
    xs = np.linspace(a, b, n + 1, axis=1)
    fx = f(xs, rows)
    h = (b - a) / n
    prev = _simpson(fx, h)
    out = np.empty(a.size)
    for _ in range(_MAX_DOUBLINGS):
        if rows.size == 0:
            break
        mids = 0.5 * (xs[:, :-1] + xs[:, 1:])
        fm = f(mids, rows)
        n *= 2
        h *= 0.5
        merged = np.empty((rows.size, n + 1))
        merged[:, 0::2] = fx
        merged[:, 1::2] = fm
        xs_new = np.empty((rows.size, n + 1))
        xs_new[:, 0::2] = xs
        xs_new[:, 1::2] = mids
        cur = _simpson(merged, h)
        done = np.abs(cur - prev) <= _RTOL * np.maximum(np.abs(cur), scale)
        out[rows[done]] = cur[done]
        left = ~done
        rows, xs, fx, prev, h = (rows[left], xs_new[left], merged[left],
                                 cur[left], h[left])
    out[rows] = prev
    return out, rows.size > 0


def sop_closed_form(cfg, phi, region):
    """SOP under uniform null-space jamming, by radial integration of the
    crosstalk CDF over the suspicious region.

    ``phi`` is a jamming fraction or a 1-D array of them; an array returns
    an array whose entries equal the scalar calls exactly (each fraction
    keeps its own branch cuts and quadrature nodes, and every doubling round
    evaluates the crosstalk CDF for all fractions in one call).  Fractions
    must lie in [0, 1]; those at or beyond the feasibility limit return
    1.0: Bob cannot reach the target rate, so secrecy always fails.  Warns
    (``ResolutionWarning``) when a radial segment stops at the doubling
    limit unconverged.
    """
    phis = np.asarray(phi, dtype=float)
    if phis.ndim > 1:
        raise ValueError("phi must be a scalar or a 1-D array")
    if not (np.all(phis >= 0.0) and np.all(phis <= 1.0)):
        raise ValueError("phi must lie in [0, 1]")
    flat = np.atleast_1d(phis)
    out = np.ones(flat.size)
    try:
        limit = phi_max(cfg)
    except InfeasibleRateError:
        limit = -np.inf
    below = np.flatnonzero(flat < limit)
    if below.size:
        out[below] = _sop_below_limit(cfg, flat[below], region)
    return float(out[0]) if phis.ndim == 0 else out


def _sop_below_limit(cfg, phis, region):
    """Closed-form SOP at fractions below the feasibility limit."""
    d_min, d_max = region.d_min, region.d_max
    profile = bob_profile(cfg)
    angle_range = region.angle_interval
    cons = sor_constants(cfg, phis)
    radii = _branch_radii(cfg, cons)
    # each fraction's cuts in ascending order: d_min, the branch radii
    # strictly between d_min and d_max, d_max, then inf as padding; one
    # quadrature segment per pair of consecutive distinct finite cuts
    inside = (d_min < radii) & (radii < d_max)
    cuts = np.sort(np.column_stack((np.full(phis.size, d_min),
                                    np.where(inside, radii, np.inf),
                                    np.full(phis.size, d_max))), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    owner, col = np.nonzero((hi > lo) & (hi < np.inf))
    scale = cons.scale[owner, None]
    offset = cons.offset[owner, None]

    def p_outside(z, rows):
        lvl = (z ** cfg.alpha + offset[rows]) / scale[rows]
        return _cdf_batch(lvl, profile, angle_range) * 2.0 * z

    norm = d_max ** 2 - d_min ** 2
    parts, capped = _segment_integrals(p_outside, lo[owner, col],
                                       hi[owner, col], norm * 0.01)
    if capped:
        warnings.warn(
            f"sop_closed_form: a radial segment did not converge to "
            f"{_RTOL:g} within {_MAX_DOUBLINGS} panel doublings",
            ResolutionWarning, stacklevel=3)
    # add each fraction's segments in cut order
    integral = np.zeros(phis.size)
    np.add.at(integral, owner, parts)
    # the scalar power keeps libm's rounding, which numpy's array power may
    # not share
    return [1.0 - min(max(v / norm, 0.0), 1.0) ** cfg.n_eves
            for v in integral]


def _region_area(region):
    """Area of the suspicious region."""
    lo, hi = region.angle_interval
    return 0.5 * (hi - lo) * (region.d_max ** 2 - region.d_min ** 2)


def _sor_region_overlap(boundary, region):
    """Area of the intersection of an outage region (sampled boundary) with
    the suspicious region: the boundary is clipped radially into the
    region's annular band and the clipped polar integral is taken."""
    lo, hi = region.angle_interval
    thetas = boundary.thetas
    inside = (thetas >= lo) & (thetas <= hi)
    # sorted, each value once (np.unique would import numpy.ma)
    th = np.sort(np.concatenate((thetas[inside], [lo, hi])))
    th = th[np.concatenate(([True], th[1:] != th[:-1]))]
    r = np.interp(th, thetas, boundary.radii)
    covered = 0.5 * np.clip(np.square(np.minimum(r, region.d_max))
                            - np.square(region.d_min), 0.0, None)
    # the trapezoid rule over th
    return float(np.sum(np.diff(th) * (covered[1:] + covered[:-1]) / 2.0))


def sop_intersection(boundary, region, n_eves):
    """SOP from a sampled boundary: clip the boundary radially against the
    region, take the area ratio, and account for ``n_eves`` independent
    eavesdroppers.  The boundary's grid must span the region's angles."""
    if not (float(n_eves).is_integer() and n_eves >= 1):
        raise ValueError("n_eves must be an integer >= 1")
    lo, hi = region.angle_interval
    if not (boundary.thetas[0] <= lo and hi <= boundary.thetas[-1]):
        raise ValueError("the boundary's grid does not span the region")
    area_total = _region_area(region)
    if area_total <= 0:
        raise ValueError("suspicious region has zero area")
    p1 = min(max(_sor_region_overlap(boundary, region) / area_total, 0.0),
             1.0)
    return 1.0 - (1.0 - p1) ** n_eves


def jamming_beneficial_dmax(cfg):
    """Distance limit below which artificial noise can strictly lower the
    SOP: the no-jamming outage radius of the main lobe, where the crosstalk
    peaks at ``k_eb`` (Bob's own direction lies in the front half space)."""
    return (cfg.k_eb * boundary_scale(cfg, 0.0)) ** (1.0 / cfg.alpha)


def _phi_witness_ok(cfg, phi, d_max):
    """Check the analytic improvement condition at distance ``d_max``: the
    noise floor the jamming adds must outweigh the signal-side boundary
    growth at the angle whose no-jamming boundary passes through d_max."""
    a2 = boundary_scale(cfg, 0.0)
    a1 = boundary_scale(cfg, phi)
    z_a = d_max ** cfg.alpha
    if z_a >= a2:
        return False
    return phi * cfg.p_tilde_tot > (a1 - a2) * z_a / (a2 - z_a)


def is_jamming_beneficial(cfg, region):
    """Decide whether any jamming fraction strictly lowers the SOP for this
    region, and exhibit one when it does.

    Returns ``(False, None)`` when the region extends past the benefit
    limit.  Otherwise searches a jamming-fraction grid and returns
    ``(True, phi)`` with ``sop(phi) < sop(0)``, preferring fractions that
    also satisfy the analytic improvement condition at ``d_max``.
    """
    if region.d_max >= jamming_beneficial_dmax(cfg):
        return False, None
    base = sop_closed_form(cfg, 0.0, region)
    limit = phi_max(cfg)
    grid = np.linspace(0.0, limit, _BENEFIT_PHI_POINTS + 1)[1:-1]
    sops = sop_closed_form(cfg, grid, region)
    better = sops < base - 1e-12
    if not np.any(better):
        return False, None
    ok = np.array([better[i] and _phi_witness_ok(cfg, grid[i], region.d_max)
                   for i in range(len(grid))])
    pool = np.where(ok)[0] if np.any(ok) else np.where(better)[0]
    pick = pool[int(np.argmin(sops[pool]))]
    return True, float(grid[pick])
