"""Large-array secrecy outage regions (SORs).

As the element count grows, beamforming gains harden and the region of
eavesdropper positions that defeat a target secrecy rate collapses onto a
deterministic set: a union of lobes following the crosstalk kernel.  With a
fraction ``phi`` of the transmit power spent on artificial noise in the
signal's null space, an eavesdropper at angle ``theta`` and distance ``z``
breaks secrecy iff

    z**alpha  <  scale * s_eb(theta) - offset,

where ``s_eb`` is the normalized crosstalk toward the eavesdropper and
``(scale, offset)`` depend only on the scenario and ``phi``.  This module
computes those constants, the resulting boundaries (uniform, none, and
directional jamming), their lobe decomposition, and areas.  A caller's
grid enters only through ``sor_boundary_directional``.

Distances are meters, powers Watts, angles radians throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .crosstalk import (
    ArrayGeometry,
    CrosstalkProfile,
    _cross_points,
    _image_interval,
    _image_maps,
    _max_side_lobe,
    s_kernel,
)
from .errors import InfeasibleRateError, ResolutionWarning

_HALF_PI = 0.5 * np.pi
# grid points per lobe arc in the default boundary discretization (odd, so
# each arc is Simpson-ready), and the point count below which area
# quadrature warns
_ARC_POINTS = 65
_MIN_ARC_POINTS = 32

_BASIS_KINDS = ("null_space_uniform", "dft_selected")


@dataclass(frozen=True)
class ScenarioConfig:
    """One transmitter/receiver scenario.

    ``k_eb`` is the Rician-dominance product for the Bob/eavesdropper pair
    (1.0 in the pure line-of-sight limit).  ``n_eves`` is the number of
    independently located eavesdroppers.
    """

    geometry: ArrayGeometry
    alpha: float
    p_tot: float
    n0: float
    r_th: float
    bob_theta: float
    bob_dist: float
    k_eb: float = 1.0
    n_eves: int = 1

    def __post_init__(self):
        if not (2.0 <= self.alpha <= 6.0):
            raise ValueError("alpha must lie in [2, 6]")
        for name in ("p_tot", "n0", "r_th", "bob_dist"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not abs(self.bob_theta) <= _HALF_PI:
            raise ValueError("bob_theta must lie in [-pi/2, pi/2]")
        if not (0.0 <= self.k_eb <= 1.0):
            raise ValueError("k_eb must lie in [0, 1]")
        if not (float(self.n_eves).is_integer() and self.n_eves >= 1):
            raise ValueError("n_eves must be an integer >= 1")
        object.__setattr__(self, "n_eves", int(self.n_eves))

    @property
    def p_tilde_tot(self):
        """Total transmit power normalized by the noise floor."""
        return self.p_tot / self.n0


def bob_profile(cfg):
    """Crosstalk profile of a random angle against Bob's direction."""
    return CrosstalkProfile(cfg.geometry, cfg.bob_theta, cfg.k_eb)


class SorConstants(NamedTuple):
    """Boundary constants: radius**alpha = scale * s_eb - offset wherever
    s_eb exceeds cutoff (= offset/scale), else the radius is zero."""

    scale: float
    offset: float
    cutoff: float


@dataclass(frozen=True, eq=False)
class SorBoundary:
    """Polar boundary d(theta) of a secrecy outage region, sampled at
    ``thetas``, with its lobe arcs between consecutive kernel nulls: arc
    ``j`` spans ``thetas[lo[j]:hi[j] + 1]`` (``lo > hi``: never sampled),
    counts ``index[j]`` nulls from the main (Bob-containing) arc and peaks
    at ``peak[j]`` (0.0 when empty).  ``weights`` are the default grid's
    memoised area weights, None on a user grid.  Immutable, with read-only
    arrays; compared and hashed by identity."""

    thetas: np.ndarray
    radii: np.ndarray
    index: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    peak: np.ndarray
    weights: np.ndarray | None


def _read_only(array):
    """``array``, marked read-only, to be shared with every caller."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """How the artificial-noise budget ``phi * p_tot`` is spread.

    ``basis`` selects the jamming space: ``null_space_uniform`` spreads the
    budget isotropically in the signal's null space (``beam_angles`` unused),
    while ``dft_selected`` drives explicit beams whose steering angles are
    listed in ``beam_angles`` (one per entry of ``beam_powers``, in Watts).
    Immutable: the arrays are read-only float copies of the ones given.
    Compared and hashed by identity.
    """

    phi: float
    beam_powers: np.ndarray
    basis: str
    beam_angles: np.ndarray | None = None

    def __post_init__(self):
        if self.basis not in _BASIS_KINDS:
            raise ValueError(f"basis must be one of {_BASIS_KINDS}")
        if not (0.0 <= self.phi <= 1.0):
            raise ValueError("phi must lie in [0, 1]")
        object.__setattr__(self, "beam_powers", _read_only(
            np.array(self.beam_powers, dtype=float)))
        if not np.all((self.beam_powers >= 0) & (self.beam_powers < np.inf)):
            raise ValueError("beam powers must be nonnegative and finite")
        if self.basis != "null_space_uniform":
            if self.beam_angles is None:
                raise ValueError(f"basis {self.basis!r} requires beam_angles")
            object.__setattr__(self, "beam_angles", _read_only(
                np.array(self.beam_angles, dtype=float)))
            if self.beam_angles.shape != self.beam_powers.shape:
                raise ValueError("beam_angles and beam_powers must align")
            if not np.all(np.isfinite(self.beam_angles)):
                raise ValueError("beam angles must be finite")


def _uniform_allocation(cfg, phi):
    """Uniform null-space jamming at fraction ``phi``: the budget
    ``phi * p_tot`` spread equally over the n - 1 null-space directions."""
    n = cfg.geometry.n_antennas
    return PowerAllocation(
        phi=phi,
        beam_powers=np.full(n - 1, phi * cfg.p_tot / (n - 1)),
        basis="null_space_uniform")


def _check_allocation(cfg, alloc):
    budget = alloc.phi * cfg.p_tot
    total = float(np.sum(alloc.beam_powers))
    if abs(total - budget) > 1e-9 * max(budget, cfg.p_tot * 1e-12):
        raise ValueError(
            f"beam powers sum to {total:.6g} W but phi*p_tot = {budget:.6g} W"
        )


def boundary_scale(cfg, phi):
    """Eavesdropper radius**alpha per unit crosstalk when a fraction ``phi``
    of the power is diverted away from the signal (no jamming term).

    ``phi`` is a fraction in [0, 1] or a 1-D array of them; an array
    returns an array.  Raises when the remaining signal power cannot reach
    the target rate at some fraction.
    """
    phis = phi if np.ndim(phi) == 0 else np.asarray(phi, dtype=float)
    if not (np.all(phis >= 0.0) and np.all(phis <= 1.0)):
        raise ValueError("phi must lie in [0, 1]")
    n = cfg.geometry.n_antennas
    gain = 2.0 ** cfg.r_th
    x = (1.0 - phis) * cfg.p_tilde_tot
    snr_bob = x * cfg.bob_dist ** (-cfg.alpha) * n
    denom = 1.0 + snr_bob - gain
    if np.any(denom <= 0.0):
        raise InfeasibleRateError(
            f"target rate {cfg.r_th} unreachable with signal fraction "
            f"{1.0 - np.max(phis):.6g}")
    return x * n * gain / denom


def _s_eb(cfg, thetas):
    """Normalized crosstalk toward Bob from each angle in ``thetas``."""
    return cfg.k_eb * s_kernel(
        np.abs(np.sin(thetas) - np.sin(cfg.bob_theta)), cfg.geometry)


def _area_weights(thetas, spans):
    """Quadrature weights w such that w @ r**2 is the area enclosed by a
    polar boundary sampled at ``thetas``: the integral of r^2/2 over each
    arc ``thetas[lo:hi + 1]`` of the ``(lo, hi)`` pairs ``spans``, Simpson on
    consecutive point triples (exact for the uneven spacing a user grid may
    have) and a trapezoid for a trailing pair."""
    w = np.zeros(len(thetas))
    for lo, hi in spans:
        if hi <= lo:
            continue
        h = np.diff(thetas[lo:hi + 1])
        seg = w[lo:hi + 1]
        m = h.size - h.size % 2
        h0, h1 = h[0:m:2], h[1:m:2]
        c = (h0 + h1) / 6.0
        seg[0:m:2] += c * (2.0 - h1 / h0)
        seg[1:m:2] += c * (h0 + h1) ** 2 / (h0 * h1)
        seg[2:m + 1:2] += c * (2.0 - h0 / h1)
        if m < h.size:
            seg[-2:] += 0.5 * h[-1]
    return 0.5 * w


def sinr_bob_uniform(cfg, phi):
    """Bob's asymptotic SINR under null-space jamming (which he never sees)."""
    if not (0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    n = cfg.geometry.n_antennas
    return (1.0 - phi) * cfg.p_tilde_tot * cfg.bob_dist ** (-cfg.alpha) * n


def sinr_eve_uniform(cfg, phi, eve_theta, eve_dist):
    """An eavesdropper's asymptotic SINR under uniform null-space jamming,
    at angle ``eve_theta`` in [-pi/2, pi/2] and distance ``eve_dist``."""
    if not (0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    if not np.all(np.abs(eve_theta) <= _HALF_PI):
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    if not eve_dist > 0:
        raise ValueError("eve_dist must be positive")
    n = cfg.geometry.n_antennas
    s = _s_eb(cfg, eve_theta)
    path = eve_dist ** (-cfg.alpha)
    num = (1.0 - phi) * cfg.p_tilde_tot * path * n * s
    den = 1.0 + path * phi * cfg.p_tilde_tot * (1.0 - s)
    return num / den


def phi_max(cfg):
    """Largest jamming fraction that keeps Bob at the target rate."""
    n = cfg.geometry.n_antennas
    avail = cfg.p_tilde_tot * cfg.bob_dist ** (-cfg.alpha) * n
    value = 1.0 - (2.0 ** cfg.r_th - 1.0) / avail
    if value <= 0.0:
        raise InfeasibleRateError(
            f"rate {cfg.r_th} infeasible even with all power on the signal")
    return value


def sor_constants(cfg, phi):
    """(scale, offset, cutoff) of the uniform-jamming boundary at ``phi``.

    ``phi`` is a fraction or a 1-D array of them; an array gives arrays,
    each entry equal to the scalar call's."""
    p_jam = phi * cfg.p_tilde_tot
    scale = boundary_scale(cfg, phi) + p_jam
    return SorConstants(scale, p_jam, p_jam / scale)


def _outage_gap(scale, s_eb, noise, out=None):
    """radius**alpha of the outage boundary, ``max(scale * s_eb - noise,
    0)``, with the product taken as ``np.multiply.outer(scale, s_eb)``
    (one row per entry of an array ``scale``; at least one of the two is an
    array).  The result goes to ``out``, which may be ``noise`` itself, or
    else into the product, so no further block is allocated."""
    gap = np.multiply.outer(scale, s_eb)
    if out is None:
        out = gap
    np.subtract(gap, noise, out=out)
    return np.maximum(out, 0.0, out=out)


def _null_sins(cfg):
    """Sine-domain kernel nulls around Bob that fall strictly inside (-1, 1),
    sorted ascending.  Multiples of the full period are main-lobe repeats,
    not nulls, and are excluded."""
    geom = cfg.geometry
    sb = np.sin(cfg.bob_theta)
    width = 1.0 / (geom.n_antennas * geom.spacing)
    k_max = int(np.ceil((1.0 + abs(sb)) / width)) + 1
    ks = np.arange(-k_max, k_max + 1)
    ks = ks[(ks != 0) & (ks % geom.n_antennas != 0)]
    sins = sb + ks * width
    return np.sort(sins[(sins > -1.0 + 1e-12) & (sins < 1.0 - 1e-12)])


def _arc_edges(cfg):
    """``(index, edges)`` of the lobe arcs between consecutive kernel nulls
    (and the ends of the front half space), left to right: arc ``j`` spans
    ``[edges[j], edges[j + 1]]`` and ``index[j]`` counts nulls between it
    and Bob's arc."""
    bounds = np.concatenate(([-1.0], _null_sins(cfg), [1.0]))
    edges = np.arcsin(bounds)
    main = int(np.searchsorted(bounds, np.sin(cfg.bob_theta))) - 1
    return np.abs(np.arange(edges.size - 1) - main), edges


class _GridKey(NamedTuple):
    """The scenario fields the default grid depends on; the grid's helpers
    read them as they read a ``ScenarioConfig``'s."""

    geometry: ArrayGeometry
    bob_theta: float
    k_eb: float


def _default_arcs(cfg):
    """Default boundary grid: each lobe arc between consecutive nulls gets an
    odd uniform-in-theta point count, arcs sharing endpoint nulls.

    Returns ``(thetas, (index, lo, hi), s_eb, weights)``: the angles, the
    arcs as in ``SorBoundary`` (one array entry per arc), ``_s_eb`` and
    ``_area_weights`` on them.  Memoised (``_default_grid``) on the
    geometry, ``bob_theta`` and ``k_eb``, the only fields it reads, so
    scenarios that differ in anything else share one grid; the arrays are
    read-only."""
    return _default_grid(_GridKey(cfg.geometry, cfg.bob_theta, cfg.k_eb))


@lru_cache(maxsize=32)
def _default_grid(key):
    index, edges = _arc_edges(key)
    step = _ARC_POINTS - 1
    segs = np.linspace(edges[:-1], edges[1:], _ARC_POINTS, axis=1)
    thetas = _read_only(np.concatenate((segs[0, :1], segs[:, 1:].ravel())))
    lo = np.arange(index.size) * step
    hi = lo + step
    return (thetas, (_read_only(index), _read_only(lo), _read_only(hi)),
            _read_only(_s_eb(key, thetas)),
            _read_only(_area_weights(thetas, zip(lo, hi))))


def _arcs_for_grid(cfg, thetas):
    """Assign a user-supplied (sorted) grid to the analytic lobe arcs:
    ``(thetas, (index, lo, hi))``, one array entry per arc as in
    ``SorBoundary``, all read-only; ``thetas`` is a copy of the grid."""
    thetas = _read_only(np.array(thetas, dtype=float))
    if thetas.ndim != 1 or thetas.size < 2:
        raise ValueError("theta_grid must be a 1-D array with >= 2 points")
    if not (np.all(np.isfinite(thetas)) and np.all(np.diff(thetas) > 0)):
        raise ValueError("theta_grid must be finite and strictly increasing")
    # a grid point sitting exactly on a null belongs to both arcs, like the
    # shared endpoints of the default grid
    index, edges = _arc_edges(cfg)
    lo = np.searchsorted(thetas, edges[:-1], side="left")
    hi = np.searchsorted(thetas, edges[1:], side="right") - 1
    return thetas, (_read_only(index), _read_only(lo), _read_only(hi))


def _lobe_arcs(radii, lo, hi):
    """Read-only maximum of ``radii`` over each arc ``[lo[j], hi[j]]``
    (arrays, one entry per arc; ``lo > hi`` marks an empty arc, whose
    maximum is 0.0).

    Each maximum is one ``np.maximum.reduceat`` segment.  The segment ends
    ``hi + 1`` sit between the starts, so arcs that share an end point keep
    their own segments, and a trailing 0.0 keeps every end in range.
    """
    ends = np.column_stack((lo, hi + 1)).ravel()
    peaks = np.maximum.reduceat(np.append(radii, 0.0), ends)[::2]
    return _read_only(np.where(hi >= lo, peaks, 0.0))


def _sor_boundary(cfg, theta_grid, scale, noise):
    """The boundary every jamming scheme shares: on the default lobe grid
    (or ``theta_grid``), radius**alpha = scale * s_eb(theta) - noise(theta)
    where positive, else zero.  ``noise`` maps an array of grid angles to
    the jamming noise deposited toward them, normalized by the noise floor
    (an array, or one number for all of them)."""
    if theta_grid is None:
        thetas, (index, lo, hi), s_eb, weights = _default_arcs(cfg)
    else:
        thetas, (index, lo, hi) = _arcs_for_grid(cfg, theta_grid)
        s_eb, weights = _s_eb(cfg, thetas), None
    gap = _outage_gap(scale, s_eb, noise(thetas))
    radii = np.where(np.abs(thetas) <= _HALF_PI, gap ** (1.0 / cfg.alpha), 0.0)
    return SorBoundary(thetas, _read_only(radii), index, lo, hi,
                       _lobe_arcs(radii, lo, hi), weights)


# the grid, the (scenario, beam angles) key and the matrix of the last
# _beam_responses call; the matrix is kept only once the key has repeated
_last_response = [None, None, None]


def _beam_responses(cfg, thetas, beam_angles):
    """Noise per Watt of drive, normalized by the noise floor, that a beam
    steered at ``a`` deposits toward each angle: ``n_antennas * s_kernel(
    sin theta - sin a) / n0``, one row per beam.  Rows are filled one beam
    at a time, so no temporary spans more than one row.

    The matrix is kept, read-only, from the second call in a row with the
    same scenario, grid object and beam angles on, so allocations that
    differ only in their powers share it and a one-off call keeps none.
    Every boundary grid is read-only (a user grid is copied on each call)."""
    key = (cfg, tuple(beam_angles))
    grid, last_key, response = _last_response
    repeat = grid is thetas and last_key == key
    if repeat and response is not None:
        return response
    geom = cfg.geometry
    sin_th = np.sin(thetas)
    response = np.empty((len(beam_angles), sin_th.size))
    for row, a in zip(response, beam_angles):
        row[:] = (geom.n_antennas / cfg.n0) * s_kernel(sin_th - np.sin(a),
                                                       geom)
    response.flags.writeable = not repeat
    _last_response[:] = thetas, key, (response if repeat else None)
    return response


def sor_boundary_directional(cfg, alloc, theta_grid=None):
    """SOR boundary of any allocation, on the default grid or the sorted
    angles ``theta_grid``: explicit beams subtract the noise they deposit,
    and a ``null_space_uniform`` allocation gives the uniform boundary at
    its fraction.  Consecutive allocations on the default grid that differ
    only in their powers share one response matrix (``_beam_responses``)."""
    _check_allocation(cfg, alloc)
    if alloc.basis == "null_space_uniform":
        cons = sor_constants(cfg, alloc.phi)
        return _sor_boundary(cfg, theta_grid, cons.scale,
                             lambda _: cons.offset)
    return _sor_boundary(
        cfg, theta_grid, boundary_scale(cfg, alloc.phi),
        lambda thetas: alloc.beam_powers @ _beam_responses(
            cfg, thetas, alloc.beam_angles))


def sor_boundary_uniform(cfg, phi):
    """Default-grid SOR boundary under uniform jamming at fraction ``phi``."""
    return sor_boundary_directional(cfg, _uniform_allocation(cfg, phi))


def sor_boundary_nojam(cfg):
    """Default-grid SOR boundary with every Watt on the signal."""
    return sor_boundary_uniform(cfg, 0.0)


def sor_area(boundary):
    """Area enclosed by a polar boundary, integrated arc by arc; on the
    default grid with the memoised quadrature weights.

    Warns (``ResolutionWarning``) when any sampled arc carries fewer grid
    points than the quadrature needs to be trustworthy.
    """
    counts = boundary.hi - boundary.lo + 1
    coarse = (counts > 0) & (counts < _MIN_ARC_POINTS) & (boundary.peak > 0)
    for index, n in zip(boundary.index[coarse], counts[coarse]):
        warnings.warn(f"lobe arc {index} sampled with only {n} points; area "
                      "may be inaccurate", ResolutionWarning, stacklevel=2)
    weights = boundary.weights
    if weights is None:
        weights = _area_weights(boundary.thetas, zip(boundary.lo, boundary.hi))
    return float(boundary.radii ** 2 @ weights)


def lobe_radii(cfg, phi):
    """Outage radius of the main lobe and each representable side lobe under
    uniform jamming, taken at each lobe's peak height (zeros where jamming
    kills the lobe): 1.0 for the main lobe, and for side lobe ``m`` the
    lobe-midpoint envelope 1/(n sin(pi(m+1/2)/n))^2, whose large-array limit
    is 1/(pi(m+1/2))^2.

    The main-lobe entry is the boundary's maximum radius.  A side-lobe
    entry's envelope sits 4.3-4.6% below the true side-lobe peak at
    N=16-100, so it falls short of that arc's maximum boundary radius: at
    N=100, r_th=10, 100 m and phi=0, lobe 1 gives 371.8 m against an arc
    maximum of 377.6 m."""
    cons = sor_constants(cfg, phi)
    geom = cfg.geometry
    n = geom.n_antennas
    # one scalar sine per lobe: numpy's array sine may round differently
    peaks = np.array([1.0] + [1.0 / (n * np.sin(np.pi * (m + 0.5) / n)) ** 2
                              for m in range(1, _max_side_lobe(geom) + 1)])
    gap = _outage_gap(cons.scale, cfg.k_eb * peaks, cons.offset)
    return gap ** (1.0 / cfg.alpha)


def delta_theta_max(cfg, phi):
    """Angular reach of the SOR: the largest |theta - bob_theta| at which the
    boundary is still positive.  Without jamming the crosstalk never fully
    dies, so the reach is the whole front half space (returned as pi)."""
    cons = sor_constants(cfg, phi)
    if cons.cutoff <= 0.0:
        return np.pi
    if cfg.k_eb <= cons.cutoff:
        return 0.0
    geom = cfg.geometry
    period = 1.0 / geom.spacing
    starts, ends = _cross_points(cons.cutoff / cfg.k_eb, geom)
    ends = np.minimum(ends, 0.5 * period)
    sb = np.sin(cfg.bob_theta)
    best = 0.0
    for sign, side_max in ((1.0, 1.0 - sb), (-1.0, 1.0 + sb)):
        if side_max <= 0:
            continue
        lo, hi = np.concatenate(
            [_image_interval(mirror, off, starts, ends)
             for mirror, off in _image_maps(period, side_max)], axis=1)
        # never empty: the main bracket's first image starts at offset 0
        reach = np.minimum(hi[lo < side_max], side_max).max()
        edge = np.arcsin(np.clip(sb + sign * reach, -1.0, 1.0))
        best = max(best, abs(edge - cfg.bob_theta))
    return float(best)


def side_lobe_area_bound(cfg, phi, m):
    """Closed-form cap on the area a single side lobe contributes to the SOR
    under uniform jamming (free-space propagation, broadside Bob).

    The expression is a large-array simplification; it can go negative for
    lobes that jamming has extinguished, and for moderate element counts it
    can sit below the exact lobe area.
    """
    if cfg.alpha != 2.0:
        raise ValueError("the side-lobe area bound assumes alpha == 2")
    if cfg.bob_theta != 0.0:
        raise ValueError("the side-lobe area bound assumes bob_theta == 0")
    if m != int(m) or m < 1:
        raise ValueError("m must be a positive lobe index")
    cons = sor_constants(cfg, phi)
    geom = cfg.geometry
    return (cfg.k_eb * cons.scale / (np.pi * m) ** 2 - 2.0 * cons.offset) / (
        4.0 * geom.n_antennas * geom.spacing)
