"""The angular crosstalk kernel and its distribution.

For a uniform linear array with ``n`` elements at spacing ``d`` (in carrier
wavelengths), two directions whose sines differ by ``x`` couple through

    s(x) = sin^2(n pi d x) / (n^2 sin^2(pi d x)),       s(0) = 1.

``s`` is the squared, normalized inner product of the two steering vectors.
It is periodic in ``x`` with period ``1/d``, symmetric about half a period,
and on the first half period consists of a main lobe of (sine-domain) width
``2/(n d)`` followed by side lobes of width ``1/(n d)`` whose peaks decrease.

Under strong line of sight, the effective crosstalk between an eavesdropper
at angle ``theta`` and a receiver at ``theta_ref`` is ``K * s(|sin theta -
sin theta_ref|)`` where ``K`` is the product of Rician-dominance factors
``K_i K_j / ((1+K_i)(1+K_j))``.  With ``theta`` uniform on an interval, the
induced distribution of the crosstalk has a closed form built from the lobe
landmarks of ``s``; that CDF is the workhorse of every outage probability
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_HALF_PI = 0.5 * np.pi
# Sample count per monotone half lobe in the cached inverse-kernel tables.
_HALF_LOBE_SAMPLES = 2049
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# scipy.optimize.bisect's default relative tolerance
_BISECT_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_antennas: int
    spacing: float

    def __post_init__(self):
        if not (float(self.n_antennas).is_integer() and self.n_antennas >= 2):
            raise ValueError("n_antennas must be an integer >= 2")
        object.__setattr__(self, "n_antennas", int(self.n_antennas))
        if not (0.0 < self.spacing <= 1.0):
            raise ValueError("spacing must lie in (0, 1] wavelengths")


@dataclass(frozen=True)
class CrosstalkProfile:
    """Crosstalk model between a reference direction and a random angle.

    ``k_factor_product`` is K_i K_j / ((1+K_i)(1+K_j)) for the two links'
    Rician factors; it scales the kernel into the physical crosstalk.
    """

    geometry: ArrayGeometry
    theta_ref: float
    k_factor_product: float

    def __post_init__(self):
        if not (abs(self.theta_ref) <= _HALF_PI):
            raise ValueError("theta_ref must lie in [-pi/2, pi/2]")
        if not (0.0 <= self.k_factor_product <= 1.0):
            raise ValueError("k_factor_product must lie in [0, 1]")


def s_kernel(x, geom):
    """Crosstalk kernel at sine-domain offset ``x`` (scalar or array).

    Removable singularities (offsets that are a multiple of the period
    ``1/spacing``, including 0) evaluate to 1.
    """
    x = np.asarray(x, dtype=float)
    n = geom.n_antennas
    frac = geom.spacing * x
    # reduce to the nearest period before touching sin: evaluating at
    # pi*frac directly loses the removable singularities at integer frac
    # to rounding (sin(pi*k) is not 0.0 in floats)
    delta = frac - np.round(frac)
    t = np.pi * delta
    st = np.sin(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(n * t) / (n * st)
        val = ratio * ratio
    val = np.where(delta == 0.0, 1.0, val)
    if val.ndim == 0:
        return float(val)
    return val


def _max_side_lobe(geom):
    """Largest side-lobe index on the decreasing branch that is physically
    reachable (peak offset at most 2 in the sine domain)."""
    lim = min(geom.n_antennas / 2.0, 2.0 * geom.n_antennas * geom.spacing)
    m = int(np.floor(lim - 0.5))
    if m + 0.5 > lim:
        m -= 1
    return max(m, 0)


class _KernelTables:
    """Per-geometry lobe landmarks plus inverse tables, each built when a
    query first needs it.

    Eager: the main lobe's inverse table ``main_s``/``main_x`` and
    ``bound``, the kernel's envelope 1/(n sin(pi m/n))^2 at side lobe
    ``m``'s left edge (index 0 is the main lobe's 1.0).  The envelope falls
    across every representable lobe, so ``bound[m]`` is an upper bound on
    lobe ``m``'s peak and strictly decreases in ``m``.

    Lazy: the side-lobe peaks (offset and height), each a golden-section
    search of some 55 steps in its lobe.  ``peaks(k)`` locates lobes ``1..k``
    on first use, and ``reach(level)`` is the last lobe whose bound exceeds
    ``level``: no later lobe rises above it.  So a query locates only the
    prefix of lobes its lowest level can reach, and levels above every
    bound locate none.  The located prefix grows at least twofold, so a
    falling sequence of levels costs O(log cap) searches; each lobe's
    search does not depend on which others run with it, so every peak is
    the same whenever it is located.  ``x_peak``/``s_peak`` read the whole
    arrays and locate every peak.

    The side lobes' inverse tables are lazy too.  On a half lobe the kernel
    is monotone, so its inverse (level -> offset) is tabulated on
    ``_HALF_LOBE_SAMPLES`` points and evaluated for whole arrays of levels
    with ``np.interp``.  ``rows(m)`` builds side lobe ``m``'s rise and fall
    tables the first time a query has a level below its peak and the angle
    range reaches the lobe, and keeps them: levels between the peaks of
    lobes ``m`` and ``m + 1`` build rows ``1..m`` only, and levels above
    every side-lobe peak build none.  ``_cross_points`` itself uses
    bisection for full precision; these tables serve the vectorized CDF.
    """

    def __init__(self, n_antennas, spacing):
        geom = ArrayGeometry(n_antennas, spacing)
        self.geom = geom
        cap = _max_side_lobe(geom)
        self.cap = cap
        width = 1.0 / (n_antennas * spacing)
        self.first_null = width

        # Main lobe: s falls from 1 at 0 to 0 at the first null.
        x_main = np.linspace(0.0, width, 2 * _HALF_LOBE_SAMPLES)
        s_main = s_kernel(x_main, geom)
        # reversed so the interpolation abscissa is ascending in s
        self.main_s = np.maximum.accumulate(s_main[::-1].copy())
        self.main_x = x_main[::-1].copy()

        self.bound = np.ones(cap + 1)
        self.bound[1:] = 1.0 / (n_antennas * np.sin(
            np.pi * np.arange(1, cap + 1) / n_antennas)) ** 2
        # peaks of lobes 0.._located are known; entry 0 is the main lobe's
        self._located = 0
        self._x_peak = np.zeros(cap + 1)
        self._s_peak = np.ones(cap + 1)
        self._rows = {}

    def reach(self, level):
        """Last side lobe whose bound exceeds ``level`` (0 when none does):
        no later lobe's peak rises above the level."""
        return int(np.count_nonzero(self.bound[1:] > level))

    def peaks(self, k):
        """``(x_peak, s_peak)`` of lobes ``0..k``, locating the side-lobe
        peaks up to ``k`` on first use (lobe ``m`` spans ``[m * width,
        (m + 1) * width]``)."""
        if k > self._located:
            grow = min(max(k, 2 * self._located), self.cap)
            m = np.arange(self._located + 1, grow + 1)
            x = _golden_max(lambda x: s_kernel(x, self.geom),
                            m * self.first_null, (m + 1) * self.first_null)
            self._x_peak[m] = x
            self._s_peak[m] = s_kernel(x, self.geom)
            self._located = grow
        return self._x_peak[:k + 1], self._s_peak[:k + 1]

    @property
    def x_peak(self):
        return self.peaks(self.cap)[0]

    @property
    def s_peak(self):
        return self.peaks(self.cap)[1]

    def rows(self, m):
        """``(rise_s, rise_x, fall_s, fall_x)`` of side lobe ``m``: its
        inverse tables from the lobe's start up to the peak and from the
        peak down to its end, each ascending in ``s``.  Built on first use.
        """
        row = self._rows.get(m)
        if row is None:
            xp = self.peaks(m)[0][m]
            xr = np.linspace(m * self.first_null, xp, _HALF_LOBE_SAMPLES)
            xf = np.linspace(xp, (m + 1) * self.first_null,
                             _HALF_LOBE_SAMPLES)
            row = (np.maximum.accumulate(s_kernel(xr, self.geom)), xr,
                   np.maximum.accumulate(s_kernel(xf, self.geom)[::-1]),
                   xf[::-1].copy())
            self._rows[m] = row
        return row


def _golden_max(f, lo, hi, tol=1e-13):
    """Golden-section maximizer of a unimodal ``f`` on each bracket
    ``[lo[i], hi[i]]`` (1-D arrays), all brackets at once.

    ``f`` maps an array of abscissae to an array of values.  Each bracket
    keeps its own search: it narrows to the left when ``f(c) > f(d)`` and
    to the right otherwise, and leaves the active set once its width is at
    most ``tol * max(1, |lo| + |hi|)``.  Returns the bracket midpoints.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    stop = tol * np.maximum(1.0, np.abs(a) + np.abs(b))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    live = np.flatnonzero(b - a > stop)
    while live.size:
        a_l, b_l, c_l, d_l = a[live], b[live], c[live], d[live]
        fc_l, fd_l = fc[live], fd[live]
        left = fc_l > fd_l
        # left: b <- d, d <- c and a new c; right: a <- c, c <- d, new d
        a_l = np.where(left, a_l, c_l)
        b_l = np.where(left, d_l, b_l)
        x = np.where(left, b_l - _INVPHI * (b_l - a_l),
                     a_l + _INVPHI * (b_l - a_l))
        fx = f(x)
        a[live], b[live] = a_l, b_l
        c[live] = np.where(left, x, d_l)
        d[live] = np.where(left, c_l, x)
        fc[live] = np.where(left, fx, fd_l)
        fd[live] = np.where(left, fc_l, fx)
        live = live[b_l - a_l > stop[live]]
    return 0.5 * (a + b)


def _bisect(f, xa, xb, xtol=1e-12, maxiter=100):
    """Root of ``f`` in each bracket ``[xa[i], xb[i]]`` (1-D arrays), all
    brackets at once.

    Follows ``scipy.optimize.bisect``'s update rule, so each root equals
    that function's result bit for bit: halve ``dm``, probe
    ``xm = xa + dm``, move ``xa`` to ``xm`` when ``f(xm) * f(xa) >= 0``
    (``f(xa)`` keeps its value from the original ``xa``), and stop at
    ``f(xm) == 0`` or ``|dm| < xtol + 4 eps |xm|``.  Raises ``ValueError``
    on a bracket whose ends have the same sign and ``RuntimeError`` when a
    bracket is still open after ``maxiter`` halvings.
    """
    xa = np.array(xa, dtype=float)
    xb = np.array(xb, dtype=float)
    fa, fb = f(xa), f(xb)
    if np.any(fa * fb > 0):
        raise ValueError("f(a) and f(b) must have different signs")
    root = np.where(fa == 0, xa, xb)
    live = np.flatnonzero((fa != 0) & (fb != 0))
    dm = xb - xa
    for _ in range(maxiter):
        if not live.size:
            break
        dm_l = dm[live] * 0.5
        xm = xa[live] + dm_l
        fm = f(xm)
        xa[live] = np.where(fm * fa[live] >= 0, xm, xa[live])
        dm[live] = dm_l
        done = (fm == 0) | (np.abs(dm_l) < xtol + _BISECT_RTOL * np.abs(xm))
        root[live[done]] = xm[done]
        live = live[~done]
    if live.size:
        raise RuntimeError(f"bisection did not converge in {maxiter} "
                           "iterations")
    return root


@lru_cache(maxsize=32)
def _kernel_tables(n_antennas, spacing):
    return _KernelTables(n_antennas, spacing)


def _cross_points(u, geom):
    """Brackets ``(starts, ends)`` of the offsets in the kernel's first
    period where it rises above level ``u`` (0 < u < 1): the main-lobe core
    ``(0, ends[0])`` first, then the ``(rising, falling)`` crossing pair of
    each side lobe whose (numerically located) peak exceeds ``u``, in lobe
    order.  Only the lobes up to ``reach(u)`` are located.

    Root-finding is bisection on each monotone half lobe, to 1e-12 in the
    offset.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("level u must lie strictly between 0 and 1")
    tables = _kernel_tables(geom.n_antennas, geom.spacing)

    # one bisection for the main lobe and both halves of every side lobe
    # that rises above u; no lobe past reach(u) does
    x_peak, s_peak = tables.peaks(tables.reach(u))
    crossing = np.flatnonzero(s_peak[1:] > u) + 1
    lo = crossing * tables.first_null
    hi = (crossing + 1) * tables.first_null
    xp = x_peak[crossing]
    roots = _bisect(lambda x: s_kernel(x, geom) - u,
                    np.concatenate(([0.0], lo, xp)),
                    np.concatenate(([tables.first_null], xp, hi)))
    k = crossing.size
    return (np.concatenate(([0.0], roots[1:k + 1])),
            np.concatenate((roots[:1], roots[k + 1:])))


def _clipped_range(angle_range):
    lo, hi = angle_range
    lo = max(float(lo), -_HALF_PI)
    hi = min(float(hi), _HALF_PI)
    if not lo < hi:
        raise ValueError("angle range must be a nonempty interval")
    return lo, hi


def _delta_cdf(z, theta_ref, angle_range):
    """CDF of Delta = |sin theta - sin theta_ref| for theta uniform on the
    (clipped) angle range.  Accepts scalar or array ``z``; negative z -> 0.
    """
    lo, hi = _clipped_range(angle_range)
    z = np.asarray(z, dtype=float)
    sr = np.sin(theta_ref)
    zc = np.maximum(z, 0.0)
    upper = np.minimum(np.arcsin(np.minimum(1.0, sr + zc)), hi)
    lower = np.maximum(np.arcsin(np.maximum(-1.0, sr - zc)), lo)
    # a negative z clamps to 0, where upper <= lower: the value is 0.0
    val = np.maximum(upper - lower, 0.0) / (hi - lo)
    if val.ndim == 0:
        return float(val)
    return val


def _delta_span(profile, angle_range):
    """Reachable interval of Delta = |sin theta - sin theta_ref| given the
    angle range."""
    lo, hi = _clipped_range(angle_range)
    s_lo, s_hi = np.sin(lo), np.sin(hi)
    sr = np.sin(profile.theta_ref)
    d_hi = max(abs(s_lo - sr), abs(s_hi - sr))
    d_lo = 0.0 if s_lo <= sr <= s_hi else min(abs(s_lo - sr), abs(s_hi - sr))
    return d_lo, d_hi


def _image_maps(period, d_hi):
    """Transforms mapping the kernel's first half period onto all reachable
    offsets: the kernel is periodic with period ``1/spacing`` and symmetric
    about each half period, so every offset is ``k*period + x`` or
    ``(k+1)*period - x`` for some x in [0, period/2]."""
    maps = []
    k = 0
    while k * period < d_hi + 1e-15:
        maps.append((False, k * period))        # x -> offset + x
        maps.append((True, (k + 1) * period))   # x -> offset - x
        k += 1
    return maps


def _image_interval(mirror, offset, a, b):
    """Image of the interval (a, b) under one symmetry transform."""
    if mirror:
        return offset - b, offset - a
    return offset + a, offset + b


def _cdf_batch(x, profile, angle_range):
    """Vectorized crosstalk CDF.

    The above-level set of offsets is the union of the main-lobe core,
    every representable side lobe's bracket, and their mirror/periodic
    images; its probability is summed with ``_delta_cdf`` differences over
    the images the angle range reaches.  The levels below 1 are sorted
    once.  Only the side lobes whose bound exceeds the lowest level can
    cross a level, so only their peaks are located.  Side lobe ``m`` rises
    above exactly the levels below its peak ``s_peak[m]``, a prefix of the
    sorted levels that one ``np.searchsorted`` finds, so its crossings
    (``np.interp`` on the cached inverse tables) and its image terms are
    computed on that prefix only.  A side lobe with an empty prefix, or whose images the range
    cannot reach, is skipped before ``rows(m)`` is called, so its rows are
    never built.  Every level sums its nonzero terms in the order of a
    sweep of all lobes over all levels (main lobe, then the side lobes by
    index, each lobe's images in map order); the terms left out are the
    0.0 a lobe adds to a level it does not cross.
    """
    geom = profile.geometry
    k = profile.k_factor_product
    x = np.asarray(x, dtype=float)
    # written so that NaN levels fail too
    if not np.all(x >= 0):
        raise ValueError("crosstalk level must be nonnegative")
    if k == 0.0:
        return np.ones_like(x)

    u = x / k
    tables = _kernel_tables(geom.n_antennas, geom.spacing)
    d_lo, d_hi = _delta_span(profile, angle_range)
    period = 1.0 / geom.spacing

    def fd(z):
        return _delta_cdf(z, profile.theta_ref, angle_range)

    half = 0.5 * period
    maps = _image_maps(period, d_hi)

    def reached(span_lo, span_hi):
        """The symmetry transforms whose image of the half-period interval
        (span_lo, span_hi) meets the reachable offsets."""
        images = []
        for mirror, off in maps:
            i_lo, i_hi = _image_interval(mirror, off, span_lo, span_hi)
            if i_lo < d_hi - 1e-15 and i_hi > d_lo + 1e-15:
                images.append((mirror, off))
        return images

    p_above = np.zeros_like(u)
    live = u < 1.0
    if np.any(live):
        ul = u[live]
        order = np.argsort(ul)
        us = ul[order]
        contrib = np.zeros_like(us)
        # main lobe: offsets in [0, cp0) sit above the level; each image's
        # end at 0 maps to a scalar, so its term is one scalar evaluation
        cp0 = np.interp(us, tables.main_s, tables.main_x)
        for mirror, off in reached(0.0, tables.first_null):
            b_lo, b_hi = _image_interval(mirror, off, 0.0, cp0)
            contrib += fd(b_hi) - fd(b_lo)
        # lobes past reach(us[0]) cross no level
        s_peak = tables.peaks(tables.reach(us[0]))[1]
        crossed = np.searchsorted(us, s_peak[1:], side="left")
        for m in (np.flatnonzero(crossed) + 1).tolist():
            images = reached(m * tables.first_null,
                             min((m + 1) * tables.first_null, half))
            if not images:
                # a lobe the angle range cannot reach adds nothing
                continue
            head = us[:crossed[m - 1]]
            rise_s, rise_x, fall_s, fall_x = tables.rows(m)
            c1 = np.interp(head, rise_s, rise_x)
            # the last lobe of an odd-count branch peaks exactly at the half
            # period; only its first half belongs to the base interval
            c2 = np.minimum(np.interp(head, fall_s, fall_x), half)
            for mirror, off in images:
                b_lo, b_hi = _image_interval(mirror, off, c1, c2)
                contrib[:head.size] += fd(b_hi) - fd(b_lo)
        unsorted = np.empty_like(contrib)
        unsorted[order] = contrib
        p_above[live] = unsorted
    return np.clip(1.0 - p_above, 0.0, 1.0)


def crosstalk_cdf(x, profile, angle_range):
    """P(crosstalk <= x) for a uniformly random angle on ``angle_range``.

    ``x`` may be a scalar or an array.  Levels at or above the profile's
    ``k_factor_product`` return 1.  Every representable side lobe counts,
    so no reachable lobe is left out.  A negative or NaN level raises
    ``ValueError``.
    """
    scalar = np.ndim(x) == 0
    out = _cdf_batch(np.atleast_1d(x), profile, angle_range)
    if scalar:
        return float(out[0])
    return out

