"""Jamming power optimization.

Uniform null-space jamming has a single knob, the power fraction ``phi``;
closed forms and a dense grid oracle find its optimum.  Directional jamming
instead drives a handful of explicit beams; three allocation strategies are
implemented:

1. pick the uniform optimum ``phi`` and split it equally over the DFT beams
   covering the suspicious angles (``algorithm1_directional``);
2. cyclic per-beam line search minimizing the exact outage area, started
   from the two-lobe split of algorithm 3 (``algorithm2_iterative``);
3. restrict the budget to the two strongest side lobes and sweep the
   (phi, split) plane, scoring each split by its exact outage area
   (``algorithm3_two_lobes``).

Every search returns an immutable ``AllocationResult``.  Algorithms 2 and 3
share one two-lobe scan per scenario (``_two_lobe_scan``), and the uniform
search, which algorithm 1 starts from, runs once per (scenario, region,
objective) (``_uniform_search``); a memo hit returns the memoised result.
The two-lobe scan skips every fraction whose lower bound
(``_split_lower_bounds``) exceeds the best area found, and returns what a
scan of every fraction would, bit for bit.

Every area search scores its candidates through
``_DirectionalAreaEvaluator.areas`` on the scenario's default boundary grid
(``asymptotic._default_arcs``, memoised and read-only, with its crosstalk
and area weights).  It computes only the grid columns whose gap can be
positive (the live columns) and sums each area over those columns alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotic import (
    PowerAllocation,
    _beam_responses,
    _default_arcs,
    _outage_gap,
    _read_only,
    _s_eb,
    _uniform_allocation,
    boundary_scale,
    phi_max,
    sor_boundary_directional,
    sor_constants,
)
from .crosstalk import s_kernel
from .errors import DegenerateArrayError
from .sop import sop_closed_form, sop_intersection

_OBJECTIVES = ("sop", "sor_area")
# rows per block when the uniform search scores its phi grid: as many as
# the candidate blocks of algorithms 2 and 3, so no search allocates larger
# temporaries than those
_BLOCK_ROWS = 201
# uniform search (also algorithm 1's): the phi grid step, and the width its
# golden-section refinement stops at
_PHI_STEP = 1e-3
_REFINE_TOL = 1e-5
# algorithm 2: levels per beam visit; the sweeps stop once the powers move
# less than _DESCENT_EPSILON * p_tot, or after _MAX_SWEEPS
_LINE_CANDIDATES = 200
_DESCENT_EPSILON = 1e-6
_MAX_SWEEPS = 60
# two-lobe scan of algorithms 2 and 3: the jamming-fraction step, the
# number of two-way splits tried at each fraction, and the relative margin
# that keeps its noise floor below, and its per-fraction lower bound's
# deposit above, the rounded two-beam noise
_SCAN_PHI_STEP = 1e-2
_SCAN_SPLITS = 201
_SCAN_MARGIN = 1e-12
_ORACLE_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Outcome of an allocation search: the jamming fraction, the concrete
    per-beam powers, the achieved objective, and the search trace, a tuple
    of ``(phi, value)`` float pairs, one per step the search took, that
    holds ``(phi_opt, objective)``.  Immutable, like its allocation, so the
    memoised searches hand out the one result they keep; compared and
    hashed by identity."""

    phi_opt: float
    allocation: PowerAllocation
    objective: float
    trace: tuple


def build_dft_basis(geom):
    """Steering angle of each beam of the orthonormal DFT jamming basis.

    Column ``j`` of the basis has entries exp(-2j pi j k / n)/sqrt(n); it
    steers toward sin(theta) = j/(n d) modulo the kernel period 1/d, folded
    into [-1, 1] (choosing the alias closest to broadside when spacing > 1/2
    makes two folds land inside).  Entry ``j`` of the result is that angle,
    or NaN for a beam whose spatial frequency no physical angle reaches,
    which can happen below half-wavelength spacing.
    """
    n, d = geom.n_antennas, geom.spacing
    angles = np.full(n, np.nan)
    for j in range(n):
        f = j / n
        cands = [(f + shift) / d for shift in range(-3, 3)]
        cands = [c for c in cands if -1.0 <= c <= 1.0]
        if cands:
            angles[j] = np.arcsin(min(cands, key=lambda v: (abs(v), -v)))
    return angles


def _jam_beam_indices(cfg, beam_angles):
    """Beams eligible to carry noise, as indices into ``beam_angles``:
    physically mappable and outside Bob's main lobe (one null-to-null width
    around the data beam)."""
    geom = cfg.geometry
    width = 1.0 / (geom.n_antennas * geom.spacing)
    with np.errstate(invalid="ignore"):
        main = np.abs(np.sin(beam_angles) - np.sin(cfg.bob_theta)) < width
    return np.where(~np.isnan(beam_angles) & ~main)[0]


def _in_blocks(score, phis):
    """``score`` applied to ``phis`` in blocks of at most ``_BLOCK_ROWS``
    fractions."""
    phis = np.asarray(phis, dtype=float)
    out = np.empty(phis.size)
    for lo in range(0, phis.size, _BLOCK_ROWS):
        out[lo:lo + _BLOCK_ROWS] = score(phis[lo:lo + _BLOCK_ROWS])
    return out


def _uniform_objective(cfg, region, objective):
    """Scorer mapping an array of uniform jamming fractions to objective
    values."""
    if objective == "sop":
        return lambda phis: _in_blocks(
            lambda block: sop_closed_form(cfg, block, region), phis)
    if objective == "sor_area":
        return _DirectionalAreaEvaluator(cfg, ()).uniform_areas
    raise ValueError(f"objective must be one of {_OBJECTIVES}")


def _golden_min(f, a, b, xtol, trace):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = (c, fc) if fc <= fd else (d, fd)
    trace.extend([(c, fc), (d, fd)])
    while (b - a) > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            trace.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            trace.append((d, fd))
        cand = (c, fc) if fc <= fd else (d, fd)
        if cand[1] < best[1]:
            best = cand
    return best


def optimize_phi_uniform(cfg, region, objective="sop"):
    """Best uniform jamming fraction for the given objective.

    Dense grid at ``_PHI_STEP`` over the feasible range, then golden-section
    refinement around the best cell down to ``_REFINE_TOL``; ties go to the
    smaller fraction.  The grid is scored in blocks of ``_BLOCK_ROWS``
    fractions: ``sor_area`` through ``_DirectionalAreaEvaluator``, with the
    uniform null-space noise as each row's jamming profile, and ``sop``
    through the array form of ``sop_closed_form``; the refinement uses the
    same scorer.

    The search runs once per (scenario, region, objective), compared by
    value (``_uniform_search``); every call returns its one result and
    raises again the warnings the search raised.
    """
    if objective == "sop" and region is None:
        raise ValueError(f"objective {objective!r} needs a region")
    result, caught = _uniform_search(cfg, region, objective)
    for message, category in caught:
        warnings.warn(message, category, stacklevel=2)
    return result


@lru_cache(maxsize=32)
def _uniform_search(cfg, region, objective):
    """The search of ``optimize_phi_uniform``, memoised on its arguments.
    Returns ``(result, warnings)``: the ``AllocationResult`` and the
    ``(message, category)`` of each warning the search raised, so a memo
    hit warns like the search did."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        limit = phi_max(cfg)
        score = _uniform_objective(cfg, region, objective)
        f = lambda p: float(score(np.array([p]))[0])
        grid = np.arange(0.0, limit, _PHI_STEP)
        vals = score(grid)
        i = int(np.argmin(vals))
        best_phi, best_val = float(grid[i]), float(vals[i])
        trace = [(best_phi, best_val)]
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        if hi > lo:
            g_phi, g_val = _golden_min(f, lo, hi, _REFINE_TOL, trace)
            if g_val < best_val:
                best_phi, best_val = float(g_phi), float(g_val)
    result = AllocationResult(best_phi, _uniform_allocation(cfg, best_phi),
                              best_val, tuple(trace))
    return result, tuple((w.message, w.category) for w in caught)


def phi_opt_closed_form(cfg, s_eb, d_min):
    """Closed-form optimal uniform jamming fraction against an eavesdropper
    direction with crosstalk ``s_eb``, protecting distances beyond ``d_min``.

    Returns ``(phi, branch)`` where ``branch`` names which expression won:
    ``"phi_g"`` - the stationary point of the outage radius in that
    direction; ``"phi_0"`` - the fraction that already pulls the radius
    inside ``d_min`` (used when it exists and is cheaper).
    """
    if not 0.0 < s_eb:
        raise ValueError("s_eb must be positive")
    if not 0.0 <= d_min < np.inf:
        raise ValueError("d_min must be finite and >= 0")
    if s_eb >= 1.0:
        raise DegenerateArrayError(
            "eavesdropper perfectly aligned with the user (s_eb >= 1): "
            "jamming cannot separate them")
    limit = phi_max(cfg)
    n = cfg.geometry.n_antennas
    gain = 2.0 ** cfg.r_th
    avail = cfg.p_tilde_tot * cfg.bob_dist ** (-cfg.alpha) * n
    phi_g = 1.0 - ((gain - 1.0)
                   + np.sqrt((gain - 1.0) * gain * s_eb * n / (1.0 - s_eb))) / avail
    phi_g = float(np.clip(phi_g, 0.0, limit))
    # the fraction that pins the outage radius at d_min, in the large-array
    # limit where the signal-side factor no longer depends on element count
    phi_0 = (s_eb * gain * cfg.bob_dist ** cfg.alpha - d_min ** cfg.alpha) / (
        (1.0 - s_eb) * cfg.p_tilde_tot)
    # phi_0 is only on the table when the stationary fraction already pulls
    # the outage radius inside d_min; without that check the linearized
    # phi_0 can promise a zero-outage fraction that does not exist near the
    # branch division (off by up to ~0.09 from the dense-grid optimum there)
    cons = sor_constants(cfg, phi_g)
    reach = cons.scale * s_eb - cons.offset
    if reach < d_min ** cfg.alpha and 0.0 <= phi_0 <= 1.0 and phi_0 <= phi_g:
        return float(phi_0), "phi_0"
    return phi_g, "phi_g"


def grid_oracle_phi(cfg, s_eb, d_min):
    """Dense-grid reference for ``phi_opt_closed_form``: the smallest
    fraction (step ``_ORACLE_STEP``) whose outage radius in the ``s_eb``
    direction already sits inside ``d_min``, else the minimizer of it."""
    if not 0.0 < s_eb < 1.0:
        raise ValueError("s_eb must lie in (0, 1)")
    if not 0.0 <= d_min < np.inf:
        raise ValueError("d_min must be finite and >= 0")
    limit = phi_max(cfg)
    grid = np.arange(0.0, limit, _ORACLE_STEP)
    cons = sor_constants(cfg, grid)
    radius_a = _outage_gap(cons.scale, s_eb, cons.offset)
    hit = radius_a <= d_min ** cfg.alpha
    if np.any(hit):
        return float(grid[int(np.argmax(hit))])
    return float(grid[int(np.argmin(radius_a))])


def _pow_2_over_alpha(gap, alpha):
    """Raise the nonnegative array ``gap`` to the power 2/alpha in place
    (radius**alpha -> radius**2); at alpha 3 through ``cbrt``, which is
    several times faster than the general power."""
    if alpha == 3.0:
        np.cbrt(gap, out=gap)
        np.square(gap, out=gap)
    else:
        gap **= 2.0 / alpha
    return gap


class _DirectionalAreaEvaluator:
    """Vectorized outage-area evaluation on the default boundary grid, with
    the per-beam responses precomputed by ``_beam_responses`` (possibly the
    shared, read-only matrix it keeps): the one place where the allocation
    searches score areas, a block of candidate rows per call (``areas``).
    Every row is an ``_outage_gap``: explicit beams give ``boundary_scale *
    s_eb`` less the noise they deposit, and uniform null-space jamming,
    which needs no beams, gives ``sor_constants``' ``scale * s_eb -
    offset``; ``uniform_areas`` scores a ``phi`` grid in blocks of
    ``_BLOCK_ROWS`` rows.

    Only live columns are computed.  A column can have a positive gap in
    some row only where the block's largest scale times ``s_eb`` exceeds
    the caller's per-column lower bound on the noise (its floor); rounding
    is monotone, so that mask is a superset of the live columns.  The gap,
    its clip and the ``2/alpha`` power are taken on those columns alone,
    and the areas are their product with the same columns' weights.  The
    full-width sum only adds zeros to it, in another order, so the two
    agree to rounding."""

    def __init__(self, cfg, beam_angles):
        self.cfg = cfg
        thetas, _, self.s_eb, self.weights = _default_arcs(cfg)
        self.response = _beam_responses(cfg, thetas, beam_angles)

    def jam(self, powers):
        return powers @ self.response

    def areas(self, scale, floor, noise):
        """Areas of the rows ``radius**alpha = scale * s_eb - noise``.

        ``scale`` is one number or one per row.  ``noise(cols)`` builds the
        rows' deposited noise on the grid columns ``cols`` (an index
        array): a block this call overwrites, or one fresh column that holds
        each row's noise for every column (overwritten too when ``cols`` has
        one entry).  ``floor`` bounds every row's noise from below, per
        column or for all of them."""
        cols = np.flatnonzero(np.max(scale) * self.s_eb > floor)
        rows = noise(cols)
        out = rows if rows.shape[-1] == cols.size else None
        gap = _outage_gap(scale, self.s_eb[cols], rows, out=out)
        return _pow_2_over_alpha(gap, self.cfg.alpha) @ self.weights[cols]

    def uniform_areas(self, phis):
        """Areas under uniform null-space jamming at each fraction in
        ``phis``, scored in blocks of at most ``_BLOCK_ROWS`` rows; the
        smallest offset of a block is its noise floor."""
        def block_areas(block):
            cons = sor_constants(self.cfg, block)
            return self.areas(cons.scale, np.min(cons.offset),
                              lambda cols: cons.offset[:, None].copy())
        return _in_blocks(block_areas, phis)

    def area(self, powers):
        jam = self.jam(powers)
        phi = np.sum(powers) / self.cfg.p_tot
        return float(self.areas(boundary_scale(self.cfg, phi), jam,
                                lambda cols: jam[None, cols])[0])


def _region_beam_allocation(cfg, region, phi):
    """Noise budget ``phi * p_tot`` split equally over the DFT beams that
    cover the suspicious angles (Bob's main-lobe beams excluded).

    Falls back to the uniform null-space allocation, with a warning, when
    no beam covers the region.
    """
    angles = build_dft_basis(cfg.geometry)
    lo, hi = region.angle_interval
    angles = angles[_jam_beam_indices(cfg, angles)]
    angles = angles[(angles >= lo) & (angles <= hi)]
    if angles.size == 0:
        warnings.warn("no DFT beam covers the suspicious region; "
                      "keeping uniform null-space jamming")
        return _uniform_allocation(cfg, phi)
    return PowerAllocation(
        phi=phi,
        beam_powers=np.full(angles.size, phi * cfg.p_tot / angles.size),
        basis="dft_selected", beam_angles=angles)


def algorithm1_directional(cfg, region):
    """Uniform-optimal ``phi`` (``optimize_phi_uniform`` on SOP), then
    ``_region_beam_allocation`` at it: an equal split over the DFT beams
    that cover the suspicious angles.

    The trace is the uniform, then the directional SOP.  When no beam
    covers the region, the result is the uniform one, with a warning.  The
    uniform search runs once per (scenario, region, objective), so after
    the ``uniform`` scheme it costs nothing.
    """
    uniform = optimize_phi_uniform(cfg, region, objective="sop")
    phi = uniform.phi_opt
    alloc = _region_beam_allocation(cfg, region, phi)
    if alloc.basis == "null_space_uniform":
        return uniform
    objective = sop_intersection(
        sor_boundary_directional(cfg, alloc), region, cfg.n_eves)
    return AllocationResult(phi, alloc, objective,
                            ((phi, uniform.objective), (phi, objective)))


def _visit_areas(ev, powers, b, cand, jam_base):
    """Areas with beam ``b`` set to each nonnegative level in ``cand`` and
    the other beams at ``powers``, whose noise profile is ``jam_base``.
    Each row's noise is ``jam_base + (level - powers[b]) * response[b]``,
    which rounds monotonically in the level, so the level-0 row is the
    exact noise floor."""
    step = cand - powers[b]

    def noise(cols):
        rows = np.multiply.outer(step, ev.response[b, cols])
        rows += jam_base[cols]
        return rows
    phis = (np.sum(powers) - powers[b] + cand) / ev.cfg.p_tot
    return ev.areas(boundary_scale(ev.cfg, phis),
                    jam_base - powers[b] * ev.response[b], noise)


def _beam_line_descent(ev, powers, cap, max_sweeps):
    """Cyclic per-beam exhaustive line search on the exact-area objective.
    Mutates and returns ``powers``; also returns the final objective, the
    trace (the start, then (phi, area) after each visit) and whether the
    sweep loop converged."""
    epsilon = _DESCENT_EPSILON * ev.cfg.p_tot
    current = ev.area(powers)
    trace = [(float(np.sum(powers) / ev.cfg.p_tot), current)]
    converged = False
    for _ in range(max_sweeps):
        previous = powers.copy()
        jam_base = ev.jam(powers)
        for b in range(len(powers)):
            room = cap - (np.sum(powers) - powers[b])
            if room <= 0:
                continue
            cand = np.linspace(0.0, room, _LINE_CANDIDATES, endpoint=False)
            cand = np.append(cand, powers[b])
            vals = _visit_areas(ev, powers, b, cand, jam_base)
            j = int(np.argmin(vals))
            if vals[j] < current:
                jam_base = jam_base + (cand[j] - powers[b]) * ev.response[b]
                powers[b] = cand[j]
                current = float(vals[j])
            trace.append((float(np.sum(powers) / ev.cfg.p_tot), current))
        if np.linalg.norm(powers - previous) < epsilon:
            converged = True
            break
    return powers, current, tuple(trace), converged


def algorithm2_iterative(cfg):
    """Cyclic per-beam line search minimizing the exact outage area.

    Each visit to a beam scans 200 drive levels from zero up to (but
    excluding) the power still compatible with the feasibility limit, keeps
    the current level in the candidate set (so the objective never
    increases), and accepts the best.  Sweeps stop when the allocation moves
    less than ``1e-6 * p_tot`` in Euclidean norm, or after 60 sweeps.

    The descent runs over the eligible DFT beams (``_jam_beam_indices``),
    starting from the two-strongest-lobes split found by the scan behind
    ``algorithm3_two_lobes`` (the same cached scan), so the result never
    scores worse than algorithm 3.  Only when that scan has no seed to
    offer - the array is degenerate for it, or its split exceeds the
    feasibility cap - does the descent start from the noise budget
    ``phi_max/2 * p_tot`` spread equally over the beams.  Either way one
    descent runs: from the spread start it ended higher on all eleven fig5
    rows and took 2-8 times as long.
    """
    limit = phi_max(cfg)
    cap = limit * cfg.p_tot * (1.0 - 1e-9)
    angles = build_dft_basis(cfg.geometry)
    idx = _jam_beam_indices(cfg, angles)
    if idx.size == 0:
        raise DegenerateArrayError("no eligible jamming beams")
    angles = angles[idx]
    start = _two_lobe_seed(cfg, idx, cap)
    if start is None:
        start = np.full(idx.size, 0.5 * limit * cfg.p_tot / idx.size)
    ev = _DirectionalAreaEvaluator(cfg, angles)
    powers, current, trace, converged = _beam_line_descent(
        ev, start, cap, _MAX_SWEEPS)
    if not converged:
        warnings.warn("beam power iteration hit the sweep limit before "
                      f"moving less than {_DESCENT_EPSILON * cfg.p_tot:.3g} W")
    phi = float(np.sum(powers) / cfg.p_tot)
    alloc = PowerAllocation(phi, powers, "dft_selected", angles)
    return AllocationResult(phi, alloc, current, trace)


def _two_lobe_seed(cfg, idx, cap):
    """Powers over the eligible beam columns ``idx`` (ascending) that put
    the two-lobe scan's split on its two beams, or None when the scan finds
    the array degenerate or the split exceeds ``cap``."""
    try:
        cols, scan = _two_lobe_scan(cfg)
    except DegenerateArrayError:
        return None
    seed = np.zeros(idx.size)
    seed[np.searchsorted(idx, cols)] = scan.allocation.beam_powers
    return seed if np.sum(seed) <= cap else None


def lobe_notch_objective(cfg, phi, lobe_angles, beam_powers):
    """Idealized per-lobe area score: sum over lobes of
    ((a_m - p_m/n0)^+)^(2/alpha), where ``a_m`` is the unjammed
    radius**alpha at the lobe angle and each lobe's dedicated beam is
    assumed to deposit exactly its normalized power there and nothing
    elsewhere.  Concave in the powers, so its minimum over a power budget
    sits on the boundary of the feasible set - the structural fact behind
    the two-lobe restriction of ``algorithm3_two_lobes``."""
    a = boundary_scale(cfg, phi) * _s_eb(cfg, np.asarray(lobe_angles))
    notch = np.asarray(beam_powers) / cfg.n0
    return float(np.sum(np.clip(a - notch, 0.0, None) ** (2.0 / cfg.alpha)))


def _side_lobe_peak_angles(cfg):
    """Angles of the side-lobe maxima of the no-jamming boundary, strongest
    arcs first."""
    thetas, (index, lo, hi), s_vals, _ = _default_arcs(cfg)
    out = []
    for m, a, b in zip(index.tolist(), lo.tolist(), hi.tolist()):
        if m == 0 or b <= a:
            continue
        k = a + int(np.argmax(s_vals[a:b + 1]))
        out.append((s_vals[k], m, thetas[k]))
    out.sort(key=lambda t: (-t[0], t[1], t[2]))
    return out


def _split_areas(ev, phi, shares):
    """Areas with the budget ``phi * p_tot`` split over the evaluator's two
    beams by each row of ``shares``.  Every split deposits at least the
    budget times the weaker beam's response; ``_SCAN_MARGIN`` covers the
    rounding of the two-term product."""
    budget = phi * ev.cfg.p_tot
    drive = shares * budget
    floor = budget * np.minimum(ev.response[0], ev.response[1])
    return ev.areas(boundary_scale(ev.cfg, phi), floor * (1.0 - _SCAN_MARGIN),
                    lambda cols: drive @ ev.response[:, cols])


def _split_lower_bounds(ev, phis):
    """For each fraction in ``phis`` (ascending, from 0), a number no split
    scored by ``_split_areas`` at that fraction falls below.

    A split of the budget ``phi * p_tot`` deposits at most the budget times
    the stronger beam's response on each column, so the area with that
    deposit everywhere, LB(phi) = sum_c w_c (B(phi) s_c - budget
    max(R0_c, R1_c))+^(2/alpha), is below every split's: the default grid's
    Simpson weights are positive, and the gap only falls as the noise
    rises.  Rounding cannot break this:

    - the split's noise ``drive @ response`` is two products of drives
      (rounded shares of the budget, the shares summing to at most 1 + u,
      u = 2**-53) and one sum: a few roundings, so it exceeds budget *
      max(R0_c, R1_c) by a few u relative at most.  The bound's deposit,
      taken ``1 + _SCAN_MARGIN`` times larger, exceeds it by about 1e-12,
      so its gap, subtracted from the same product ``B(phi) s_c`` and
      rounded monotonically, is no larger than any split's;
    - the ``2/alpha`` power is within an ulp or two of monotone, and each
      area is a sum of at most n nonnegative terms, n the grid's columns,
      which rounds by at most (n - 1) u relative in any order; so the
      bound, taken ``1 - n * _SCAN_MARGIN`` times smaller, stays below
      every computed split area.

    The fractions are scored in blocks that double in length (1, 2, 4,
    ...), so each block's noise floor, set by its first and smallest
    budget, is about half its last: the fractions near zero, which leave
    nearly every column live, fill the smallest blocks.  With at most 100
    fractions no block exceeds 64 rows."""
    reach = np.maximum(ev.response[0], ev.response[1]) * (1.0 + _SCAN_MARGIN)
    bounds = np.empty(phis.size)
    lo = 0
    while lo < phis.size:
        hi = 2 * lo + 1
        budgets = phis[lo:hi] * ev.cfg.p_tot
        bounds[lo:hi] = ev.areas(
            boundary_scale(ev.cfg, phis[lo:hi]), budgets[0] * reach,
            lambda cols: np.multiply.outer(budgets, reach[cols]))
        lo = hi
    return bounds * (1.0 - ev.s_eb.size * _SCAN_MARGIN)


@lru_cache(maxsize=32)
def _two_lobe_scan(cfg):
    """(phi, split) scan with the whole noise budget on the two DFT beams
    that deposit most strongly on the two strongest side lobes: fractions
    every ``_SCAN_PHI_STEP``, ``_SCAN_SPLITS`` splits at each.

    The fractions are scored in ascending order of their lower bound
    (``_split_lower_bounds``, a stable sort), and the scan stops at the
    first whose bound exceeds the best area so far: no split there or at
    any later fraction can reach it.  Among the scored fractions the first
    minimum in ``phi`` order wins, as in a scan of every fraction, so the
    result is the exhaustive scan's, bit for bit.  Returns ``(beam_columns,
    result)``: the two beams' read-only columns in the DFT basis and the
    best split's ``AllocationResult``, whose trace is the best area at each
    scored fraction, in ``phi`` order.  Memoised on ``cfg``."""
    ranked = _side_lobe_peak_angles(cfg)
    if len(ranked) < 2:
        raise DegenerateArrayError(
            "need at least two side lobes to aim at; the array resolves "
            f"only {len(ranked)}")
    beam_angles = build_dft_basis(cfg.geometry)
    eligible = _jam_beam_indices(cfg, beam_angles)
    if eligible.size < 2:
        raise DegenerateArrayError(
            f"only {eligible.size} jamming beams clear the main lobe")
    geom = cfg.geometry
    free = eligible
    cols = []
    for _, _, lobe_angle in ranked[:2]:
        deposit = s_kernel(np.abs(np.sin(beam_angles[free])
                                  - np.sin(lobe_angle)), geom)
        cols.append(int(free[int(np.argmax(deposit))]))
        free = free[free != cols[-1]]
    cols = _read_only(np.asarray(cols, dtype=int))
    angles = beam_angles[cols]
    ev = _DirectionalAreaEvaluator(cfg, angles)
    phis = np.arange(0.0, phi_max(cfg), _SCAN_PHI_STEP)
    bounds = _split_lower_bounds(ev, phis)
    splits = np.linspace(0.0, 1.0, _SCAN_SPLITS)
    shares = np.column_stack([splits, 1.0 - splits])
    scored = []
    lowest = np.inf
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] > lowest:
            break
        areas = _split_areas(ev, phis[i], shares)
        k = int(np.argmin(areas))
        scored.append((int(i), float(areas[k]), k))
        lowest = min(lowest, scored[-1][1])
    scored.sort()
    # the first of the smallest areas in phi order
    i, area, k = min(scored, key=lambda s: s[1])
    phi = float(phis[i])
    powers = shares[k] * (phis[i] * cfg.p_tot)
    trace = tuple((float(phis[j]), a) for j, a, _ in scored)
    alloc = PowerAllocation(phi, powers, "dft_selected", angles)
    return cols, AllocationResult(phi, alloc, area, trace)


def algorithm3_two_lobes(cfg):
    """Put the whole noise budget on the two DFT beams nearest the two
    strongest side lobes and search the jamming fraction (step 0.01) and
    the two-way split (201 splits), scoring by the exact outage area.  A
    fraction whose lower bound exceeds the best area found is skipped; the
    result is the exhaustive search's, bit for bit.

    The per-lobe score of ``lobe_notch_objective`` is concave in the beam
    powers, so budget-constrained minimizers concentrate power on few
    lobes; restricting to the two strongest keeps the search
    two-dimensional.  Lobe direction means the lobe maximum.  The result
    is the memoised scan's; its trace is the best area at each fraction the
    scan scored, in ``phi`` order.
    """
    return _two_lobe_scan(cfg)[1]

