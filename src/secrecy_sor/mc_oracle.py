"""Finite-array Monte Carlo reference.

Everything else in this package works in the large-array limit; this module
checks those formulas the hard way.  Each sample draws a Rician channel
h = sqrt(w) a + sqrt(1 - w) g for Bob and for each eavesdropper (``a`` the
line-of-sight steering vector, ``g`` circularly-symmetric unit scatter),
applies the actual transmit covariance (maximum-ratio beam plus artificial
noise in the chosen basis), and counts secrecy outages.

The SINRs depend on a channel only through |h|**2 and its inner products
with a few known unit or steering directions F, the fixed ones first: for
Bob, his own line of sight and the jamming beams, then every
eavesdropper's line of sight; for an eavesdropper, the beams, then
u = h_b/|h_b| and her own line of sight.  So the engine never builds an
N-length vector.  It draws (F^H g, |g|**2) exactly: with L L^H = F^H F
(the Gram, closed-form array-factor sums), F^H g = L c for standard
complex normals c, and |g|**2 is the sum of |c_j|**2 over the min(D, N)
counted coordinates (``_counted``) plus a Gamma(N - min(D, N)) variable
for the part of ``g`` outside the span of F.  That holds for any
directions, coincident ones and more of them than antennas included.  The
fixed directions' Gram and factor are the same in every sample, so a run
computes them once (``_fixed_directions``); a block computes only the
varying directions' entries and factors their Schur complement
(``_factor_varying``; Golub and Van Loan, *Matrix Computations*, 4.2).

Reproducibility contract: sample ``i`` of receiver ``l`` (Bob is 0) always
reads from the counter-based substream ``(master_seed, i, l)``: the words
a fresh ``Philox(key=master_seed, counter=[0, i, l, 0])`` produces
(Philox4x64-10; Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011).  Every variate sits at a fixed word position of its
substream: position first (eavesdroppers only: angle, then radius, each
where the caller draws it), then 2 min(D, N) standard normals (the real,
then the imaginary part of each coordinate of c, in the order of F) and
one standard gamma variate.  ``D`` and ``N`` depend on the scenario only,
so the counts never depend on the data.

The engine works in blocks of samples.  A block holds about
``_BLOCK_DRAWS`` (32,768) drawn numbers and at most ``_BLOCK_GRAM`` Gram
entries, constants, so the block boundaries depend on the scenario only,
and no result depends on them.  Philox is counter-based, so ``_draw``
computes the raw words of every substream of a block in one vectorized
pass and turns them into variates without rejection wherever the law
allows: uniforms from the top 53 bits (as numpy's ``random()``), each pair
of normals from two words by Box and Muller's transform (1958), gammas by
Marsaglia and Tsang's method (2000), a try taking three words.  Only a
substream whose first gamma try is rejected reads more: one Philox block
per retry, at a fixed block index.  The block's Gram entries, factors
and SINRs follow with array operations, each product with a fixed factor
one matrix product per sample (``_per_sample``).  Everything runs on the
calling thread and per-block results are combined in block order, so
results are byte-identical across runs on one machine and numpy build
(SIMD ``log`` and ``cos`` may differ in the last bit across CPUs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotic import _check_allocation

_HALF_PI = 0.5 * np.pi
# a Rician factor large enough to be numerically pure line of sight
_K_CAP = 1e12
# numbers drawn per block (positions, normals and gammas over the block's
# samples and receivers) and Gram entries per block (the varying
# directions' entries of every receiver over the block's samples): they
# set a block's memory, not the results.  The Gram cap binds only where the
# directions far outnumber the antennas, whose count caps the draws
_BLOCK_DRAWS = 32768
_BLOCK_GRAM = 7 * 2 ** 15
# a Cholesky pivot at most this fraction of its Gram diagonal is zero: its
# direction lies in the span of the earlier ones, up to rounding.  On 2000
# random steering sets per shape this found every rank; 1e-8 and up zeroed
# independent directions
_PIVOT_RTOL = 1e-10
# Gram entries whose phase-form denominator |exp(jx) - 1| is below this
# are recomputed from the Dirichlet form, where the phase form cancels
_NEAR_PHASE = 1e-3
# numpy's Philox4x64-10: rounds, round multipliers and key increments
_PHILOX_ROUNDS = 10
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                       dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                        dtype=np.uint64)
_WORD = 2 ** 64 - 1
# master seeds are Philox keys: two 64-bit words
_SEED_LIMIT = 2 ** 128
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class McRunSpec:
    """How to run a Monte Carlo batch.

    ``rician_k`` overrides the per-receiver Rician factor; by default it is
    derived from the scenario's ``k_eb`` assuming both ends share the same
    factor.  ``threads`` is checked (an integer >= 1) but changes neither
    the work nor the result: the engine runs on the calling thread.
    """

    n_samples: int
    master_seed: int
    rician_k: float | None = None
    threads: int = 1

    def __post_init__(self):
        # a fractional seed would alias a whole one (Philox truncates its
        # key), so the counts and the seed must be integers, and not bools
        for name, least in (("n_samples", 1), ("master_seed", 0),
                            ("threads", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.master_seed >= _SEED_LIMIT:
            raise ValueError("master_seed must be below 2**128 (a Philox "
                             "key is two 64-bit words)")
        # a NaN or infinite factor would make the line-of-sight weight NaN
        if self.rician_k is not None and not 0 <= self.rician_k < np.inf:
            raise ValueError("rician_k must be nonnegative and finite")


def _sym_k(cfg):
    """Per-receiver Rician factor reproducing ``cfg.k_eb`` when Bob and the
    eavesdroppers share it: k_eb = (K/(1+K))**2."""
    root = np.sqrt(cfg.k_eb)
    if root >= 1.0 - 1.0 / _K_CAP:
        return _K_CAP
    return float(root / (1.0 - root))


def _mulhilo(x, m):
    """(high, low) 64-bit halves of the products of uint64 arrays ``x`` and
    ``m``, the high half from 32-bit partial products (Hacker's Delight's
    ``mulhu``), in place where numpy allows."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    mid = x_hi * m_lo
    mid += (x_lo * m_lo) >> _SHIFT32
    carry = mid & _LOW32
    carry += x_lo * m_hi
    carry >>= _SHIFT32
    mid >>= _SHIFT32
    high = x_hi * m_hi
    high += mid
    high += carry
    return high, x * m


def _philox(master_seed, c0, c1, c2):
    """Philox4x64-10 of key ``master_seed`` at counters ``[c0, c1, c2, 0]``
    (uint64 arrays (n,)): (n, 4) words, the four a
    ``Philox(key=master_seed, counter=[c0 - 1, c1, c2, 0])`` draws first
    (numpy steps the counter, then runs the rounds)."""
    key = np.array([[master_seed & _WORD], [master_seed >> 64]],
                   dtype=np.uint64)
    # counter words 0 and 2 are multiplied, words 1 and 3 are xored in
    mul = np.stack([c0, c2])
    xor = np.stack([c1, np.zeros_like(c1)])
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_BUMP
        high, low = _mulhilo(mul, _PHILOX_MUL)
        high ^= xor[::-1]
        high ^= key[::-1]
        mul, xor = high[::-1], low[::-1]
    return np.stack([mul[0], xor[0], mul[1], xor[1]], axis=-1)


def _uniforms(words):
    """numpy's doubles in [0, 1) from raw words: their top 53 bits."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _raw_words(master_seed, parts):
    """Raw words of Philox blocks ``first``, ..., ``first + count - 1`` of
    every substream of each part (ids, rx, first, count), from one
    ``_philox`` call: an array (substream, 4 count) per part."""
    c0, c1, c2 = [], [], []
    for ids, rx, first, count in parts:
        c0.append(np.tile(np.arange(first, first + count, dtype=np.uint64),
                          len(ids)))
        c1.append(np.repeat(ids, count))
        c2.append(np.repeat(rx, count))
    raw = _philox(master_seed, *map(np.concatenate, (c0, c1, c2)))
    sizes = [len(ids) * count for ids, _, _, count in parts]
    return [words.reshape(len(ids), 4 * count) for words, (ids, *_, count)
            in zip(np.split(raw, np.cumsum(sizes)[:-1]), parts)]


def _box_muller(u1, u2):
    """Box and Muller's (1958) radius sqrt(-2 log(1 - u1)) and angle
    2 pi u2 of uniforms in [0, 1): r cos(angle) and r sin(angle) are
    independent standard normals."""
    return np.sqrt(-2.0 * np.log(1.0 - u1)), _TWO_PI * u2


def _gamma_try(u, shape):
    """Marsaglia and Tsang's try (2000) for a standard gamma of ``shape`` >=
    1 from three uniforms (..., 3): the first two give a normal x, the
    Box-Muller cosine, and the third u gives 1 - u in (0, 1].  Returns b v,
    with b = shape - 1/3 and v = (1 + x/sqrt(9 b))**3, and whether the try
    is kept: v > 0 and log(1 - u) < x**2/2 + b (1 - v + log(v))."""
    b = shape - 1.0 / 3.0
    r, angle = _box_muller(u[..., 0], u[..., 1])
    x = r * np.cos(angle)
    v = 1.0 + x / np.sqrt(9.0 * b)
    v = v * v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = (v > 0.0) & (np.log(1.0 - u[..., 2])
                            < 0.5 * x * x + b * (1.0 - v + np.log(v)))
    return b * v, keep


def _draw(master_seed, groups):
    """The variates of groups of substreams of ``master_seed``, a group
    being (sample ids, receiver ids, uniforms, normals, gamma shape), with
    ids uint64 arrays (S,) and an even number of normals, and its result
    (uniforms (S, ·), normals (S, ·), gammas (S,)).

    A substream's words sit at fixed positions in its first Philox blocks:
    each uniform takes one, each pair of normals two (``_box_muller``, the
    real and imaginary part of one complex coordinate), and a gamma's first
    try three (``_gamma_try``).  A gamma of shape 0 is 0.0 and takes none.
    A substream whose try is rejected takes its next try from the first
    three words of the next Philox block, and so on; every group's first
    blocks come from one vectorized Philox pass.
    """
    sizes = [n_u + n_z + 3 * (shape != 0.0) for _, _, n_u, n_z, shape
             in groups]
    blocks = [-(-size // 4) for size in sizes]
    out = []
    for (ids, rx, n_u, n_z, shape), size, last, words in zip(
            groups, sizes, blocks, _raw_words(master_seed, [
                (ids, rx, 1, k) for (ids, rx, *_), k in zip(groups, blocks)])):
        u = _uniforms(words[:, :size])
        r, angle = _box_muller(u[:, n_u:n_u + n_z:2],
                               u[:, n_u + 1:n_u + n_z:2])
        z = np.empty((len(ids), n_z))
        z[:, 0::2] = r * np.cos(angle)
        z[:, 1::2] = r * np.sin(angle)
        g = np.zeros(len(ids))
        if shape != 0.0:
            g, keep = _gamma_try(u[:, n_u + n_z:], shape)
            todo = np.flatnonzero(~keep)
            while todo.size:
                last += 1
                more, = _raw_words(master_seed,
                                   [(ids[todo], rx[todo], last, 1)])
                g[todo], keep = _gamma_try(_uniforms(more[:, :3]), shape)
                todo = todo[~keep]
        out.append((u[:, :n_u], z, g))
    return out


def _phases(geom, thetas):
    """Phase step 2 pi d sin(theta) between neighbouring elements of the
    steering vector exp(-2j pi d k sin(theta)), k = 0..N-1."""
    return 2.0 * np.pi * geom.spacing * np.sin(thetas)


def _steering_gram(psi, n, rows, cols):
    """a_i^H a_j for the steering vectors of phase steps ``psi`` (D, ...) at
    the index pairs ``rows``, ``cols`` (P,), as (P, ...): the array-factor
    sums sum_k exp(jk x), x = psi_i - psi_j, as (exp(jnx) - 1) / (exp(jx) -
    1) from per-direction phases.  Pairs near x = 0 modulo 2 pi take the
    Dirichlet form exp(j(n-1)x/2) sin(nx/2) / sin(x/2) on the wrapped
    difference.  The diagonal is n: callers set it, not ask for it."""
    step, span = np.exp(1j * psi), np.exp(1j * n * psi)
    # products in place, always: numpy may reuse a large temporary operand
    # for a product, which rounds differently, and that would tie the
    # entries' last bits to the block size
    den = step[cols].conj()
    den *= step[rows]
    den -= 1.0
    gram = span[cols].conj()
    gram *= span[rows]
    gram -= 1.0
    near = np.flatnonzero(np.abs(den) < _NEAR_PHASE)
    den.flat[near] = 1.0
    gram /= den
    if near.size:
        x = (psi[rows] - psi[cols]).flat[near]
        half = 0.5 * (x - 2.0 * np.pi * np.round(x / (2.0 * np.pi)))
        with np.errstate(invalid="ignore"):
            ratio = np.where(half == 0.0, float(n),
                             np.sin(n * half) / np.sin(half))
        gram.flat[near] = np.exp(1j * (n - 1) * half) * ratio
    return gram


def _factor(low, cap, diag):
    """Factor in place the last D columns of rows ``low`` (D, F + D, ...) of
    a lower factor of a stack of Hermitian matrices, and return their live
    pivots (D, ...).  The first F columns hold the rows' known entries (for
    F = 0, none), the last D the lower triangle of the Gram of their
    directions, so the loop factors its Schur complement one column at a
    time.  A pivot at most ``_PIVOT_RTOL`` of ``diag[k]`` (the Gram
    diagonal: n for a steering vector, 1 for a unit one) zeroes its column,
    and at most ``cap`` pivots stay live (no more directions are
    independent in C^n)."""
    d = len(low)
    f = low.shape[1] - d
    live = np.empty((d, *low.shape[2:]), dtype=bool)
    for k in range(d):
        col = low[k:, f + k]
        if f + k:
            col -= np.einsum("ij...,j...->i...", low[k:, :f + k],
                             low[k, :f + k].conj())
        pivot = col[0].real
        ok = pivot > _PIVOT_RTOL * diag[k]
        if k >= cap:
            ok &= np.count_nonzero(live[:k], axis=0) < cap
        root = np.sqrt(np.where(ok, pivot, 1.0))
        col.real /= root
        col.imag /= root
        if not ok.all():
            col *= ok
        live[k] = ok
    upper_i, upper_j = np.triu_indices(d, 1)
    low[upper_i, f + upper_j] = 0.0
    return live


class _Fixed(NamedTuple):
    """Directions fixed for a whole run, factored once."""

    gram: np.ndarray    # (F, F) Hermitian Gram
    low: np.ndarray     # its ``_factor`` L_f, at most n live pivots
    solve: np.ndarray   # M: forward substitution against L_f
    live: np.ndarray    # (F,) live pivots


def _factor_fixed(gram, n):
    """``_Fixed`` of the Gram of directions in C^n.  M maps a cross Gram G
    to X with L_f X = G on the live rows, zero on the dead ones."""
    low = gram.copy()
    live = _factor(low, n, gram.diagonal().real)
    solve = np.zeros_like(low)
    for k in np.flatnonzero(live):
        solve[k] = -low[k, :k] @ solve[:k]
        solve[k, k] += 1.0
        solve[k] /= low[k, k]
    return _Fixed(gram, low, solve, live)


def _per_sample(mat, a):
    """``mat @ a`` for columns ``a`` (K, C, sample, ...), one matrix product
    per sample, so that no rounding depends on the rest of the block."""
    if not a.size:
        return np.zeros((len(mat), *a.shape[1:]), dtype=complex)
    rows = np.ascontiguousarray(np.moveaxis(a, 2, 0))
    out = mat @ rows.reshape(*rows.shape[:2], -1)
    return np.moveaxis(out.reshape(len(rows), len(mat), *rows.shape[2:]),
                       0, 2)


def _factor_varying(fixed, g_fv, g_vv, n):
    """Rows [X^H, L_v] (V, F + V, ...) of the whole factor [[L_f, 0],
    [X^H, L_v]] of V further directions F_v after those of ``_Fixed``
    ``fixed``, and L_v's live pivots: X = M G_fv, one matrix product per
    sample, and L_v factors the Schur complement G_vv - X^H X with at most
    n - rank(L_f) live pivots.  ``g_fv`` = F_f^H F_v (F, V, ...) and
    ``g_vv`` is the lower triangle of F_v^H F_v in ``np.tril_indices(V)``
    order (V (V + 1)/2, ...)."""
    f, v = g_fv.shape[:2]
    low_i, low_j = np.tril_indices(v)
    rows = np.empty((v, f + v, *g_vv.shape[1:]), dtype=complex)
    rows[:, :f] = np.swapaxes(_per_sample(fixed.solve, g_fv), 0, 1).conj()
    rows[low_i, f + low_j] = g_vv
    live = _factor(rows, n - np.count_nonzero(fixed.live),
                   g_vv[low_i == low_j].real)
    return rows, live


def _counted(live, n):
    """The counted coordinates of a factor of directions in C^n with live
    pivots ``live`` (..., D): the live ones and the first min(D, n) - rank
    dead ones, exactly min(D, n)."""
    spare = min(live.shape[-1], n) - np.count_nonzero(live, axis=-1)
    return live | (np.cumsum(~live, axis=-1) <= spare[..., None])


def _scatter_stats(fixed, g_fv, g_vv, n, z, gamma):
    """(F_f^H g, F_v^H g, |g|**2) for g ~ CN(0, I_n) and the directions of
    ``_factor_varying``, from 2 min(D, n) standard normals ``z`` (..., 2
    min(D, n)) and standard gammas ``gamma`` (...) of shape n - min(D, n),
    D = F + V.  With c standard complex normal on the ``_counted``
    coordinates (all of them when D <= n) and zero elsewhere, L c has the
    law of F^H g and the sum of |c_j|**2 that of |P g|**2 plus the first
    min(D, n) - rank coordinates of the rest of ``g``."""
    f, v = g_fv.shape[:2]
    rows, live = _factor_varying(fixed, g_fv, g_vv, n)
    c = (z / np.sqrt(2.0)).view(complex)
    if f + v > n:
        counted = _counted(np.concatenate(
            [np.broadcast_to(fixed.live, (*live.shape[1:], f)),
             np.moveaxis(live, 0, -1)], axis=-1), n)
        full = np.zeros(counted.shape, dtype=complex)
        full[counted] = c.reshape(-1)
        c = full
    c = np.moveaxis(c, -1, 0)
    return (_per_sample(fixed.low, c[:f, None])[:, 0],
            np.einsum("ij...,j...->i...", rows, c),
            0.5 * np.einsum("...j,...j->...", z, z) + gamma)


class _Stats(NamedTuple):
    """What the SINRs of a block of samples depend on: squared magnitudes
    of Bob's and the eavesdroppers' channels and of their projections,
    with u = h_b/|h_b| and b_m the unit-norm jamming beams."""

    bob_norm2: np.ndarray   # |h_b|**2, (sample,)
    bob_beams: np.ndarray   # |b_m^H h_b|**2, (sample, beam)
    cross2: np.ndarray      # |u^H h_e|**2, (sample, eavesdropper)
    eve_norm2: np.ndarray   # |h_e|**2, (sample, eavesdropper)
    eve_beams: np.ndarray   # |b_m^H h_e|**2, (sample, eavesdropper, beam)
    dist: np.ndarray | None  # eavesdropper distances, (sample, eavesdropper)


def _beam_angles(alloc):
    if alloc.basis == "null_space_uniform":
        return np.empty(0)
    return alloc.beam_angles


def _sinrs(cfg, alloc, stats):
    """(sinr_bob, sinr_eve) of a block of ``_Stats``, no approximations.

    The transmitter beams ``(1-phi) p_tot`` at Bob by maximum ratio and
    spreads the noise budget per ``alloc``.  Isotropic null-space noise is
    invisible to Bob by construction and reaches an eavesdropper through
    the norm of her channel outside the signal direction; explicit beams
    leak to both receivers through their actual channels.
    """
    p_sig = (1.0 - alloc.phi) * cfg.p_tilde_tot
    gain_b = cfg.bob_dist ** (-cfg.alpha)
    gain_e = stats.dist ** (-cfg.alpha)
    if alloc.basis == "null_space_uniform":
        jam_b = 0.0
        per_dir = alloc.phi * cfg.p_tilde_tot / (cfg.geometry.n_antennas - 1)
        jam_e = per_dir * (stats.eve_norm2 - stats.cross2)
    else:
        # a sum per sample: a matrix product's rounding would depend on
        # the block's sample count
        p_beams = alloc.beam_powers / cfg.n0
        jam_b = (stats.bob_beams * p_beams).sum(axis=-1)
        jam_e = (stats.eve_beams * p_beams).sum(axis=-1)
    sinr_b = p_sig * gain_b * stats.bob_norm2 / (1.0 + gain_b * jam_b)
    sinr_e = p_sig * gain_e * stats.cross2 / (1.0 + gain_e * jam_e)
    return sinr_b, sinr_e


def _secrecy_outage_count(sinr_bob, sinr_eve, r_th):
    """Number of samples whose secrecy rate misses the (positive) target.

    The secrecy rate is log2((1+sinr_bob)/(1+sinr_eve)) clamped at zero.
    """
    ratio = (1.0 + np.asarray(sinr_bob)) / (1.0 + np.asarray(sinr_eve))
    return int(np.count_nonzero(ratio < 2.0 ** r_th))


def _fixed_directions(n, psi):
    """``_Fixed`` of Bob's fixed directions, his line of sight and then the
    unit beams (phase steps ``psi``), and of an eavesdropper's, the beams.
    Their Gram's diagonal is n (1 for a unit beam) by definition."""
    f = len(psi)
    low_i, low_j = np.tril_indices(f, -1)
    scale = np.full(f, 1.0 / np.sqrt(n))
    scale[0] = 1.0
    gram = np.diag(np.r_[n, np.ones(f - 1)]).astype(complex)
    gram[low_i, low_j] = _steering_gram(psi, n, low_i, low_j) \
        * (scale[low_i] * scale[low_j])
    gram[low_j, low_i] = gram[low_i, low_j].conj()
    return _factor_fixed(gram, n), _factor_fixed(gram[1:, 1:], n)


def _block_stats(n, w_los, psi, bob, eve, bob_scatter, eve_scatter, dist):
    """``_Stats`` of a block of samples on an ``n``-element array.

    ``psi`` (F + n_eves, sample) holds the phase steps of Bob's directions:
    the F fixed ones of ``_Fixed`` ``bob`` (his line of sight, the beams),
    then the eavesdroppers' lines of sight.  An eavesdropper's are the
    beams (``eve``), then u = h_b/|h_b| and her line of sight.
    ``bob_scatter`` and ``eve_scatter`` map (fixed, G_fv, G_vv), the Gram
    blocks of ``_factor_varying`` (stack: sample for Bob, (sample,
    eavesdropper) for the eavesdroppers), to the (F_f^H g, F_v^H g,
    |g|**2) of ``_scatter_stats``; a check can compute them from explicit
    channels.  A channel h = sqrt(w) a + sqrt(1 - w) g then has F^H h =
    sqrt(w) F^H a + sqrt(1 - w) F^H g, where F^H a is a column of the
    Gram, and |h|**2 = w n + (1 - w) |g|**2 + 2 sqrt(w (1 - w)) Re(a^H g).
    """
    (d_bob, m), f = psi.shape, len(bob.live)
    n_eves = d_bob - f
    sw, sg = np.sqrt(w_los), np.sqrt(1.0 - w_los)
    # Bob's varying entries: the fixed rows against the eavesdroppers'
    # columns, then the lower triangle among the eavesdroppers, whose
    # diagonal is n
    low_i, low_j = np.tril_indices(n_eves)
    off = low_i != low_j
    entries = _steering_gram(
        psi, n, np.concatenate([np.repeat(np.arange(f), n_eves),
                                f + low_i[off]]),
        np.concatenate([np.tile(np.arange(f, d_bob), f), f + low_j[off]]))
    g_fv = entries[:f * n_eves].reshape(f, n_eves, m)
    g_fv[1:] *= 1.0 / np.sqrt(n)
    g_vv = np.full((len(off), m), n, dtype=complex)
    g_vv[off] = entries[f * n_eves:]
    proj_f, proj_v, g2 = bob_scatter(bob, g_fv, g_vv)
    y_f = sw * bob.gram[:, :1] + sg * proj_f         # F_f^H h_b
    y_v = sw * g_fv[0].conj() + sg * proj_v          # a_e^H h_b
    bob_norm2 = w_los * n + (1.0 - w_los) * g2 \
        + 2.0 * sw * sg * proj_f[0].real
    # an eavesdropper's u against the beams and her line of sight:
    # b^H u = b^H h_b/|h_b| and a_e^H u = a_e^H h_b/|h_b|
    bob_norm = np.sqrt(bob_norm2)
    e_fv = np.empty((f - 1, 2, m, n_eves), dtype=complex)
    e_fv[:, 0] = (y_f[1:] / bob_norm)[..., None]
    e_fv[:, 1] = g_fv[1:].transpose(0, 2, 1)
    e_vv = np.empty((3, m, n_eves), dtype=complex)
    e_vv[0], e_vv[1], e_vv[2] = 1.0, (y_v / bob_norm).T, n
    proj_ef, proj_ev, g2_e = eve_scatter(eve, e_fv, e_vv)
    # F_e^H h_e, from the Gram column of her line of sight
    x_f = sw * e_fv[:, 1] + sg * proj_ef
    x_u = sw * e_vv[1].conj() + sg * proj_ev[0]
    eve_norm2 = w_los * n + (1.0 - w_los) * g2_e \
        + 2.0 * sw * sg * proj_ev[1].real
    # beams last and contiguous: ``_sinrs`` sums over them per sample
    return _Stats(bob_norm2, (np.abs(y_f[1:]) ** 2).T.copy(),
                  np.abs(x_u) ** 2, eve_norm2,
                  (np.abs(x_f) ** 2).transpose(1, 2, 0).copy(), dist)


def _block_samples(n, n_eves, n_beams, n_pos):
    """Samples per block: about ``_BLOCK_DRAWS`` numbers, counting each
    receiver's ``n_pos`` position variates, 2 min(D, n) normals and one
    gamma (D = 1 + n_beams + n_eves for Bob, n_beams + 2 for an
    eavesdropper), and at most ``_BLOCK_GRAM`` entries of the varying
    directions' Gram blocks, counted as n_eves D for Bob and 2 D per
    eavesdropper."""
    d_bob, d_eve = 1 + n_eves + n_beams, 2 + n_beams
    draws = 2 * min(d_bob, n) + 1 + n_eves * (n_pos + 2 * min(d_eve, n) + 1)
    grams = n_eves * (d_bob + 2 * d_eve)
    return max(1, min(_BLOCK_DRAWS // draws, _BLOCK_GRAM // grams))


def _sample_blocks(cfg, spec, n_eves, angles, radii, beam_angles, score):
    """``score(stats)`` of every block of samples, in block order.

    ``stats`` are the block's ``_Stats`` for Bob and ``n_eves``
    eavesdroppers under unit jamming beams at ``beam_angles``.  Each
    eavesdropper sits at the fixed angle ``angles`` or draws hers uniformly
    from the interval ``angles``; with ``radii = (d_min, d_max)`` she then
    draws her distance uniformly over that annulus (else ``stats.dist`` is
    None).
    """
    if not np.all(np.abs(angles) <= _HALF_PI):
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    geom = cfg.geometry
    n, n_beams = geom.n_antennas, len(beam_angles)
    k_rx = spec.rician_k if spec.rician_k is not None else _sym_k(cfg)
    w_los = k_rx / (1.0 + k_rx)
    fixed = np.ndim(angles) == 0
    n_pos = (not fixed) + (radii is not None)
    m_bob, m_eve = min(1 + n_eves + n_beams, n), min(2 + n_beams, n)
    per_block = _block_samples(n, n_eves, n_beams, n_pos)
    psi_fixed = _phases(geom, np.concatenate(
        [[cfg.bob_theta], np.asarray(beam_angles, dtype=float)]))
    bob, eve = _fixed_directions(n, psi_fixed)

    seed = int(spec.master_seed)
    shape_bob, shape_eve = float(n - m_bob), float(n - m_eve)
    eve_rx = np.arange(1, n_eves + 1, dtype=np.uint64)
    out = []
    for start in range(0, spec.n_samples, per_block):
        stop = min(start + per_block, spec.n_samples)
        ids = np.arange(start, stop, dtype=np.uint64)
        (_, z_bob, gam_bob), (pos, z_eve, gam_eve) = _draw(seed, (
            (ids, np.zeros_like(ids), 0, 2 * m_bob, shape_bob),
            (np.repeat(ids, n_eves), np.tile(eve_rx, len(ids)), n_pos,
             2 * m_eve, shape_eve)))
        m = stop - start
        pos = pos.reshape(m, n_eves, n_pos)
        z_eve = z_eve.reshape(m, n_eves, 2 * m_eve)
        gam_eve = gam_eve.reshape(m, n_eves)
        if fixed:
            thetas = np.full((m, n_eves), angles)
        else:
            # Generator.uniform(lo, hi) is lo + (hi - lo) * random()
            lo, hi = angles
            thetas = lo + (hi - lo) * pos[..., 0]
        psi = np.concatenate([np.broadcast_to(psi_fixed[:, None],
                                              (1 + n_beams, m)),
                              _phases(geom, thetas).T])
        dist = None
        if radii is not None:
            d_min, d_max = radii
            dist = np.sqrt(d_min ** 2 + pos[..., -1]
                           * (d_max ** 2 - d_min ** 2))
        out.append(score(_block_stats(
            n, w_los, psi, bob, eve,
            lambda *grams: _scatter_stats(*grams, n, z_bob, gam_bob),
            lambda *grams: _scatter_stats(*grams, n, z_eve, gam_eve),
            dist)))
    return out


def empirical_sop(cfg, alloc, region, spec):
    """Secrecy outage probability by direct simulation.

    Each sample drops ``cfg.n_eves`` eavesdroppers uniformly over the
    suspicious region, redraws every channel, and declares outage when the
    strongest eavesdropper pushes the secrecy rate below target under the
    ``PowerAllocation`` ``alloc``.
    """
    _check_allocation(cfg, alloc)

    def outages(stats):
        sinr_b, sinr_e = _sinrs(cfg, alloc, stats)
        return _secrecy_outage_count(sinr_b, sinr_e.max(axis=1), cfg.r_th)
    counts = _sample_blocks(cfg, spec, cfg.n_eves, region.angle_interval,
                            (region.d_min, region.d_max),
                            _beam_angles(alloc), outages)
    return sum(counts) / spec.n_samples
