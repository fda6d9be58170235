"""Finite-array Monte Carlo reference.

Everything else in this package works in the large-array limit; this module
checks those formulas the hard way.  Each sample draws a Rician channel
h = sqrt(w) a + sqrt(1 - w) g for Bob and for each eavesdropper (``a`` the
line-of-sight steering vector, ``g`` circularly-symmetric unit scatter),
applies the actual transmit covariance (maximum-ratio beam plus artificial
noise in the chosen basis), and counts secrecy outages.

The SINRs depend on a channel only through |h|**2 and its inner products
with a few known unit or steering directions F: for Bob, his own and every
eavesdropper's line of sight and the jamming beams; for an eavesdropper,
u = h_b/|h_b|, her own line of sight and the beams.  So the engine never
builds an N-length vector.  It draws (F^H g, |g|**2) exactly: with
L L^H = F^H F (the Gram, closed-form array-factor sums), F^H g = L c for
standard complex normals c, and |g|**2 is the sum of |c_j|**2 over the
min(D, N) counted coordinates (see ``_factor``) plus a Gamma(N - min(D, N))
variable for the part of ``g`` outside the span of F.  That holds for any
directions, coincident ones and more of them than antennas included.

Reproducibility contract: sample ``i`` of receiver ``l`` (Bob is 0) always
reads from the counter-based substream ``(master_seed, i, l)``: the numbers
a fresh ``Philox(key=master_seed, counter=[0, i, l, 0])`` produces.  Within
a receiver's substream the draw order is fixed: position first
(eavesdroppers only: angle, then radius, each where the caller draws it),
then 2 min(D, N) standard normals (the real, then the imaginary part of
each coordinate of c) and one standard gamma variate.  ``D`` and ``N``
depend on the scenario only, so the counts never depend on the data.

The engine works in blocks of samples.  A block holds about
``_BLOCK_DRAWS`` drawn numbers, a constant, so the block boundaries depend
on the scenario only.  Philox is counter-based (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011), so ``_draw`` computes the
raw words of every substream of a block in one vectorized pass and turns
them into variates the way numpy's Generator does: uniforms from the top 53
bits, normals by the ziggurat's first-word test (its tables in
``_ziggurat``), gammas by Marsaglia and Tsang's first try.  A substream
whose every draw returns on those first words is done; any other (about 8%
of them in the benchmark shapes) draws again through the Generator itself,
which stays the reference.  The block's Grams, factors and SINRs follow
with array operations.  Everything runs on the calling thread and
per-block results are combined in block order, so results are
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._ziggurat import KI, WI
from .asymptotic import _check_allocation

_HALF_PI = 0.5 * np.pi
# a Rician factor large enough to be numerically pure line of sight
_K_CAP = 1e12
# numbers drawn per block (positions, normals and gammas over the block's
# samples and receivers): sets a block's memory, not the results
_BLOCK_DRAWS = 8192
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
# numpy's ziggurat tables for the standard normal (see ``_ziggurat``)
_KI = np.array(KI, dtype=np.uint64)
_WI = np.array(WI)


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


class _Substreams:
    """One Philox generator moved to substream ``(master_seed, i, l)`` on
    demand: counter ``[0, i, l, 0]`` and an empty buffer, the state a new
    ``Philox(key=master_seed, counter=[0, i, l, 0])`` starts in, at a
    fraction of the cost of building one.

    This is the reference for every draw, and ``_draw`` falls back to it for
    each substream that leaves numpy's first-word fast paths."""

    def __init__(self, master_seed):
        self.master_seed = int(master_seed)
        self._bitgen = np.random.Philox(key=master_seed)
        self._gen = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        # plain lists: the state setter reads them faster than arrays
        self._counter = state["state"]["counter"].tolist()
        state["state"] = {"counter": self._counter,
                          "key": state["state"]["key"].tolist()}
        state["buffer"] = state["buffer"].tolist()
        self._state = state

    def seek(self, sample_id, receiver_id):
        self._counter[1] = sample_id
        self._counter[2] = receiver_id
        self._bitgen.state = self._state
        return self._gen


def _mulhilo(x, m):
    """(high, low) 64-bit halves of the products of uint64 arrays ``x`` and
    ``m``, the high half from four 32-bit partial products."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    high = x_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) \
        + (mid >> _SHIFT32)
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
        mul, xor = high[::-1] ^ xor ^ key, low[::-1]
    return np.stack([mul[0], xor[0], mul[1], xor[1]], axis=-1)


def _uniforms(words):
    """numpy's doubles in [0, 1) from raw words: their top 53 bits."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _normals(words):
    """numpy's ziggurat standard normals from one raw word each, and
    whether each word returns on the first try: layer ``idx`` from the low
    byte, the sign from the next bit, a 52-bit magnitude from the bits
    above."""
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(0xFFFFFFFFFFFFF)
    x = rabs * _WI[idx]
    return np.where(words & np.uint64(0x100), -x, x), rabs < _KI[idx]


def _gammas(words, shape):
    """numpy's standard gammas of integer ``shape`` >= 1 by Marsaglia and
    Tsang's method, from the two raw words (..., 2) of a first try (a
    normal, then a uniform), and whether each first try returns.

    The squeeze test runs as numpy's C code does.  The log test runs in
    numpy's ``log``, which may differ from C's in the last bits, so only a
    pass clear of a tie by 1e-9 of the terms' size counts.  Shape 1 never
    returns here: numpy draws it as an exponential.
    """
    b = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * b)
    x, ok = _normals(words[..., 0])
    v = 1.0 + c * x
    ok &= v > 0.0
    v = v * v * v
    u = _uniforms(words[..., 1])
    x2 = x * x
    squeeze = u < 1.0 - 0.0331 * x2 * x2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u, log_v = np.log(u), np.log(v)
        gap = 0.5 * x2 + b * (1.0 - v + log_v) - log_u
        band = 1e-9 * (np.abs(log_u) + 0.5 * x2
                       + b * (np.abs(1.0 - v) + np.abs(log_v)))
    return b * v, ok & (squeeze | (gap > band)) & (shape != 1.0)


def _draw(streams, groups):
    """The variates of groups of substreams of ``streams``, a group being
    (sample ids, receiver ids, uniforms, normals, gamma shape), with ids
    uint64 arrays (S,), and its result (uniforms (S, ·), normals (S, ·),
    gammas (S,)).

    Every substream's raw words come from one vectorized Philox pass; a
    gamma of shape 0 is 0.0 and draws nothing.  A substream whose every
    normal and whose gamma return on their first words is done; any other
    draws again through ``streams``, the reference.
    """
    words_per = [n_u + n_z + 2 * (shape != 0.0)
                 for _, _, n_u, n_z, shape in groups]
    blocks_per = [-(-w // 4) for w in words_per]
    c0, c1, c2 = [], [], []
    for (ids, rx, *_), k in zip(groups, blocks_per):
        c0.append(np.tile(np.arange(1, k + 1, dtype=np.uint64), len(ids)))
        c1.append(np.repeat(ids, k))
        c2.append(np.repeat(rx, k))
    raw = _philox(streams.master_seed, *map(np.concatenate, (c0, c1, c2)))
    out, at = [], 0
    for (ids, rx, n_u, n_z, shape), w, k in zip(groups, words_per,
                                                 blocks_per):
        n_s = len(ids)
        words = raw[at:at + n_s * k].reshape(n_s, 4 * k)
        at += n_s * k
        u = _uniforms(words[:, :n_u])
        z, ok = _normals(words[:, n_u:n_u + n_z])
        ok = ok.all(axis=1)
        g = np.zeros(n_s)
        if shape != 0.0:
            g, g_ok = _gammas(words[:, w - 2:w], shape)
            ok &= g_ok
        for j in np.flatnonzero(~ok):
            gen = streams.seek(int(ids[j]), int(rx[j]))
            gen.random(out=u[j])
            gen.standard_normal(out=z[j])
            g[j] = gen.standard_gamma(shape)
        out.append((u, z, g))
    return out


def _phases(geom, thetas):
    """Phase step 2 pi d sin(theta) between neighbouring elements of the
    steering vector exp(-2j pi d k sin(theta)), k = 0..N-1."""
    return 2.0 * np.pi * geom.spacing * np.sin(thetas)


def _steering_gram(psi, n):
    """a_i^H a_j for the steering vectors of phase steps ``psi`` (..., D):
    the array-factor sums sum_k exp(jk x), x = psi_i - psi_j, as
    (exp(jnx) - 1) / (exp(jx) - 1) from per-direction phases.  Entries near
    x = 0 modulo 2 pi (the diagonal among them) take the Dirichlet form
    exp(j(n-1)x/2) sin(nx/2) / sin(x/2) on the wrapped difference."""
    step, span = np.exp(1j * psi), np.exp(1j * n * psi)
    den = step[..., :, None] * step[..., None, :].conj() - 1.0
    near = np.abs(den) < _NEAR_PHASE
    den[near] = 1.0
    gram = span[..., :, None] * span[..., None, :].conj() - 1.0
    gram /= den
    *lead, i, j = np.nonzero(near)
    x = psi[(*lead, i)] - psi[(*lead, j)]
    half = 0.5 * (x - 2.0 * np.pi * np.round(x / (2.0 * np.pi)))
    with np.errstate(invalid="ignore"):
        ratio = np.where(half == 0.0, float(n),
                         np.sin(n * half) / np.sin(half))
    gram[near] = np.exp(1j * (n - 1) * half) * ratio
    return gram


def _factor(gram, n):
    """Lower factor of a stack of Hermitian Grams (..., D, D) of directions
    in C^n, one column at a time, and the counted coordinates.

    ``low @ low^H`` equals ``gram``.  A pivot at most ``_PIVOT_RTOL`` of its
    diagonal zeroes its column, and at most ``n`` pivots stay live (no more
    directions are independent in C^n).  The counted coordinates, a
    (..., D) mask, are the live columns plus the first min(D, n) - rank dead
    ones: exactly min(D, n) per Gram.  With c standard complex normal on the
    counted coordinates (zero elsewhere), ``low @ c`` has the law of F^H g
    and the sum of |c_j|**2 that of |P g|**2 plus the first
    min(D, n) - rank coordinates of the rest of ``g``.
    """
    d = gram.shape[-1]
    low = np.zeros_like(gram)
    live = np.zeros(gram.shape[:-1], dtype=bool)
    rank = np.zeros(gram.shape[:-2], dtype=int)
    for k in range(d):
        col = gram[..., k:, k] - np.einsum(
            "...ij,...j->...i", low[..., k:, :k], low[..., k, :k].conj())
        pivot = col[..., 0].real
        ok = (pivot > _PIVOT_RTOL * gram[..., k, k].real) & (rank < n)
        root = np.sqrt(np.where(ok, pivot, 1.0))
        low[..., k:, k] = np.where(ok[..., None], col / root[..., None], 0.0)
        live[..., k] = ok
        rank += ok
    dead = ~live
    spare = min(d, n) - rank
    return low, live | (dead & (np.cumsum(dead, axis=-1) <= spare[..., None]))


def _scatter_stats(gram, n, z, gamma):
    """(F^H g, |g|**2) for g ~ CN(0, I_n) and directions F of Gram ``gram``
    (..., D, D), from 2 min(D, n) standard normals ``z`` (..., 2 min(D, n))
    and standard gamma variates ``gamma`` (...) of shape n - min(D, n)."""
    low, counted = _factor(gram, n)
    c = np.zeros(counted.shape, dtype=complex)
    c[counted] = z.view(complex).reshape(-1) / np.sqrt(2.0)
    proj = np.einsum("...ij,...j->...i", low, c)
    return proj, 0.5 * np.einsum("...j,...j->...", z, z) + gamma


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
        p_beams = alloc.beam_powers / cfg.n0
        jam_b = stats.bob_beams @ p_beams
        jam_e = stats.eve_beams @ p_beams
    sinr_b = p_sig * gain_b * stats.bob_norm2 / (1.0 + gain_b * jam_b)
    sinr_e = p_sig * gain_e * stats.cross2 / (1.0 + gain_e * jam_e)
    return sinr_b, sinr_e


def _secrecy_outage_count(sinr_bob, sinr_eve, r_th):
    """Number of samples whose secrecy rate misses the (positive) target.

    The secrecy rate is log2((1+sinr_bob)/(1+sinr_eve)) clamped at zero.
    """
    ratio = (1.0 + np.asarray(sinr_bob)) / (1.0 + np.asarray(sinr_eve))
    return int(np.count_nonzero(ratio < 2.0 ** r_th))


def _block_stats(n, n_eves, w_los, psi, bob_scatter, eve_scatter, dist):
    """``_Stats`` of a block of samples on an ``n``-element array.

    ``psi`` (sample, D) holds the phase steps of Bob's directions: his line
    of sight, the ``n_eves`` eavesdroppers' lines of sight, then the jamming
    beams.  ``bob_scatter(gram)`` and ``eve_scatter(gram)`` return
    (F^H g, |g|**2) for Bob's and the eavesdroppers' scatter ``g``, given
    the Grams of their directions F, (sample, D, D) and (sample,
    eavesdropper, D_e, D_e).  The engine draws them (``_scatter_stats``);
    a check can compute them from explicit channels.  A channel
    h = sqrt(w) a + sqrt(1 - w) g then has F^H h = sqrt(w) F^H a +
    sqrt(1 - w) F^H g, where F^H a is a column of the Gram, and
    |h|**2 = w n + (1 - w) |g|**2 + 2 sqrt(w (1 - w)) Re(a^H g).
    """
    d_bob = psi.shape[-1]
    sw, sg = np.sqrt(w_los), np.sqrt(1.0 - w_los)
    scale = np.ones(d_bob)
    scale[1 + n_eves:] = 1.0 / np.sqrt(n)
    gram = _steering_gram(psi, n) * np.multiply.outer(scale, scale)
    proj, g2 = bob_scatter(gram)
    y = sw * gram[..., 0] + sg * proj                # F^H h_b
    bob_norm2 = w_los * n + (1.0 - w_los) * g2 \
        + 2.0 * sw * sg * proj[:, 0].real
    # an eavesdropper's directions: u = h_b/|h_b|, then her line of sight
    # and the beams (row l of ``pick``), with u^H f = conj(f^H h_b)/|h_b|
    pick = np.column_stack([np.arange(1, 1 + n_eves),
                            np.tile(np.arange(1 + n_eves, d_bob),
                                    (n_eves, 1))])
    d_eve = pick.shape[1] + 1
    eve_gram = np.empty((len(psi), n_eves, d_eve, d_eve), dtype=complex)
    eve_gram[..., 0, 0] = 1.0
    top = y[:, pick].conj() / np.sqrt(bob_norm2)[:, None, None]
    eve_gram[..., 0, 1:] = top
    eve_gram[..., 1:, 0] = top.conj()
    eve_gram[..., 1:, 1:] = gram[:, pick[:, :, None], pick[:, None, :]]
    proj_e, g2_e = eve_scatter(eve_gram)
    x = sw * eve_gram[..., 1] + sg * proj_e          # F_e^H h_e
    eve_norm2 = w_los * n + (1.0 - w_los) * g2_e \
        + 2.0 * sw * sg * proj_e[..., 1].real
    return _Stats(bob_norm2, np.abs(y[:, 1 + n_eves:]) ** 2,
                  np.abs(x[..., 0]) ** 2, eve_norm2, np.abs(x[..., 2:]) ** 2,
                  dist)


def _block_samples(n, n_eves, n_beams, n_pos):
    """Samples per block: about ``_BLOCK_DRAWS`` numbers, counting each
    receiver's ``n_pos`` position variates, 2 min(D, n) normals and one
    gamma (D = 1 + n_eves + n_beams for Bob, 2 + n_beams for an
    eavesdropper)."""
    draws = 2 * min(1 + n_eves + n_beams, n) + 1 \
        + n_eves * (n_pos + 2 * min(2 + n_beams, n) + 1)
    return max(1, _BLOCK_DRAWS // draws)


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
    psi_bob = _phases(geom, cfg.bob_theta)
    psi_beams = _phases(geom, np.asarray(beam_angles, dtype=float))

    streams = _Substreams(spec.master_seed)
    shape_bob, shape_eve = float(n - m_bob), float(n - m_eve)
    eve_rx = np.arange(1, n_eves + 1, dtype=np.uint64)
    out = []
    for start in range(0, spec.n_samples, per_block):
        stop = min(start + per_block, spec.n_samples)
        ids = np.arange(start, stop, dtype=np.uint64)
        (_, z_bob, gam_bob), (pos, z_eve, gam_eve) = _draw(streams, (
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
        psi = np.concatenate([np.full((m, 1), psi_bob),
                              _phases(geom, thetas),
                              np.broadcast_to(psi_beams, (m, n_beams))],
                             axis=1)
        dist = None
        if radii is not None:
            d_min, d_max = radii
            dist = np.sqrt(d_min ** 2 + pos[..., -1]
                           * (d_max ** 2 - d_min ** 2))
        out.append(score(_block_stats(
            n, n_eves, w_los, psi,
            lambda gram: _scatter_stats(gram, n, z_bob, gam_bob),
            lambda gram: _scatter_stats(gram, n, z_eve, gam_eve),
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


def _empirical_sinr(cfg, alloc, spec, eve_theta, eve_dist):
    """Per-sample (sinr_bob, sinr_eve) arrays for one fixed eavesdropper
    position; her substream is spent on the channel only."""
    if not eve_dist > 0:
        raise ValueError("eve_dist must be positive")
    _check_allocation(cfg, alloc)
    dist = np.array([[float(eve_dist)]])
    parts = _sample_blocks(
        cfg, spec, 1, eve_theta, None, _beam_angles(alloc),
        lambda stats: _sinrs(cfg, alloc, stats._replace(dist=dist)))
    return (np.concatenate([b for b, _ in parts]),
            np.concatenate([e[:, 0] for _, e in parts]))


def _empirical_crosstalk(cfg, spec, angles):
    """Samples of the squared normalized inner product between an
    eavesdropper channel and Bob's, |h_e^H h_b / n|**2 — the finite-array
    quantity whose large-array limit is the crosstalk kernel.

    ``angles`` is either a fixed eavesdropper angle or an interval to draw
    uniformly from (using the eavesdropper's substream, angle first).
    """
    n2 = float(cfg.geometry.n_antennas) ** 2
    parts = _sample_blocks(
        cfg, spec, 1, angles, None, (),
        lambda stats: stats.cross2[:, 0] * stats.bob_norm2 / n2)
    return np.concatenate(parts)
