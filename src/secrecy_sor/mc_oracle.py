"""Finite-array Monte Carlo reference.

Everything else in this package works in the large-array limit; this module
checks those formulas the hard way.  It draws explicit Rician channel
vectors for Bob and each eavesdropper, forms the actual transmit covariance
(maximum-ratio beam plus artificial noise in the chosen basis), and counts
secrecy outages sample by sample.

Reproducibility contract: sample ``i`` of receiver ``l`` always reads from
the counter-based substream ``(master_seed, i, l)``, so results are
byte-identical across runs, chunk sizes, and thread counts.  Within a
receiver's stream the draw order is fixed: position first (eavesdroppers
only: angle, then radius), then the channel entries (real before imaginary,
entry by entry).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotic import PowerAllocation, _check_allocation
from .crosstalk import steering_vector

# a Rician factor large enough to be numerically pure line of sight
_K_CAP = 1e12


@dataclass(frozen=True)
class McRunSpec:
    """How to run a Monte Carlo batch.

    ``rician_k`` overrides the per-receiver Rician factor; by default it is
    derived from the scenario's ``k_eb`` assuming both ends share the same
    factor.  ``threads`` splits the sample range into that many contiguous
    chunks (the substream scheme makes the result independent of the split).
    """

    n_samples: int
    master_seed: int
    rician_k: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.rician_k is not None and self.rician_k < 0:
            raise ValueError("rician_k must be nonnegative")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class ChannelDraw:
    """One receiver's channel realization and position."""

    h: np.ndarray
    theta: float
    dist: float


def _sym_k(cfg):
    """Per-receiver Rician factor reproducing ``cfg.k_eb`` when Bob and the
    eavesdroppers share it: k_eb = (K/(1+K))**2."""
    root = np.sqrt(cfg.k_eb)
    if root >= 1.0 - 1.0 / _K_CAP:
        return _K_CAP
    return float(root / (1.0 - root))


def _stream(master_seed, sample_id, receiver_id):
    return np.random.Generator(np.random.Philox(
        key=master_seed, counter=[0, sample_id, receiver_id, 0]))


def draw_channel(geom, rician_k, theta, rng):
    """One small-scale channel vector: deterministic steering component plus
    circularly-symmetric scatter, mixed by the Rician factor.  Path loss is
    not included (norm**2 concentrates near the element count)."""
    los = steering_vector(theta, geom)
    z = rng.standard_normal((geom.n_antennas, 2))
    scatter = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    w_los = rician_k / (1.0 + rician_k)
    return np.sqrt(w_los) * los + np.sqrt(1.0 - w_los) * scatter


def _beam_matrix(geom, angles):
    """Unit-norm steering columns for explicit jamming beams."""
    k = np.arange(geom.n_antennas)
    sins = np.sin(np.asarray(angles, dtype=float))
    return np.exp(-2j * np.pi * geom.spacing * np.outer(k, sins)) \
        / np.sqrt(geom.n_antennas)


def null_space_basis(h):
    """Orthonormal basis of the beamforming directions orthogonal to ``h``
    (columns of the result).  The jamming power a receiver collects from an
    isotropic spread over these columns reduces to a norm identity, which
    the fast path uses instead; this explicit basis exists for checking it.
    """
    h = np.asarray(h, dtype=complex)
    _, s, vh = np.linalg.svd(h.conj()[None, :], full_matrices=True)
    # rank cutoff: singular values above eps * max(shape) * largest
    tol = np.finfo(float).eps * h.size * s.max(initial=0.0)
    rank = np.count_nonzero(s > tol)
    return vh[rank:].conj().T


def _as_allocation(cfg, alloc):
    if isinstance(alloc, PowerAllocation):
        _check_allocation(cfg, alloc)
        return alloc
    phi = float(alloc)
    return PowerAllocation(phi, np.array([phi * cfg.p_tot]),
                           "null_space_uniform")


def sinr_exact(cfg, alloc, h_bob, eve, beam_matrix=None):
    """(sinr_bob, sinr_eve) for one channel draw, no approximations.

    The transmitter beams ``(1-phi) p_tot`` at Bob by maximum ratio and
    spreads the noise budget per ``alloc``.  Isotropic null-space noise is
    invisible to Bob by construction and reaches the eavesdropper through
    the norm of her channel outside the signal direction; explicit beams
    leak to both receivers through their actual channels.  ``beam_matrix``
    can carry the precomputed beam columns across calls.
    """
    p_sig = (1.0 - alloc.phi) * cfg.p_tilde_tot
    gain_b = cfg.bob_dist ** (-cfg.alpha)
    gain_e = eve.dist ** (-cfg.alpha)
    norm_b2 = float(np.vdot(h_bob, h_bob).real)
    cross2 = float(np.abs(np.vdot(eve.h, h_bob)) ** 2) / norm_b2
    if alloc.basis == "null_space_uniform":
        jam_b = 0.0
        per_dir = alloc.phi * cfg.p_tilde_tot / (cfg.geometry.n_antennas - 1)
        jam_e = per_dir * (float(np.vdot(eve.h, eve.h).real) - cross2)
    else:
        if beam_matrix is None:
            beam_matrix = _beam_matrix(cfg.geometry, alloc.beam_angles)
        p_beams = alloc.beam_powers / cfg.n0
        jam_b = float(p_beams @ (np.abs(h_bob.conj() @ beam_matrix) ** 2))
        jam_e = float(p_beams @ (np.abs(eve.h.conj() @ beam_matrix) ** 2))
    sinr_b = p_sig * gain_b * norm_b2 / (1.0 + gain_b * jam_b)
    sinr_e = p_sig * gain_e * cross2 / (1.0 + gain_e * jam_e)
    return sinr_b, sinr_e


def secrecy_outage_count(sinr_bob, sinr_eve, r_th):
    """Number of samples whose secrecy rate misses the target.

    The secrecy rate is log2((1+sinr_bob)/(1+sinr_eve)) clamped at zero; a
    zero target therefore means outage whenever the eavesdropper is at least
    as strong as Bob.
    """
    ratio = (1.0 + np.asarray(sinr_bob)) / (1.0 + np.asarray(sinr_eve))
    if r_th > 0.0:
        return int(np.count_nonzero(ratio < 2.0 ** r_th))
    return int(np.count_nonzero(ratio <= 1.0))


def empirical_sop(cfg, alloc, region, spec):
    """Secrecy outage probability by direct simulation.

    Each sample drops ``cfg.n_eves`` eavesdroppers uniformly over the
    suspicious region (constant radial bounds only), redraws every channel,
    and declares outage when the strongest eavesdropper pushes the secrecy
    rate below target.  ``alloc`` is a PowerAllocation or a bare uniform
    jamming fraction.
    """
    if not region.is_constant:
        raise ValueError("Monte Carlo sampling needs constant radial bounds")
    alloc = _as_allocation(cfg, alloc)
    k_rx = spec.rician_k if spec.rician_k is not None else _sym_k(cfg)
    beams = None
    if alloc.basis != "null_space_uniform":
        beams = _beam_matrix(cfg.geometry, alloc.beam_angles)

    def run(start, stop):
        count = 0
        for i in range(start, stop):
            rng_b = _stream(spec.master_seed, i, 0)
            h_b = draw_channel(cfg.geometry, k_rx, cfg.bob_theta, rng_b)
            sinr_b = None
            worst = -np.inf
            for l in range(1, cfg.n_eves + 1):
                rng_e = _stream(spec.master_seed, i, l)
                lo, hi = region.angle_interval
                theta = rng_e.uniform(lo, hi)
                u = rng_e.uniform()
                dist = np.sqrt(region.d_min ** 2
                               + u * (region.d_max ** 2 - region.d_min ** 2))
                eve = ChannelDraw(
                    draw_channel(cfg.geometry, k_rx, theta, rng_e),
                    float(theta), float(dist))
                sinr_b, sinr_e = sinr_exact(cfg, alloc, h_b, eve, beams)
                worst = max(worst, sinr_e)
            count += secrecy_outage_count(sinr_b, worst, cfg.r_th)
        return count

    edges = np.linspace(0, spec.n_samples, spec.threads + 1).astype(int)
    if spec.threads == 1:
        total = run(0, spec.n_samples)
    else:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            total = sum(pool.map(lambda se: run(*se),
                                 zip(edges[:-1], edges[1:])))
    return total / spec.n_samples


def empirical_sinr(cfg, alloc, spec, eve_theta, eve_dist):
    """Per-sample (sinr_bob, sinr_eve) arrays for one fixed eavesdropper
    position; her substream is spent on the channel only."""
    alloc = _as_allocation(cfg, alloc)
    k_rx = spec.rician_k if spec.rician_k is not None else _sym_k(cfg)
    beams = None
    if alloc.basis != "null_space_uniform":
        beams = _beam_matrix(cfg.geometry, alloc.beam_angles)
    out_b = np.empty(spec.n_samples)
    out_e = np.empty(spec.n_samples)
    for i in range(spec.n_samples):
        h_b = draw_channel(cfg.geometry, k_rx, cfg.bob_theta,
                           _stream(spec.master_seed, i, 0))
        h_e = draw_channel(cfg.geometry, k_rx, eve_theta,
                           _stream(spec.master_seed, i, 1))
        eve = ChannelDraw(h_e, eve_theta, eve_dist)
        out_b[i], out_e[i] = sinr_exact(cfg, alloc, h_b, eve, beams)
    return out_b, out_e


def empirical_crosstalk(cfg, spec, angles=(-np.pi / 2, np.pi / 2)):
    """Samples of the squared normalized inner product between an
    eavesdropper channel and Bob's, |h_e^H h_b / n|**2 — the finite-array
    quantity whose large-array limit is the crosstalk kernel.

    ``angles`` is either a fixed eavesdropper angle or an interval to draw
    uniformly from (using the eavesdropper's substream, angle first).
    """
    k_rx = spec.rician_k if spec.rician_k is not None else _sym_k(cfg)
    n = cfg.geometry.n_antennas
    out = np.empty(spec.n_samples)
    fixed = np.isscalar(angles)
    for i in range(spec.n_samples):
        h_b = draw_channel(cfg.geometry, k_rx, cfg.bob_theta,
                           _stream(spec.master_seed, i, 0))
        rng_e = _stream(spec.master_seed, i, 1)
        theta = angles if fixed else rng_e.uniform(angles[0], angles[1])
        h_e = draw_channel(cfg.geometry, k_rx, theta, rng_e)
        out[i] = np.abs(np.vdot(h_e, h_b) / n) ** 2
    return out
