"""Finite-array Monte Carlo reference.

Everything else in this package works in the large-array limit; this module
checks those formulas the hard way.  It draws explicit Rician channel
vectors for Bob and each eavesdropper, forms the actual transmit covariance
(maximum-ratio beam plus artificial noise in the chosen basis), and counts
secrecy outages.

Reproducibility contract: sample ``i`` of receiver ``l`` (Bob is 0) always
reads from the counter-based substream ``(master_seed, i, l)``: the numbers
a fresh ``Philox(key=master_seed, counter=[0, i, l, 0])`` produces.  Within
a receiver's substream the draw order is fixed: position first
(eavesdroppers only: angle, then radius, each where the caller draws it),
then the channel entries (real before imaginary, entry by entry).

The engine works in blocks of samples.  A block holds about
``_BLOCK_ENTRIES`` channel entries (samples x receivers x antennas), a
constant, so the block boundaries depend on the scenario only.  Each worker
thread owns one Philox generator, moves it to each substream of its blocks
in turn, draws the block's normals into one preallocated array, and
computes the block's channels and SINRs with array operations.  Blocks are
spread over at most as many workers as there are blocks or usable CPUs
(one worker for small arrays, see ``_THREADED_MIN_ANTENNAS``), and
per-block results are combined in block order, so results are
byte-identical across runs and thread counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotic import (
    PowerAllocation,
    _check_allocation,
    _uniform_allocation,
)
from .crosstalk import steering_vector

# a Rician factor large enough to be numerically pure line of sight
_K_CAP = 1e12
# channel entries (samples x receivers x antennas) drawn per block: sets a
# block's memory (16 bytes of normals per entry), not the results
_BLOCK_ENTRIES = 8192
# smallest array that runs on more than one thread.  Each (sample,
# receiver) draw holds the GIL for a few microseconds of Python and
# releases it while numpy fills the 2N normals.  On a 2-vCPU host two
# threads ran 1.3-1.8x faster than one at N = 400, broke even at N = 200
# and ran up to 1.3x slower at N = 100, where the fills are too short to
# overlap the other thread's Python work.
_THREADED_MIN_ANTENNAS = 256


@dataclass(frozen=True)
class McRunSpec:
    """How to run a Monte Carlo batch.

    ``rician_k`` overrides the per-receiver Rician factor; by default it is
    derived from the scenario's ``k_eb`` assuming both ends share the same
    factor.  ``threads`` caps the worker threads the sample blocks are
    spread over, at most one per block and per usable CPU; arrays below
    ``_THREADED_MIN_ANTENNAS`` elements run on the calling thread, where
    more threads only contend for the GIL.  The substream scheme makes the
    result independent of either.
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
        if self.rician_k is not None and self.rician_k < 0:
            raise ValueError("rician_k must be nonnegative")


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
    fraction of the cost of building one."""

    def __init__(self, master_seed):
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


def _channel(los, z, rician_k):
    """Rician channels from line-of-sight responses and ``(..., n, 2)``
    standard normals (real, imaginary) for the circularly-symmetric
    scatter."""
    w_los = rician_k / (1.0 + rician_k)
    h = z.view(complex)[..., 0] / np.sqrt(2.0)
    h *= np.sqrt(1.0 - w_los)
    h += np.sqrt(w_los) * los
    return h


def _beam_matrix(geom, angles):
    """Unit-norm steering columns for explicit jamming beams."""
    k = np.arange(geom.n_antennas)
    sins = np.sin(np.asarray(angles, dtype=float))
    return np.exp(-2j * np.pi * geom.spacing * np.outer(k, sins)) \
        / np.sqrt(geom.n_antennas)


def _beams(cfg, alloc):
    if alloc.basis == "null_space_uniform":
        return None
    return _beam_matrix(cfg.geometry, alloc.beam_angles)


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
    return _uniform_allocation(cfg, float(alloc))


def _sq_norms(h):
    """Squared norms along the last axis of a complex array."""
    v = h.view(float)
    return np.einsum("...i,...i->...", v, v)


def _cross(h):
    """|h_e^H h_b|**2 per sample and eavesdropper of a block ``h`` of
    (sample, receiver, antenna) channels with Bob at receiver 0."""
    inner = h[:, 1:] @ h[:, 0].conj()[:, :, None]
    return np.abs(inner[..., 0]) ** 2


def _block_sinrs(cfg, alloc, beams, h, dist):
    """(sinr_bob, sinr_eve) of a block, no approximations: ``h`` holds
    (sample, receiver, antenna) channels with Bob at receiver 0, ``dist``
    the eavesdroppers' (sample, eavesdropper) distances.

    The transmitter beams ``(1-phi) p_tot`` at Bob by maximum ratio and
    spreads the noise budget per ``alloc``.  Isotropic null-space noise is
    invisible to Bob by construction and reaches an eavesdropper through
    the norm of her channel outside the signal direction; explicit
    ``beams`` leak to both receivers through their actual channels.
    """
    h_b, h_e = h[:, 0], h[:, 1:]
    p_sig = (1.0 - alloc.phi) * cfg.p_tilde_tot
    gain_b = cfg.bob_dist ** (-cfg.alpha)
    gain_e = dist ** (-cfg.alpha)
    norm_b2 = _sq_norms(h_b)
    cross2 = _cross(h) / norm_b2[:, None]
    if beams is None:
        jam_b = 0.0
        per_dir = alloc.phi * cfg.p_tilde_tot / (cfg.geometry.n_antennas - 1)
        jam_e = per_dir * (_sq_norms(h_e) - cross2)
    else:
        p_beams = alloc.beam_powers / cfg.n0
        jam_b = np.abs(h_b.conj() @ beams) ** 2 @ p_beams
        jam_e = np.abs(h_e.conj() @ beams) ** 2 @ p_beams
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


def _sample_blocks(cfg, spec, n_eves, angles, radii, score):
    """``score(h, dist)`` of every block of samples, in block order.

    ``h`` holds the block's (sample, receiver, antenna) channels, Bob at
    receiver 0 and ``n_eves`` eavesdroppers after him.  Each eavesdropper
    sits at the fixed angle ``angles`` or draws hers uniformly from the
    interval ``angles``; with ``radii = (d_min, d_max)`` she then draws her
    distance uniformly over that annulus, and ``dist`` holds the
    (sample, eavesdropper) distances (else it is None).
    """
    geom = cfg.geometry
    n, n_rx = geom.n_antennas, n_eves + 1
    k_rx = spec.rician_k if spec.rician_k is not None else _sym_k(cfg)
    fixed = np.isscalar(angles)
    n_pos = (not fixed) + (radii is not None)
    bob_los = steering_vector(cfg.bob_theta, geom)
    eve_los = steering_vector(angles, geom) if fixed else None
    per_block = max(1, _BLOCK_ENTRIES // (n_rx * n))
    blocks = [(s, min(s + per_block, spec.n_samples))
              for s in range(0, spec.n_samples, per_block)]

    def run(chunk):
        streams = _Substreams(spec.master_seed)
        z = np.empty((per_block, n_rx, n, 2))
        pos = np.empty((per_block, n_eves, n_pos))
        los = np.empty((per_block, n_rx, n), dtype=complex)
        los[:, 0] = bob_los
        if fixed:
            los[:, 1:] = eve_los
        out = []
        for start, stop in chunk:
            for j, i in enumerate(range(start, stop)):
                streams.seek(i, 0).standard_normal(out=z[j, 0])
                for l in range(1, n_rx):
                    gen = streams.seek(i, l)
                    if n_pos:
                        gen.random(out=pos[j, l - 1])
                    gen.standard_normal(out=z[j, l])
            m = stop - start
            if not fixed:
                # Generator.uniform(lo, hi) is lo + (hi - lo) * random()
                lo, hi = angles
                los[:m, 1:] = steering_vector(lo + (hi - lo) * pos[:m, :, 0],
                                              geom)
            dist = None
            if radii is not None:
                d_min, d_max = radii
                dist = np.sqrt(d_min ** 2 + pos[:m, :, -1]
                               * (d_max ** 2 - d_min ** 2))
            out.append(score(_channel(los[:m], z[:m], k_rx), dist))
        return out

    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(spec.threads, len(blocks), cpus)
    if workers == 1 or n < _THREADED_MIN_ANTENNAS:
        return run(blocks)
    edges = np.linspace(0, len(blocks), workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(run, [blocks[a:b]
                               for a, b in zip(edges[:-1], edges[1:])])
        return [r for part in parts for r in part]


def empirical_sop(cfg, alloc, region, spec):
    """Secrecy outage probability by direct simulation.

    Each sample drops ``cfg.n_eves`` eavesdroppers uniformly over the
    suspicious region, redraws every channel, and declares outage when the
    strongest eavesdropper pushes the secrecy rate below target.  ``alloc``
    is a PowerAllocation or a bare uniform jamming fraction.
    """
    alloc = _as_allocation(cfg, alloc)
    beams = _beams(cfg, alloc)

    def outages(h, dist):
        sinr_b, sinr_e = _block_sinrs(cfg, alloc, beams, h, dist)
        return secrecy_outage_count(sinr_b, sinr_e.max(axis=1), cfg.r_th)
    counts = _sample_blocks(cfg, spec, cfg.n_eves, region.angle_interval,
                            (region.d_min, region.d_max), outages)
    return sum(counts) / spec.n_samples


def empirical_sinr(cfg, alloc, spec, eve_theta, eve_dist):
    """Per-sample (sinr_bob, sinr_eve) arrays for one fixed eavesdropper
    position; her substream is spent on the channel only."""
    if not eve_dist > 0:
        raise ValueError("eve_dist must be positive")
    alloc = _as_allocation(cfg, alloc)
    beams = _beams(cfg, alloc)
    dist = np.array([[float(eve_dist)]])
    parts = _sample_blocks(
        cfg, spec, 1, eve_theta, None,
        lambda h, _: _block_sinrs(cfg, alloc, beams, h, dist))
    return (np.concatenate([b for b, _ in parts]),
            np.concatenate([e[:, 0] for _, e in parts]))


def empirical_crosstalk(cfg, spec, angles=(-np.pi / 2, np.pi / 2)):
    """Samples of the squared normalized inner product between an
    eavesdropper channel and Bob's, |h_e^H h_b / n|**2 — the finite-array
    quantity whose large-array limit is the crosstalk kernel.

    ``angles`` is either a fixed eavesdropper angle or an interval to draw
    uniformly from (using the eavesdropper's substream, angle first).
    """
    n2 = float(cfg.geometry.n_antennas) ** 2
    parts = _sample_blocks(cfg, spec, 1, angles, None,
                           lambda h, _: _cross(h)[:, 0] / n2)
    return np.concatenate(parts)
