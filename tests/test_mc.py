"""Finite-array Monte Carlo engine: stream discipline, the sampler's
formulas and laws, channel statistics, exact SINRs, agreement with a kept
copy of the per-sample engine it replaced, and agreement with the closed
forms it exists to check."""

import math
import threading

import numpy as np
import pytest

from secrecy_sor import mc_oracle
from secrecy_sor import (
    ArrayGeometry,
    McRunSpec,
    PowerAllocation,
    ScenarioConfig,
    SuspiciousRegion,
    algorithm1_directional,
    algorithm3_two_lobes,
    empirical_sop,
    s_kernel,
    sinr_bob_uniform,
    sinr_eve_uniform,
    sop_closed_form,
)
from secrecy_sor.asymptotic import _check_allocation, _uniform_allocation
from secrecy_sor.mc_oracle import _secrecy_outage_count

G64 = ArrayGeometry(64, 0.5)
CFG64 = ScenarioConfig(G64, 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
REG = SuspiciousRegion((-np.pi / 6, np.pi / 6), 50.0, 150.0)
# uniform null-space jamming on CFG64 at fractions 0, 0.3 and 0.4
NO_JAM64, UNIFORM03, UNIFORM04 = (_uniform_allocation(CFG64, phi)
                                  for phi in (0.0, 0.3, 0.4))


def _as_allocation(cfg, alloc):
    """``alloc``, with a bare jamming fraction read as uniform null-space
    jamming."""
    if isinstance(alloc, PowerAllocation):
        return alloc
    return _uniform_allocation(cfg, alloc)


def _empirical_sinr(cfg, alloc, spec, eve_theta, eve_dist):
    """Per-sample (sinr_bob, sinr_eve) arrays for one fixed eavesdropper
    position; her substream is spent on the channel only."""
    if not eve_dist > 0:
        raise ValueError("eve_dist must be positive")
    _check_allocation(cfg, alloc)
    dist = np.array([[float(eve_dist)]])
    parts = mc_oracle._sample_blocks(
        cfg, spec, 1, eve_theta, None, mc_oracle._beam_angles(alloc),
        lambda stats: mc_oracle._sinrs(cfg, alloc, stats._replace(dist=dist)))
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
    parts = mc_oracle._sample_blocks(
        cfg, spec, 1, angles, None, (),
        lambda stats: stats.cross2[:, 0] * stats.bob_norm2 / n2)
    return np.concatenate(parts)


def _steering_vector(theta, geom):
    """Unit-modulus array response for direction ``theta``: element ``k`` is
    exp(-2j pi k d sin(theta)).  An array of directions gives one response
    per entry, along a new last axis.  The engine builds the Grams of these
    vectors in closed form and never the vectors themselves; the tests
    build them to check it."""
    if not np.all(np.abs(theta) <= np.pi / 2):
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    phase = -2j * np.pi * geom.spacing * np.sin(theta)
    return np.exp(np.multiply.outer(phase, np.arange(geom.n_antennas)))


def _null_space_basis(h):
    """Orthonormal basis of the beamforming directions orthogonal to ``h``
    (columns of the result).  Isotropic noise spread over these columns
    reaches a receiver of channel ``h_e`` with power proportional to
    |h_e|**2 - |h^H h_e|**2 / |h|**2; the engine evaluates that identity
    from its drawn statistics and never builds this basis."""
    h = np.asarray(h, dtype=complex)
    _, s, vh = np.linalg.svd(h.conj()[None, :], full_matrices=True)
    # rank cutoff: singular values above eps * max(shape) * largest
    tol = np.finfo(float).eps * h.size * s.max(initial=0.0)
    rank = np.count_nonzero(s > tol)
    return vh[rank:].conj().T


def test_steering_vector_hand_values():
    v = _steering_vector(np.pi / 6, ArrayGeometry(4, 0.5))
    # sin(pi/6) = 1/2, spacing 1/2 -> per-element phase step -pi/2
    assert v[0] == 1.0
    assert abs(v[1] - (-1j)) < 1e-12
    assert abs(v[2] - (-1.0)) < 1e-12
    assert abs(np.vdot(v, v).real - 4.0) < 1e-12
    with pytest.raises(ValueError):
        _steering_vector(2.0, ArrayGeometry(16, 0.5))


def test_run_spec_validation():
    with pytest.raises(ValueError):
        McRunSpec(0, 1)
    with pytest.raises(ValueError):
        McRunSpec(10, -1)
    # a NaN or infinite factor would make the line-of-sight weight NaN
    for k in (-2.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="rician_k"):
            McRunSpec(10, 1, rician_k=k)
    with pytest.raises(ValueError):
        McRunSpec(10, 1, threads=0)
    # a fractional seed would alias seed 0 (Philox truncates its key)
    for bad in (dict(n_samples=2.5), dict(n_samples=True),
                dict(master_seed=0.5), dict(master_seed=1.0),
                dict(master_seed=False), dict(threads=2.0),
                dict(threads=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            McRunSpec(**{"n_samples": 10, "master_seed": 1, **bad})
    # a Philox key is two 64-bit words
    for seed in (2 ** 128, 2 ** 200):
        with pytest.raises(ValueError, match="master_seed"):
            McRunSpec(10, seed)
    McRunSpec(10, 2 ** 128 - 1)
    McRunSpec(np.int64(10), np.uint32(1), threads=np.int32(2))


def _draw_channel(geom, rician_k, theta, rng):
    """A Rician channel from ``_steering_vector`` and ``rng``'s normals,
    (real, imaginary) per entry."""
    w_los = rician_k / (1.0 + rician_k)
    z = rng.standard_normal((geom.n_antennas, 2))
    return np.sqrt(w_los) * _steering_vector(theta, geom) \
        + np.sqrt(1.0 - w_los) * ((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))


def test_draw_channel_statistics():
    rng = np.random.default_rng(0)
    # strong Rician factor: the draw collapses onto the steering vector
    h = _old_channel(G64, 1e12, 0.4, rng)
    assert np.max(np.abs(h - _steering_vector(0.4, G64))) < 1e-5
    # pure scatter: zero mean, unit per-entry variance (many draws)
    hs = np.stack([_old_channel(G64, 0.0, 0.0, rng) for _ in range(400)])
    assert abs(np.mean(hs)) < 0.01
    assert abs(np.mean(np.abs(hs) ** 2) - 1.0) < 0.02
    # norm concentrates near the element count either way
    assert abs(np.vdot(h, h).real / 64.0 - 1.0) < 1e-6


def test_null_space_basis_orthogonal_and_complete():
    rng = np.random.default_rng(3)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    q = _null_space_basis(h)
    assert q.shape == (16, 15)
    assert np.max(np.abs(h.conj() @ q)) < 1e-10
    gram = q.conj().T @ q
    assert np.max(np.abs(gram - np.eye(15))) < 1e-10


def _explicit_gram(rows):
    """Gram of direction vectors stored as rows (..., D, n)."""
    return rows.conj() @ np.swapaxes(rows, -1, -2)


def _assembled_gram(fixed, g_fv, g_vv):
    """A receiver's whole Gram, the stack first (..., D, D), from the blocks
    the engine builds: the fixed directions' Gram ``fixed.gram``, the cross
    block G_fv (F, V, ...) and G_vv's lower triangle in
    ``np.tril_indices(V)`` order (V (V + 1)/2, ...)."""
    f, v = g_fv.shape[:2]
    low_i, low_j = np.tril_indices(v)
    gram = np.empty((*g_vv.shape[1:], f + v, f + v), dtype=complex)
    gram[..., :f, :f] = fixed.gram
    gram[..., :f, f:] = np.moveaxis(g_fv, (0, 1), (-2, -1))
    gram[..., f:, :f] = np.moveaxis(g_fv, (0, 1), (-1, -2)).conj()
    gram[..., f + low_j, f + low_i] = np.moveaxis(g_vv, 0, -1).conj()
    gram[..., f + low_i, f + low_j] = np.moveaxis(g_vv, 0, -1)
    return gram


def _explicit_block(cfg, w_los, thetas, beam_angles, g, dist):
    """``mc_oracle._block_stats`` on explicit channels: ``g`` holds the
    (sample, receiver, antenna) scatter, Bob at receiver 0 and eavesdropper
    ``l`` at angle ``thetas[:, l]``.  The projections it is handed are
    computed on explicit direction vectors, after checking the Gram blocks
    the engine built against them: Bob's directions are his line of sight,
    the beams, then the eavesdroppers' lines of sight; an eavesdropper's
    the beams, then u and her line of sight.  Returns the stats and the
    channels."""
    geom = cfg.geometry
    n = geom.n_antennas
    m, n_eves = thetas.shape
    beam_angles = np.asarray(beam_angles, dtype=float)
    a_b = _steering_vector(cfg.bob_theta, geom)
    a_e = _steering_vector(thetas, geom)
    beams = _steering_vector(beam_angles, geom).reshape(-1, n) / np.sqrt(n)
    h_b = np.sqrt(w_los) * a_b + np.sqrt(1.0 - w_los) * g[:, 0]
    h_e = np.sqrt(w_los) * a_e + np.sqrt(1.0 - w_los) * g[:, 1:]
    u = h_b / np.linalg.norm(h_b, axis=-1, keepdims=True)
    # direction vectors as rows: Bob's (sample, D, n), the eavesdroppers'
    # (sample, eavesdropper, D_e, n)
    f_b = np.concatenate([np.broadcast_to(a_b, (m, 1, n)),
                          np.broadcast_to(beams, (m, len(beams), n)), a_e],
                         axis=1)
    f_e = np.concatenate([
        np.broadcast_to(beams, (m, n_eves, len(beams), n)),
        np.broadcast_to(u[:, None, None], (m, n_eves, 1, n)),
        a_e[:, :, None]], axis=2)
    unit = np.ones(len(beams))

    def explicit(f, g_rx, diag):
        def project(fixed, g_fv, g_vv):
            gram = _assembled_gram(fixed, g_fv, g_vv)
            assert np.max(np.abs(gram - _explicit_gram(f))) < 1e-10 * n
            # exactly Hermitian, with the diagonal n for a steering vector
            # and 1 for a unit one
            assert np.array_equal(gram, np.swapaxes(gram, -1, -2).conj())
            assert np.all(np.diagonal(gram, 0, -2, -1) == diag)
            proj = np.moveaxis((f.conj() @ g_rx[..., None])[..., 0], -1, 0)
            return (proj[:len(fixed.live)], proj[len(fixed.live):],
                    np.sum(np.abs(g_rx) ** 2, axis=-1))
        return project
    psi = mc_oracle._phases(geom, np.concatenate(
        [np.full((1, m), cfg.bob_theta),
         np.broadcast_to(beam_angles[:, None], (len(beams), m)), thetas.T]))
    bob, eve = mc_oracle._fixed_directions(n, psi[:1 + len(beams), 0])
    stats = mc_oracle._block_stats(
        n, w_los, psi, bob, eve,
        explicit(f_b, g[:, 0], np.concatenate([[n], unit, [n] * n_eves])),
        explicit(f_e, g[:, 1:], np.concatenate([unit, [1.0, n]])), dist)
    return stats, h_b, h_e


def _complex_normals(rng, shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@pytest.mark.parametrize("n", [16, 64])
def test_null_space_basis_matches_the_engine_jamming_term(n):
    # the engine never builds the null-space basis Q: it collects the
    # isotropic noise per_dir * ||Q^H h_e||**2 through the norm identity
    # per_dir * (||h_e||**2 - |h_e^H h_b|**2 / ||h_b||**2)
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0,
                         100.0)
    alloc = _uniform_allocation(cfg, 0.4)
    rng = np.random.default_rng(n)
    thetas = rng.uniform(-1.2, 1.2, (6, 2))
    # distances where the jamming term outweighs the noise floor many times
    dist = rng.uniform(50.0, 150.0, (6, 2))
    stats, h_b, h_e = _explicit_block(cfg, 0.5, thetas, (),
                                      _complex_normals(rng, (6, 3, n)), dist)
    _, sinr_e = mc_oracle._sinrs(cfg, alloc, stats)
    p_sig = (1.0 - alloc.phi) * cfg.p_tilde_tot
    per_dir = alloc.phi * cfg.p_tilde_tot / (n - 1)
    for s in range(6):
        q = _null_space_basis(h_b[s])
        for e in range(2):
            jam = per_dir * np.sum(np.abs(q.conj().T @ h_e[s, e]) ** 2)
            cross2 = abs(np.vdot(h_e[s, e], h_b[s])) ** 2 \
                / np.vdot(h_b[s], h_b[s]).real
            gain = dist[s, e] ** -cfg.alpha
            assert gain * jam > 5.0
            want = p_sig * gain * cross2 / (1.0 + gain * jam)
            assert abs(sinr_e[s, e] / want - 1.0) < 1e-10


_BEAMS2 = PowerAllocation(0.3, np.array([0.1, 0.2]), "dft_selected",
                          np.array([0.2, -0.4]))
_BEAMS5 = PowerAllocation(0.3, np.full(5, 0.06), "dft_selected",
                          np.array([-0.9, -0.3, 0.1, 0.5, 1.3]))


@pytest.mark.parametrize("n, n_eves, alloc", [
    (16, 3, 0.4), (16, 3, _BEAMS2), (4, 6, 0.3), (4, 1, _BEAMS5)],
    ids=["null", "beams", "eves_over_n", "beams_over_n"])
def test_sinrs_from_projections_equal_per_sample_sinr(n, n_eves, alloc):
    # the engine's algebra from projections to SINRs, on explicit channels:
    # the first eavesdropper sits at Bob's angle, and the last two cases
    # have more directions than antennas
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0,
                         80.0, n_eves=n_eves)
    full = _as_allocation(cfg, alloc)
    rng = np.random.default_rng(n_eves)
    thetas = rng.uniform(-1.5, 1.5, (5, n_eves))
    thetas[:, 0] = cfg.bob_theta
    dist = rng.uniform(40.0, 120.0, (5, n_eves))
    stats, h_b, h_e = _explicit_block(
        cfg, 2.0 / 3.0, thetas, mc_oracle._beam_angles(full),
        _complex_normals(rng, (5, 1 + n_eves, n)), dist)
    sinr_b, sinr_e = mc_oracle._sinrs(cfg, full, stats)
    for s in range(5):
        for e in range(n_eves):
            want = _old_sinr(cfg, full, h_b[s], h_e[s, e], dist[s, e])
            assert sinr_b[s] == pytest.approx(want[0], rel=1e-10, abs=0.0)
            assert sinr_e[s, e] == pytest.approx(want[1], rel=1e-10,
                                                 abs=0.0)


@pytest.mark.parametrize("n, angles", [
    (2, [0.3, -1.0, -1.0]),
    (4, [0.0, 0.0, 0.3, -np.pi / 2, np.pi / 2, 0.3 + 1e-9, -0.8]),
    (3, np.linspace(-1.5, 1.5, 12)),
    (64, [0.2, 0.2 + 1e-7, 0.2 + 1e-3, -0.2, 0.5]),
    (400, [0.0, 1e-9, 0.005, 0.9, -np.pi / 2])])
def test_steering_gram_equals_explicit_products(n, angles):
    # coincident, nearly coincident and grating-lobe (+-90 degrees at half
    # wavelength) pairs take the Dirichlet form, the rest the phase form:
    # every ordered pair off the diagonal, which callers set to n
    geom = ArrayGeometry(n, 0.5)
    angles = np.array(angles)
    rows, cols = np.nonzero(~np.eye(len(angles), dtype=bool))
    got = mc_oracle._steering_gram(mc_oracle._phases(geom, angles), n, rows,
                                   cols)
    want = _explicit_gram(_steering_vector(angles, geom))[rows, cols]
    assert np.max(np.abs(got - want)) < 1e-11 * n


@pytest.mark.parametrize("n, beam_angles", [
    (16, [0.3, 0.3, -0.5, 0.3 + 1e-9]),
    (4, [0.0, -np.pi / 2, np.pi / 2, 0.7, -0.2, 1.1]),
    (100, np.arcsin(np.linspace(-0.5, 0.5, 48)))],
    ids=["coincident", "beams_over_n", "fig6_algo1"])
def test_fixed_gram_is_exactly_hermitian_with_an_exact_diagonal(
        n, beam_angles):
    # Bob's line of sight, then the unit beams; an eavesdropper's block is
    # the beams' own
    geom = ArrayGeometry(n, 0.5)
    beam_angles = np.array(beam_angles)
    bob, eve = mc_oracle._fixed_directions(n, mc_oracle._phases(
        geom, np.concatenate([[0.0], beam_angles])))
    rows = np.concatenate([_steering_vector(0.0, geom)[None],
                           _steering_vector(beam_angles, geom) / np.sqrt(n)])
    assert np.max(np.abs(bob.gram - _explicit_gram(rows))) < 1e-11 * n
    assert np.array_equal(bob.gram, bob.gram.conj().T)
    assert np.array_equal(np.diag(bob.gram),
                          np.concatenate([[n], np.ones(len(beam_angles))]))
    assert np.array_equal(eve.gram, bob.gram[1:, 1:])


def _check_fixed_first_factor(fixed_rows, varying_rows, n, tol):
    """The fixed-first factor of directions ``fixed_rows`` (F, n), factored
    once and shared by every set, then each set's ``varying_rows`` (S, V,
    n): its rows [[L_f, 0], [X^H, L_v]] multiply back to the whole Gram
    within ``tol`` of its scale, its live columns number the rank, and it
    counts exactly min(D, n) coordinates, every live one among them."""
    (s, v, _), f = varying_rows.shape, len(fixed_rows)
    rows = np.concatenate([np.broadcast_to(fixed_rows, (s, f, n)),
                           varying_rows], axis=1)
    gram = _explicit_gram(rows)
    fixed = mc_oracle._factor_fixed(gram[0, :f, :f], n)
    low_i, low_j = np.tril_indices(v)
    rows_v, live_v = mc_oracle._factor_varying(
        fixed, np.moveaxis(gram[:, :f, f:], 0, -1),
        np.moveaxis(gram[:, f + low_i, f + low_j], 0, -1), n)
    low = np.zeros_like(gram)
    low[:, :f, :f] = fixed.low
    low[:, f:] = np.moveaxis(rows_v, -1, 0)
    assert np.max(np.abs(low @ np.swapaxes(low.conj(), -1, -2) - gram)) \
        < tol * np.max(np.abs(gram))
    assert np.all(np.triu(low, 1) == 0.0)
    live = np.concatenate([np.broadcast_to(fixed.live, (s, f)),
                           np.moveaxis(live_v, -1, 0)], axis=-1)
    assert np.array_equal(live, np.any(low != 0.0, axis=-2))
    assert np.array_equal(live.sum(axis=-1), np.linalg.matrix_rank(rows))
    counted = mc_oracle._counted(live, n)
    assert np.all(counted[live])
    assert np.all(counted.sum(axis=-1) == min(f + v, n))


@pytest.mark.parametrize("steering", [False, True])
@pytest.mark.parametrize("n, rows", [
    (4, 7), (3, 12), (16, 5), (2, 2)])
def test_factor_reproduces_the_gram_and_counts_min_d_n(n, rows, steering):
    # the first rows // 2 directions fixed, then 200 sets of random or
    # steering directions, with copies: a duplicated fixed direction, a
    # varying one equal to a fixed one in every set and a multiple of it in
    # one, and more directions than antennas in the first two cases (more
    # fixed ones in the second), where rounding leaves a pivot above the
    # tolerance past the n-th in about 1% of steering sets
    rng = np.random.default_rng(n * rows)
    if steering:
        f = _steering_vector(rng.uniform(-1.5, 1.5, (201, rows)),
                             ArrayGeometry(n, 0.5))
    else:
        f = _complex_normals(rng, (201, rows, n))
    fixed, varying = f[0, :rows // 2], f[1:, rows // 2:]
    fixed[-1] = fixed[0]
    varying[:, -1] = fixed[0]
    varying[1, 0] = 2.0 * fixed[0]
    # past the n-th live pivot the Schur complement is rounding noise,
    # which near-dependent directions amplify: up to 5e-6 of the Gram's
    # scale in 2000 steering sets, and the cap at n pivots zeroes it
    _check_fixed_first_factor(fixed, varying, n,
                              1e-5 if rows > n else 1e-12)


@pytest.mark.parametrize("n, beam_angles, eve_angles", [
    (16, [0.3, -0.5, 0.3], (-1.0, 1.0)),
    (4, [0.0, -np.pi / 2, 0.7, -0.2, 1.1, 0.4], (-1.0, 1.0)),
    (16, [0.3, -0.5], 0.3)],
    ids=["duplicated_beam", "beams_over_n", "eve_at_a_beam"])
def test_fixed_first_factor_at_the_edges(n, beam_angles, eve_angles):
    # the engine's directions for Bob (line of sight, unit beams, then 3
    # eavesdroppers) and for an eavesdropper (the beams, then a unit u and
    # her line of sight), 100 sets
    geom = ArrayGeometry(n, 0.5)
    rng = np.random.default_rng(n)
    beams = _steering_vector(np.array(beam_angles), geom) / np.sqrt(n)
    thetas = (np.full((100, 3), eve_angles) if np.isscalar(eve_angles)
              else rng.uniform(*eve_angles, (100, 3)))
    a_e = _steering_vector(thetas, geom)
    tol = 1e-5 if len(beams) + 4 > n else 1e-12
    _check_fixed_first_factor(
        np.concatenate([_steering_vector(0.0, geom)[None], beams]), a_e, n,
        tol)
    u = _complex_normals(rng, (100, n))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    _check_fixed_first_factor(beams, np.stack([u, a_e[:, 0]], axis=1), n,
                              tol)


def test_fixed_directions_are_factored_once_per_run(monkeypatch):
    # Bob's block and the eavesdroppers', once each, however many blocks
    # the run takes
    calls = []

    def counting(gram, n):
        calls.append(len(gram))
        return factor_fixed(gram, n)
    factor_fixed = mc_oracle._factor_fixed
    monkeypatch.setattr(mc_oracle, "_factor_fixed", counting)
    cfg = _cfg16(3)
    spec = McRunSpec(3 * _per_block(3) + 5, 4)
    for alloc in (_SIDELOBE_BEAMS, _uniform_allocation(cfg, 0.3)):
        calls.clear()
        empirical_sop(cfg, alloc, REG16, spec)
        n_beams = len(mc_oracle._beam_angles(alloc))
        assert calls == [1 + n_beams, n_beams]


def test_outage_count_edges():
    # equal strengths miss every positive target
    assert _secrecy_outage_count(1.0, 1.0, 0.5) == 1
    assert _secrecy_outage_count(np.array([3.0, 1.0]), np.array([0.0, 0.9]),
                                 1.0) == 1
    assert _secrecy_outage_count(np.array([3.0]), np.array([0.0]), 2.0) == 0


def test_sinr_exact_tracks_asymptotics_at_strong_k():
    spec = McRunSpec(200, 3, rician_k=1e9)
    sb, se = _empirical_sinr(CFG64, UNIFORM04, spec, 0.3, 120.0)
    want_b = sinr_bob_uniform(CFG64, 0.4)
    want_e = sinr_eve_uniform(CFG64, 0.4, 0.3, 120.0)
    rel_b = abs(np.mean(sb) / want_b - 1.0)
    rel_e = abs(np.mean(se) / want_e - 1.0)
    print(f"bob {np.mean(sb):.4f} vs {want_b:.4f} (rel {rel_b:.2e}); "
          f"eve {np.mean(se):.5f} vs {want_e:.5f} (rel {rel_e:.2e})")
    assert rel_b < 1e-5          # null-space noise is invisible to Bob
    assert rel_e < 5e-2          # eve side carries O(1/N) leakage terms
    assert np.all(sb > 0) and np.all(se >= 0)


@pytest.mark.parametrize("eve_dist", [0.0, -5.0, float("nan")])
def test_empirical_sinr_rejects_nonpositive_distance(eve_dist):
    # the closed form rejects the same: no such distance gives an SINR
    with pytest.raises(ValueError, match="eve_dist must be positive"):
        _empirical_sinr(CFG64, UNIFORM04, McRunSpec(4, 3), 0.3, eve_dist)
    with pytest.raises(ValueError, match="eve_dist must be positive"):
        sinr_eve_uniform(CFG64, 0.4, 0.3, eve_dist)


def test_explicit_beam_jams_bob_too():
    # a steering beam dropped straight onto Bob (at 0 rad) must degrade him,
    # unlike the null-space spread
    assert CFG64.bob_theta == 0.0
    spec = McRunSpec(50, 1, rician_k=1e9)
    clean = PowerAllocation(0.3, np.array([0.3]), "null_space_uniform")
    dirty = PowerAllocation(0.3, np.array([0.3]), "dft_selected",
                            np.array([0.0]))
    sb_clean, _ = _empirical_sinr(CFG64, clean, spec, 0.25, 80.0)
    sb_dirty, _ = _empirical_sinr(CFG64, dirty, spec, 0.25, 80.0)
    print(f"bob clean {np.min(sb_clean):.1f} dirty {np.max(sb_dirty):.4f}")
    assert np.all(sb_dirty < 1e-3 * sb_clean)


def test_empirical_crosstalk_reaches_kernel_at_strong_k():
    spec = McRunSpec(4, 11, rician_k=1e9)
    for th in (0.013, 0.21):
        got = float(np.mean(_empirical_crosstalk(CFG64, spec, angles=th)))
        want = s_kernel(abs(np.sin(th)), G64)
        print(f"theta={th}: mc {got:.8f} kernel {want:.8f}")
        assert abs(got - want) <= 1e-3 * max(want, 1e-6)


def test_empirical_sop_matches_closed_form():
    closed = sop_closed_form(CFG64, 0.3, REG)
    spec = McRunSpec(3000, 7)
    got = empirical_sop(CFG64, UNIFORM03, REG, spec)
    se = np.sqrt(closed * (1.0 - closed) / spec.n_samples)
    print(f"closed {closed:.6f} mc {got:.6f} (3se = {3 * se:.6f})")
    assert abs(closed - 0.02621308508522613) < 1e-9
    assert abs(got - closed) <= 3.0 * se


def test_empirical_sop_deterministic_across_threads():
    spec1 = McRunSpec(600, 42, threads=1)
    spec4 = McRunSpec(600, 42, threads=4)
    a = empirical_sop(CFG64, UNIFORM03, REG, spec1)
    b = empirical_sop(CFG64, UNIFORM03, REG, spec4)
    assert a == b
    # same seed reproduces; a different seed moves the estimate
    assert empirical_sop(CFG64, UNIFORM03, REG, spec1) == a
    c = empirical_sop(CFG64, UNIFORM03, REG, McRunSpec(600, 43, threads=1))
    assert c != a


def test_directional_allocation_through_the_oracle():
    # beams on the DFT grid flank the user's nulls, so they suppress the
    # region's eavesdroppers without touching Bob (a beam parked on a side
    # lobe *peak* would jam Bob too - see test_explicit_beam_jams_bob_too)
    angles = np.arcsin(np.array([1.0, -1.0]) / 32.0)
    alloc = PowerAllocation(0.3, np.array([0.15, 0.15]), "dft_selected",
                            angles)
    spec = McRunSpec(1500, 9)
    p_no = empirical_sop(CFG64, NO_JAM64, REG, spec)
    p_dir = empirical_sop(CFG64, alloc, REG, spec)
    print(f"no-jam {p_no:.4f} directional {p_dir:.4f}")
    assert p_dir < 0.5 * p_no


# ---------------------------------------------------------------------------
# the block engine against a kept copy of the per-sample engine it replaced:
# one new generator per (sample, receiver) substream, 2N normals per
# channel, one channel and one SINR pair at a time

G16 = ArrayGeometry(16, 0.5)
REG16 = SuspiciousRegion((-np.pi / 6, np.pi / 4), 40.0, 120.0)


def _cfg16(n_eves):
    return ScenarioConfig(G16, 3.0, 1.0, 1e-8, 4.0, 0.0, 80.0, n_eves=n_eves)


def _old_stream(master_seed, sample_id, receiver_id):
    return np.random.Generator(np.random.Philox(
        key=master_seed, counter=[0, sample_id, receiver_id, 0]))


def _old_channel(geom, rician_k, theta, rng):
    phase = -2j * np.pi * geom.spacing * np.sin(theta)
    los = np.exp(phase * np.arange(geom.n_antennas))
    z = rng.standard_normal((geom.n_antennas, 2))
    scatter = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    w_los = rician_k / (1.0 + rician_k)
    return np.sqrt(w_los) * los + np.sqrt(1.0 - w_los) * scatter


def _old_beam_matrix(geom, angles):
    k = np.arange(geom.n_antennas)
    sins = np.sin(np.asarray(angles, dtype=float))
    return np.exp(-2j * np.pi * geom.spacing * np.outer(k, sins)) \
        / np.sqrt(geom.n_antennas)


def _old_sinr(cfg, alloc, h_bob, h_eve, dist):
    p_sig = (1.0 - alloc.phi) * cfg.p_tilde_tot
    gain_b = cfg.bob_dist ** (-cfg.alpha)
    gain_e = dist ** (-cfg.alpha)
    norm_b2 = float(np.vdot(h_bob, h_bob).real)
    cross2 = float(np.abs(np.vdot(h_eve, h_bob)) ** 2) / norm_b2
    if alloc.basis == "null_space_uniform":
        jam_b = 0.0
        per_dir = alloc.phi * cfg.p_tilde_tot / (cfg.geometry.n_antennas - 1)
        jam_e = per_dir * (float(np.vdot(h_eve, h_eve).real) - cross2)
    else:
        beams = _old_beam_matrix(cfg.geometry, alloc.beam_angles)
        p_beams = alloc.beam_powers / cfg.n0
        jam_b = float(p_beams @ (np.abs(h_bob.conj() @ beams) ** 2))
        jam_e = float(p_beams @ (np.abs(h_eve.conj() @ beams) ** 2))
    sinr_b = p_sig * gain_b * norm_b2 / (1.0 + gain_b * jam_b)
    sinr_e = p_sig * gain_e * cross2 / (1.0 + gain_e * jam_e)
    return sinr_b, sinr_e


def _old_sop(cfg, alloc, region, spec):
    k_rx = mc_oracle._sym_k(cfg)
    count = 0
    for i in range(spec.n_samples):
        h_b = _old_channel(cfg.geometry, k_rx, cfg.bob_theta,
                           _old_stream(spec.master_seed, i, 0))
        sinr_b, worst = None, -np.inf
        for l in range(1, cfg.n_eves + 1):
            rng = _old_stream(spec.master_seed, i, l)
            theta = rng.uniform(*region.angle_interval)
            u = rng.uniform()
            dist = np.sqrt(region.d_min ** 2
                           + u * (region.d_max ** 2 - region.d_min ** 2))
            h_e = _old_channel(cfg.geometry, k_rx, theta, rng)
            sinr_b, sinr_e = _old_sinr(cfg, alloc, h_b, h_e, dist)
            worst = max(worst, sinr_e)
        count += _secrecy_outage_count(sinr_b, worst, cfg.r_th)
    return count / spec.n_samples


def _per_block(n_eves):
    """Samples per block of an SOP run on G16 with null-space jamming (two
    position variates per eavesdropper)."""
    return mc_oracle._block_samples(G16.n_antennas, n_eves, 0, 2)


def test_draw_channel_equals_kept_copy():
    # the kept copy's line of sight is ``_steering_vector``, whose Gram the
    # engine builds in closed form
    for seed, k, theta in [(0, 0.0, 0.0), (1, 0.7, -1.2), (2, 3.0, 0.4),
                           (3, 1e12, 1.5)]:
        got = _draw_channel(G16, k, theta, np.random.default_rng(seed))
        want = _old_channel(G16, k, theta, np.random.default_rng(seed))
        assert np.array_equal(got, want)


# the block budget before blocks grew fourfold
_OLD_BLOCK_DRAWS = 8192


def _philox_words(master_seed, sample_id, receiver_id, first, count):
    """Raw words of Philox blocks ``first``, ..., ``first + count - 1`` of
    substream ``(master_seed, sample_id, receiver_id)``, from a fresh numpy
    ``Philox``.  The counter goes in as a uint64 array: numpy rounds a
    list's entries through float64, so ids above 2**53 would move."""
    counter = np.array([first - 1, sample_id, receiver_id, 0], dtype=np.uint64)
    return np.random.Philox(key=master_seed,
                            counter=counter).random_raw(4 * count)


def _unit(words):
    """Doubles in [0, 1) from raw words: their top 53 bits."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _marsaglia_tsang(t, shape):
    """Marsaglia and Tsang's try for a gamma of ``shape`` from one
    substream's three uniforms ``t`` (the first two give a Box-Muller
    cosine, the third 1 - u): the variate, or None where it is rejected."""
    b = shape - 1.0 / 3.0
    x = np.sqrt(-2.0 * np.log(1.0 - t[:1])) * np.cos(2.0 * np.pi * t[1:2])
    v = 1.0 + x / np.sqrt(9.0 * b)
    v = v * v * v
    if v[0] > 0.0 and np.log(1.0 - t[2:3])[0] < (
            0.5 * x * x + b * (1.0 - v + np.log(v)))[0]:
        return float((b * v)[0])
    return None


def _draw_one_by_one(master_seed, groups):
    """``mc_oracle._draw`` as a loop over the substreams, the reference:
    each one's raw words from ``_philox_words`` at fixed positions (the
    uniforms, two words per pair of normals, three per gamma try, a retry
    on the next block), turned into variates in the same numpy ufuncs.
    Python's ``math.log`` differs from ``np.log`` in the last bit on some
    inputs, so the reference uses numpy's, on arrays of its own size."""
    out = []
    for ids, rx, n_u, n_z, shape in groups:
        size = n_u + n_z + 3 * (shape != 0.0)
        u, z, g = (np.empty((len(ids), n_u)), np.empty((len(ids), n_z)),
                   np.zeros(len(ids)))
        for j, (i, l) in enumerate(zip(ids.tolist(), rx.tolist())):
            block = -(-size // 4)
            w = _unit(_philox_words(master_seed, i, l, 1, block))
            u[j] = w[:n_u]
            r = np.sqrt(-2.0 * np.log(1.0 - w[n_u:n_u + n_z:2]))
            angle = 2.0 * np.pi * w[n_u + 1:n_u + n_z:2]
            z[j, 0::2] = r * np.cos(angle)
            z[j, 1::2] = r * np.sin(angle)
            if shape == 0.0:
                continue
            t = w[n_u + n_z:size]
            while (gamma := _marsaglia_tsang(t, shape)) is None:
                block += 1
                t = _unit(_philox_words(master_seed, i, l, block, 1))[:3]
            g[j] = gamma
        out.append((u, z, g))
    return out


def _assert_block_sop_equals_loop(monkeypatch, cfg, alloc, master_seed):
    # at the old budget of 8192 draws, which keeps the per-sample loop
    # short: two partial blocks' worth past whole ones, across two block
    # edges (``test_block_budget_changes_no_result`` ties the budgets)
    monkeypatch.setattr(mc_oracle, "_BLOCK_DRAWS", _OLD_BLOCK_DRAWS)
    n = 2 * mc_oracle._block_samples(
        cfg.geometry.n_antennas, cfg.n_eves,
        len(mc_oracle._beam_angles(alloc)), 2) + 37
    want = _old_sop(cfg, alloc, REG16, McRunSpec(n, master_seed))
    print(f"N={cfg.geometry.n_antennas} n_eves={cfg.n_eves} {alloc.basis}: "
          f"sop {want}")
    assert 5 <= want * n <= n - 5
    for threads in (1, 2, 3):
        assert empirical_sop(cfg, alloc, REG16,
                             McRunSpec(n, master_seed,
                                       threads=threads)) == want

    # the scenario is pure line of sight, where the scatter draws barely
    # reach the outcome; at Rician factor 0.5 they do, and the SINRs equal
    # those of the per-substream reference draw bit for bit
    def sinrs():
        parts = mc_oracle._sample_blocks(
            cfg, McRunSpec(n, master_seed, rician_k=0.5), cfg.n_eves,
            REG16.angle_interval, (REG16.d_min, REG16.d_max),
            mc_oracle._beam_angles(alloc),
            lambda stats: mc_oracle._sinrs(cfg, alloc, stats))
        return [np.concatenate(sinr) for sinr in zip(*parts)]
    got = sinrs()
    monkeypatch.setattr(mc_oracle, "_draw", _draw_one_by_one)
    assert all(map(np.array_equal, got, sinrs()))


# DFT beams at the first sidelobe sines on both sides of the user
_SIDELOBE_BEAMS = PowerAllocation(0.3, np.array([0.15, 0.15]),
                                  "dft_selected",
                                  np.arcsin(np.array([1.0, -1.0]) / 8.0))


# draw-level checks of the vectorized pass: 50k substreams at random 64-bit
# sample and receiver ids, under a key with both words nonzero, in five
# layouts (uniforms, normals, gamma shape) whose words end inside a Philox
# block or on its edge, with every gamma path: shape 0 draws nothing, and
# about 1 in 20 shape-1 and 1 in 50 shape-3 first tries are rejected
_DRAW_SEED = 3 * 2 ** 64 + 17
_DRAW_LAYOUTS = ((2, 4, 7.0), (0, 22, 398.0), (1, 2, 1.0), (2, 6, 0.0),
                 (1, 40, 3.0))
_DRAW_STREAMS = 10_000


def _draw_ids(layout):
    rng = np.random.default_rng(layout)
    return (rng.integers(0, 2 ** 64, _DRAW_STREAMS, dtype=np.uint64),
            rng.integers(0, 2 ** 64, _DRAW_STREAMS, dtype=np.uint64))


def test_vectorized_raw_words_equal_philox():
    for layout in range(len(_DRAW_LAYOUTS)):
        ids, rx = _draw_ids(layout)
        got = np.concatenate([
            mc_oracle._philox(_DRAW_SEED, np.full_like(ids, block), ids, rx)
            for block in (1, 2)], axis=1)
        for j in range(_DRAW_STREAMS):
            want = _philox_words(_DRAW_SEED, int(ids[j]), int(rx[j]), 1, 2)
            assert np.array_equal(got[j], want), (layout, j)


def test_vectorized_draws_equal_the_per_substream_draw():
    # all five layouts as the groups of one call, which shares one Philox
    # pass among them, as the engine's Bob and eavesdropper groups do
    groups = [(*_draw_ids(layout), *spec)
              for layout, spec in enumerate(_DRAW_LAYOUTS)]
    got = mc_oracle._draw(_DRAW_SEED, groups)
    want = _draw_one_by_one(_DRAW_SEED, groups)
    for spec, drawn, ref in zip(_DRAW_LAYOUTS, got, want):
        assert all(map(np.array_equal, drawn, ref)), spec


def test_rejected_gamma_tries_read_the_next_block():
    # substreams picked for a rejected first try of a shape-1 gamma after
    # one uniform and two normals: the try takes word 3 of Philox block 1
    # and words 0-1 of block 2, and its retry words 0-2 of block 3.  Both
    # ways to reject occur: 1 + x/sqrt(9 b) <= 0, and the log test
    ids = np.arange(2 ** 15, dtype=np.uint64)
    rx = np.full_like(ids, 2)
    first = _unit(np.concatenate([mc_oracle._philox(
        _DRAW_SEED, np.full_like(ids, block), ids, rx)
        for block in (1, 2)], axis=1))[:, 3:6]
    rejected = np.array([_marsaglia_tsang(t, 1.0) is None for t in first])
    x = np.sqrt(-2.0 * np.log(1.0 - first[:, 0])) \
        * np.cos(2.0 * np.pi * first[:, 1])
    negative = x <= -np.sqrt(6.0)
    print(f"{rejected.sum()} of {len(ids)} first tries rejected, "
          f"{negative.sum()} at 1 + c x <= 0")
    assert np.all(rejected[negative])
    assert 200 <= negative.sum() < rejected.sum() - 200
    ids, rx = ids[rejected], rx[rejected]
    (_, _, g), = mc_oracle._draw(_DRAW_SEED, [(ids, rx, 1, 2, 1.0)])
    retry = _unit(mc_oracle._philox(_DRAW_SEED, np.full_like(ids, 3), ids,
                                    rx))[:, :3]
    second = [_marsaglia_tsang(t, 1.0) for t in retry]
    kept = np.array([gamma is not None for gamma in second])
    assert np.array_equal(g[kept], [gamma for gamma in second
                                    if gamma is not None])
    # the few rejected again read block 4, and so on
    assert 10 <= np.count_nonzero(~kept)
    assert np.array_equal(
        g, _draw_one_by_one(_DRAW_SEED, [(ids, rx, 1, 2, 1.0)])[0][2])


def test_fast_paths_take_nearly_every_draw():
    # every gamma whose first try is rejected costs one more Philox pass
    # over the rejected substreams, so nearly every first try must return
    ids, rx = _draw_ids(0)
    words = _unit(mc_oracle._philox(_DRAW_SEED, np.ones_like(ids), ids, rx))
    for shape, least in ((1.0, 0.94), (2.0, 0.97), (7.0, 0.99),
                         (398.0, 0.99)):
        _, kept = mc_oracle._gamma_try(words[:, :3], shape)
        print(f"shape {shape}: {kept.mean():.4f} of first tries kept")
        assert kept.mean() >= least, shape


@pytest.mark.parametrize("n_eves", [1, 3])
@pytest.mark.parametrize("directional", [False, True])
def test_block_sop_equals_per_sample_loop(monkeypatch, n_eves, directional):
    if directional:
        alloc = _SIDELOBE_BEAMS
    else:
        alloc = PowerAllocation(0.3, np.array([0.3]), "null_space_uniform")
    _assert_block_sop_equals_loop(monkeypatch, _cfg16(n_eves), alloc, 21)


@pytest.mark.parametrize("geom, n_eves, alloc, r_th, master_seed", [
    # every receiver has D >= N directions: gamma shape 0, no words drawn
    (ArrayGeometry(4, 0.5), 1, _SIDELOBE_BEAMS, 1.0, 21),
    # Bob has D = N - 1 directions: shape 1, which numpy draws as an
    # exponential
    (ArrayGeometry(4, 0.5), 2, 0.3, 2.0, 21),
    # keys with a nonzero second 64-bit word
    (G16, 3, _SIDELOBE_BEAMS, 4.0, 2 ** 64 + 21),
    (G16, 1, 0.3, 4.0, 2 ** 128 - 1)],
    ids=["shape_0", "shape_1", "key_word_1", "largest_key"])
def test_block_sop_equals_per_sample_loop_at_the_edges(
        monkeypatch, geom, n_eves, alloc, r_th, master_seed):
    cfg = ScenarioConfig(geom, 3.0, 1.0, 1e-8, r_th, 0.0, 80.0,
                         n_eves=n_eves)
    _assert_block_sop_equals_loop(monkeypatch, cfg,
                                  _as_allocation(cfg, alloc), master_seed)


# the benchmark's mc_validate shapes: N, eavesdroppers, jamming fraction
# and samples
_MC_SHAPES = ((400, 1, 0.1, 4000), (100, 10, 0.2, 1500))
_MC_REGION = SuspiciousRegion((-np.pi / 6, np.pi / 6), 50.0, 200.0)


@pytest.mark.parametrize("n, n_eves, phi, n_samples", _MC_SHAPES,
                         ids=["n400_e1", "n100_e10"])
def test_finite_rician_sop_equals_the_per_substream_draw(
        monkeypatch, n, n_eves, phi, n_samples):
    # at Rician factor 0.5 the normals and gammas move the outcome (at the
    # scenario's own factor, pure line of sight, they barely do), and the
    # vectorized draws give the SOP of the per-substream reference exactly
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0,
                         100.0, n_eves=n_eves)
    alloc = _uniform_allocation(cfg, phi)
    spec = McRunSpec(n_samples, 1, rician_k=0.5)
    got = empirical_sop(cfg, alloc, _MC_REGION, spec)
    print(f"N={n} n_eves={n_eves}: sop {got}")
    assert 0.0 < got < 1.0
    monkeypatch.setattr(mc_oracle, "_draw", _draw_one_by_one)
    assert empirical_sop(cfg, alloc, _MC_REGION, spec) == got


@pytest.mark.parametrize("k_factor", [1.0, 3.0])
@pytest.mark.parametrize("n", [100, 400])
def test_finite_k_sop_matches_the_closed_form(n, k_factor):
    # where scattering matters: test_06c's scenario (N=400, Bob at 100 m,
    # one eavesdropper at +-30 degrees and 50-200 m, phi = 0.5) at Rician
    # factors 1 and 3, Bob's distance scaled by N**(1/3) so that his SNR
    # stays put, within 3 standard errors of the closed form
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0,
                         100.0 * (n / 400.0) ** (1.0 / 3.0),
                         k_eb=(k_factor / (1.0 + k_factor)) ** 2)
    closed = sop_closed_form(cfg, 0.5, _MC_REGION)
    spec = McRunSpec(20_000, 2026)
    assert mc_oracle._sym_k(cfg) == pytest.approx(k_factor, rel=1e-12)
    got = empirical_sop(cfg, _uniform_allocation(cfg, 0.5), _MC_REGION, spec)
    se = math.sqrt(closed * (1.0 - closed) / spec.n_samples)
    print(f"N={n} K={k_factor}: closed {closed:.6f} mc {got:.6f} "
          f"z = {(got - closed) / se:+.2f}")
    assert abs(got - closed) <= 3.0 * se


# fig6's directional rows: N=100, r_th=10, 10 eavesdroppers on +-30 degrees
# and 50-200 m.  Each allocation's SOP is pinned from ``sop_intersection``
# on a 400,001-point grid over [-pi/2, pi/2], where it has converged to
# the digits kept (the default grid is off by up to 2 standard errors of
# these runs at 60 m)
_FIG6_REGION = SuspiciousRegion((-np.pi / 6, np.pi / 6), 50.0, 200.0)
_FIG6_SOPS = {("algo1", 60.0): 0.174290, ("algo1", 100.0): 0.253075,
              ("algo3", 60.0): 0.063293, ("algo3", 100.0): 0.140102}


@pytest.mark.parametrize("scheme, bob_dist", list(_FIG6_SOPS),
                         ids=["algo1_60m", "algo1_100m", "algo3_60m",
                              "algo3_100m"])
def test_directional_sop_matches_monte_carlo_at_fig6_scale(scheme,
                                                           bob_dist):
    # algorithm 1 puts the noise on 48 DFT beams, algorithm 3 on 2; the
    # master seed was fixed before the first run
    cfg = ScenarioConfig(ArrayGeometry(100, 0.5), 3.0, 1.0, 1e-8, 10.0, 0.0,
                         bob_dist, n_eves=10)
    alloc = (algorithm1_directional(cfg, _FIG6_REGION) if scheme == "algo1"
             else algorithm3_two_lobes(cfg)).allocation
    want = _FIG6_SOPS[scheme, bob_dist]
    spec = McRunSpec(4000, 11)
    got = empirical_sop(cfg, alloc, _FIG6_REGION, spec)
    z = (got - want) / math.sqrt(want * (1.0 - want) / spec.n_samples)
    print(f"{scheme} at {bob_dist:g} m, {len(alloc.beam_angles)} beams: "
          f"grid {want:.6f} mc {got:.6f} z = {z:+.2f}")
    assert abs(z) <= 3.0


# 24 unit beams on an N=32 array with 4 eavesdroppers
_MANY_BEAMS = PowerAllocation(0.3, np.full(24, 0.3 / 24), "dft_selected",
                              np.arcsin(np.linspace(-0.95, 0.95, 24)))


@pytest.mark.parametrize("n, n_eves, alloc, r_th, n_samples", [
    (100, 10, 0.2, 10.0, 1500), (32, 4, _MANY_BEAMS, 4.0, 400)],
    ids=["uniform", "many_beams"])
def test_block_budget_changes_no_result(monkeypatch, n, n_eves, alloc, r_th,
                                        n_samples):
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, r_th, 0.0,
                         100.0, n_eves=n_eves)
    alloc = _as_allocation(cfg, alloc)
    n_beams = len(mc_oracle._beam_angles(alloc))
    spec = McRunSpec(n_samples, 7, rician_k=0.5)

    def run():
        # samples per block of the SOP run and of the fixed-position run
        blocks = (mc_oracle._block_samples(n, n_eves, n_beams, 2),
                  mc_oracle._block_samples(n, 1, n_beams, 0))
        return blocks, (empirical_sop(cfg, alloc, _MC_REGION, spec),
                        *_empirical_sinr(cfg, alloc, spec, 0.3, 90.0))
    new_blocks, new = run()
    monkeypatch.setattr(mc_oracle, "_BLOCK_DRAWS", _OLD_BLOCK_DRAWS)
    monkeypatch.setattr(mc_oracle, "_BLOCK_GRAM", 2 ** 62)
    old_blocks, old = run()
    print(f"samples per block {old_blocks} -> {new_blocks}, sop {new[0]}")
    # the old budget ends a block inside the run, and the new one holds
    # more samples per block
    assert all(a < min(b, n_samples) for a, b in zip(old_blocks, new_blocks))
    assert 0.0 < new[0] < 1.0
    assert new[0] == old[0]
    assert all(map(np.array_equal, new[1:], old[1:]))


# 40 unit beams on an N=4 array: more fixed directions than antennas, and
# the Gram cap, not the draw budget, sizes the blocks
_BEAMS_OVER_N = PowerAllocation(0.3, np.full(40, 0.3 / 40), "dft_selected",
                                np.arcsin(np.linspace(-0.95, 0.95, 40)))


@pytest.mark.parametrize("n, n_eves, alloc", [
    (100, 10, 0.2), (32, 4, _MANY_BEAMS), (4, 2, _BEAMS_OVER_N)],
    ids=["uniform", "many_beams", "beams_over_n"])
def test_every_sinr_is_the_same_in_blocks_of_any_size(monkeypatch, n,
                                                      n_eves, alloc):
    # one sample per block, and blocks that end at odd places, against the
    # run's own blocks: every SINR of every eavesdropper equal, bit for bit
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0,
                         100.0, n_eves=n_eves)
    alloc = _as_allocation(cfg, alloc)

    def sinrs(n_samples):
        parts = mc_oracle._sample_blocks(
            cfg, McRunSpec(n_samples, 3, rician_k=0.5), n_eves,
            _MC_REGION.angle_interval, (_MC_REGION.d_min, _MC_REGION.d_max),
            mc_oracle._beam_angles(alloc),
            lambda stats: mc_oracle._sinrs(cfg, alloc, stats))
        return len(parts), [np.concatenate(s) for s in zip(*parts)]
    per_block = mc_oracle._block_samples(n, n_eves,
                                         len(mc_oracle._beam_angles(alloc)),
                                         2)
    blocks, want = sinrs(per_block + 1)
    assert blocks == 2
    for budget in (1, 7919):
        monkeypatch.setattr(mc_oracle, "_BLOCK_DRAWS", budget)
        blocks, got = sinrs(per_block + 1)
        print(f"budget {budget}: {blocks} blocks")
        assert blocks > 2
        assert all(map(np.array_equal, got, want))


# two-sample tests: the engine's SINRs against the per-entry engine's, in
# law.  Away from pure line of sight, where the scatter carries the outcome.

# Kolmogorov-Smirnov level per comparison; the seeds are fixed, so a pass
# stays a pass
_KS_ALPHA = 1e-4
_LAW_SAMPLES = 3000
G4 = ArrayGeometry(4, 0.5)


def _ks_distance(a, b):
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, both, side="right") / len(a)
                         - np.searchsorted(b, both, side="right") / len(b)))


def _assert_same_law(got, want, what):
    n, m = len(got), len(want)
    crit = np.sqrt(-0.5 * np.log(_KS_ALPHA / 2.0) * (n + m) / (n * m))
    dist = _ks_distance(got, want)
    print(f"{what}: KS distance {dist:.4f} (critical {crit:.4f})")
    assert dist < crit, what


def _engine_sinrs(cfg, alloc, rician_k, angles):
    """(sinr_bob, sinr_eve) of ``_LAW_SAMPLES`` engine samples, every
    eavesdropper at 90 m."""
    dist = np.full((1, cfg.n_eves), 90.0)
    parts = mc_oracle._sample_blocks(
        cfg, McRunSpec(_LAW_SAMPLES, 5, rician_k=rician_k), cfg.n_eves,
        angles, None, mc_oracle._beam_angles(alloc),
        lambda stats: mc_oracle._sinrs(cfg, alloc, stats._replace(dist=dist)))
    return (np.concatenate([b for b, _ in parts]),
            np.concatenate([e for _, e in parts]))


def _old_sinrs(cfg, alloc, rician_k, angles):
    """The same from the kept per-entry engine, on one plain generator."""
    rng = np.random.default_rng(6)
    sinr_b = np.empty(_LAW_SAMPLES)
    sinr_e = np.empty((_LAW_SAMPLES, cfg.n_eves))
    for i in range(_LAW_SAMPLES):
        h_b = _old_channel(cfg.geometry, rician_k, cfg.bob_theta, rng)
        for e in range(cfg.n_eves):
            theta = angles if np.isscalar(angles) else rng.uniform(*angles)
            h_e = _old_channel(cfg.geometry, rician_k, theta, rng)
            sinr_b[i], sinr_e[i, e] = _old_sinr(cfg, alloc, h_b, h_e, 90.0)
    return sinr_b, sinr_e


@pytest.mark.parametrize("rician_k", [0.5, 2.0])
@pytest.mark.parametrize("geom, n_eves, alloc, angles", [
    (G16, 1, 0.4, (-0.7, 1.1)),
    (G16, 1, _BEAMS2, (-0.7, 1.1)),
    (G4, 6, 0.3, (-1.2, 1.2)),
    (G4, 1, _BEAMS5, (-1.2, 1.2)),
    (G16, 1, 0.4, 0.0)],
    ids=["null", "beams", "eves_over_n", "beams_over_n", "eve_at_bob"])
def test_sinrs_match_the_per_entry_engine_in_law(geom, n_eves, alloc, angles,
                                                 rician_k):
    cfg = ScenarioConfig(geom, 3.0, 1.0, 1e-8, 4.0, 0.0, 80.0,
                         n_eves=n_eves)
    full = _as_allocation(cfg, alloc)
    got_b, got_e = _engine_sinrs(cfg, full, rician_k, angles)
    want_b, want_e = _old_sinrs(cfg, full, rician_k, angles)
    _assert_same_law(got_b, want_b, "sinr_bob")
    _assert_same_law(got_e[:, 0], want_e[:, 0], "sinr_eve[0]")
    _assert_same_law(got_e.max(axis=1), want_e.max(axis=1), "max sinr_eve")
    # the joint law of Bob and the eavesdroppers, as the outage test sees it
    _assert_same_law((1.0 + got_b) / (1.0 + got_e.max(axis=1)),
                     (1.0 + want_b) / (1.0 + want_e.max(axis=1)),
                     "secrecy ratio")


@pytest.mark.parametrize("rician_k", [0.5, 2.0])
def test_crosstalk_matches_the_per_entry_engine_in_law(rician_k):
    got = _empirical_crosstalk(
        _cfg16(1), McRunSpec(_LAW_SAMPLES, 13, rician_k=rician_k),
        (-0.7, 1.1))
    rng = np.random.default_rng(14)
    want = np.empty(_LAW_SAMPLES)
    for i in range(_LAW_SAMPLES):
        h_b = _old_channel(G16, rician_k, 0.0, rng)
        h_e = _old_channel(G16, rician_k, rng.uniform(-0.7, 1.1), rng)
        want[i] = np.abs(np.vdot(h_e, h_b) / 16) ** 2
    _assert_same_law(got, want, "crosstalk")


# one-sample tests of the sampler's own laws at a fixed seed: 200,000
# substreams, each variate's KS p-value against its exact CDF at least
# ``_KS_ALPHA`` and its mean and variance within 4 standard errors
_LAW_DRAWS = 200_000
_LAW_SEED = 2 ** 64 + 31


def _ks_pvalue(sample, cdf):
    """Asymptotic Kolmogorov-Smirnov p-value of ``sample`` against the
    continuous ``cdf``, with Stephens' small-sample correction."""
    n = len(sample)
    f = cdf(np.sort(sample))
    dist = max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(n) / n))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * dist
    j = np.arange(1, 101)
    series = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * (j * lam) ** 2))
    return float(np.clip(series, 0.0, 1.0))


def _normal_cdf(x):
    return 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in x])


def _gamma_cdf(x, shape):
    """P(Gamma(shape) <= x) for an integer ``shape``: the probability of at
    least ``shape`` Poisson(x) events."""
    term = np.exp(-x)
    below = term.copy()
    for j in range(1, int(shape)):
        term = term * x / j
        below += term
    return 1.0 - below


def _assert_moments(sample, mean, var, fourth):
    """Sample mean and variance within 4 standard errors of ``mean`` and
    ``var``, for a law of central fourth moment ``fourth``."""
    n = len(sample)
    z_mean = (sample.mean() - mean) / math.sqrt(var / n)
    z_var = (sample.var() - var) / math.sqrt((fourth - var ** 2) / n)
    print(f"mean {sample.mean():.5f} (z {z_mean:+.2f}), "
          f"variance {sample.var():.5f} (z {z_var:+.2f})")
    assert abs(z_mean) < 4.0 and abs(z_var) < 4.0


def test_normals_follow_the_standard_normal_law():
    # after one uniform, so the second pair straddles a Philox block edge
    ids = np.arange(_LAW_DRAWS, dtype=np.uint64)
    (_, z, _), = mc_oracle._draw(_LAW_SEED, [(ids, np.zeros_like(ids), 1, 4,
                                              0.0)])
    for col in z.T:
        _assert_moments(col, 0.0, 1.0, 3.0)
        p = _ks_pvalue(col, _normal_cdf)
        print(f"KS p {p:.3f}")
        assert p >= _KS_ALPHA
    # the two normals of a pair, and the pairs, are uncorrelated
    corr = np.corrcoef(z.T)[np.triu_indices(4, 1)]
    print(f"correlations {np.round(corr, 4)}")
    assert np.all(np.abs(corr) < 4.0 / math.sqrt(_LAW_DRAWS))


@pytest.mark.parametrize("shape", [1.0, 2.0, 3.0, 69.0, 398.0])
def test_gammas_follow_their_law(shape):
    ids = np.arange(_LAW_DRAWS, dtype=np.uint64)
    (_, _, g), = mc_oracle._draw(_LAW_SEED, [(ids, np.ones_like(ids), 0, 2,
                                              shape)])
    # a standard gamma's central fourth moment is 3 k**2 + 6 k
    _assert_moments(g, shape, shape, 3.0 * shape ** 2 + 6.0 * shape)
    p = _ks_pvalue(g, lambda x: _gamma_cdf(x, shape))
    print(f"KS p {p:.3f}")
    assert p >= _KS_ALPHA


@pytest.mark.parametrize("call", [
    lambda spec: _empirical_sinr(CFG64, UNIFORM04, spec, 2.0, 90.0),
    lambda spec: _empirical_sinr(CFG64, UNIFORM04, spec, float("nan"), 90.0),
    lambda spec: _empirical_crosstalk(CFG64, spec, angles=(-2.0, 0.0)),
    lambda spec: _empirical_crosstalk(CFG64, spec, angles=float("nan")),
    lambda spec: _empirical_crosstalk(CFG64, spec, angles=(0.0, np.nan)),
    lambda spec: sinr_eve_uniform(CFG64, 0.4, 3.0, 90.0),
    lambda spec: sinr_eve_uniform(CFG64, 0.4, float("nan"), 90.0)],
    ids=["sinr_past_90", "sinr_nan", "crosstalk_past_90", "crosstalk_nan",
         "crosstalk_nan_bound", "closed_form_past_90", "closed_form_nan"])
def test_engine_rejects_angles_outside_the_half_plane(monkeypatch, call):
    # up front: before a single substream is opened; the closed form
    # rejects the same angles
    def no_draws(*args):
        raise AssertionError("drew before checking the angles")
    monkeypatch.setattr(mc_oracle, "_draw", no_draws)
    with pytest.raises(ValueError, match="theta must lie in"):
        call(McRunSpec(10 ** 9, 3))


def test_any_thread_count_runs_on_the_calling_thread(monkeypatch):
    cfg = _cfg16(1)
    n_samples = 3 * _per_block(1) + 5
    alloc = _uniform_allocation(cfg, 0.3)
    want = empirical_sop(cfg, alloc, REG16, McRunSpec(n_samples, 4))

    def no_thread(self):
        raise AssertionError("the engine started a thread")
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert empirical_sop(cfg, alloc, REG16,
                         McRunSpec(n_samples, 4, threads=64)) == want


def test_zero_dim_angle_is_a_fixed_angle():
    spec = McRunSpec(50, 8)
    got = _empirical_sinr(CFG64, UNIFORM03, spec, np.array(0.2), 50.0)
    want = _empirical_sinr(CFG64, UNIFORM03, spec, 0.2, 50.0)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(_empirical_crosstalk(CFG64, spec, np.array(0.2)),
                          _empirical_crosstalk(CFG64, spec, 0.2))
