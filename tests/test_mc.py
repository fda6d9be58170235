"""Finite-array Monte Carlo engine: stream discipline, channel statistics,
exact SINRs, agreement with a kept copy of the per-sample engine it
replaced, and agreement with the closed forms it exists to check."""

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
    empirical_sop,
    s_kernel,
    sinr_bob_uniform,
    sinr_eve_uniform,
    sop_closed_form,
)
from secrecy_sor.asymptotic import _uniform_allocation
from secrecy_sor.mc_oracle import (
    _empirical_crosstalk,
    _empirical_sinr,
    _secrecy_outage_count,
)

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


def _explicit_block(cfg, w_los, thetas, beam_angles, g, dist):
    """``mc_oracle._block_stats`` on explicit channels: ``g`` holds the
    (sample, receiver, antenna) scatter, Bob at receiver 0 and eavesdropper
    ``l`` at angle ``thetas[:, l]``.  The projections it is handed are
    computed on explicit direction vectors, after checking the Grams the
    engine built against them.  Returns the stats and the channels."""
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
    f_b = np.concatenate([np.broadcast_to(a_b, (m, 1, n)), a_e,
                          np.broadcast_to(beams, (m, len(beams), n))], axis=1)
    f_e = np.concatenate([
        np.broadcast_to(u[:, None, None], (m, n_eves, 1, n)), a_e[:, :, None],
        np.broadcast_to(beams, (m, n_eves, len(beams), n))], axis=2)

    def explicit(f, g_rx):
        def project(gram):
            assert np.max(np.abs(gram - _explicit_gram(f))) < 1e-10 * n
            return ((f.conj() @ g_rx[..., None])[..., 0],
                    np.sum(np.abs(g_rx) ** 2, axis=-1))
        return project
    psi = np.concatenate([
        np.full((m, 1), mc_oracle._phases(geom, cfg.bob_theta)),
        mc_oracle._phases(geom, thetas),
        np.broadcast_to(mc_oracle._phases(geom, beam_angles),
                        (m, len(beams)))], axis=1)
    stats = mc_oracle._block_stats(n, n_eves, w_los, psi,
                                   explicit(f_b, g[:, 0]),
                                   explicit(f_e, g[:, 1:]), dist)
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
    # wavelength) pairs take the Dirichlet form, the rest the phase form
    geom = ArrayGeometry(n, 0.5)
    angles = np.array(angles)
    got = mc_oracle._steering_gram(mc_oracle._phases(geom, angles), n)
    want = _explicit_gram(_steering_vector(angles, geom))
    assert np.max(np.abs(got - want)) < 1e-11 * n
    assert np.all(np.diag(got) == n)


@pytest.mark.parametrize("steering", [False, True])
@pytest.mark.parametrize("n, rows", [
    (4, 7), (3, 12), (16, 5), (2, 2)])
def test_factor_reproduces_the_gram_and_counts_min_d_n(n, rows, steering):
    # 200 sets of random or steering directions, then copies of some of
    # them: duplicates always, and more directions than antennas in the
    # first two cases, where rounding leaves a pivot above the tolerance
    # past the n-th in about 1% of steering sets
    rng = np.random.default_rng(n * rows)
    if steering:
        f = _steering_vector(rng.uniform(-1.5, 1.5, (200, rows)),
                            ArrayGeometry(n, 0.5))
    else:
        f = _complex_normals(rng, (200, rows, n))
    f[:, -1] = f[:, 0]
    f[1, 1] = 2.0 * f[1, 0]
    gram = _explicit_gram(f)
    low, counted = mc_oracle._factor(gram, n)
    # past the n-th live pivot the Schur complement is rounding noise,
    # which near-dependent directions amplify: up to 5e-6 of the Gram's
    # scale in 2000 steering sets, and the cap at n pivots zeroes it
    tol = 1e-5 if rows > n else 1e-12
    assert np.max(np.abs(low @ np.swapaxes(low.conj(), -1, -2) - gram)) \
        < tol * np.max(np.abs(gram))
    assert np.all(np.triu(low, 1) == 0.0)
    rank = np.linalg.matrix_rank(f)
    live = np.any(low != 0.0, axis=-2)
    assert np.array_equal(live.sum(axis=-1), rank)
    assert np.all(counted[live])
    assert np.all(counted.sum(axis=-1) == min(rows, n))


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


def test_reseeked_generator_reproduces_fresh_substreams():
    streams = mc_oracle._Substreams(5)
    # revisits and odd-sized draws leave buffered words behind, which the
    # next seek must drop
    for i, l in [(0, 0), (7, 3), (2 ** 40, 1), (7, 3), (0, 0)]:
        gen, fresh = streams.seek(i, l), _old_stream(5, i, l)
        assert gen.uniform(-0.3, 0.9) == fresh.uniform(-0.3, 0.9)
        assert gen.uniform() == fresh.uniform()
        assert np.array_equal(gen.standard_normal((37, 2)),
                              fresh.standard_normal((37, 2)))
        assert np.array_equal(gen.integers(0, 2 ** 32, 3, dtype=np.uint32),
                              fresh.integers(0, 2 ** 32, 3, dtype=np.uint32))


def _draw_one_by_one(streams, groups):
    """``mc_oracle._draw`` as a loop over the substreams, each one drawn
    through the Generator, the reference."""
    out = []
    for ids, rx, n_u, n_z, shape in groups:
        u, z, g = (np.empty((len(ids), n_u)), np.empty((len(ids), n_z)),
                   np.empty(len(ids)))
        for j, (i, l) in enumerate(zip(ids.tolist(), rx.tolist())):
            gen = streams.seek(i, l)
            gen.random(out=u[j])
            gen.standard_normal(out=z[j])
            g[j] = gen.standard_gamma(shape)
        out.append((u, z, g))
    return out


def _assert_block_sop_equals_loop(monkeypatch, cfg, alloc, master_seed):
    # two partial blocks' worth past whole ones
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
    # those of a Generator loop over the substreams bit for bit
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


# draw-level checks of the vectorized pass: 100k substreams at random
# 64-bit sample and receiver ids, under a key with both words nonzero, in
# four layouts (uniforms, normals, gamma shape) that cover every gamma path.
# The reference draws come through ``_Substreams``, which
# ``test_reseeked_generator_reproduces_fresh_substreams`` ties to fresh
# generators at a fifth of their cost
_DRAW_SEED = 3 * 2 ** 64 + 17
_DRAW_LAYOUTS = ((2, 4, 7.0), (0, 22, 398.0), (1, 2, 1.0), (2, 6, 0.0))
_DRAW_STREAMS = 25_000


def _draw_ids(layout):
    rng = np.random.default_rng(layout)
    return (rng.integers(0, 2 ** 64, _DRAW_STREAMS, dtype=np.uint64),
            rng.integers(0, 2 ** 64, _DRAW_STREAMS, dtype=np.uint64))


def test_vectorized_raw_words_equal_philox():
    streams = mc_oracle._Substreams(_DRAW_SEED)
    for layout in range(len(_DRAW_LAYOUTS)):
        ids, rx = _draw_ids(layout)
        got = np.concatenate([
            mc_oracle._philox(_DRAW_SEED, np.full_like(ids, block), ids, rx)
            for block in (1, 2)], axis=1)
        for j in range(_DRAW_STREAMS):
            bitgen = streams.seek(int(ids[j]), int(rx[j])).bit_generator
            assert np.array_equal(got[j], bitgen.random_raw(8)), (layout, j)


def test_vectorized_draws_equal_the_generator():
    streams = mc_oracle._Substreams(_DRAW_SEED)
    for layout, (n_u, n_z, shape) in enumerate(_DRAW_LAYOUTS):
        ids, rx = _draw_ids(layout)
        (u, z, g), = mc_oracle._draw(streams, [(ids, rx, n_u, n_z, shape)])
        for j in range(_DRAW_STREAMS):
            gen = streams.seek(int(ids[j]), int(rx[j]))
            assert np.array_equal(u[j], gen.random(n_u)), (layout, j)
            assert np.array_equal(z[j], gen.standard_normal(n_z)), (layout, j)
            assert g[j] == gen.standard_gamma(shape), (layout, j)


def test_fast_paths_take_nearly_every_draw():
    # a wrong table entry would send its layer to the fallback: still
    # exact, but slow
    ids, rx = _draw_ids(0)
    words = mc_oracle._philox(_DRAW_SEED, np.ones_like(ids), ids, rx)
    for column in words.T:
        _, fast = mc_oracle._normals(column)
        assert fast.mean() >= 0.98
    for shape in (2.0, 7.0, 398.0):
        _, fast = mc_oracle._gammas(words[:, :2], shape)
        assert fast.mean() >= 0.96, shape
    _, fast = mc_oracle._gammas(words[:, :2], 1.0)
    assert not fast.any()


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
    monkeypatch.setattr(mc_oracle, "_Substreams", no_draws)
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
