"""Finite-array Monte Carlo engine: stream discipline, channel statistics,
exact SINRs, agreement with a kept copy of the per-sample engine it
replaced, and agreement with the closed forms it exists to check."""

import os

import numpy as np
import pytest

from secrecy_sor import mc_oracle
from secrecy_sor import (
    ArrayGeometry,
    McRunSpec,
    PowerAllocation,
    ScenarioConfig,
    SuspiciousRegion,
    empirical_crosstalk,
    empirical_sinr,
    empirical_sop,
    null_space_basis,
    s_kernel,
    secrecy_outage_count,
    sinr_bob_uniform,
    sinr_eve_uniform,
    sop_closed_form,
    steering_vector,
)

G64 = ArrayGeometry(64, 0.5)
CFG64 = ScenarioConfig(G64, 3.0, 1.0, 1e-8, 5.0, 0.0, 100.0)
REG = SuspiciousRegion((-np.pi / 6, np.pi / 6), 50.0, 150.0)


def test_run_spec_validation():
    with pytest.raises(ValueError):
        McRunSpec(0, 1)
    with pytest.raises(ValueError):
        McRunSpec(10, -1)
    with pytest.raises(ValueError):
        McRunSpec(10, 1, rician_k=-2.0)
    with pytest.raises(ValueError):
        McRunSpec(10, 1, threads=0)
    # a fractional seed would alias seed 0 (Philox truncates its key)
    for bad in (dict(n_samples=2.5), dict(n_samples=True),
                dict(master_seed=0.5), dict(master_seed=1.0),
                dict(master_seed=False), dict(threads=2.0),
                dict(threads=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            McRunSpec(**{"n_samples": 10, "master_seed": 1, **bad})
    McRunSpec(np.int64(10), np.uint32(1), threads=np.int32(2))


def _draw_channel(geom, rician_k, theta, rng):
    return mc_oracle._channel(steering_vector(theta, geom),
                              rng.standard_normal((geom.n_antennas, 2)),
                              rician_k)


def test_draw_channel_statistics():
    rng = np.random.default_rng(0)
    # strong Rician factor: the draw collapses onto the steering vector
    h = _draw_channel(G64, 1e12, 0.4, rng)
    assert np.max(np.abs(h - steering_vector(0.4, G64))) < 1e-5
    # pure scatter: zero mean, unit per-entry variance (many draws)
    hs = np.stack([_draw_channel(G64, 0.0, 0.0, rng) for _ in range(400)])
    assert abs(np.mean(hs)) < 0.01
    assert abs(np.mean(np.abs(hs) ** 2) - 1.0) < 0.02
    # norm concentrates near the element count either way
    assert abs(np.vdot(h, h).real / 64.0 - 1.0) < 1e-6


def test_null_space_basis_orthogonal_and_complete():
    rng = np.random.default_rng(3)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    q = null_space_basis(h)
    assert q.shape == (16, 15)
    assert np.max(np.abs(h.conj() @ q)) < 1e-10
    gram = q.conj().T @ q
    assert np.max(np.abs(gram - np.eye(15))) < 1e-10


@pytest.mark.parametrize("n", [16, 64])
def test_null_space_basis_matches_the_engine_jamming_term(n):
    # the engine never builds the null-space basis Q: it collects the
    # isotropic noise per_dir * ||Q^H h_e||**2 through the norm identity
    # per_dir * (||h_e||**2 - |h_e^H h_b|**2 / ||h_b||**2)
    cfg = ScenarioConfig(ArrayGeometry(n, 0.5), 3.0, 1.0, 1e-8, 5.0, 0.0,
                         100.0)
    alloc = mc_oracle._as_allocation(cfg, 0.4)
    rng = np.random.default_rng(n)
    h = rng.standard_normal((6, 3, n)) + 1j * rng.standard_normal((6, 3, n))
    # distances where the jamming term outweighs the noise floor many times
    dist = rng.uniform(50.0, 150.0, (6, 2))
    _, sinr_e = mc_oracle._block_sinrs(cfg, alloc, None, h, dist)
    p_sig = (1.0 - alloc.phi) * cfg.p_tilde_tot
    per_dir = alloc.phi * cfg.p_tilde_tot / (n - 1)
    for s in range(6):
        h_b = h[s, 0]
        q = null_space_basis(h_b)
        for e in range(2):
            h_e = h[s, e + 1]
            jam = per_dir * np.sum(np.abs(q.conj().T @ h_e) ** 2)
            cross2 = abs(np.vdot(h_e, h_b)) ** 2 / np.vdot(h_b, h_b).real
            gain = dist[s, e] ** -cfg.alpha
            assert gain * jam > 5.0
            want = p_sig * gain * cross2 / (1.0 + gain * jam)
            assert abs(sinr_e[s, e] / want - 1.0) < 1e-10


def test_outage_count_edges():
    # equal strengths: outage only at a zero target
    assert secrecy_outage_count(1.0, 1.0, 0.0) == 1
    assert secrecy_outage_count(1.0, 1.0, 0.5) == 1
    assert secrecy_outage_count(np.array([3.0, 1.0]), np.array([0.0, 0.9]),
                                1.0) == 1
    assert secrecy_outage_count(np.array([3.0]), np.array([0.0]), 2.0) == 0


def test_sinr_exact_tracks_asymptotics_at_strong_k():
    spec = McRunSpec(200, 3, rician_k=1e9)
    sb, se = empirical_sinr(CFG64, 0.4, spec, 0.3, 120.0)
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
    # as sinr_eve_uniform does: no distance gives a meaningful SINR here
    with pytest.raises(ValueError, match="eve_dist must be positive"):
        empirical_sinr(CFG64, 0.4, McRunSpec(4, 3), 0.3, eve_dist)


def test_explicit_beam_jams_bob_too():
    # a steering beam dropped straight onto Bob (at 0 rad) must degrade him,
    # unlike the null-space spread
    assert CFG64.bob_theta == 0.0
    spec = McRunSpec(50, 1, rician_k=1e9)
    clean = PowerAllocation(0.3, np.array([0.3]), "null_space_uniform")
    dirty = PowerAllocation(0.3, np.array([0.3]), "dft_selected",
                            np.array([0.0]))
    sb_clean, _ = empirical_sinr(CFG64, clean, spec, 0.25, 80.0)
    sb_dirty, _ = empirical_sinr(CFG64, dirty, spec, 0.25, 80.0)
    print(f"bob clean {np.min(sb_clean):.1f} dirty {np.max(sb_dirty):.4f}")
    assert np.all(sb_dirty < 1e-3 * sb_clean)


def test_empirical_crosstalk_reaches_kernel_at_strong_k():
    spec = McRunSpec(4, 11, rician_k=1e9)
    for th in (0.013, 0.21):
        got = float(np.mean(empirical_crosstalk(CFG64, spec, angles=th)))
        want = s_kernel(abs(np.sin(th)), G64)
        print(f"theta={th}: mc {got:.8f} kernel {want:.8f}")
        assert abs(got - want) <= 1e-3 * max(want, 1e-6)


def test_empirical_sop_matches_closed_form():
    closed = sop_closed_form(CFG64, 0.3, REG)
    spec = McRunSpec(3000, 7)
    got = empirical_sop(CFG64, 0.3, REG, spec)
    se = np.sqrt(closed * (1.0 - closed) / spec.n_samples)
    print(f"closed {closed:.6f} mc {got:.6f} (3se = {3 * se:.6f})")
    assert abs(closed - 0.02621308508522613) < 1e-9
    assert abs(got - closed) <= 3.0 * se


def test_empirical_sop_deterministic_across_threads():
    spec1 = McRunSpec(600, 42, threads=1)
    spec4 = McRunSpec(600, 42, threads=4)
    a = empirical_sop(CFG64, 0.3, REG, spec1)
    b = empirical_sop(CFG64, 0.3, REG, spec4)
    assert a == b
    # same seed reproduces; a different seed moves the estimate
    assert empirical_sop(CFG64, 0.3, REG, spec1) == a
    c = empirical_sop(CFG64, 0.3, REG, McRunSpec(600, 43, threads=1))
    assert c != a


def test_directional_allocation_through_the_oracle():
    # beams on the DFT grid flank the user's nulls, so they suppress the
    # region's eavesdroppers without touching Bob (a beam parked on a side
    # lobe *peak* would jam Bob too - see test_explicit_beam_jams_bob_too)
    angles = np.arcsin(np.array([1.0, -1.0]) / 32.0)
    alloc = PowerAllocation(0.3, np.array([0.15, 0.15]), "dft_selected",
                            angles)
    spec = McRunSpec(1500, 9)
    p_no = empirical_sop(CFG64, 0.0, REG, spec)
    p_dir = empirical_sop(CFG64, alloc, REG, spec)
    print(f"no-jam {p_no:.4f} directional {p_dir:.4f}")
    assert p_dir < 0.5 * p_no


# ---------------------------------------------------------------------------
# the block engine against a kept copy of the per-sample engine: one new
# generator per (sample, receiver) substream, one channel and one SINR pair
# at a time

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
        beams = mc_oracle._beam_matrix(cfg.geometry, alloc.beam_angles)
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
        count += secrecy_outage_count(sinr_b, worst, cfg.r_th)
    return count / spec.n_samples


def _per_block(n_eves):
    return mc_oracle._BLOCK_ENTRIES // ((n_eves + 1) * G16.n_antennas)


def test_draw_channel_equals_kept_copy():
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


@pytest.mark.parametrize("n_eves", [1, 3])
@pytest.mark.parametrize("directional", [False, True])
def test_block_sop_equals_per_sample_loop(monkeypatch, n_eves, directional):
    # threads for any array size, so the split over workers is checked too
    monkeypatch.setattr(mc_oracle, "_THREADED_MIN_ANTENNAS", 1)
    cfg = _cfg16(n_eves)
    if directional:
        # DFT beams at the first sidelobe sines on both sides of the user
        alloc = PowerAllocation(0.3, np.array([0.15, 0.15]), "dft_selected",
                                np.arcsin(np.array([1.0, -1.0]) / 8.0))
    else:
        alloc = PowerAllocation(0.3, np.array([0.3]), "null_space_uniform")
    # two partial blocks' worth past whole ones
    n = 2 * _per_block(n_eves) + 37
    want = _old_sop(cfg, alloc, REG16, McRunSpec(n, 21))
    print(f"n_eves={n_eves} {alloc.basis}: sop {want}")
    assert 5 <= want * n <= n - 5
    for threads in (1, 2, 3):
        assert empirical_sop(cfg, alloc, REG16,
                             McRunSpec(n, 21, threads=threads)) == want


@pytest.mark.parametrize("alloc", [
    0.4, PowerAllocation(0.3, np.array([0.1, 0.2]), "dft_selected",
                         np.array([0.2, -0.4]))])
def test_block_sinr_equals_per_sample_loop(alloc):
    spec = McRunSpec(_per_block(1) + 5, 8, rician_k=2.0)
    sb, se = empirical_sinr(_cfg16(1), alloc, spec, 0.3, 90.0)
    full = mc_oracle._as_allocation(_cfg16(1), alloc)
    for i in range(spec.n_samples):
        h_b = _old_channel(G16, 2.0, 0.0, _old_stream(8, i, 0))
        h_e = _old_channel(G16, 2.0, 0.3, _old_stream(8, i, 1))
        want = _old_sinr(_cfg16(1), full, h_b, h_e, 90.0)
        assert sb[i] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert se[i] == pytest.approx(want[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("angles", [0.21, (-0.7, 1.1)])
def test_block_crosstalk_equals_per_sample_loop(angles):
    spec = McRunSpec(_per_block(1) + 5, 13)
    got = empirical_crosstalk(_cfg16(1), spec, angles)
    k_rx = mc_oracle._sym_k(_cfg16(1))
    for i in range(spec.n_samples):
        h_b = _old_channel(G16, k_rx, 0.0, _old_stream(13, i, 0))
        rng = _old_stream(13, i, 1)
        theta = angles if np.isscalar(angles) else rng.uniform(*angles)
        h_e = _old_channel(G16, k_rx, theta, rng)
        want = np.abs(np.vdot(h_e, h_b) / 16) ** 2
        assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def _record_pools(monkeypatch, cpus):
    """Show the engine ``cpus`` usable CPUs and swap its thread pool for a
    stub that records the worker counts asked for and runs the work on the
    calling thread, so no real pool starts at a huge count.  Returns the
    list the counts go to."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mc_oracle, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return asked


def test_threads_capped_at_block_count(monkeypatch):
    asked = _record_pools(monkeypatch, cpus=64)
    cfg, per_block = _cfg16(1), _per_block(1)
    # an array below the threading size runs on the calling thread
    empirical_sop(cfg, 0.3, REG16, McRunSpec(3 * per_block, 4, threads=2))
    assert asked == []
    monkeypatch.setattr(mc_oracle, "_THREADED_MIN_ANTENNAS", 1)
    for n_samples, n_blocks in ((per_block, 1), (per_block + 1, 2)):
        asked.clear()
        want = empirical_sop(cfg, 0.3, REG16, McRunSpec(n_samples, 4))
        got = empirical_sop(cfg, 0.3, REG16,
                            McRunSpec(n_samples, 4, threads=10 ** 6))
        assert got == want
        assert all(w <= n_blocks for w in asked)
        assert asked == ([] if n_blocks == 1 else [n_blocks])


def test_threads_capped_at_usable_cpus(monkeypatch):
    asked = _record_pools(monkeypatch, cpus=2)
    cfg = ScenarioConfig(ArrayGeometry(256, 0.5), 3.0, 1.0, 1e-8, 4.0, 0.0,
                         80.0)
    assert cfg.geometry.n_antennas >= mc_oracle._THREADED_MIN_ANTENNAS
    n_samples = 5 * (mc_oracle._BLOCK_ENTRIES // (2 * 256))  # five blocks
    want = empirical_sop(cfg, 0.3, REG16, McRunSpec(n_samples, 9))
    got = empirical_sop(cfg, 0.3, REG16, McRunSpec(n_samples, 9, threads=64))
    assert asked == [2]
    assert got == want
