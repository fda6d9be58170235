"""Acceptance suite: each headline guarantee of the package gets one test,
with a printed PASS/FAIL line per clause (visible with -s, or on failure).

Three clauses fail by construction and are left failing on purpose:

* the free-space side-lobe area cap (test_07a) undershoots exact lobe areas
  for moderate element counts and goes negative once jamming extinguishes a
  lobe;
* the optimized-uniform area ratio (test_04b) falls well below the
  advertised band at short Bob range;
* the jamming-benefit distance condition (test_05) admits counterexamples
  near the top of its claimed range when the suspicious region straddles
  the transmit direction -- a dense fraction sweep confirms no jamming
  fraction lowers the outage probability there.

Their assertion messages carry the measured numbers; everything else must
stay green.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from secrecy_sor.alloc import (
    algorithm1_directional,
    algorithm2_iterative,
    algorithm3_two_lobes,
    grid_oracle_phi,
    lobe_notch_objective,
    optimize_phi_uniform,
    phi_opt_closed_form,
)
from secrecy_sor.asymptotic import (
    PowerAllocation,
    ScenarioConfig,
    lobe_radii,
    phi_max,
    side_lobe_area_bound,
    sor_area,
    sor_boundary_directional,
    sor_boundary_nojam,
    sor_boundary_uniform,
    _uniform_allocation,
)
from secrecy_sor.cli import main
from secrecy_sor.crosstalk import (
    ArrayGeometry,
    CrosstalkProfile,
    crosstalk_cdf,
    s_kernel,
)
from secrecy_sor.errors import InfeasibleRateError
from secrecy_sor.mc_oracle import McRunSpec, empirical_sop
from secrecy_sor.sop import (
    SuspiciousRegion,
    is_jamming_beneficial,
    jamming_beneficial_dmax,
    sop_closed_form,
    sop_intersection,
)

HALF_PI = 0.5 * math.pi


def reference_cfg(n_antennas, r_th, bob_dist, alpha=3.0, n_eves=1):
    return ScenarioConfig(geometry=ArrayGeometry(n_antennas, 0.5),
                          alpha=alpha, p_tot=1.0, n0=1e-8, r_th=r_th,
                          bob_theta=0.0, bob_dist=bob_dist, n_eves=n_eves)


def clause(label, ok, failures):
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        failures.append(label)


# ---------------------------------------------------------------------------
# 1. lobe-radius shapes over the jamming fraction (N_t=100, R_th=10,
#    broadside Bob at 100 m)

def test_01_lobe_radius_shapes_over_phi():
    failures = []
    t0 = time.monotonic()
    cfg = reference_cfg(100, 10.0, 100.0)
    phis = np.arange(0.0, phi_max(cfg), 0.005)
    radii = np.array([lobe_radii(cfg, float(p))[:7] for p in phis])
    clause("main-lobe radius strictly increasing over [0, phi_max)",
           bool(np.all(np.diff(radii[:, 0]) > 0.0)), failures)
    at_02 = lobe_radii(cfg, 0.2)[:7]
    clause("side lobes 2..6 extinguished at phi=0.2",
           bool(np.all(at_02[2:7] == 0.0)), failures)
    lobe1 = radii[:, 1]
    k = int(np.argmin(lobe1))
    interior = 0 < k < lobe1.size - 1
    clause(f"first side lobe has interior argmin at phi={phis[k]:.3f} "
           f"in [0.55, 0.85]",
           interior and 0.55 <= phis[k] <= 0.85, failures)
    elapsed = time.monotonic() - t0
    clause(f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0, failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 2. SOP vs jamming fraction over a near sector (eves in [50,100] m x +-15
#    degrees, 10 of them, R_th=10)

def test_02_sop_optimum_and_directional_gain():
    failures = []
    t0 = time.monotonic()
    region = SuspiciousRegion((math.radians(-15.0), math.radians(15.0)),
                              50.0, 100.0)
    results = {}
    for n in (50, 100):
        cfg = reference_cfg(n, 10.0, 100.0, n_eves=10)
        res = optimize_phi_uniform(cfg, region, objective="sop")
        sop0 = sop_closed_form(cfg, 0.0, region)
        clause(f"N={n}: SOP(phi_opt)={res.objective:.4f} < "
               f"SOP(0)={sop0:.6f}", res.objective < sop0, failures)
        near_max = min(1.0, phi_max(cfg) + 0.02)
        sop_hi = sop_closed_form(cfg, near_max, region)
        clause(f"N={n}: SOP={sop_hi:.4f} >= 0.99 at phi={near_max:.4f}",
               sop_hi >= 0.99, failures)
        results[n] = res
    clause(f"phi_opt grows with N: {results[100].phi_opt:.4f} (N=100) > "
           f"{results[50].phi_opt:.4f} (N=50)",
           results[100].phi_opt > results[50].phi_opt, failures)
    cfg100 = reference_cfg(100, 10.0, 100.0, n_eves=10)
    dir_res = algorithm1_directional(cfg100, region)
    clause(f"directional SOP {dir_res.objective:.4f} <= uniform-opt "
           f"{results[100].objective:.4f}",
           dir_res.objective <= results[100].objective + 1e-12, failures)
    elapsed = time.monotonic() - t0
    clause(f"runtime {elapsed:.2f}s < 60s", elapsed < 60.0, failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 3. closed-form optimal fraction vs brute-force oracle (eves beyond 50 m,
#    R_th=5), and N-independence of the near-eve branch

def test_03_closed_form_phi_matches_oracle():
    failures = []
    t0 = time.monotonic()
    d_min = 50.0
    configs = [(50, 100.0), (100, 100.0), (100, 150.0)]
    s_grid = np.linspace(0.05, 0.95, 20)
    worst = 0.0
    branch_values = {}
    for n, d_b in configs:
        cfg = reference_cfg(n, 5.0, d_b)
        for s_eb in s_grid:
            closed, branch = phi_opt_closed_form(cfg, float(s_eb), d_min)
            oracle = grid_oracle_phi(cfg, float(s_eb), d_min)
            worst = max(worst, abs(closed - oracle))
            if d_b == 100.0 and branch == "phi_0":
                branch_values.setdefault(float(s_eb), {})[n] = closed
    clause(f"worst |closed - oracle| = {worst:.2e} <= 0.05",
           worst <= 0.05, failures)
    both = [v for v in branch_values.values() if len(v) == 2]
    spread = max(abs(v[50] - v[100]) for v in both) if both else math.inf
    clause(f"near-eve branch N-invariant over {len(both)} points, "
           f"spread {spread:.1e} <= 1e-6",
           bool(both) and spread <= 1e-6, failures)
    elapsed = time.monotonic() - t0
    clause(f"runtime {elapsed:.2f}s < 30s", elapsed < 30.0, failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 4. outage-area ordering of the schemes over Bob distance (N_t=50, R_th=5)

@pytest.fixture(scope="module")
def area_table():
    t0 = time.monotonic()
    rows = {}
    for d_b in np.arange(60.0, 160.0 + 5.0, 10.0):
        cfg = reference_cfg(50, 5.0, float(d_b))
        rows[float(d_b)] = (
            sor_area(sor_boundary_nojam(cfg)),
            optimize_phi_uniform(cfg, None, objective="sor_area").objective,
            algorithm2_iterative(cfg).objective,
            algorithm3_two_lobes(cfg).objective,
        )
    return rows, time.monotonic() - t0


def test_04a_area_scheme_ordering(area_table):
    failures = []
    rows, elapsed = area_table
    for d_b, (no_jam, uniform, algo2, algo3) in rows.items():
        ok = no_jam > uniform > algo2 and algo3 >= algo2 - 1e-9
        clause(f"d_b={d_b:.0f}: {no_jam:.1f} > {uniform:.1f} > {algo2:.1f}"
               f" and algo3 {algo3:.1f} >= algo2", ok, failures)
    ref = rows[100.0]
    frozen = (3394.76126, 934.990078, 254.613435, 254.613435)
    drift = max(abs(a - b) / b for a, b in zip(ref, frozen))
    clause(f"d_b=100 row within 1e-6 of frozen values (drift {drift:.1e})",
           drift <= 1e-6, failures)
    clause(f"runtime {elapsed:.1f}s < 600s", elapsed < 600.0, failures)
    assert not failures, failures


def test_04b_uniform_opt_halves_the_area(area_table):
    failures = []
    rows, _ = area_table
    for d_b, (no_jam, uniform, _, _) in rows.items():
        ratio = uniform / no_jam
        clause(f"d_b={d_b:.0f}: uniform-opt/no-jam area ratio "
               f"{ratio:.3f} in [0.35, 0.65]",
               0.35 <= ratio <= 0.65, failures)
    # the optimum shrinks the area far below half of the no-jamming
    # baseline when Bob is close (ratio 0.13 at 60 m, rising through the
    # advertised band only from ~130 m); "about half" holds only at the
    # far end of the sweep
    assert not failures, failures


# ---------------------------------------------------------------------------
# 5. whenever the suspicious annulus sits inside the benefit range, some
#    jamming fraction strictly lowers the SOP -- randomized scenarios with
#    verified witnesses

def test_05_jamming_benefit_witnesses():
    failures = []
    rng = np.random.default_rng(20260822)
    accepted = 0
    counterexamples = []
    while accepted < 50:
        n = int(rng.choice([32, 48, 64, 96, 128]))
        cfg = ScenarioConfig(
            geometry=ArrayGeometry(n, 0.5), alpha=float(rng.uniform(2.2, 4.0)),
            p_tot=1.0, n0=1e-8, r_th=float(rng.uniform(1.0, 8.0)),
            bob_theta=float(rng.uniform(-1.0, 1.0)),
            bob_dist=float(rng.uniform(40.0, 200.0)))
        try:
            d_limit = jamming_beneficial_dmax(cfg)
        except InfeasibleRateError:
            continue
        main_radius = float(lobe_radii(cfg, 0.0)[0])
        hi_d = 0.95 * d_limit
        d_min = float(rng.uniform(0.2, 0.8)) * min(main_radius, hi_d)
        if hi_d <= 1.05 * d_min:
            continue
        d_max = float(rng.uniform(1.05 * d_min, hi_d))
        lo = float(rng.uniform(-1.4, 1.0))
        hi = min(lo + float(rng.uniform(0.2, 1.0)), 1.5)
        region = SuspiciousRegion((lo, hi), d_min, d_max)
        # benefit is claimed for regions that intersect the no-jamming
        # outage region; a region the outage region never touches has
        # nothing to improve
        if sop_closed_form(cfg, 0.0, region) < 1e-6:
            continue
        accepted += 1
        beneficial, witness = is_jamming_beneficial(cfg, region)
        if beneficial:
            if not sop_closed_form(cfg, witness, region) \
                    < sop_closed_form(cfg, 0.0, region):
                counterexamples.append(f"phi={witness} is not a gain for "
                                       f"{cfg} {region}")
            continue
        # confirm on a dense fraction grid before declaring a counterexample
        dense = np.linspace(1e-6, 0.999 * phi_max(cfg), 2001)
        best = float(np.min(sop_closed_form(cfg, dense, region)))
        base = sop_closed_form(cfg, 0.0, region)
        if best >= base:
            counterexamples.append(
                f"no improving fraction exists: N={n} "
                f"alpha={cfg.alpha:.3f} r_th={cfg.r_th:.3f} "
                f"bob=({cfg.bob_theta:.3f} rad, {cfg.bob_dist:.1f} m) "
                f"region angles=({lo:.3f},{hi:.3f}) "
                f"d=({d_min:.1f},{d_max:.1f}) vs limit {d_limit:.1f}; "
                f"sop(0)={base:.6f}, dense-grid best {best:.6f}")
        else:
            counterexamples.append(
                f"witness search missed an improving fraction for {cfg}")
    clause(f"50/50 random in-range scenarios verified beneficial "
           f"({len(counterexamples)} counterexamples)",
           not counterexamples, failures)
    # the advertised distance condition is not sufficient on its own: with
    # d_max in the top tenth of the claimed range and the region straddling
    # the transmit direction, every jamming fraction raises the SOP -- the
    # main-lobe growth outweighs the side-lobe squeeze
    assert not failures, counterexamples


# ---------------------------------------------------------------------------
# 6. oracle equivalences

def test_06a_crosstalk_cdf_vs_empirical():
    failures = []
    geom = ArrayGeometry(16, 0.5)
    profile = CrosstalkProfile(geom, 0.3, 0.9)
    angle_range = (-HALF_PI, HALF_PI)
    rng = np.random.default_rng(123)
    thetas = rng.uniform(angle_range[0], angle_range[1], 1_000_000)
    values = np.sort(0.9 * s_kernel(np.sin(thetas) - math.sin(0.3), geom))
    idx = np.arange(0, values.size, 250)
    model = crosstalk_cdf(values[idx], profile, angle_range)
    ks = float(np.max(np.abs(model - (idx + 0.5) / values.size)))
    clause(f"KS distance {ks:.4f} <= 0.01 on 1e6 samples", ks <= 0.01,
           failures)
    assert not failures, failures


def test_06b_sop_closed_form_vs_geometric():
    failures = []
    thetas = np.linspace(-HALF_PI, HALF_PI, 262145)
    cases = [
        (reference_cfg(100, 10.0, 100.0, n_eves=10),
         SuspiciousRegion((math.radians(-15.0), math.radians(15.0)),
                          50.0, 100.0), (0.0, 0.3, 0.6)),
        (reference_cfg(50, 5.0, 100.0),
         SuspiciousRegion((math.radians(-60.0), math.radians(60.0)),
                          50.0, 350.0), (0.0, 0.5, 0.9)),
    ]
    worst = 0.0
    for cfg, region, phis in cases:
        for phi in phis:
            closed = sop_closed_form(cfg, phi, region)
            geometric = sop_intersection(
                sor_boundary_uniform(cfg, phi, thetas), region, cfg.n_eves)
            worst = max(worst, abs(closed - geometric))
    clause(f"worst |closed - boundary-intersection| = {worst:.2e} <= 1e-3",
           worst <= 1e-3, failures)
    assert not failures, failures


def test_06c_finite_antenna_monte_carlo():
    failures = []
    k_factor = 1e4
    cfg = ScenarioConfig(
        geometry=ArrayGeometry(400, 0.5), alpha=3.0, p_tot=1.0, n0=1e-8,
        r_th=10.0, bob_theta=0.0, bob_dist=100.0,
        k_eb=(k_factor / (1.0 + k_factor)) ** 2)
    region = SuspiciousRegion((-math.pi / 6.0, math.pi / 6.0), 50.0, 200.0)
    closed = sop_closed_form(cfg, 0.5, region)
    spec = McRunSpec(n_samples=10_000, master_seed=2026, rician_k=None,
                     threads=4)
    mc = empirical_sop(cfg, _uniform_allocation(cfg, 0.5), region, spec)
    se = math.sqrt(closed * (1.0 - closed) / spec.n_samples)
    clause(f"|mc - closed| = |{mc:.4f} - {closed:.6f}| <= 3 SE = {3 * se:.4f}",
           abs(mc - closed) <= 3.0 * se, failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 7. free-space side-lobe area cap (alpha=2, broadside Bob)

# np.trapz was renamed np.trapezoid in numpy 2.0 and removed later
_trapz = getattr(np, "trapezoid", None) or np.trapz


def one_sided_lobe_areas(cfg, phi, m_max=10):
    thetas = np.linspace(0.0, HALF_PI, 400001)
    boundary = sor_boundary_uniform(cfg, phi, thetas)
    areas = {}
    for arc in boundary.lobes:
        if 1 <= arc.index <= m_max and arc.lo <= arc.hi:
            sl = slice(arc.lo, arc.hi + 1)
            areas[arc.index] = 0.5 * float(
                _trapz(boundary.radii[sl] ** 2, boundary.thetas[sl]))
    return areas


def test_07a_side_lobe_areas_below_bound():
    failures = []
    violations = []
    for n in (64, 128):
        cfg = reference_cfg(n, 5.0, 100.0, alpha=2.0)
        for phi in (0.0, 0.3, 0.6):
            areas = one_sided_lobe_areas(cfg, phi)
            for m in range(1, 11):
                numeric = areas.get(m, 0.0)
                bound = side_lobe_area_bound(cfg, phi, m)
                if numeric > bound:
                    violations.append(
                        f"N={n} phi={phi} m={m}: {numeric:.4g} > {bound:.4g}")
    clause(f"numeric lobe areas within the closed-form cap "
           f"({len(violations)} violations)", not violations, failures)
    # the cap is a large-array simplification: at N=64 it sits slightly
    # below the exact area of the outermost lobes even with no jamming,
    # and once jamming extinguishes a lobe the cap goes negative while the
    # numeric area bottoms out at zero -- every phi>0 cell fails that way
    assert not failures, violations[:8] + [f"... {len(violations)} total"]


def test_07b_bound_halves_when_array_doubles():
    failures = []
    cfg64 = reference_cfg(64, 5.0, 100.0, alpha=2.0)
    cfg128 = reference_cfg(128, 5.0, 100.0, alpha=2.0)
    ratios = [side_lobe_area_bound(cfg128, phi, m)
              / side_lobe_area_bound(cfg64, phi, m)
              for phi in (0.0, 0.3, 0.6) for m in range(1, 11)]
    lo, hi = min(ratios), max(ratios)
    clause(f"cap ratio N=128/N=64 in [{lo:.4f}, {hi:.4f}] within [0.45, 0.55]",
           0.45 <= lo and hi <= 0.55, failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 8. two-beam notch objective: concave in the power split, so the optimum
#    sits at a vertex of the budget simplex, and the two-lobe search lands on
#    the grid optimum

TOY = ScenarioConfig(geometry=ArrayGeometry(16, 0.5), alpha=3.0, p_tot=1.0,
                     n0=1e-4, r_th=2.0, bob_theta=0.0, bob_dist=30.0)


def test_08a_notch_minimizer_on_simplex_boundary():
    failures = []
    angles = np.arcsin(np.array([1.5, 2.5]) / 8.0)
    budget = 0.2 * TOY.p_tot
    ts = np.linspace(0.0, 1.0, 201)
    f = np.array([lobe_notch_objective(
        TOY, 0.2, angles, np.array([t * budget, (1.0 - t) * budget]))
        for t in ts])
    k = int(np.argmin(f))
    clause(f"exhaustive split grid: argmin at t={ts[k]:.3f} (a vertex)",
           k in (0, ts.size - 1), failures)
    clause("no interior split beats the best vertex",
           bool(np.min(f[1:-1]) >= min(f[0], f[-1]) - 1e-9), failures)
    assert not failures, failures


def test_08b_two_lobe_search_matches_exhaustive_grid():
    failures = []
    res = algorithm3_two_lobes(TOY)
    phis = np.linspace(0.0, phi_max(TOY), 25, endpoint=False)
    best = math.inf
    for phi in phis:
        budget = phi * TOY.p_tot
        for t in np.linspace(0.0, 1.0, 11):
            alloc = replace(res.allocation, phi=float(phi),
                            beam_powers=np.array([t * budget,
                                                  (1.0 - t) * budget]))
            best = min(best, sor_area(sor_boundary_directional(TOY, alloc)))
    clause(f"two-lobe search area {res.objective:.4f} <= exhaustive "
           f"25x11 grid best {best:.4f}",
           res.objective <= best + 1e-9, failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 9. determinism of the command line across repeats and thread counts

def test_09_byte_identical_reruns(tmp_path):
    failures = []
    manifest = tmp_path / "mc.json"
    manifest.write_text(json.dumps({
        "scenario": {"n_antennas": 32, "r_th": 4.0, "bob_dist_m": 80.0},
        "region": {"angles_deg": [-20.0, 20.0], "d_min_m": 40.0,
                   "d_max_m": 120.0},
        "sweep": {"parameter": "phi", "grid": [0.2, 0.5]},
        "scheme": "uniform",
        "mc": {"n_samples": 500, "master_seed": 7},
    }))
    outs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"{name}.csv"
        rc = main(["mc-validate", "--manifest", str(manifest),
                   "--out", str(out), "--threads", str(threads)])
        assert rc == 0
        outs[name] = out.read_bytes()
    clause("same manifest + seed twice: byte-identical CSV",
           outs["a"] == outs["b"], failures)
    clause("--threads 1 vs --threads 8: byte-identical CSV",
           outs["a"] == outs["c"], failures)
    assert not failures, failures
