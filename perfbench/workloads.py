"""Workload definitions: the CLI invocations each workload runs.

A workload seed picks the varying inputs from fixed pools; the program only
ever sees the manifests written here.  Every pool value has a recorded
reference row (``reference.json``, see ``record_reference.py``), so any seed
can be checked.  Pools are chosen so that every seed does about the same
amount of work: the seed changes the inputs, not the size of the sweep.
"""

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("area_fig5", "sop_fig6", "mc_validate", "cold_keys")

# fig5 path: N=50, r_th=5, the 100 m row only: it is frozen in test_04a.
# Every fig5 row costs 14-20 s at the seed commit (most of it in algo2), so
# one row is what lets a run hold two repetitions.  The seed picks the
# order of the four scheme invocations, which moves the cold-cache cost
# between them but not the total work.
AREA_SCHEMES = ("no_jam", "uniform", "algo2", "algo3")
AREA_DIST = 100.0

# fig6 path: N=100, r_th=10, 10 eavesdroppers, region +-30 deg, 50-200 m.
# One row per repetition, so that a run holds several repetitions.  Row
# cost grows from about 6.7 s at 60 m to over 20 s at 150 m; the row comes
# from the near end, where 60 m and 70 m cost within 1% of each other at
# the seed commit.
SOP_SCHEMES = ("no_jam", "uniform", "algo1", "algo3")
SOP_DISTS = (60.0, 70.0)

# Monte Carlo shapes: long vectors with one receiver, short vectors with
# many.  The phi values keep the closed-form SOP away from 0 and 1.
MC_SHAPES = (
    {"name": "n400_e1", "n_antennas": 400, "n_eves": 1, "phi": 0.1,
     "n_samples": 4000},
    {"name": "n100_e10", "n_antennas": 100, "n_eves": 10, "phi": 0.2,
     "n_samples": 1500},
)
MC_THREADS = (1, 2)
MC_MASTER_SEEDS = 64

# cold_keys: every row a new geometry or reference angle.  Row k takes
# base + k * step plus a seed-chosen offset, so the range (and the largest
# table) stays put while the keys change from seed to seed.
COLD_N_BASE, COLD_N_STEP, COLD_N_ROWS = 32, 8, 29
COLD_N_OFFSETS = (0, 2, 4, 6)
COLD_THETA_BASE, COLD_THETA_STEP, COLD_THETA_ROWS = -42.0, 6.0, 15
COLD_THETA_OFFSETS = (0.0, 1.5, 3.0, 4.5)
COLD_PHI = 0.3
# the maps use no_jam: uniform jamming at COLD_PHI extinguishes every side
# lobe, which would leave nearly every map sample at zero
COLD_MAP_GRID = 91


@dataclass
class Invocation:
    """One ``secrecy-sor`` call: its manifest, argv and how to check it.

    ``ref`` names the reference table; ``tols`` maps CSV columns to the
    comparison rule (see ``check.py``).  ``twin`` names an earlier
    invocation whose CSV must be byte-identical to this one's.
    """

    name: str
    command: str
    manifest: dict
    ref: str
    tols: dict
    extra_args: list = field(default_factory=list)
    twin: str = None

    def argv(self, manifest_path, out_path):
        return [self.command, "--manifest", manifest_path, "--out", out_path,
                *self.extra_args]

    def expected_rows(self):
        if self.command == "sor-map":
            return int(self.extra_args[self.extra_args.index("--grid") + 1])
        return len(self.manifest["sweep"]["grid"])


_PROB = ("abs", 1e-9)
_AREA = ("rel", 1e-6)


def _area_invocations(schemes):
    return [Invocation(
        name=f"area_{scheme}", command="optimize",
        manifest={"scenario": {"n_antennas": 50, "r_th": 5.0,
                               "bob_dist_m": AREA_DIST},
                  "sweep": {"parameter": "bob_dist_m", "grid": [AREA_DIST]},
                  "scheme": {"kind": scheme, "objective": "sor_area"}},
        ref=f"area_fig5/{scheme}", tols={"phi_opt": _PROB,
                                         "objective": _AREA})
        for scheme in schemes]


def _sop_invocations(distances):
    return [Invocation(
        name=f"sop_{scheme}", command="optimize",
        manifest={"scenario": {"n_antennas": 100, "r_th": 10.0,
                               "bob_dist_m": 100.0, "n_eves": 10},
                  "region": {"angles_deg": [-30.0, 30.0], "d_min_m": 50.0,
                             "d_max_m": 200.0},
                  "sweep": {"parameter": "bob_dist_m",
                            "grid": list(distances)},
                  "scheme": {"kind": scheme, "objective": "sop"}},
        ref=f"sop_fig6/{scheme}", tols={"phi_opt": _PROB,
                                        "objective": _PROB})
        for scheme in SOP_SCHEMES]


def _mc_invocations(master_seed):
    out = []
    for shape in MC_SHAPES:
        manifest = {
            "scenario": {"n_antennas": shape["n_antennas"], "r_th": 10.0,
                         "bob_dist_m": 100.0, "n_eves": shape["n_eves"]},
            "region": {"angles_deg": [-30.0, 30.0], "d_min_m": 50.0,
                       "d_max_m": 200.0},
            "sweep": {"parameter": "phi", "grid": [shape["phi"]]},
            "scheme": "uniform",
            "mc": {"n_samples": shape["n_samples"],
                   "master_seed": master_seed}}
        for threads in MC_THREADS:
            out.append(Invocation(
                name=f"mc_{shape['name']}_t{threads}", command="mc-validate",
                manifest=manifest, ref=f"mc_validate/{shape['name']}",
                tols={"phi_used": _PROB, "sop_closed": _PROB,
                      "sop_mc": ("mc3se", shape["n_samples"])},
                extra_args=["--threads", str(threads)],
                twin=(f"mc_{shape['name']}_t{MC_THREADS[0]}"
                      if threads != MC_THREADS[0] else None)))
    return out


def _cold_scenario(n_antennas=100):
    return {"n_antennas": n_antennas, "r_th": 5.0, "bob_dist_m": 100.0}


_COLD_REGION = {"angles_deg": [-60.0, 60.0], "d_min_m": 50.0,
                "d_max_m": 150.0}


def _cold_invocations(n_values, theta_values):
    out = [
        Invocation(
            name="cold_sop_n", command="sop",
            manifest={"scenario": _cold_scenario(), "region": _COLD_REGION,
                      "sweep": {"parameter": "n_antennas",
                                "grid": list(n_values)},
                      "scheme": {"kind": "uniform", "phi": COLD_PHI}},
            ref="cold_keys/sop_n", tols={"phi_used": _PROB, "sop": _PROB}),
        Invocation(
            name="cold_sop_theta", command="sop",
            manifest={"scenario": _cold_scenario(), "region": _COLD_REGION,
                      "sweep": {"parameter": "bob_theta_deg",
                                "grid": list(theta_values)},
                      "scheme": {"kind": "uniform", "phi": COLD_PHI}},
            ref="cold_keys/sop_theta", tols={"phi_used": _PROB,
                                             "sop": _PROB}),
    ]
    for n in n_values:
        out.append(Invocation(
            name=f"cold_map_n{n}", command="sor-map",
            manifest={"scenario": _cold_scenario(n), "scheme": "no_jam"},
            ref=f"cold_keys/map_n{n}",
            tols={"radius_m": _AREA},
            extra_args=["--grid", str(COLD_MAP_GRID)]))
    return out


def cold_n_values(offsets):
    return [COLD_N_BASE + COLD_N_STEP * k + o for k, o in enumerate(offsets)]


def cold_theta_values(offsets):
    return [COLD_THETA_BASE + COLD_THETA_STEP * k + o
            for k, o in enumerate(offsets)]


def master_seed(seed):
    """Monte Carlo master seed for a workload seed.

    The master seeds cycle through 1..64.  A 3-SE rule fails about 0.3% of
    unbiased estimates by chance; at the seed commit all 64 master seeds
    pass it at both shapes (largest |z| 2.3 at n400_e1, 2.8 at n100_e10),
    so a failure here means the program changed, not bad luck.
    """
    return 1 + seed % MC_MASTER_SEEDS


def build(workload, seed):
    """The invocations of one repetition of ``workload`` at ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "area_fig5":
        return _area_invocations(rng.sample(AREA_SCHEMES,
                                            len(AREA_SCHEMES)))
    if workload == "sop_fig6":
        return _sop_invocations([rng.choice(SOP_DISTS)])
    if workload == "mc_validate":
        return _mc_invocations(master_seed(seed))
    if workload == "cold_keys":
        n_off = [rng.choice(COLD_N_OFFSETS) for _ in range(COLD_N_ROWS)]
        th_off = [rng.choice(COLD_THETA_OFFSETS)
                  for _ in range(COLD_THETA_ROWS)]
        return _cold_invocations(cold_n_values(n_off),
                                 cold_theta_values(th_off))
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload):
    """Invocations covering every input any seed can pick (for recording
    the reference).  Monte Carlo rows are checked statistically, so one
    master seed stands for all."""
    if workload == "area_fig5":
        return _area_invocations(AREA_SCHEMES)
    if workload == "sop_fig6":
        return _sop_invocations(list(SOP_DISTS))
    if workload == "mc_validate":
        return [inv for inv in _mc_invocations(master_seed(0))
                if inv.twin is None]
    if workload == "cold_keys":
        n_all = sorted(cold_n_values([o] * COLD_N_ROWS)[k]
                       for o in COLD_N_OFFSETS for k in range(COLD_N_ROWS))
        th_all = sorted(cold_theta_values([o] * COLD_THETA_ROWS)[k]
                        for o in COLD_THETA_OFFSETS
                        for k in range(COLD_THETA_ROWS))
        return _cold_invocations(n_all, th_all)
    raise ValueError(f"unknown workload {workload!r}")


def write_manifests(invocations, directory):
    """Write each manifest; return [(invocation, argv, out_csv)]."""
    planned = []
    for inv in invocations:
        manifest_path = directory / f"{inv.name}.json"
        out_path = directory / f"{inv.name}.csv"
        manifest_path.write_text(json.dumps(inv.manifest, indent=1))
        planned.append((inv, inv.argv(str(manifest_path), str(out_path)),
                        out_path))
    return planned
