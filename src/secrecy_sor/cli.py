"""Command-line front end: manifest ingestion, figure-style sweeps, SOR maps,
and deterministic CSV emission.

Manifests are JSON.  Angles enter in degrees through keys carrying a ``_deg``
suffix; distances are meters, powers Watts.  Output is CSV with floats at 9
significant digits, NaN spelled ``nan``, and a trailing ``warning`` column;
runs with the same manifest and seed are byte-identical.
"""

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .alloc import (
    _region_beam_allocation,
    algorithm1_directional,
    algorithm2_iterative,
    algorithm3_two_lobes,
    grid_oracle_phi,
    optimize_phi_uniform,
    phi_opt_closed_form,
)
from .asymptotic import (
    ScenarioConfig,
    _uniform_allocation,
    lobe_radii,
    phi_max,
    sor_area,
    sor_boundary_directional,
)
from .crosstalk import ArrayGeometry
from .errors import DegenerateArrayError, InfeasibleRateError
from .mc_oracle import _SEED_LIMIT, McRunSpec, empirical_sop
from .sop import SuspiciousRegion, sop_closed_form, sop_intersection

_SCHEMES = ("no_jam", "uniform", "algo1", "algo2", "algo3")
_SWEEPABLE = ("phi", "bob_dist_m", "bob_theta_deg", "r_th", "n_antennas",
              "alpha", "k_eb", "p_tot_w", "n0_w", "n_eves")


class ManifestError(ValueError):
    """Validation failure at a specific manifest field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class GridValueError(ValueError):
    """A sweep grid value the scenario rejects; its row becomes NaN."""


_ROW_ERRORS = (InfeasibleRateError, DegenerateArrayError, GridValueError)


_MISSING = object()


def _field(block, key, prefix, default=_MISSING):
    if key in block:
        return block[key]
    if default is _MISSING:
        raise ManifestError(f"{prefix}.{key}", "missing required field")
    return default


def _finite(raw):
    """Whether ``raw`` is a JSON number with a finite float value (``json``
    also reads ``NaN``, ``Infinity`` and overflowing literals like 1e999)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:  # an integer beyond the float range
        return False


def _numbers(raw):
    """Whether ``raw`` is a list of finite numbers."""
    return isinstance(raw, list) and all(map(_finite, raw))


def _number(block, key, prefix, default=_MISSING, integer=False,
            minimum=None):
    raw = _field(block, key, prefix, default)
    if raw is None and default is None:
        return None
    if not _finite(raw):
        raise ManifestError(f"{prefix}.{key}",
                            f"expected a finite number, got {raw!r}")
    if integer and int(raw) != raw:
        raise ManifestError(f"{prefix}.{key}", f"expected an integer, got {raw!r}")
    val = int(raw) if integer else float(raw)
    if minimum is not None and val < minimum:
        raise ManifestError(f"{prefix}.{key}", f"must be >= {minimum}, got {val}")
    return val


def _reject_unknown(block, allowed, prefix):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ManifestError(f"{prefix}.{unknown[0]}", "unknown field")


def _parse_scenario(manifest):
    block = manifest.get("scenario")
    if not isinstance(block, dict):
        raise ManifestError("scenario", "missing or not an object")
    _reject_unknown(block, ("n_antennas", "spacing", "alpha", "p_tot_w",
                            "n0_w", "r_th", "bob_theta_deg", "bob_dist_m",
                            "k_eb", "n_eves"), "scenario")
    n = _number(block, "n_antennas", "scenario", integer=True, minimum=2)
    spacing = _number(block, "spacing", "scenario", default=0.5)
    alpha = _number(block, "alpha", "scenario", default=3.0)
    p_tot = _number(block, "p_tot_w", "scenario", default=1.0)
    n0 = _number(block, "n0_w", "scenario", default=1e-8)
    r_th = _number(block, "r_th", "scenario")
    theta = _number(block, "bob_theta_deg", "scenario", default=0.0)
    dist = _number(block, "bob_dist_m", "scenario")
    k_eb = _number(block, "k_eb", "scenario", default=1.0)
    n_eves = _number(block, "n_eves", "scenario", default=1, integer=True,
                     minimum=1)
    try:
        return ScenarioConfig(geometry=ArrayGeometry(n, spacing), alpha=alpha,
                              p_tot=p_tot, n0=n0, r_th=r_th,
                              bob_theta=math.radians(theta), bob_dist=dist,
                              k_eb=k_eb, n_eves=n_eves)
    except ValueError as exc:
        raise ManifestError("scenario", str(exc)) from exc


def _parse_region(manifest):
    block = manifest.get("region")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ManifestError("region", "not an object")
    _reject_unknown(block, ("angles_deg", "d_min_m", "d_max_m"), "region")
    angles = _field(block, "angles_deg", "region")
    if not _numbers(angles) or len(angles) != 2:
        raise ManifestError("region.angles_deg",
                            f"expected [lo, hi] in degrees, got {angles!r}")
    d_min = _number(block, "d_min_m", "region", minimum=0.0)
    d_max = _number(block, "d_max_m", "region")
    try:
        return SuspiciousRegion((math.radians(angles[0]),
                                 math.radians(angles[1])), d_min, d_max)
    except ValueError as exc:
        raise ManifestError("region", str(exc)) from exc


def _parse_sweep(manifest):
    block = manifest.get("sweep")
    if not isinstance(block, dict):
        raise ManifestError("sweep", "missing or not an object")
    _reject_unknown(block, ("parameter", "grid"), "sweep")
    parameter = _field(block, "parameter", "sweep")
    if parameter not in _SWEEPABLE:
        raise ManifestError("sweep.parameter",
                            f"unknown parameter {parameter!r}; "
                            f"one of {', '.join(_SWEEPABLE)}")
    grid = _field(block, "grid", "sweep")
    if not _numbers(grid):
        raise ManifestError("sweep.grid", "expected a list of finite numbers")
    if not grid:
        raise ManifestError("sweep.grid", "empty sweep grid")
    return parameter, np.asarray(grid, dtype=float)


def _parse_scheme(manifest):
    block = manifest.get("scheme")
    if isinstance(block, str):
        block = {"kind": block}
    if not isinstance(block, dict):
        raise ManifestError("scheme", "missing or not an object")
    _reject_unknown(block, ("kind", "phi", "objective"), "scheme")
    kind = _field(block, "kind", "scheme")
    if kind not in _SCHEMES:
        raise ManifestError("scheme.kind",
                            f"unknown scheme {kind!r}; one of "
                            f"{', '.join(_SCHEMES)}")
    phi = _number(block, "phi", "scheme", default=None)
    if phi is not None:
        if kind != "uniform":
            raise ManifestError("scheme.phi",
                                "fixed phi is only valid for the uniform "
                                "scheme")
        if not 0.0 <= phi <= 1.0:
            raise ManifestError("scheme.phi", f"must lie in [0, 1], got {phi}")
    objective = _field(block, "objective", "scheme", default=None)
    if objective is not None and objective not in ("sop", "sor_area"):
        raise ManifestError("scheme.objective",
                            f"expected 'sop' or 'sor_area', got {objective!r}")
    return kind, phi, objective


def _parse_mc(manifest):
    block = manifest.get("mc")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ManifestError("mc", "not an object")
    _reject_unknown(block, ("n_samples", "master_seed"), "mc")
    n_samples = _number(block, "n_samples", "mc", integer=True, minimum=1)
    seed = _number(block, "master_seed", "mc", default=0, integer=True,
                   minimum=0)
    if seed >= _SEED_LIMIT:
        raise ManifestError("mc.master_seed",
                            f"must be below 2**128, got {seed}")
    return {"n_samples": n_samples, "master_seed": seed}


@dataclass
class ExperimentManifest:
    scenario: ScenarioConfig
    region: object
    sweep: object
    scheme: object
    mc: object
    output_path: object


def load_manifest(path, command):
    """Parsed manifest for ``command``, with every field and command x
    scheme requirement checked (``ManifestError`` otherwise)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ManifestError("manifest", f"cannot read {path}: {exc}") from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError("manifest", f"invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError("manifest", "top level must be an object")
    _reject_unknown(manifest, ("scenario", "region", "sweep", "scheme", "mc",
                               "output_path"), "manifest")
    scenario = _parse_scenario(manifest)
    region = _parse_region(manifest)
    kind, phi, objective = _parse_scheme(manifest)
    sweep = _parse_sweep(manifest) \
        if command != "sor-map" or "sweep" in manifest else None
    mc = _parse_mc(manifest)
    output_path = manifest.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ManifestError("output_path", "must be a string")
    if command in ("sop", "mc-validate") and region is None:
        raise ManifestError("region", "missing (required for this command)")
    if kind == "algo1" and region is None:
        raise ManifestError("region", "missing (required for scheme algo1)")
    if command == "mc-validate" and mc is None:
        raise ManifestError("mc", "missing (required for mc-validate)")
    if command != "optimize" and objective is not None:
        raise ManifestError("scheme.objective",
                            f"only optimize takes an objective ({command} "
                            "scores the allocation it is given)")
    if command == "optimize":
        if phi is not None:
            raise ManifestError("scheme.phi",
                                "optimize chooses phi; drop the fixed phi")
        if sweep[0] == "phi":
            raise ManifestError("sweep.parameter",
                                "optimize chooses phi; sweep a scenario "
                                "parameter instead")
        if objective is None:
            objective = "sop" if region is not None else "sor_area"
        if objective == "sop" and region is None:
            raise ManifestError("region",
                                "missing (required for objective sop)")
    if command == "sor-map" and kind == "uniform" and phi is None:
        raise ManifestError("scheme.phi",
                            "required for sor-map with scheme uniform")
    if sweep is not None and sweep[0] == "phi" \
            and kind not in ("uniform", "algo1"):
        raise ManifestError("sweep.parameter",
                            "a phi sweep needs scheme uniform or algo1 "
                            "(the other schemes choose phi themselves)")
    return ExperimentManifest(scenario, region, sweep, (kind, phi, objective),
                              mc, output_path)


def _apply_sweep(cfg, parameter, value):
    """New config (and a phi override for parameter 'phi') at a grid value;
    ``GridValueError`` when the scenario rejects the value."""
    if parameter == "phi":
        if not 0.0 <= value <= 1.0:
            raise GridValueError(f"phi grid value {value} outside [0, 1]")
        return cfg, float(value)
    if parameter in ("n_antennas", "n_eves") \
            and not float(value).is_integer():
        raise GridValueError(f"{parameter} grid value {value} is not integer")
    field_map = {"bob_dist_m": "bob_dist", "r_th": "r_th", "alpha": "alpha",
                 "k_eb": "k_eb", "p_tot_w": "p_tot", "n0_w": "n0"}
    try:
        if parameter == "n_antennas":
            geometry = ArrayGeometry(int(value), cfg.geometry.spacing)
            return replace(cfg, geometry=geometry), None
        if parameter == "n_eves":
            return replace(cfg, n_eves=int(value)), None
        if parameter == "bob_theta_deg":
            return replace(cfg, bob_theta=math.radians(value)), None
        return replace(cfg, **{field_map[parameter]: float(value)}), None
    except ValueError as exc:
        raise GridValueError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value):
    if isinstance(value, str):
        return value
    value = float(value)
    return "nan" if math.isnan(value) else f"{value:.9g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class _RowGuard:
    """Collects warnings and row-level failures into the warning column."""

    def __init__(self):
        self.notes = []

    def run(self, fn, n_values):
        """fn() -> tuple of metrics; on failure the row turns into NaNs."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                values = fn()
            except _ROW_ERRORS as exc:
                values = (math.nan,) * n_values
                caught = list(caught)
                caught.append(exc)
        note = "; ".join(
            str(getattr(c, "message", c)) for c in caught).replace(",", ";")
        if note:
            self.notes.append(note)
        return tuple(values) + (note,)


# ---------------------------------------------------------------------------
# The scheme pipeline shared by every subcommand and figure: a scheme picks
# an allocation of the noise budget, then the allocation is scored

def _score(cfg, region, alloc, objective):
    """SOP (``objective`` "sop") or outage area ("sor_area") of an
    allocation."""
    if objective == "sor_area":
        return sor_area(sor_boundary_directional(cfg, alloc))
    if alloc.basis == "null_space_uniform":
        return sop_closed_form(cfg, alloc.phi, region)
    if alloc.phi >= phi_max(cfg):
        return 1.0  # Bob misses the target rate: secrecy always fails
    return sop_intersection(sor_boundary_directional(cfg, alloc), region,
                            cfg.n_eves)


def _scheme(cfg, region, kind, phi, objective):
    """(phi, allocation, value) of one scheme.

    A fixed ``phi`` sets the fraction of ``uniform``, or of ``algo1``'s
    split over the region's beams; otherwise the scheme runs its search,
    once (``uniform`` on ``objective``).  ``value`` scores the allocation
    by ``objective`` ("sop" or "sor_area"), reusing the search's own value
    where the search optimized that objective; it is None when
    ``objective`` is None.
    """
    if kind == "no_jam":
        alloc = _uniform_allocation(cfg, 0.0)
    elif phi is not None:
        alloc = _uniform_allocation(cfg, phi) if kind == "uniform" \
            else _region_beam_allocation(cfg, region, phi)
    else:
        if kind == "uniform":
            res = optimize_phi_uniform(cfg, region, objective=objective)
            searched = objective
        elif kind == "algo1":
            res = algorithm1_directional(cfg, region)
            searched = "sop"
        else:
            res = algorithm2_iterative(cfg) if kind == "algo2" \
                else algorithm3_two_lobes(cfg)
            searched = "sor_area"
        alloc = res.allocation
        if objective == searched:
            return alloc.phi, alloc, res.objective
    value = None if objective is None else _score(cfg, region, alloc,
                                                  objective)
    return alloc.phi, alloc, value


# ---------------------------------------------------------------------------
# Figure-style sweeps with the reference constants: d_0=0.5, alpha=3,
# P_tot=1 W, N_0=1e-8 W, pure-LOS crosstalk, theta_b=0.

def _reference_cfg(n_antennas, r_th, bob_dist, alpha=3.0, n_eves=1):
    return ScenarioConfig(geometry=ArrayGeometry(n_antennas, 0.5),
                          alpha=alpha, p_tot=1.0, n0=1e-8, r_th=r_th,
                          bob_theta=0.0, bob_dist=bob_dist, n_eves=n_eves)


def _table(names, keys, columns, metrics):
    """(header, rows, guard) of a figure or sweep table: one row per key
    tuple, its values under ``names`` and then ``metrics(*key)`` under
    ``columns``; a row whose metrics fail turns into NaNs, and its warning
    column says why."""
    guard = _RowGuard()
    rows = [key + guard.run(lambda: metrics(*key), len(columns))
            for key in keys]
    return names + columns + ["warning"], rows, guard


def _fig2(both_alpha):
    cfgs = {alpha: _reference_cfg(100, 10.0, 100.0, alpha=alpha)
            for alpha in ((3.0, 2.0) if both_alpha else (3.0,))}
    keys = [(alpha, phi) for alpha, cfg in cfgs.items()
            for phi in np.arange(0.0, phi_max(cfg), 0.005)]
    return _table(["alpha", "phi"], keys,
                  [f"lobe{m}_m" for m in range(7)],
                  lambda alpha, phi: tuple(lobe_radii(cfgs[alpha], phi)[:7]))


def _fig3():
    region = SuspiciousRegion((math.radians(-15.0), math.radians(15.0)),
                              50.0, 100.0)
    cfg100 = _reference_cfg(100, 10.0, 100.0, n_eves=10)
    cfg50 = _reference_cfg(50, 10.0, 100.0, n_eves=10)

    def metrics(phi):
        return tuple(_scheme(cfg, region, kind, phi, "sop")[2]
                     for cfg, kind in ((cfg100, "uniform"), (cfg100, "algo1"),
                                       (cfg50, "uniform")))
    return _table(["phi"], [(min(float(phi), 1.0),)
                            for phi in np.arange(0.0, 1.005, 0.01)],
                  ["sop_uniform_nt100", "sop_directional_nt100",
                   "sop_uniform_nt50"], metrics)


def _fig4():
    configs = [("nt50_db100", _reference_cfg(50, 5.0, 100.0)),
               ("nt100_db100", _reference_cfg(100, 5.0, 100.0)),
               ("nt100_db150", _reference_cfg(100, 5.0, 150.0))]
    d_min = 50.0

    def metrics(s_eb):
        return tuple(phi for _, cfg in configs
                     for phi in (phi_opt_closed_form(cfg, s_eb, d_min)[0],
                                 grid_oracle_phi(cfg, s_eb, d_min)))
    return _table(["s_eb"], [(s_eb,) for s_eb in np.linspace(0.05, 0.95, 20)],
                  [f"phi_{kind}_{name}" for name, _ in configs
                   for kind in ("closed", "oracle")], metrics)


# fig5 and fig6: one row per Bob distance
_FIG_DISTS = [(d,) for d in np.arange(60.0, 160.0 + 5.0, 10.0)]


def _fig5():
    def metrics(bob_dist):
        cfg = _reference_cfg(50, 5.0, float(bob_dist))
        return tuple(_scheme(cfg, None, kind, None, "sor_area")[2]
                     for kind in ("no_jam", "uniform", "algo2", "algo3"))
    return _table(["bob_dist_m"], _FIG_DISTS,
                  ["area_no_jam_m2", "area_uniform_m2", "area_algo2_m2",
                   "area_algo3_m2"], metrics)


def _fig6():
    region = SuspiciousRegion((math.radians(-30.0), math.radians(30.0)),
                              50.0, 200.0)

    def metrics(bob_dist):
        cfg = _reference_cfg(100, 10.0, float(bob_dist), n_eves=10)
        return tuple(_scheme(cfg, region, kind, None, "sop")[2]
                     for kind in ("no_jam", "uniform", "algo1", "algo3"))
    return _table(["bob_dist_m"], _FIG_DISTS,
                  ["sop_no_jam", "sop_uniform", "sop_algo1", "sop_algo3"],
                  metrics)


# ---------------------------------------------------------------------------
# Manifest-driven subcommands

def _sweep(manifest, objective, columns, extend=None):
    """(header, rows, guard) over the manifest's sweep: per grid value, the
    scheme's fraction and ``objective`` value, followed by
    ``extend(cfg, allocation)`` when given."""
    parameter, values = manifest.sweep
    kind, fixed_phi, _ = manifest.scheme

    def metrics(value):
        cfg, phi = _apply_sweep(manifest.scenario, parameter, value)
        used, alloc, score = _scheme(cfg, manifest.region, kind,
                                     fixed_phi if phi is None else phi,
                                     objective)
        return (used, score) + (extend(cfg, alloc) if extend else ())
    return _table([parameter], [(value,) for value in values], columns,
                  metrics)


def _run_mc_validate(manifest, threads):
    mc = manifest.mc
    spec = McRunSpec(n_samples=mc["n_samples"],
                     master_seed=mc["master_seed"], threads=threads)

    def monte_carlo(cfg, alloc):
        empirical = empirical_sop(cfg, alloc, manifest.region, spec)
        se = math.sqrt(max(empirical * (1.0 - empirical), 1e-12)
                       / mc["n_samples"])
        return empirical, se
    return _sweep(manifest, "sop",
                  ["phi_used", "sop_closed", "sop_mc", "binom_se"],
                  monte_carlo)


def _run_sor_map(manifest, n_points):
    kind, phi, _ = manifest.scheme
    cfg = manifest.scenario
    thetas = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_points)
    guard = _RowGuard()

    def boundary_radii():
        _, alloc, _ = _scheme(cfg, manifest.region, kind, phi, None)
        return sor_boundary_directional(cfg, alloc, thetas).radii
    *radii, note = guard.run(boundary_radii, thetas.size)
    rows = [(math.degrees(th), r, note) for th, r in zip(thetas, radii)]
    return ["theta_deg", "radius_m", "warning"], rows, guard


# ---------------------------------------------------------------------------
# Entry point

@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="secrecy-sor",
        description="Secrecy outage regions and probabilities for a massive "
                    "MIMO transmitter with artificial-noise jamming.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce",
                         help="rebuild one of the reference figure sweeps")
    rep.add_argument("figure",
                     choices=["fig2", "fig3", "fig4", "fig5", "fig6"])
    rep.add_argument("--out", help="output CSV path (default <figure>.csv)")
    rep.add_argument("--both-alpha", action="store_true",
                     help="fig2: emit an alpha=2 block after the alpha=3 one")

    def manifest_parser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="JSON manifest path")
        p.add_argument("--out", help="output CSV path "
                                     "(default: manifest output_path)")
        return p

    p_map = manifest_parser("sor-map",
                            "polar boundary samples for one scheme")
    p_map.add_argument("--grid", type=int, default=721,
                       help="number of theta samples (default 721)")
    manifest_parser("sop", "secrecy outage probability sweep")
    manifest_parser("optimize", "optimal jamming fraction sweep")
    p_mc = manifest_parser("mc-validate",
                           "closed form vs finite-antenna Monte Carlo")
    p_mc.add_argument("--threads", type=int, default=1,
                      help="accepted and checked (at least 1); results "
                           "do not depend on it (default 1)")
    return parser


def _reproduce(args):
    if args.both_alpha and args.figure != "fig2":
        raise ManifestError("--both-alpha", f"{args.figure} does not use it")
    if args.figure == "fig2":
        return _fig2(args.both_alpha)
    return {"fig3": _fig3, "fig4": _fig4, "fig5": _fig5,
            "fig6": _fig6}[args.figure]()


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "reproduce":
            header, rows, guard = _reproduce(args)
            label = f"reproduce {args.figure}"
            out = args.out or f"{args.figure}.csv"
        else:
            manifest = load_manifest(args.manifest, args.command)
            if args.command == "sor-map":
                if args.grid < 2:
                    raise ManifestError("--grid", "need at least 2 samples")
                header, rows, guard = _run_sor_map(manifest, args.grid)
            elif args.command == "sop":
                header, rows, guard = _sweep(manifest, "sop",
                                             ["phi_used", "sop"])
            elif args.command == "optimize":
                header, rows, guard = _sweep(manifest, manifest.scheme[2],
                                             ["phi_opt", "objective"])
            else:
                if args.threads < 1:
                    raise ManifestError("--threads", "must be >= 1")
                header, rows, guard = _run_mc_validate(manifest,
                                                       args.threads)
            out = args.out or manifest.output_path \
                or f"{args.command.replace('-', '_')}.csv"
            label = args.command
    except ManifestError as exc:
        print(f"manifest error at {exc}", file=sys.stderr)
        return 2
    _write_csv(out, header, rows)
    elapsed = time.monotonic() - started
    print(f"{label}: wrote {out} ({len(rows)} rows, {len(guard.notes)} "
          f"warnings) in {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
