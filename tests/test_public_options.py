"""The public names, every parameter with a default across them and every
command-line flag, held to literal tables.

A public name is API a caller may come to rely on, and a parameter with a
default or a flag is an option a caller may set; each option multiplies the
configurations tests and benchmarks must cover.  Adding, removing or
renaming any of them has to be an explicit edit of these tables, and every
public name needs a caller outside the tests: the README, the CLI or the
benchmark.
"""

import argparse
import inspect
import re
from pathlib import Path

import secrecy_sor
from secrecy_sor.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = (
    # submodules
    "alloc", "asymptotic", "crosstalk", "errors", "mc_oracle", "multiuser",
    "sop",
    # errors
    "DegenerateArrayError", "InfeasibleRateError", "ResolutionWarning",
    # crosstalk
    "ArrayGeometry", "CrosstalkProfile", "crosstalk_cdf", "s_kernel",
    # asymptotic
    "PowerAllocation", "ScenarioConfig", "SorBoundary", "boundary_scale",
    "delta_theta_max", "lobe_radii", "phi_max", "side_lobe_area_bound",
    "sinr_bob_uniform", "sinr_eve_uniform", "sor_area",
    "sor_boundary_directional", "sor_boundary_nojam", "sor_boundary_uniform",
    "sor_constants",
    # sop
    "SuspiciousRegion", "is_jamming_beneficial", "jamming_beneficial_dmax",
    "sop_closed_form", "sop_intersection",
    # alloc
    "AllocationResult", "algorithm1_directional", "algorithm2_iterative",
    "algorithm3_two_lobes", "build_dft_basis", "grid_oracle_phi",
    "optimize_phi_uniform", "phi_opt_closed_form",
    # mc_oracle
    "McRunSpec", "empirical_sop",
    # multiuser
    "MultiuserScenario", "mu_sor_boundary", "mu_worst_area",
)

OPTIONS = {
    "McRunSpec": ("rician_k", "threads"),
    "MultiuserScenario": ("k_eb",),
    "PowerAllocation": ("beam_angles",),
    "ScenarioConfig": ("k_eb", "n_eves"),
    "mu_sor_boundary": ("jam_alloc",),
    "mu_worst_area": ("jam_alloc",),
    "optimize_phi_uniform": ("objective",),
    "sor_boundary_directional": ("theta_grid",),
    "sor_boundary_nojam": ("theta_grid",),
    "sor_boundary_uniform": ("theta_grid",),
}


def test_public_names_match_the_table():
    assert sorted(secrecy_sor.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 47


def test_every_public_name_has_a_caller():
    callers = [ROOT / "README.md", ROOT / "src" / "secrecy_sor" / "cli.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in callers)
    missing = [name for name in secrecy_sor.__all__
               if not re.search(rf"\b{name}\b", text)]
    assert not missing, missing


def _defaulted(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # builtin-derived classes such as plain exceptions
        return ()
    return tuple(p.name for p in params if p.default is not p.empty)


def test_public_options_match_the_table():
    found = {name: _defaulted(getattr(secrecy_sor, name))
             for name in secrecy_sor.__all__
             if callable(getattr(secrecy_sor, name))}
    assert {name: opts for name, opts in found.items() if opts} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 12


CLI_FLAGS = {
    "reproduce": ("--out", "--both-alpha"),
    "sor-map": ("--manifest", "--out", "--grid"),
    "sop": ("--manifest", "--out"),
    "optimize": ("--manifest", "--out"),
    "mc-validate": ("--manifest", "--out", "--threads"),
}


def test_command_line_flags_match_the_table():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    found = {name: tuple(flag for action in sub._actions
                         for flag in action.option_strings
                         if flag.startswith("--") and flag != "--help")
             for name, sub in commands.choices.items()}
    assert found == CLI_FLAGS
    assert sum(map(len, CLI_FLAGS.values())) == 12
