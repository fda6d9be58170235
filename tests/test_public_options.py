"""The public names, every parameter with a default across them and every
command-line flag, held to literal tables.

A public name is API a caller may come to rely on, and a parameter with a
default or a flag is an option a caller may set; each option multiplies the
configurations tests and benchmarks must cover.  Adding, removing or
renaming any of them has to be an explicit edit of these tables.
"""

import argparse
import inspect

import secrecy_sor
from secrecy_sor.cli import build_parser

PUBLIC_NAMES = (
    # submodules
    "alloc", "asymptotic", "crosstalk", "errors", "mc_oracle", "multiuser",
    "sop",
    # errors
    "DegenerateArrayError", "InfeasibleRateError", "ResolutionWarning",
    # crosstalk
    "ArrayGeometry", "CrosstalkProfile", "LobeLandmarks", "cross_points",
    "crosstalk_cdf", "delta_cdf", "peak_value", "s_kernel",
    "s_max_feasible", "steering_vector",
    # asymptotic
    "PowerAllocation", "ScenarioConfig", "SorBoundary", "boundary_scale",
    "delta_theta_max", "lobe_radii", "phi_max", "side_lobe_area_bound",
    "sinr_bob_uniform", "sinr_eve_uniform", "sor_area",
    "sor_boundary_directional", "sor_boundary_nojam", "sor_boundary_uniform",
    "sor_constants",
    # sop
    "SuspiciousRegion", "is_jamming_beneficial", "jamming_beneficial_dmax",
    "region_area", "sop_closed_form", "sop_intersection",
    "sor_region_overlap",
    # alloc
    "AllocationResult", "algorithm1_directional", "algorithm2_iterative",
    "algorithm3_two_lobes", "build_dft_basis", "grid_oracle_phi",
    "optimize_phi_uniform", "phi_opt_closed_form",
    # mc_oracle
    "McRunSpec", "empirical_crosstalk", "empirical_sinr", "empirical_sop",
    "null_space_basis", "secrecy_outage_count",
    # multiuser
    "MultiuserScenario", "mu_sor_boundary", "mu_worst_area",
)

OPTIONS = {
    "InfeasibleRateError": ("deficit",),
    "McRunSpec": ("rician_k", "threads"),
    "MultiuserScenario": ("k_eb",),
    "PowerAllocation": ("beam_angles",),
    "ScenarioConfig": ("k_eb", "n_eves"),
    "empirical_crosstalk": ("angles",),
    "mu_sor_boundary": ("jam_alloc", "theta_grid"),
    "mu_worst_area": ("jam_alloc",),
    "optimize_phi_uniform": ("objective",),
    "sor_boundary_directional": ("theta_grid",),
    "sor_boundary_nojam": ("theta_grid",),
    "sor_boundary_uniform": ("theta_grid",),
}


def test_public_names_match_the_table():
    assert sorted(secrecy_sor.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 59


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
    assert sum(map(len, OPTIONS.values())) == 15


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
