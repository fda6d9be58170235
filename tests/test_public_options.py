"""Every parameter with a default across the public API, held to a literal
table.

A parameter with a default is an option a caller may set, and each one
multiplies the configurations tests and benchmarks must cover.  Adding,
removing or renaming one has to be an explicit edit of this table.
"""

import inspect

import secrecy_sor

OPTIONS = {
    "InfeasibleRateError": ("deficit",),
    "McRunSpec": ("rician_k", "threads"),
    "MultiuserScenario": ("k_eb",),
    "PowerAllocation": ("beam_angles",),
    "ScenarioConfig": ("k_eb", "n_eves"),
    "SorBoundary": ("lobes",),
    "algorithm1_directional": ("phi_step",),
    "empirical_crosstalk": ("angles",),
    "mu_sor_boundary": ("jam_alloc", "theta_grid"),
    "mu_worst_area": ("jam_alloc",),
    "optimize_phi_uniform": ("objective", "phi_step"),
    "sor_boundary_directional": ("theta_grid",),
    "sor_boundary_nojam": ("theta_grid",),
    "sor_boundary_uniform": ("theta_grid",),
}


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
    assert sum(map(len, OPTIONS.values())) == 18
