"""Secrecy outage regions and outage probabilities for a large uniform linear
array that superimposes artificial noise on its data beam.

The package is organized bottom-up:

- ``crosstalk``:  the angular crosstalk kernel and the crosstalk
  distribution for a uniformly random angle.
- ``asymptotic``: large-array secrecy outage region (SOR) boundaries for
  uniform and directional jamming, lobe radii, angular reach, region areas
  and the uniform-jamming SINRs.
- ``sop``:        secrecy outage probability (SOP) against randomly located
  eavesdroppers, closed form and geometric, plus the "does jamming help" test.
- ``alloc``:      jamming power optimization - closed forms, grid oracles, and
  the three directional allocation algorithms.
- ``mc_oracle``:  finite-antenna Monte Carlo engine used as an independent
  check of every closed form.
- ``multiuser``:  per-user SOR boundaries when several users share the array.
- ``cli``:        the ``secrecy-sor`` command line front end.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, before numpy loads: a second BLAS thread doubles the CPU time
of ``reproduce`` without shortening it.  Set the variable to override it;
it has no effect if numpy was imported first.
"""

import os as _os

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DegenerateArrayError, InfeasibleRateError, ResolutionWarning
from .crosstalk import (
    ArrayGeometry,
    CrosstalkProfile,
    crosstalk_cdf,
    s_kernel,
)
from .asymptotic import (
    PowerAllocation,
    ScenarioConfig,
    SorBoundary,
    boundary_scale,
    delta_theta_max,
    lobe_radii,
    phi_max,
    side_lobe_area_bound,
    sinr_bob_uniform,
    sinr_eve_uniform,
    sor_area,
    sor_boundary_directional,
    sor_boundary_nojam,
    sor_boundary_uniform,
    sor_constants,
)
from .sop import (
    SuspiciousRegion,
    is_jamming_beneficial,
    jamming_beneficial_dmax,
    sop_closed_form,
    sop_intersection,
)
from .alloc import (
    AllocationResult,
    algorithm1_directional,
    algorithm2_iterative,
    algorithm3_two_lobes,
    build_dft_basis,
    grid_oracle_phi,
    optimize_phi_uniform,
    phi_opt_closed_form,
)
from .mc_oracle import McRunSpec, empirical_sop
from .multiuser import MultiuserScenario, mu_sor_boundary, mu_worst_area

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
