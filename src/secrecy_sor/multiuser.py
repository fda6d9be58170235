"""Several legitimate users served by the same array.

Each user gets a maximum-ratio beam carrying their own power budget; every
other user's beam doubles as jamming toward an eavesdropper trying to
intercept them, on top of any dedicated noise allocation.  Users must be
separated by at least one full main-lobe width so the beams stay
effectively orthogonal and each user's rate constraint involves only their
own beam (inter-user interference at the legitimate receivers vanishes in
the large-array limit this module works in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotic import (
    ScenarioConfig,
    _beam_responses,
    _sor_boundary,
    boundary_scale,
    sor_area,
)
from .crosstalk import ArrayGeometry, s_kernel
from .errors import InfeasibleRateError


@dataclass(frozen=True)
class MultiuserScenario:
    """Shared array, per-user beams.

    ``user_powers[u]`` is the signal power (Watts) on user ``u``'s beam;
    there is no pooled budget.  All users share the target rate and the
    eavesdropper geometry statistics.
    """

    geometry: ArrayGeometry
    alpha: float
    n0: float
    r_th: float
    user_thetas: tuple
    user_dists: tuple
    user_powers: tuple
    k_eb: float = 1.0

    def __post_init__(self):
        for name in ("user_thetas", "user_dists", "user_powers"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        n_users = len(self.user_thetas)
        if n_users < 1:
            raise ValueError("need at least one user")
        if len(self.user_dists) != n_users or len(self.user_powers) != n_users:
            raise ValueError("user_thetas, user_dists, user_powers must align")
        for u in range(n_users):
            try:
                self.user_config(u)
            except ValueError as exc:
                raise ValueError(f"user {u}: {exc}") from exc
        geom = self.geometry
        gap = 2.0 / (geom.n_antennas * geom.spacing)
        sins = np.sin(self.user_thetas)
        for u in range(n_users):
            for v in range(u + 1, n_users):
                if abs(sins[u] - sins[v]) < gap:
                    raise ValueError(
                        f"users {u} and {v} are closer than one main-lobe "
                        f"width ({gap:.4g} in the sine domain); their beams "
                        "would not separate")

    @property
    def n_users(self):
        return len(self.user_thetas)

    def user_config(self, user_index):
        """Single-user view of one user (their beam only)."""
        return ScenarioConfig(
            geometry=self.geometry, alpha=self.alpha,
            p_tot=self.user_powers[user_index], n0=self.n0, r_th=self.r_th,
            bob_theta=self.user_thetas[user_index],
            bob_dist=self.user_dists[user_index], k_eb=self.k_eb)


def mu_sor_boundary(scn, user_index, jam_alloc=None):
    """Secrecy outage boundary for one user.

    An eavesdropper after user ``u`` receives u's beam through the crosstalk
    kernel and is disturbed by every other user's beam plus the optional
    dedicated noise allocation.  A ``null_space_uniform`` allocation avoids
    all user beams at once, so the noise an eavesdropper collects scales
    with whatever fraction of her channel the beams leave uncovered.
    An ``InfeasibleRateError`` names the user (``"user 1: ..."``).
    """
    if not 0 <= user_index < scn.n_users:
        raise ValueError("user_index out of range")
    cfg_u = scn.user_config(user_index)
    try:
        scale = boundary_scale(cfg_u, 0.0)
    except InfeasibleRateError as err:
        raise InfeasibleRateError(f"user {user_index}: {err}") from err
    others = [v for v in range(scn.n_users) if v != user_index]
    powers = np.array(scn.user_powers)[others]
    angles = np.array(scn.user_thetas)[others]

    def noise(thetas):
        jam = powers @ _beam_responses(cfg_u, thetas, angles)
        if jam_alloc is None:
            return jam
        if jam_alloc.basis != "null_space_uniform":
            return jam + jam_alloc.beam_powers @ _beam_responses(
                cfg_u, thetas, jam_alloc.beam_angles)
        sin_th = np.sin(thetas)
        covered = sum(scn.k_eb * s_kernel(sin_th - np.sin(t), scn.geometry)
                      for t in scn.user_thetas)
        return jam + (np.sum(jam_alloc.beam_powers) / scn.n0) \
            * np.maximum(1.0 - covered, 0.0)
    return _sor_boundary(cfg_u, None, scale, noise)


def mu_worst_area(scn, jam_alloc=None):
    """(area, user_index) of the user with the largest outage region; ties
    go to the smallest index."""
    areas = [sor_area(mu_sor_boundary(scn, u, jam_alloc))
             for u in range(scn.n_users)]
    worst = int(np.argmax(areas))
    return float(areas[worst]), worst
