"""Per-user outage regions when several users share the array."""

import numpy as np
import pytest

from secrecy_sor import (
    ArrayGeometry,
    InfeasibleRateError,
    MultiuserScenario,
    PowerAllocation,
    mu_sor_boundary,
    mu_worst_area,
    sor_area,
    sor_boundary_uniform,
)

G64 = ArrayGeometry(64, 0.5)


def test_scenario_validation():
    with pytest.raises(ValueError):
        MultiuserScenario(G64, 3.0, 1e-8, 5.0, (), (), ())
    with pytest.raises(ValueError):
        MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1, 0.2), (90.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1,), (90.0,), (-1.0,))
    # closer than one main-lobe width in the sine domain -> rejected
    with pytest.raises(ValueError, match="main-lobe width"):
        MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1, 0.12), (90.0, 70.0),
                          (1.0, 0.8))


def test_single_user_equals_standalone_boundary():
    scn = MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1,), (90.0,), (1.0,))
    b_mu = mu_sor_boundary(scn, 0)
    b_one = sor_boundary_uniform(scn.user_config(0), 0.0)
    assert np.array_equal(b_mu.radii, b_one.radii)
    area, worst = mu_worst_area(scn)
    assert worst == 0
    assert abs(area - sor_area(b_one)) < 1e-9


def test_co_user_beam_only_shrinks():
    scn2 = MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1, -0.35), (90.0, 70.0),
                             (1.0, 0.8))
    solo = sor_boundary_uniform(scn2.user_config(0), 0.0)
    joint = mu_sor_boundary(scn2, 0)
    assert np.all(joint.radii <= solo.radii + 1e-9)
    a_solo, a_joint = sor_area(solo), sor_area(joint)
    print(f"user 0 area: alone {a_solo:.2f} -> shared {a_joint:.2f}")
    assert abs(a_solo - 2178.4954116936037) < 1e-6
    assert abs(a_joint - 1244.3884568157357) < 1e-6


def test_worst_user_and_tie_break():
    scn2 = MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1, -0.35), (90.0, 70.0),
                             (1.0, 0.8))
    area, worst = mu_worst_area(scn2)
    parts = [sor_area(mu_sor_boundary(scn2, u)) for u in range(2)]
    assert worst == int(np.argmax(parts))
    assert abs(area - max(parts)) < 1e-12
    # mirror-symmetric pair: equal areas, tie goes to the smaller index
    scn_m = MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.3, -0.3), (90.0, 90.0),
                              (1.0, 1.0))
    a0 = sor_area(mu_sor_boundary(scn_m, 0))
    a1 = sor_area(mu_sor_boundary(scn_m, 1))
    assert abs(a0 - a1) <= 1e-9 * a0
    assert mu_worst_area(scn_m)[1] == 0


def test_dedicated_noise_budget_helps_every_user():
    scn_m = MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.3, -0.3), (90.0, 90.0),
                              (1.0, 1.0))
    base, _ = mu_worst_area(scn_m)
    jam = PowerAllocation(0.0, np.array([0.15]), "null_space_uniform")
    jammed, _ = mu_worst_area(scn_m, jam)
    print(f"worst area {base:.2f} -> {jammed:.2f} with 0.15 W null-space noise")
    assert jammed < base


def test_beams_toward_worst_lobes_beat_beams_elsewhere():
    scn2 = MultiuserScenario(G64, 3.0, 1e-8, 5.0, (0.1, -0.35), (90.0, 70.0),
                             (1.0, 0.8))
    _, worst = mu_worst_area(scn2)
    sb = np.sin(scn2.user_thetas[worst])
    width = 1.0 / (64 * 0.5)
    toward = PowerAllocation(0.0, np.array([0.1, 0.1]), "dft_selected",
                             np.arcsin(np.clip([sb - 1.5 * width,
                                                sb + 1.5 * width], -1, 1)))
    away = PowerAllocation(0.0, np.array([0.1, 0.1]), "dft_selected",
                           np.arcsin(np.clip([sb - 0.9, sb + 0.55], -1, 1)))
    a_toward = sor_area(mu_sor_boundary(scn2, worst, toward))
    a_away = sor_area(mu_sor_boundary(scn2, worst, away))
    print(f"toward {a_toward:.2f} away {a_away:.2f}")
    assert a_toward < 0.5 * a_away


def test_infeasible_user_is_identified():
    scn = MultiuserScenario(G64, 3.0, 1e-8, 14.0, (0.1, -0.35),
                            (50.0, 5000.0), (1.0, 0.8))
    with pytest.raises(InfeasibleRateError, match="^user 1: "):
        mu_sor_boundary(scn, 1)
    # user 0 remains computable
    assert sor_area(mu_sor_boundary(scn, 0)) > 0
