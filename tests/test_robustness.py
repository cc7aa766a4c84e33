from dataclasses import replace

import numpy as np
import pytest

from cefc.controller import shed_weights
from cefc import gridsim
from cefc.gridsim import Scenario, simulate
from cefc.koopman import InsufficientHistoryError, KoopmanModel, lift, method_config, prediction_start
from cefc.robustness import (
    FeederSpec,
    _measured_window,
    brute_force_mode,
    check_prop1,
    enumerate_modes,
    mode_hamiltonian_values,
    select_mode,
    solve_costate,
)


@pytest.fixture(scope="module")
def feeders():
    return FeederSpec.uniform(3, 40.0, 3)


@pytest.fixture(scope="module")
def modes(feeders, cefc_model, node_base):
    return enumerate_modes(feeders, cefc_model, node_base)


class TestFeederSpec:
    def test_uniform_layout(self, feeders):
        assert feeders.n_feeders == 3
        assert np.array_equal(feeders.nodes, [0, 1, 2])
        assert np.all(feeders.quanta_mw == 40.0)

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(ValueError):
            FeederSpec(quanta_mw=[40.0, 40.0], nodes=[0])

    @pytest.mark.parametrize(
        "n_feeders, quantum",
        [(2, float("inf")), (2, float("nan")), (2, -40.0), (2, 0.0), (0, 40.0), (-1, 40.0)],
    )
    def test_invalid_uniform_feeders_rejected(self, n_feeders, quantum):
        with pytest.raises(ValueError, match="feeder"):
            FeederSpec.uniform(n_feeders, quantum, 3)

    def test_one_invalid_quantum_rejected(self):
        with pytest.raises(ValueError, match="quanta"):
            FeederSpec(quanta_mw=[40.0, float("inf")], nodes=[0, 1])


class TestEnumerateModes:
    def test_three_binary_feeders_give_eight_modes(self, modes):
        assert modes.n_modes == 8
        # lexicographic: first mode sheds nothing, last sheds every feeder
        assert np.array_equal(modes.modes[0], [0, 0, 0])
        assert np.array_equal(modes.modes[-1], [1, 1, 1])

    def test_no_shed_mode_has_zero_cost_and_column(self, modes):
        assert modes.costs[0] == 0.0
        assert np.all(modes.B_modes[0] == 0.0)
        assert np.all(modes.costs[1:] > 0.0)

    def test_shed_ratio_scales_with_the_quantum(self, feeders, cefc_model, node_base):
        ms = enumerate_modes(feeders, cefc_model, node_base)
        assert np.isclose(ms.shed_ratio[-1, 0], 40.0 / node_base[0])

    @pytest.mark.parametrize("dt, steps", [(0.1, 299), (0.05, 599)])
    def test_modes_are_charged_over_the_decision_horizon_at_the_model_sample_time(self, feeders, node_base, dt, steps):
        model = KoopmanModel(np.eye(1), np.ones((1, len(node_base))), np.zeros((1, 2)), method_config("dmd", dt=dt))
        ms = enumerate_modes(feeders, model, node_base)
        per_step = np.einsum("ij,j,ij->i", ms.shed_ratio, shed_weights(node_base), ms.shed_ratio)
        assert np.array_equal(ms.costs, steps * per_step)

    def test_mode_cap(self, cefc_model, node_base):
        wide = FeederSpec.uniform(13, 10.0, 3)
        with pytest.raises(ValueError):
            enumerate_modes(wide, cefc_model, node_base)


class TestSwitchedDynamics:
    def test_step_is_affine_in_the_mode_column(self, modes, cefc_model):
        # at the unit costate e_j the Hamiltonian reads off component j of the
        # switched step A g + B_i, plus the mode cost
        g = np.arange(cefc_model.dim, dtype=float) / cefc_model.dim
        eye = np.eye(cefc_model.dim)
        steps = np.stack(
            [mode_hamiltonian_values(eye[j], g, modes, cefc_model.A) - modes.costs for j in range(cefc_model.dim)],
            axis=1,
        )
        assert np.allclose(steps, cefc_model.A @ g + modes.B_modes)
        assert np.allclose(steps[5], cefc_model.A @ g + modes.B_modes[5])


class TestCostate:
    def test_zero_boundary_collapses_the_trajectory(self):
        lam = solve_costate(np.diag([0.9, 0.8]), 50)
        assert np.all(lam == 0.0)


class TestHamiltonianRanking:
    def test_zero_costate_reduces_values_to_costs(self, modes, cefc_model):
        g = np.zeros(cefc_model.dim)
        vals = mode_hamiltonian_values(np.zeros(cefc_model.dim), g, modes, cefc_model.A)
        diffs = vals[:, None] - vals[None, :]
        cost_diffs = modes.costs[:, None] - modes.costs[None, :]
        assert np.array_equal(diffs, cost_diffs)

    def test_select_mode_breaks_ties_low(self):
        assert select_mode([3.0, 1.0, 1.0, 2.0]) == 1
        with pytest.raises(ValueError):
            select_mode([])


class TestCheckProp1:
    def test_learned_equals_oracle_holds(self, grid, cefc_model, limits, feeders):
        scenario = Scenario(inertia_scale=0.85, trip_set=(1, 2, 3), trip_time=5.0, horizon=30.0)
        report = check_prop1(cefc_model, cefc_model, grid, scenario, feeders, limits)
        assert report.k_star == report.i_star
        assert len(report.values_learned) == 8
        # zero terminal costate: the Hamiltonian values are the mode costs
        assert np.array_equal(report.values_learned, report.costs)
        assert np.array_equal(report.values_oracle, report.costs)
        if report.brute_force_mode is not None:
            assert report.holds is True
        d = report.to_dict()
        assert set(d) >= {"k_star", "i_star", "holds", "modes", "feasible"}


@pytest.mark.parametrize("trip_time, start", [(5.0, 54), (5.1, 55), (5.4, 58)])
def test_measured_window_starts_at_least_the_measurement_delay_after_the_trip(grid, limits, trip_time, start):
    """Both layers take the first sample at or after trip + 0.4 s."""
    scenario = Scenario(inertia_scale=0.85, trip_set=(1,), trip_time=trip_time, horizon=8.0)
    config = method_config("cefc")
    rec = simulate(grid, scenario, lambda t, om, y: (np.zeros(grid.n_loads), limits.ud_support))
    assert prediction_start(rec, config) == start
    om, y = _measured_window(grid, scenario, limits, config)
    assert np.array_equal(om, rec.omega[start - 4 : start + 1])
    assert np.array_equal(y, rec.y[start - 4 : start + 1])


class TestBruteForceMode:
    def test_never_returns_an_infeasible_mode(self, grid, cefc_model, limits, node_base):
        scenario = Scenario(inertia_scale=0.85, trip_set=(1, 2, 3), trip_time=5.0, horizon=30.0)
        modes = enumerate_modes(FeederSpec.uniform(2, 150.0, 3), cefc_model, node_base)
        bf, feasible = brute_force_mode(grid, scenario, limits, modes)
        assert not feasible[0] and np.any(feasible)
        assert feasible[bf] and modes.costs[bf] == np.min(modes.costs[feasible])
        # with every cost infinite, the choice is still a feasible mode
        bf_inf, _ = brute_force_mode(grid, scenario, limits, replace(modes, costs=np.full(modes.n_modes, np.inf)))
        assert feasible[bf_inf]


@pytest.mark.parametrize("dt, shed_k", [(0.05, 109), (0.1, 55), (0.2, 28)])
def test_brute_force_sheds_from_the_sample_after_the_measured_window(grid, limits, node_base, monkeypatch, dt, shed_k):
    """The decision sample ends the measured window (108, 54 and 27 for a trip
    at 5 s); a mode is switched in one sample later, as a closed-loop plan is."""
    model = KoopmanModel(np.eye(1), np.ones((1, 3)), np.zeros((1, 2)), method_config("dmd", dt=dt))
    modes = enumerate_modes(FeederSpec.uniform(1, 40.0, 3), model, node_base)
    scenario = Scenario(inertia_scale=0.85, trip_set=(1, 2, 3), trip_time=5.0, horizon=8.0, dt=dt)
    records = []

    def recording(*args):
        records.append(simulate(*args))
        return records[-1]

    monkeypatch.setattr(gridsim, "simulate", recording)
    brute_force_mode(grid, scenario, limits, modes)
    shed = np.flatnonzero(np.any(records[1].ul > 0, axis=1))
    assert shed[0] == shed_k and shed[-1] == len(records[1]) - 1
    assert not np.any(records[0].ul > 0)
    for config in (model.config, method_config("cefc", dt=dt)):
        om, _ = _measured_window(grid, scenario, limits, config)
        assert om.tobytes() == records[0].omega[shed_k - config.window_len : shed_k].tobytes()


@pytest.mark.parametrize("noise", [0.0, 5.0])
def test_measured_window_ending_on_the_last_sample_equals_the_full_run(grid, limits, noise):
    """The window run stops at the window; a run that ends there reads the same bits."""
    config = method_config("cefc")
    full = Scenario(inertia_scale=0.85, trip_set=(1,), trip_time=5.0, horizon=30.0,
                    noise_amplitude=noise, noise_seed=4, noise_channels=("loads", "dc"))
    rec = simulate(grid, full, lambda t, om, y: (np.zeros(grid.n_loads), limits.ud_support))
    k0 = prediction_start(rec, config)
    short = replace(full, horizon=k0 * full.dt)
    for scenario in (full, short):
        om, y = _measured_window(grid, scenario, limits, config)
        assert om.tobytes() == rec.omega[k0 - 4 : k0 + 1].tobytes()
        assert y.tobytes() == rec.y[k0 - 4 : k0 + 1].tobytes()


def test_measured_window_past_the_horizon_is_insufficient_history(grid, limits):
    config = method_config("cefc")
    scenario = Scenario(inertia_scale=0.85, trip_set=(1,), trip_time=5.0, horizon=5.2)
    with pytest.raises(InsufficientHistoryError):
        lift(*_measured_window(grid, scenario, limits, config), config)
