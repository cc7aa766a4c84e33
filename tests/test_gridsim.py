from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cefc import gridsim
from cefc.bench import control_scenario
from cefc.controller import coordinate
from cefc.gridsim import (
    GOVERNOR_LIMIT,
    MOTOR_FREQ_SENSITIVITY,
    SUBSTEPS,
    GridModel,
    Scenario,
    SimulationError,
    TrajectoryRecord,
    _Plant,
    default_grid,
    simulate,
)
from cefc.koopman import _excitation_policy
from cefc.robustness import FeederSpec, brute_force_mode, enumerate_modes


def trip_scenario(**kw):
    base = dict(trip_set=(1, 2), trip_time=5.0, horizon=60.0, dt=0.1)
    base.update(kw)
    return Scenario(**base)


def reference_simulate(grid, scenario, policy=None, substeps=4):
    """Plain RK4 with the per-term right-hand side evaluated at every stage.

    The oracle for `simulate`'s fused sample steps: same policy, noise and
    ramp handling, with the physics written out term by term.  Returns
    (omega, y, ud_applied, clipped), where `clipped[i]` says whether the
    governor clip of machine i engaged at some stage while it was online.
    """
    s = grid.s_base
    ms, lds, lks = grid.machines, grid.loads, grid.hvdc
    M = np.array([m.inertia * m.capacity / s for m in ms])
    D = np.array([m.damping * m.capacity / s for m in ms])
    K = np.array([m.gov_gain * m.capacity / s for m in ms])
    Tg = np.array([m.gov_tc for m in ms])
    lim = np.array([GOVERNOR_LIMIT * m.capacity / s for m in ms])
    Pl = np.array([ld.base_power / s for ld in lds])
    c = np.array([MOTOR_FREQ_SENSITIVITY * ld.dynamic_fraction * ld.base_power / s for ld in lds])
    Tm = np.array([ld.motor_tc for ld in lds])
    lag = np.array([lk.response_lag for lk in lks])
    sign = np.array([lk.sign for lk in lks])
    ud_lo = np.array([lk.ud_min for lk in lks])
    ud_hi = np.array([lk.ud_max for lk in lks])
    ramp = np.array([lk.ramp_rate for lk in lks])
    vsens = np.asarray(grid.voltage_sensitivity, dtype=float)
    nm, p, q = len(ms), len(lds), len(lks)
    online = np.ones(nm, dtype=bool)
    online[list(scenario.trip_set)] = False
    trip_deficit = sum(ms[i].output for i in scenario.trip_set) / s + scenario.extra_deficit
    clipped = np.zeros(nm, dtype=bool)

    def rhs(post, x, ul, r, load_noise):
        om, pg = x[0], x[1 : 1 + nm]
        w, pdc = x[1 + nm : 1 + nm + p], x[1 + nm + p :]
        act = online if post else np.ones(nm, dtype=bool)
        clipped[act & (np.abs(pg) > lim)] = True
        mech = np.sum(np.clip(pg, -lim, lim)[act])
        dc = np.dot(sign, pdc) / s
        shed = np.dot(ul, Pl)
        dyn_load = np.dot((1.0 - ul) * c, om - w)
        deficit = (trip_deficit if post else 0.0) + np.sum(load_noise) / s
        dom = (mech + dc + shed - deficit - dyn_load - np.sum(D[act]) * om) / (
            scenario.inertia_scale * np.sum(M[act])
        )
        return np.concatenate([[dom], (-K * om - pg) / Tg, (om - w) / Tm, (r - pdc) / lag])

    def voltages(x, ul, load_noise):
        om, w, pdc = x[0], x[1 + nm : 1 + nm + p], x[1 + nm + p :]
        inj = np.concatenate([-(1.0 - ul) * c * (om - w) - load_noise / s, sign * pdc / s])
        return 1.0 + vsens @ inj

    dt = scenario.dt
    h = dt / substeps
    n_steps = int(round(scenario.horizon / dt))
    trip_k = round(scenario.trip_time / dt)  # the sample the trip strikes at
    rng = np.random.default_rng(scenario.noise_seed)
    noisy = scenario.noise_amplitude > 0
    x, r, ul, load_noise = np.zeros(1 + nm + p + q), np.zeros(q), np.zeros(p), np.zeros(p)
    omega, y, ud_app = [], [], []
    for k in range(n_steps + 1):
        t = k * dt
        omega.append(x[0])
        y.append(voltages(x, ul, load_noise))
        if k == n_steps:
            ud_app.append(r)
            break
        ud_cmd = np.zeros(q)
        if policy is not None:
            ul_cmd, ud_cmd = policy(t, np.array(omega), np.array(y))
            ul = np.maximum(ul, np.clip(ul_cmd, 0.0, 1.0))
        if noisy and "loads" in scenario.noise_channels:
            load_noise = rng.normal(0.0, scenario.noise_amplitude, p)
        if noisy and "dc" in scenario.noise_channels:
            ud_cmd = np.clip(ud_cmd + rng.normal(0.0, scenario.noise_amplitude, q), ud_lo, ud_hi)
        r = np.clip(r + np.clip(ud_cmd - r, -ramp * dt, ramp * dt), ud_lo, ud_hi)
        ud_app.append(r)
        post = k >= trip_k
        for _ in range(substeps):
            k1 = rhs(post, x, ul, r, load_noise)
            k2 = rhs(post, x + h / 2 * k1, ul, r, load_noise)
            k3 = rhs(post, x + h / 2 * k2, ul, r, load_noise)
            k4 = rhs(post, x + h * k3, ul, r, load_noise)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(omega), np.array(y), np.array(ud_app), clipped


def shed_and_ramp_policy(grid, shed_time=7.0, shed=(0.12, 0.05, 0.0), dc_mw=70.0):
    """Sheds once at `shed_time`, asks to restore later, and steps DC to `dc_mw`."""

    def policy(t, om, y):
        ul = np.asarray(shed) if shed_time <= t < shed_time + 3.0 else np.zeros(grid.n_loads)
        return ul, np.full(grid.n_links, dc_mw if t >= 5.5 else -dc_mw / 2)

    return policy


def assert_matches_reference(grid, scenario, policy_factory=None):
    rec = simulate(grid, scenario, policy_factory() if policy_factory else None)
    omega, y, ud_app, clipped = reference_simulate(
        grid, scenario, policy_factory() if policy_factory else None
    )
    assert np.max(np.abs(rec.omega - omega)) <= 1e-12
    assert np.max(np.abs(rec.y - y)) <= 1e-12
    assert np.max(np.abs(rec.ud_applied - ud_app)) <= 1e-12
    return rec, clipped


class TestFusedStepsMatchReference:
    def test_deep_event_with_the_governor_clip_engaged(self, grid):
        scenario = trip_scenario(trip_set=(1, 2, 3), extra_deficit=0.1, horizon=30.0)
        _, clipped = assert_matches_reference(grid, scenario)
        assert clipped[0]  # the stage-by-stage steps ran

    def test_later_trip(self, grid):
        assert_matches_reference(grid, trip_scenario(trip_time=5.3, horizon=30.0))

    def test_noise_on_loads_and_dc(self, grid):
        scenario = trip_scenario(
            noise_amplitude=4.0, noise_seed=3, noise_channels=("loads", "dc"), horizon=30.0
        )
        assert_matches_reference(grid, scenario)

    @pytest.mark.parametrize("channel", ["loads", "dc"])
    def test_noise_on_one_channel(self, grid, channel):
        # the noise block holds only the drawn channels' columns
        scenario = trip_scenario(
            noise_amplitude=4.0, noise_seed=3, noise_channels=(channel,), horizon=30.0
        )
        assert_matches_reference(grid, scenario, lambda: shed_and_ramp_policy(grid))

    def test_policy_that_sheds_and_ramps_dc(self, grid):
        rec, _ = assert_matches_reference(
            grid, trip_scenario(horizon=30.0), lambda: shed_and_ramp_policy(grid)
        )
        assert np.any(rec.ul > 0) and np.any(rec.ud_applied == 70.0)


def numpy_loop_simulate(grid, scenario, policy=None):
    """`simulate`'s sample loop with numpy vector arithmetic at every step.

    The per-step oracle for the float-list loop, which must give the same
    bits: it shares `_Plant`'s cached matrices (`hold`, `matrix`, `fused`),
    keeps the state and forcing in one numpy buffer z = [x, b], and
    checks, clips and merges every policy command at every step.
    """
    scenario.validate(grid)
    plant = _Plant(grid, scenario)
    p, q, s, nx = plant.p, plant.q, plant.s_base, plant.nx
    z = np.zeros(2 * nx)
    x, b = z[:nx], z[nx:]
    dt = scenario.dt
    n_steps = int(round(scenario.horizon / dt))
    amp = scenario.noise_amplitude
    noise_loads = "loads" in scenario.noise_channels and amp > 0
    noise_dc = "dc" in scenario.noise_channels and amp > 0
    width = p * noise_loads + q * noise_dc
    if width:
        noise = np.random.default_rng(scenario.noise_seed).normal(0.0, amp, (n_steps, width))
    dc_col = p if noise_loads else 0
    ud_lo = np.array([lk.ud_min for lk in grid.hvdc])
    ud_hi = np.array([lk.ud_max for lk in grid.hvdc])
    ramp = np.array([lk.ramp_rate for lk in grid.hvdc])
    ramp_lo, ramp_hi = -ramp * dt, ramp * dt

    def forcing(held, r, noise_sum, post):
        deficit = (plant.trip_deficit if post else 0.0) + noise_sum
        b[0] = (np.dot(held.ul, plant.Pl) - deficit) / plant.m_tot[post]
        b[plant.pdc] = r / plant.lag

    def step(post, held, r, noise_sum):
        forcing(held, r, noise_sum, post)
        W, lim = plant.fused(held, post)
        out = W @ z
        if np.count_nonzero(np.abs(out[nx:]) <= lim) == len(lim):
            x[:] = out[:nx]
            return

        def f(x_stage):
            zs = np.concatenate([x_stage, np.clip(x_stage[plant.pg], -plant.gov_lim, plant.gov_lim)])
            return plant.matrix(held, post) @ zs + b

        h, xs = plant.h, x.copy()
        for _ in range(SUBSTEPS):
            k1 = f(xs)
            k2 = f(xs + h / 2 * k1)
            k3 = f(xs + h / 2 * k2)
            k4 = f(xs + h * k3)
            xs = xs + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x[:] = xs

    def voltages(held, noise_s):
        inj_loads = -(1.0 - held.ul) * plant.c * (x[0] - x[plant.w]) - noise_s
        inj_links = plant.sign * x[plant.pdc] / s
        return 1.0 + plant.vsens @ np.concatenate([inj_loads, inj_links])

    r = np.zeros(q)
    held = plant.hold(np.zeros(p))
    noise_s, noise_sum = np.zeros(p), 0.0
    n = n_steps + 1
    t_arr = np.arange(n) * dt
    event = scenario.event_sample
    omega, y = np.zeros(n), np.zeros((n, plant.vsens.shape[0]))
    ul_arr, ud_arr, ud_app = np.zeros((n, p)), np.zeros((n, q)), np.zeros((n, q))
    for k in range(n):
        omega[k] = x[0]
        y[k] = voltages(held, noise_s)
        if k == n_steps:
            ul_arr[k], ud_arr[k], ud_app[k] = held.ul, ud_arr[k - 1], r
            break
        ud_cmd = np.zeros(q)
        if policy is not None:
            ul_cmd, ud_cmd = policy(t_arr[k], omega[: k + 1], y[: k + 1])
            ul_cmd, ud_cmd = np.asarray(ul_cmd, dtype=float), np.asarray(ud_cmd, dtype=float)
            if not np.all((ul_cmd >= -1e-12) & (ul_cmd <= 1.0 + 1e-12)):
                raise SimulationError("policy returned shedding ratio outside [0, 1]")
            if not np.all((ud_cmd >= ud_lo - 1e-9) & (ud_cmd <= ud_hi + 1e-9)):
                raise SimulationError("policy returned DC command outside link limits")
            ul = np.maximum(held.ul, np.clip(ul_cmd, 0.0, 1.0))
            if ul.tobytes() != held.key:
                held = plant.hold(ul)
        if noise_loads:
            noise_s, noise_sum = noise[k, :p] / s, noise[k, :p].sum() / s
        if noise_dc:
            ud_cmd = np.clip(ud_cmd + noise[k, dc_col:], ud_lo, ud_hi)
        r = np.clip(r + np.clip(ud_cmd - r, ramp_lo, ramp_hi), ud_lo, ud_hi)
        ul_arr[k], ud_arr[k], ud_app[k] = held.ul, ud_cmd, r
        step(event is not None and k >= event, held, r, noise_sum)
        if not np.all(np.isfinite(x)) or abs(x[0]) > 1.0:
            raise SimulationError(f"integration diverged at t={(k + 1) * dt:.2f}s")
    return TrajectoryRecord(dt=dt, t=t_arr, omega=omega, y=y, ul=ul_arr, ud=ud_arr, ud_applied=ud_app)


RECORD_FIELDS = ("omega", "y", "ul", "ud", "ud_applied")


def assert_same_bits(a, b):
    for name in RECORD_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        assert va.shape == vb.shape and va.tobytes() == vb.tobytes(), name


def records_under(monkeypatch, sim, run):
    """The records of every `gridsim.simulate` call `run()` makes, with `sim`
    standing in for it."""
    records = []

    def capture(*args, **kwargs):
        records.append(sim(*args, **kwargs))
        return records[-1]

    with monkeypatch.context() as m:
        m.setattr(gridsim, "simulate", capture)
        run()
    return records


def list_policy(grid):
    """Returns plain lists, with -0.0 entries until it sheds and ramps DC."""

    def policy(t, om, y):
        return [0.1 if t >= 7.0 else -0.0, 0.0, -0.0], [60.0 if t >= 5.5 else -0.0, -0.0]

    return policy


def signed_zero_policy(grid):
    """Arrays of signed zeros, switching sign on the DC links from step to step."""

    def policy(t, om, y):
        k = len(om) - 1
        ud = np.array([-0.0, 0.0]) if k % 2 else np.array([0.0, -0.0])
        return np.array([-0.0, 0.0, 0.05 if k >= 70 else -0.0]), ud

    return policy


def mutating_policy(grid):
    """Returns the same two arrays every call, edited in place in between."""
    ul, ud = np.zeros(grid.n_loads), np.zeros(grid.n_links)

    def policy(t, om, y):
        k = len(om) - 1
        if k in (60, 90):
            ul[k % 3] += 0.04
        ud[:] = [-40.0 if k // 20 % 2 else 30.0, 10.0 * (k // 25) - 40.0]
        return ul, ud

    return policy


def excitation_policy(grid, seed=4):
    return _excitation_policy(grid, np.random.default_rng(seed), 0.1)


class TestFloatLoopMatchesNumpyLoop:
    """`simulate` gives the bits of the numpy sample loop, record for record."""

    @pytest.mark.parametrize(
        "scenario, make_policy",
        [
            (
                trip_scenario(trip_set=(1, 3), inertia_scale=0.85, noise_amplitude=4.0,
                              noise_seed=9, noise_channels=("dc",)),
                excitation_policy,
            ),
            (
                trip_scenario(noise_amplitude=4.0, noise_seed=3, noise_channels=("loads", "dc"), horizon=30.0),
                shed_and_ramp_policy,
            ),
            (trip_scenario(noise_amplitude=4.0, noise_seed=5, noise_channels=("loads", "dc"), horizon=20.0), None),
            # the governor clip engages here (see test_deep_event_with_the_governor_clip_engaged)
            (trip_scenario(trip_set=(1, 2, 3), extra_deficit=0.1, horizon=30.0), None),
            (trip_scenario(trip_set=(1, 2, 3), extra_deficit=0.1, horizon=30.0), shed_and_ramp_policy),
            (trip_scenario(trip_time=5.3, horizon=20.0), shed_and_ramp_policy),
            (trip_scenario(noise_amplitude=3.0, noise_channels=("loads",), horizon=20.0), shed_and_ramp_policy),
            (trip_scenario(noise_amplitude=3.0, noise_channels=("dc",), horizon=20.0), list_policy),
            (trip_scenario(horizon=20.0), signed_zero_policy),
            (trip_scenario(noise_amplitude=3.0, noise_channels=("loads", "dc"), horizon=20.0), mutating_policy),
        ],
        ids=["excitation", "noise-policy", "noise", "clip", "clip-policy", "later-trip",
             "loads-noise-policy", "lists", "signed-zeros", "mutated-in-place"],
    )
    def test_direct_runs(self, grid, scenario, make_policy):
        def run(sim):
            return sim(grid, scenario, make_policy(grid) if make_policy else None)

        assert_same_bits(run(simulate), run(numpy_loop_simulate))

    def test_zero_bounded_links(self, grid):
        # a -0.0 limit ties with a 0.0 reference: the clip must return the limit
        hvdc = (replace(grid.hvdc[0], ud_min=-0.0), replace(grid.hvdc[1], ud_max=-0.0))
        zero_grid = replace(grid, hvdc=hvdc)
        for channels in ((), ("dc",)):
            scenario = trip_scenario(noise_amplitude=3.0 * bool(channels), noise_channels=channels, horizon=15.0)
            new = simulate(zero_grid, scenario, signed_zero_policy(zero_grid))
            assert_same_bits(new, numpy_loop_simulate(zero_grid, scenario, signed_zero_policy(zero_grid)))
            assert np.signbit(new.ud_applied[1:]).any()

    @pytest.mark.parametrize("dc_mode", ["lqr", "max"])
    def test_coordinate_policies(self, grid, cefc_model, limits, monkeypatch, dc_mode):
        def run():
            coordinate(grid, control_scenario(0.85), cefc_model, limits, dc_mode=dc_mode)

        new, old = (records_under(monkeypatch, sim, run) for sim in (simulate, numpy_loop_simulate))
        assert len(new) == len(old) == 1
        assert np.any(new[0].ul > 0) and np.any(new[0].ud != 0)
        assert_same_bits(new[0], old[0])

    def test_brute_force_mode_policies(self, grid, cefc_model, limits, node_base, monkeypatch):
        modes = enumerate_modes(FeederSpec.uniform(3, 40.0, 3), cefc_model, node_base)
        scenario = trip_scenario(trip_set=(1, 2), inertia_scale=0.85, horizon=30.0)

        def run():
            brute_force_mode(grid, scenario, limits, modes)

        new, old = (records_under(monkeypatch, sim, run) for sim in (simulate, numpy_loop_simulate))
        assert len(new) == len(old) == modes.n_modes
        for a, b in zip(new, old):
            assert_same_bits(a, b)


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(
    inertia_scale=st.floats(0.8, 1.0),
    trip_set=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True),
    extra_deficit=st.floats(0.0, 0.1),
    noise_seed=st.integers(0, 2**31 - 1),
    shed_time=st.floats(5.0, 12.0),
    shed=st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3),
    dc_mw=st.floats(-80.0, 80.0),
)
def test_simulate_matches_reference_and_respects_limits(
    grid, inertia_scale, trip_set, extra_deficit, noise_seed, shed_time, shed, dc_mw
):
    scenario = trip_scenario(
        inertia_scale=inertia_scale,
        trip_set=tuple(sorted(trip_set)),
        extra_deficit=extra_deficit,
        noise_amplitude=3.0,
        noise_seed=noise_seed,
        noise_channels=("loads", "dc"),
        horizon=20.0,
    )
    rec, _ = assert_matches_reference(
        grid, scenario, lambda: shed_and_ramp_policy(grid, shed_time, shed, dc_mw)
    )
    assert np.all(np.diff(rec.ul, axis=0) >= 0.0)
    ud_lo = np.array([lk.ud_min for lk in grid.hvdc])
    ud_hi = np.array([lk.ud_max for lk in grid.hvdc])
    ramp_dt = np.array([lk.ramp_rate for lk in grid.hvdc]) * scenario.dt
    assert np.all((rec.ud_applied >= ud_lo) & (rec.ud_applied <= ud_hi))
    steps = np.diff(rec.ud_applied, axis=0, prepend=0.0)
    assert np.all(np.abs(steps) <= ramp_dt + 1e-9)


def total_damping(grid) -> float:
    return sum(m.damping * m.capacity for m in grid.machines) / grid.s_base


def total_gov_gain(grid) -> float:
    return sum(m.gov_gain * m.capacity for m in grid.machines) / grid.s_base


def steady_state_deviation(grid, deficit):
    """Closed-form post-event frequency deviation for a pure power deficit."""
    if not np.isfinite(deficit):
        raise ValueError("deficit must be finite")
    return -deficit / (total_damping(grid) + total_gov_gain(grid))


class TestSteadyState:
    def test_closed_form_matches_long_run(self, grid):
        # pure deficit with no trips, so every machine contributes its
        # damping and governor gain exactly as in the closed form
        scenario = trip_scenario(trip_set=(), extra_deficit=0.1, horizon=200.0)
        rec = simulate(grid, scenario)
        expected = steady_state_deviation(grid, 0.1)
        assert abs(rec.omega[-1] - expected) < 1e-6

    def test_deviation_is_negative_for_a_deficit(self, grid):
        assert steady_state_deviation(grid, 0.1) < 0

    def test_rejects_nonfinite_deficit(self, grid):
        with pytest.raises(ValueError):
            steady_state_deviation(grid, float("nan"))


class TestIntegration:
    def test_rk4_agrees_across_substep_counts(self, grid):
        rec4 = simulate(grid, trip_scenario())
        omega8, *_ = reference_simulate(grid, trip_scenario(), substeps=8)
        diff = np.abs(rec4.omega - omega8)
        trip_idx = int(round(5.0 / 0.1))
        assert np.max(diff[: trip_idx + 1]) == 0.0
        assert np.max(diff) < 1e-4

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("event", [{"trip_set": (1, 2, 3)}, {"extra_deficit": 0.05}], ids=["trip", "deficit"])
    def test_the_event_sample_keeps_its_pre_event_values(self, grid, dt, event):
        # the event strikes on its own sample, so omega and y there, and at
        # every sample before, are those of the same noisy run without it
        noise = dict(noise_amplitude=3.0, noise_seed=2, noise_channels=("loads",), horizon=8.0, dt=dt)
        rec = simulate(grid, Scenario(**event, **noise))
        quiet = simulate(grid, Scenario(**noise))
        e = rec.scenario.event_sample
        assert e == round(5.0 / dt)
        assert rec.omega[: e + 1].tobytes() == quiet.omega[: e + 1].tobytes()
        assert rec.y[: e + 1].tobytes() == quiet.y[: e + 1].tobytes()
        assert rec.omega[e + 1] != quiet.omega[e + 1]

    def test_trip_pulls_frequency_down(self, grid):
        rec = simulate(grid, trip_scenario())
        trip_idx = int(round(5.0 / 0.1))
        assert np.all(np.abs(rec.omega[:trip_idx]) < 1e-9)
        assert np.min(rec.omega) < -0.005

    def test_lower_inertia_deepens_the_nadir(self, grid):
        deep = simulate(grid, trip_scenario(inertia_scale=0.8))
        shallow = simulate(grid, trip_scenario(inertia_scale=1.0))
        assert np.min(deep.omega) < np.min(shallow.omega)

    def test_noise_runs_are_deterministic(self, grid):
        kw = dict(noise_amplitude=3.0, noise_seed=42, noise_channels=("loads", "dc"))
        a = simulate(grid, trip_scenario(**kw))
        b = simulate(grid, trip_scenario(**kw))
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.ud, b.ud)

    def test_divergence_raises(self, grid):
        with pytest.raises(SimulationError):
            simulate(grid, trip_scenario(extra_deficit=8.0))


class TestScenarioValidation:
    def test_untrippable_machine_rejected(self, grid):
        with pytest.raises(ValueError):
            trip_scenario(trip_set=(0,)).validate(grid)

    def test_out_of_range_trip_rejected(self, grid):
        with pytest.raises(ValueError):
            trip_scenario(trip_set=(9,)).validate(grid)

    def test_more_than_three_trips_rejected(self, grid):
        with pytest.raises(ValueError):
            trip_scenario(trip_set=(1, 2, 3, 4)).validate(grid)

    def test_empty_scenario_rejected(self, grid):
        with pytest.raises(ValueError):
            Scenario(trip_set=()).validate(grid)

    def test_bad_noise_channel_rejected(self):
        with pytest.raises(ValueError):
            Scenario(noise_channels=("wind",))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["inertia_scale", "trip_time", "extra_deficit", "noise_amplitude", "horizon", "dt"]
    )
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(trip_set=(1,), **{field: value})

    def test_repeated_trip_rejected(self):
        # (1, 1) would count machine 1's power twice but its inertia once
        with pytest.raises(ValueError, match="trip_set"):
            Scenario(trip_set=(1, 1))

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_noise_seed_must_be_an_integer_of_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="noise_seed"):
            Scenario(trip_set=(1,), noise_amplitude=2.0, noise_seed=seed)

    @pytest.mark.parametrize(
        "kw, field",
        [
            ({"trip_set": (1, 2), "trip_time": 5.03}, "trip_time"),
            ({"extra_deficit": 0.05, "trip_time": 5.05}, "trip_time"),
            ({"trip_set": (1,), "dt": 0.12}, "trip_time"),  # 5.0 s is 41.67 samples
            ({"trip_set": (1,), "dt": 0.3}, "trip_time"),
            # between samples, nearer the next one and nearer the last one
            ({"trip_set": (1,), "horizon": 8.06}, "horizon"),
            ({"trip_set": (1,), "horizon": 8.04}, "horizon"),
            ({"trip_set": (1,), "trip_time": 4.8, "horizon": 8.0, "dt": 0.12}, "horizon"),  # 66.67 samples
            # a record without an event still ends on its horizon
            ({"noise_amplitude": 2.0, "horizon": 8.06}, "horizon"),
        ],
        ids=[
            "trip-between-samples", "deficit-between-samples", "dt-0.12", "dt-0.3",
            "horizon-rounding-up", "horizon-rounding-down", "horizon-dt-0.12", "noise-only-horizon",
        ],
    )
    def test_time_between_samples_rejected(self, kw, field):
        with pytest.raises(ValueError, match=f"scenario {field} must be a whole number of dt samples"):
            Scenario(**kw)

    def test_negative_noise_amplitude_rejected(self):
        # it used to pass the "needs a trip, an extra deficit or noise" check
        # and run without any event
        with pytest.raises(ValueError, match="noise amplitude"):
            Scenario(noise_amplitude=-3.0)


@pytest.mark.parametrize(
    "kw, event, sample",
    [
        ({"trip_set": (1,)}, 5.0, 50),
        ({"trip_set": (1,), "trip_time": 7.2}, 7.2, 72),
        ({"trip_set": (1,), "trip_time": 4.8, "dt": 0.12}, 4.8, 40),
        ({"extra_deficit": 0.05}, 5.0, 50),
        ({"extra_deficit": -0.05}, 5.0, 50),
        ({"noise_amplitude": 2.0}, None, None),
        # no event, so a trip_time between samples is never used
        ({"noise_amplitude": 2.0, "trip_time": 5.05}, None, None),
    ],
    ids=["trip", "late-trip", "coarse-dt", "deficit", "surplus", "noise-only", "noise-only-between-samples"],
)
def test_event_time_is_the_trip_time_of_a_trip_or_an_extra_deficit(kw, event, sample):
    scenario = Scenario(**kw)
    assert scenario.event_time == event and scenario.event_sample == sample


class TestPolicyInterface:
    def test_dc_command_outside_limits_rejected(self, grid):
        def policy(t, om, y):
            return np.zeros(grid.n_loads), np.full(grid.n_links, 500.0)

        with pytest.raises(SimulationError):
            simulate(grid, trip_scenario(), policy)

    def test_shed_ratio_outside_unit_interval_rejected(self, grid):
        def policy(t, om, y):
            return np.full(grid.n_loads, 1.5), np.zeros(grid.n_links)

        with pytest.raises(SimulationError):
            simulate(grid, trip_scenario(), policy)

    def test_nan_shed_ratio_rejected_as_out_of_range(self, grid):
        # NaN fails every comparison, so it must not pass the bound check and
        # surface one step later as a divergence
        def policy(t, om, y):
            return np.array([np.nan, 0.0, 0.0]), np.zeros(grid.n_links)

        with pytest.raises(SimulationError, match="shedding ratio outside"):
            simulate(grid, trip_scenario(), policy)

    def test_nan_dc_command_rejected_as_out_of_limits(self, grid):
        def policy(t, om, y):
            return np.zeros(grid.n_loads), np.array([np.nan, 0.0])

        with pytest.raises(SimulationError, match="DC command outside link limits"):
            simulate(grid, trip_scenario(), policy)

    def test_simulate_writes_into_nothing_a_policy_returns_or_reads(self, grid):
        ul = np.array([0.1, 0.0, 0.05])
        ud = np.array([40.0, -20.0])
        ul.flags.writeable = ud.flags.writeable = False
        seen = []

        def policy(t, om, y):
            seen.append((om, y))
            return ul, ud

        scenario = trip_scenario(noise_amplitude=3.0, noise_channels=("loads", "dc"), horizon=20.0)
        rec = simulate(grid, scenario, policy)
        assert np.array_equal(ul, [0.1, 0.0, 0.05]) and np.array_equal(ud, [40.0, -20.0])
        assert len(seen) == len(rec) - 1
        for om, y in seen:
            assert np.array_equal(om, rec.omega[: len(om)])
            assert np.array_equal(y, rec.y[: len(y)])

    def test_shed_commands_are_limited_bit_for_bit_as_by_np_clip(self, grid):
        # signed zeros included: a recorded -0.0 prints as "-0" in a CSV
        def command(k):
            return np.array([-0.0, 0.0, 0.1 if k >= 60 else -0.0])

        def policy(t, om, y):
            return command(len(om) - 1), np.zeros(grid.n_links)

        rec = simulate(grid, trip_scenario(horizon=10.0), policy)
        ul, expected = np.zeros(grid.n_loads), []
        for k in range(len(rec) - 1):
            ul = np.maximum(ul, np.clip(command(k), 0.0, 1.0))
            expected.append(ul)
        assert rec.ul[:-1].tobytes() == np.array(expected).tobytes()

    def test_shedding_is_monotone(self, grid):
        def policy(t, om, y):
            ul = np.full(grid.n_loads, 0.2 if 10.0 <= t < 20.0 else 0.0)
            return ul, np.zeros(grid.n_links)

        rec = simulate(grid, trip_scenario(), policy)
        after = rec.ul[int(round(25.0 / 0.1))]
        assert np.all(after == 0.2)

    def test_dc_ramp_limits_the_applied_reference(self, grid):
        def policy(t, om, y):
            return np.zeros(grid.n_loads), np.full(grid.n_links, 80.0)

        rec = simulate(grid, trip_scenario(), policy)
        step = np.max(np.abs(np.diff(rec.ud_applied, axis=0)), axis=0)
        ramp_dt = np.array([lk.ramp_rate for lk in grid.hvdc]) * 0.1
        assert np.all(step <= ramp_dt + 1e-9)


class TestRecordsAndSerialization:
    def test_voltages_rest_at_one_before_the_event(self, grid):
        rec = simulate(grid, trip_scenario())
        pre = rec.y[: int(round(5.0 / 0.1))]
        assert np.allclose(pre, 1.0, atol=1e-12)

    def test_csv_round_trip(self, grid, tmp_path):
        rec = simulate(grid, trip_scenario(noise_amplitude=2.0, noise_channels=("dc",)))
        path = tmp_path / "traj.csv"
        rec.write_csv(path)
        back = TrajectoryRecord.read_csv(path)
        assert back.dt == rec.dt
        for name in ("t", "omega", "y", "ul", "ud"):
            assert getattr(back, name).tobytes() == getattr(rec, name).tobytes(), name

    def test_csv_text_is_each_value_as_its_shortest_repr(self, grid, tmp_path):
        rec = simulate(grid, trip_scenario(noise_amplitude=2.0, noise_channels=("dc",), horizon=8.0))
        rec.ul[3, 1] = -0.0  # a signed zero prints as "-0.0" and reads back signed
        path = tmp_path / "traj.csv"
        rec.write_csv(path)
        lines = [",".join(["t", "omega", "y_1", "y_2", "ul_1", "ul_2", "ul_3", "ud_1", "ud_2"])]
        for k in range(len(rec)):
            row = [rec.t[k], rec.omega[k], *rec.y[k], *rec.ul[k], *rec.ud[k]]
            lines.append(",".join(repr(float(v)) for v in row))
        with open(path, newline="") as fh:
            assert fh.read() == "".join(line + "\r\n" for line in lines)
        assert "-0.0," in lines[4]
        assert np.signbit(TrajectoryRecord.read_csv(path).ul[3, 1])

    @pytest.mark.parametrize(
        "column, value, line",
        [("omega", float("inf"), 5), ("omega", float("nan"), 5), ("y", float("-inf"), 12), ("ul", 1.5, 40), ("ul", -0.25, 40)],
    )
    def test_csv_with_a_value_no_simulation_writes_is_rejected(self, grid, tmp_path, column, value, line):
        rec = simulate(grid, trip_scenario(horizon=8.0))
        bad = getattr(rec, column).copy()
        bad[line - 2, ...] = value
        path = tmp_path / "traj.csv"
        replace(rec, **{column: bad}).write_csv(path)
        with pytest.raises(ValueError, match=f"line {line} column .* holds {value!r}: values must be finite"):
            TrajectoryRecord.read_csv(path)

    def test_csv_with_whole_and_no_shedding_ratios_reads_back(self, grid, tmp_path):
        rec = simulate(grid, trip_scenario(horizon=8.0))
        ul = rec.ul.copy()
        ul[40:, 0] = 1.0
        path = tmp_path / "traj.csv"
        replace(rec, ul=ul).write_csv(path)
        assert TrajectoryRecord.read_csv(path).ul.tobytes() == ul.tobytes()

    def test_grid_dict_round_trip(self, grid):
        back = GridModel.from_dict(grid.to_dict())
        assert back == grid

    def test_voltage_sensitivity_shape_checked(self, grid):
        with pytest.raises(ValueError):
            GridModel(
                machines=grid.machines,
                loads=grid.loads,
                hvdc=grid.hvdc,
                voltage_sensitivity=((1.0, 2.0),),
            )
