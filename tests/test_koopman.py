import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cefc import koopman
from cefc.gridsim import Scenario, shed_weights, simulate
from cefc.koopman import (
    _input_response_fit,
    _regression_pairs,
    _resolve_rbf,
    Dataset,
    InsufficientHistoryError,
    KoopmanModel,
    ObservableConfig,
    eval_metrics,
    fit,
    generate_dataset,
    lift,
    method_config,
    predict_record,
    predict_rollout,
    prediction_start,
)


class TestObservableConfig:
    def test_unknown_dictionary_rejected(self):
        with pytest.raises(ValueError):
            ObservableConfig(dictionary="fourier")

    def test_delay_span_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError):
            ObservableConfig(dt=0.1, delay_span=0.25)

    def test_window_len_counts_current_sample(self):
        cfg = ObservableConfig(dt=0.1, delay_span=0.4)
        assert cfg.n_delays == 4
        assert cfg.window_len == 5

    @pytest.mark.parametrize("dt", [0, -0.1, float("nan"), float("inf"), "0.1", True])
    def test_dt_must_be_a_finite_positive_number(self, dt):
        with pytest.raises(ValueError, match="dt must be a finite number > 0"):
            ObservableConfig(dt=dt)

    @pytest.mark.parametrize(
        "kw",
        [
            {"dictionary": "identity", "delay_span": 0.2},
            {"dictionary": "rbf", "delay_span": 0.2, "rbf_count": 5},
            {"dictionary": "identity", "rbf_count": 5, "delay_span": 0.0},
            {"dictionary": "delay", "rbf_count": 5},
        ],
        ids=["identity-span", "rbf-span", "identity-rbf", "delay-rbf"],
    )
    def test_dictionary_contradicting_the_span_or_the_rbf_count_rejected(self, kw):
        with pytest.raises(ValueError, match="dictionary takes no"):
            ObservableConfig(dt=0.1, **kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"rbf_count": 5.5}, "rbf_count must be an integer"),
            ({"rbf_count": -2}, "rbf_count must be an integer"),
            ({"rbf_count": False}, "rbf_count must be an integer"),
            ({"include_voltage": "no"}, "include_voltage must be true or false"),
            ({"include_voltage": 1}, "include_voltage must be true or false"),
        ],
    )
    def test_rbf_count_and_include_voltage_types_checked(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ObservableConfig(dt=0.1, **kw)

    def test_dict_round_trip(self):
        cfg = ObservableConfig(dt=0.1, delay_span=0.2, dictionary="delay", rbf_count=0)
        assert ObservableConfig.from_dict(cfg.to_dict()) == cfg

    def test_method_configs_cover_the_four_benchmarks(self):
        names = ("cefc", "cefc-ntd", "edmd", "dmd")
        cfgs = [method_config(n) for n in names]
        assert cfgs[0].delay_span > 0
        assert all(c.delay_span == 0 for c in cfgs[1:])
        assert cfgs[3].dictionary == "identity" and not cfgs[3].include_voltage
        with pytest.raises(ValueError):
            method_config("arx")


class TestLift:
    def test_first_entry_is_current_omega(self):
        cfg = ObservableConfig(dt=0.1, delay_span=0.2, dictionary="delay")
        om = np.array([0.01, 0.02, 0.03])
        y = np.ones((3, 2))
        g = lift(om, y, cfg)
        assert g[0] == 0.03
        assert len(g) == len(reference_lift(om, y, cfg)) == 1 + 2 + 3 * 2

    def test_short_history_raises(self):
        cfg = ObservableConfig(dt=0.1, delay_span=0.4)
        with pytest.raises(InsufficientHistoryError):
            lift(np.zeros(3), np.ones((3, 2)), cfg)

    def test_identity_dictionary_is_the_raw_measurement(self):
        cfg = method_config("dmd")
        g = lift(np.array([0.05]), np.ones((1, 2)), cfg)
        assert np.array_equal(g, [0.05])

    def test_dictionary_names_are_labels_of_one_layout(self, dataset_small):
        rec = dataset_small.train[0]
        om, y = rec.omega[40:44], rec.y[40:44]
        for include_voltage in (False, True):
            identity = ObservableConfig(delay_span=0.0, dictionary="identity", include_voltage=include_voltage)
            assert np.array_equal(lift(om, y, identity), lift(om, y, replace(identity, dictionary="delay")))
        rbf = _resolve_rbf(dataset_small.train[:2], method_config("edmd"))
        assert np.array_equal(lift(om, y, rbf), lift(om, y, replace(rbf, dictionary="delay_rbf")))


METHODS = ("cefc", "cefc-ntd", "edmd", "dmd")


def reference_lift(om, y, config):
    """Per-window oracle for `lift`: the features of one (w,) / (w, n_buses) window."""
    parts = [np.array([om[-1]])]
    if config.dictionary in ("delay", "delay_rbf"):
        parts.append(om[:-1])
        if config.include_voltage:
            parts.append(y.reshape(-1))
    elif config.include_voltage:
        parts.append(y[-1])
    if config.dictionary in ("rbf", "delay_rbf") and config.rbf_count > 0:
        z = np.concatenate([om, y.reshape(-1)]) if config.include_voltage else om
        d2 = np.sum((z[None, :] - config.rbf_centers) ** 2, axis=1)
        parts.append(np.exp(-d2 / (2.0 * config.rbf_widths**2)))
    return np.concatenate(parts)


def reference_event_sample(rec):
    """The event sample of a record whose scenario trips a machine or adds an
    extra deficit: the first sample at or after the trip time.  None without
    such an event."""
    sc = rec.scenario
    if sc is None or not (sc.trip_set or sc.extra_deficit != 0.0):
        return None
    return int(np.ceil(sc.trip_time / rec.dt - 1e-9))


def shedding_policy(grid, onset):
    """A 2 % shed on every node from `onset` on, with no DC support."""

    def policy(t, om, y):
        return np.full(grid.n_loads, 0.02 if t >= onset else 0.0), np.zeros(grid.n_links)

    return policy


@pytest.fixture(scope="module")
def event_records(grid):
    """Shedding records around an event: a deficit-only step at 5.0 s with the
    shed starting before it and again well after it, and a trip at 5.3 s, three
    samples later, with the shed starting before it."""
    deficit = Scenario(inertia_scale=0.85, extra_deficit=0.05, horizon=20.0)
    return [
        simulate(grid, deficit, shedding_policy(grid, 4.0)),
        simulate(grid, deficit, shedding_policy(grid, 8.0)),
        simulate(grid, Scenario(inertia_scale=0.85, trip_set=(1,), trip_time=5.3, horizon=20.0), shedding_policy(grid, 3.0)),
    ]


def reference_regression_pairs(records, config):
    """Per-window oracle for `_regression_pairs`: one `reference_lift` per window."""
    G0, G1, U = [], [], []
    w = config.window_len
    for rec in records:
        lifted = np.array(
            [reference_lift(rec.omega[k - w + 1 : k + 1], rec.y[k - w + 1 : k + 1], config) for k in range(w - 1, len(rec))]
        )
        k = np.arange(w - 1, len(rec) - 1)
        keep = np.ones(len(k), dtype=bool)
        event = reference_event_sample(rec)
        if event is not None:
            keep = (k + 1 < event) | (k - w + 1 >= event)
        G0.append(lifted[:-1][keep])
        G1.append(lifted[1:][keep])
        U.append(np.hstack([rec.ul[w - 1 : -1], rec.ud[w - 1 : -1]])[keep])
    return np.vstack(G0), np.vstack(G1), np.vstack(U)


def reference_ridge_system(records, config):
    """Oracle for `_regression_pairs`: the shedding-free reference pairs [g_k,
    ud_k] and g_{k+1} (every pair when none is shedding-free), stacked over
    sqrt(RIDGE) I and zeros."""
    G0, G1, U = reference_regression_pairs(records, config)
    p = records[0].ul.shape[1]
    noshed = np.all(U[:, :p] == 0.0, axis=1)
    if not np.any(noshed):
        noshed[:] = True
    Z = np.hstack([G0[noshed], U[noshed, p:]])
    m = Z.shape[1]
    Zr = np.vstack([Z, np.sqrt(koopman.RIDGE) * np.eye(m)])
    Yr = np.vstack([G1[noshed], np.zeros((m, G1.shape[1]))])
    return Zr, Yr


def pairs_before_and_after(rec, event, delay_span):
    """Counts of the first-stage pairs of a shedding-free record whose samples
    (the window and the next sample) all lie before sample `event` and all at
    or after it; no kept pair spans it.  omega keeps its pre-event 0 at the
    event sample and first moves one sample later.  The pairs are told apart
    by sample index: the fit runs on the record with each omega replaced by
    its sample's index."""
    assert np.all(rec.omega[: event + 1] == 0.0) and np.all(rec.omega[event + 1 :] != 0.0)
    cfg = ObservableConfig(dt=rec.dt, delay_span=delay_span, dictionary="delay", include_voltage=False)
    w = cfg.window_len
    Zr, Yr = _regression_pairs([replace(rec, omega=np.arange(len(rec), dtype=float))], cfg)
    rows = len(Zr) - (w + rec.ud.shape[1])
    samples = np.hstack([Zr[:rows, :w], Yr[:rows, :1]])
    pre = np.all(samples < event, axis=1)
    assert np.all(pre | np.all(samples >= event, axis=1))
    return np.count_nonzero(pre), rows - np.count_nonzero(pre)


class TestBatchedLift:
    @pytest.mark.parametrize("name", METHODS)
    def test_stacked_windows_equal_the_per_window_rows(self, dataset_small, name):
        records = dataset_small.train[:2]
        cfg = _resolve_rbf(records, method_config(name))
        rec = records[0]
        w = cfg.window_len
        om = sliding_window_view(rec.omega, w)
        y = sliding_window_view(rec.y, w, axis=0).swapaxes(-1, -2)
        # a second batch axis: two copies of every window
        batched = lift(np.stack([om, om]), np.stack([y, y]), cfg)
        rows = np.array([reference_lift(om[j], y[j], cfg) for j in range(len(om))])
        assert batched.shape == (2, *rows.shape)
        assert np.array_equal(batched[0], rows) and np.array_equal(batched[1], rows)
        # a single window is the no-batch case of the same function
        assert np.array_equal(lift(om[7], y[7], cfg), rows[7])

    @pytest.mark.parametrize("name", METHODS)
    def test_regression_pairs_equal_the_per_window_reference(self, grid, dataset_small, event_records, name):
        # at each dt: a record that sheds from its first sample and so keeps
        # no pair, and a shedding-free one whose kept run ends at its last
        # pair, among records whose kept runs stop and restart around an
        # event and a shed
        cases = {0.1: dataset_small.train[:3] + event_records}
        for dt in (0.05, 0.2):
            cases[dt] = [
                simulate(grid, Scenario(inertia_scale=0.85, extra_deficit=0.05, horizon=20.0, dt=dt), shedding_policy(grid, 8.0)),
                simulate(grid, Scenario(inertia_scale=0.85, trip_set=(1,), trip_time=5.4, horizon=20.0, dt=dt), shedding_policy(grid, 3.0)),
            ]
        for dt, records in cases.items():
            scenario = Scenario(inertia_scale=0.9, trip_set=(2,), horizon=12.0, dt=dt)
            records = records + [simulate(grid, scenario, shedding_policy(grid, 0.0)), simulate(grid, scenario)]
            assert np.all(records[-2].ul > 0) and not np.any(records[-1].ul)
            cfg = _resolve_rbf(records, method_config(name, dt=dt))
            got = _regression_pairs(records, cfg)
            want = reference_ridge_system(records, cfg)
            assert len(got) == 2
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and same_bits(a, b)

    @pytest.mark.parametrize("name", METHODS)
    def test_without_shedding_free_pairs_the_first_stage_takes_every_kept_pair(self, grid, dataset_small, name):
        records = []
        for rec in dataset_small.train[:3]:
            ul = rec.ul.copy()
            ul[:, 0] = np.maximum(ul[:, 0], 0.02)  # shedding from the first window on
            records.append(replace(rec, ul=ul))
        model = fit(Dataset(train=records, test=[], grid=grid), method_config(name))
        G0, G1, U = reference_regression_pairs(records, _resolve_rbf(records, method_config(name)))
        n, q = G0.shape[1], records[0].ud.shape[1]
        Zr = np.vstack([np.hstack([G0, U[:, -q:]]), np.sqrt(koopman.RIDGE) * np.eye(n + q)])
        Yr = np.vstack([G1, np.zeros((n + q, n))])
        theta = np.linalg.lstsq(Zr, Yr, rcond=None)[0]
        assert same_bits(model.A, theta.T[:, :n]) and same_bits(model.B_d, theta.T[:, n:])

    @pytest.mark.parametrize("delay_span", [0.0, 0.4])
    def test_later_trip_keeps_no_pair_that_spans_the_event(self, grid, delay_span):
        # a trip at 5.3 s strikes at sample 53
        rec = simulate(grid, Scenario(inertia_scale=0.85, trip_set=(1, 2, 3), trip_time=5.3, horizon=10.0))
        w = round(delay_span / 0.1) + 1
        # pairs k = w - 1 .. 51 before the event, and those whose window starts at 53 or later
        assert pairs_before_and_after(rec, 53, delay_span) == (53 - w, 48 - w)

    def test_deficit_only_record_keeps_no_pair_that_spans_its_step(self, grid):
        # an extra deficit with no trip is an event too, striking at its own
        # sample 50 (5 of 96 pairs used to span it)
        rec = simulate(grid, Scenario(inertia_scale=0.85, extra_deficit=0.05, horizon=10.0))
        assert pairs_before_and_after(rec, 50, 0.4) == (45, 46)

    def test_short_batched_history_raises(self):
        cfg = ObservableConfig(dt=0.1, delay_span=0.4)
        with pytest.raises(InsufficientHistoryError):
            lift(np.zeros((6, 3)), np.ones((6, 3, 2)), cfg)


def reference_segments(records, config):
    """(record, first window end k0, steps) of every post-onset segment that
    `_input_response_fit` fits; records that never shed or leave no step
    after k0 give none."""
    w = config.window_len
    for rec in records:
        active = np.where(np.any(rec.ul > 0, axis=1))[0]
        if len(active) == 0:
            continue
        k0 = max(w - 1, int(active[0]) - 3)
        event = reference_event_sample(rec)
        if event is not None and k0 - w + 1 < event:
            k0 = max(k0, event + w - 1)
        steps = len(rec) - 1 - k0
        if steps > 0:
            yield rec, k0, steps


def reference_input_response_fit(records, config, A, B_d, pl):
    """Per-step oracle for `_input_response_fit`: one appended regressor row
    per step for β, the response to the shed power ul · pl, and B_l = β plᵀ."""
    n = A.shape[0]
    w = config.window_len
    e0 = np.zeros(n)
    e0[0] = 1.0
    X, Y = [], []
    for rec, k0, steps in reference_segments(records, config):
        g = lift(rec.omega[k0 - w + 1 : k0 + 1], rec.y[k0 - w + 1 : k0 + 1], config)
        coef = np.zeros(n)
        for t in range(steps):
            g = A @ g + B_d @ rec.ud[k0 + t]
            coef = A.T @ coef + e0 * (rec.ul[k0 + t] @ pl)
            X.append(coef)
            Y.append(rec.omega[k0 + t + 1] - g[0])
    if not X:
        return np.zeros((n, len(pl)))
    X = np.asarray(X)
    Y = np.asarray(Y)
    beta = np.linalg.solve(X.T @ X + koopman.RIDGE * np.eye(n), X.T @ Y)
    return np.outer(beta, pl)


def reference_rollout(model, omega_window, y_window, ul_seq, ud_seq, steps):
    """Per-step oracle for `predict_rollout`: g+ = A g + B_l ul + B_d ud."""
    g = lift(omega_window, y_window, model.config)
    out = [g[0]]
    for t in range(steps):
        g = model.A @ g + model.B_l @ np.asarray(ul_seq[t], float) + model.B_d @ np.asarray(ud_seq[t], float)
        out.append(g[0])
    return np.array(out)


def same_bits(a, b):
    """Equal values with equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def shed_records(dataset_small):
    """Training records plus a copy of a shedding record with one shed component zeroed."""
    records = dataset_small.train[:6]
    rec = next(r for r in dataset_small.train if np.count_nonzero(r.ul[-1]) >= 2)
    ul = rec.ul.copy()
    ul[:, np.flatnonzero(ul[-1])[0]] = 0.0
    return records + [replace(rec, ul=ul)]


@pytest.fixture(scope="module")
def shed_models(grid, shed_records):
    return {name: fit(Dataset(train=shed_records, test=[], grid=grid), method_config(name)) for name in METHODS}


class TestInputResponseFit:
    @pytest.mark.parametrize("name", METHODS)
    def test_equals_the_per_step_reference(self, grid, shed_records, shed_models, event_records, name):
        pl = shed_weights(grid.load_base_mw)
        assert any(np.any(r.ul[-1] > 0) and np.any(r.ul[-1] == 0) for r in shed_records)
        model = shed_models[name]
        assert same_bits(model.B_l, reference_input_response_fit(shed_records, model.config, model.A, model.B_d, pl))
        records = shed_records + event_records
        got = _input_response_fit(records, model.config, model.A, model.B_d, pl)
        want = reference_input_response_fit(records, model.config, model.A, model.B_d, pl)
        assert same_bits(got, want)

    def test_deficit_only_segment_starts_after_the_step(self, grid, shed_models, event_records):
        # the segment's first window ends at e + w - 1 or later, so no sample
        # before the event sample e reaches the fit (the shed starts at 4.0 s,
        # before the 5.0 s step)
        rec = event_records[0]
        model = shed_models["cefc"]
        pl = shed_weights(grid.load_base_mw)
        e = reference_event_sample(rec)
        assert e == 50 and np.flatnonzero(rec.ul[:, 0])[0] < e
        moved = replace(rec, omega=rec.omega.copy(), y=rec.y.copy())
        moved.omega[:e] += 1e-3
        moved.y[:e] += 1e-3
        got = _input_response_fit([moved], model.config, model.A, model.B_d, pl)
        assert np.any(got != 0.0)
        assert same_bits(got, _input_response_fit([rec], model.config, model.A, model.B_d, pl))

    @pytest.mark.parametrize("name", METHODS)
    def test_records_without_a_segment_between_shedding_records_are_skipped(self, grid, shed_records, shed_models, name):
        shedding = [r for r in shed_records if np.any(r.ul > 0)][:3]
        rec = shedding[0]
        # cut at the first window after the trip: the segment would start past the end
        end = reference_event_sample(rec) + 1
        ul = rec.ul[:end].copy()
        ul[10:, 0] = 0.05
        cut = replace(rec, t=rec.t[:end], omega=rec.omega[:end], y=rec.y[:end], ul=ul, ud=rec.ud[:end], ud_applied=None)
        quiet = replace(shedding[1], ul=np.zeros_like(shedding[1].ul))
        records = [shedding[0], cut, shedding[1], quiet, shedding[2]]
        model = shed_models[name]
        pl = shed_weights(grid.load_base_mw)
        assert len(list(reference_segments(records, model.config))) == 3
        got = _input_response_fit(records, model.config, model.A, model.B_d, pl)
        want = reference_input_response_fit(records, model.config, model.A, model.B_d, pl)
        assert same_bits(got, want)

    @pytest.mark.parametrize("name", METHODS)
    def test_shed_input_is_one_channel_along_the_load_base(self, grid, shed_models, name):
        # B_l = β plᵀ: column j is β · pl_j, with pl the load base over its mean
        B_l = shed_models[name].B_l
        pl = shed_weights(grid.load_base_mw)
        beta = B_l[:, 0] / pl[0]
        assert np.any(beta != 0)
        for j in range(len(pl)):
            np.testing.assert_allclose(B_l[:, j], beta * pl[j], rtol=1e-12, atol=0)

    def test_no_shedding_record_gives_a_zero_input_matrix(self, grid, dataset_small):
        rec = dataset_small.train[0]
        quiet = replace(rec, ul=np.zeros_like(rec.ul))
        model = fit(Dataset(train=[quiet], test=[], grid=grid), method_config("dmd"))
        assert np.array_equal(model.B_l, np.zeros((1, rec.ul.shape[1])))


class TestPredictionStart:
    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
    def test_scenario_without_an_event_counts_from_the_start(self, dt):
        # noise alone is no event: the delay counts from t = 0, as for a
        # record without a scenario (it used to count from the trip time)
        cfg = method_config("cefc", dt=dt)
        scenario = Scenario(noise_amplitude=2.0, dt=dt)
        want = max(cfg.window_len - 1, int(np.ceil(koopman.MEASUREMENT_DELAY / dt - 1e-9)))
        assert prediction_start(scenario, dt, cfg) == want == prediction_start(None, dt, cfg)
        if dt == 0.1:
            assert want == 4

    def test_record_without_an_event_starts_at_the_delay(self, grid):
        rec = simulate(grid, Scenario(noise_amplitude=2.0, horizon=2.0))
        assert prediction_start(rec.scenario, rec.dt, method_config("cefc")) == 4

    @pytest.mark.parametrize("kw", [{"trip_set": (1,)}, {"extra_deficit": 0.05}])
    def test_an_event_delays_the_start(self, kw):
        cfg = method_config("cefc")
        assert prediction_start(Scenario(**kw), 0.1, cfg) == 54

    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.1, 0.12, 0.2, 0.3, 0.7])
    @pytest.mark.parametrize("delays", [0, 4, 40])
    def test_counts_the_delay_in_samples_from_the_event_sample(self, delays, dt):
        # the start in samples equals the first sample with a full window at
        # or after event time + MEASUREMENT_DELAY, counted in seconds
        cfg = ObservableConfig(dt=dt, delay_span=delays * dt, dictionary="delay" if delays else "identity", include_voltage=False)
        for e in range(400):
            scenario = Scenario(trip_set=(1,), trip_time=e * dt, horizon=(e + 10) * dt, dt=dt)
            assert scenario.event_sample == e
            in_seconds = int(np.ceil((scenario.trip_time + koopman.MEASUREMENT_DELAY) / dt - 1e-9))
            assert prediction_start(scenario, dt, cfg) == max(cfg.window_len - 1, in_seconds)


class TestEvalMetrics:
    def test_diverged_rollouts_are_counted(self, grid):
        recs = [simulate(grid, Scenario(trip_set=(i,), horizon=30.0)) for i in (1, 2)]
        cfg = method_config("dmd")

        def model(a):
            return KoopmanModel(np.array([[a]]), np.zeros((1, grid.n_loads)), np.zeros((1, grid.n_links)), cfg)

        with np.errstate(over="ignore"):
            unstable = eval_metrics(model(1e3), recs, grid.base_frequency)
        assert unstable["n_records"] == 2 and unstable["n_diverged"] == 2
        assert np.isfinite(unstable["nadir_hz"]) and unstable["nadir_hz"] > 1e4  # the 1e3 p.u. stand-in
        assert eval_metrics(model(0.9), recs, grid.base_frequency)["n_diverged"] == 0


class TestFit:
    def test_model_shapes_and_finiteness(self, grid, dataset_small, cefc_model):
        cfg = cefc_model.config
        rec = dataset_small.test[0]
        w = cfg.window_len
        assert cefc_model.dim == len(reference_lift(rec.omega[:w], rec.y[:w], cfg))
        assert cefc_model.n_loads == grid.n_loads
        assert cefc_model.n_links == grid.n_links
        assert np.all(np.isfinite(cefc_model.A))

    def test_test_set_error_is_small(self, grid, dataset_small, cefc_model):
        m = eval_metrics(cefc_model, dataset_small.test, grid.base_frequency)
        assert m["n_records"] == len(dataset_small.test)
        assert m["mean_hz"] < 0.1

    def test_empty_dataset_rejected(self, grid):
        with pytest.raises(ValueError, match="empty dataset"):
            fit(Dataset(train=[], test=[], grid=grid), method_config("dmd"))

    def test_record_at_another_sample_time_rejected(self, grid):
        rec = simulate(grid, Scenario(trip_set=(1,), trip_time=2.0, horizon=6.0, dt=0.05))
        with pytest.raises(ValueError, match="samples every 0.05 s but the model runs at 0.1 s"):
            fit(Dataset(train=[rec], test=[], grid=grid), method_config("dmd"))

    def test_shedding_response_sign(self, cefc_model):
        # a positive shed adds power: the settled frequency response must be up
        n = cefc_model.dim
        M = np.zeros((n, cefc_model.n_loads))
        for _ in range(100):
            M = cefc_model.A @ M + cefc_model.B_l
        assert np.all(M[0] > 0)


def test_cefc_ntd_and_edmd_fit_the_same_model(grid, dataset_small):
    # delay_rbf at delay span 0 builds the rbf vector, so the ablation row
    # and the edmd row come from one model
    records = dataset_small.train[:10]
    ntd = fit(Dataset(train=records, test=[], grid=grid), method_config("cefc-ntd"))
    edmd = fit(Dataset(train=records, test=[], grid=grid), method_config("edmd"))
    for a, b in ((ntd.A, edmd.A), (ntd.B_l, edmd.B_l), (ntd.B_d, edmd.B_d)):
        assert same_bits(a, b)


def same_layout(a, b):
    """Same bits and the same memory layout: a rollout's BLAS call follows the layout."""
    return same_bits(a, b) and (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)


def same_model(a, b):
    rbf = (a.config.rbf_centers, b.config.rbf_centers), (a.config.rbf_widths, b.config.rbf_widths)
    return all(same_layout(x, y) for x, y in ((a.A, b.A), (a.B_l, b.B_l), (a.B_d, b.B_d))) and all(
        x is None and y is None or same_bits(x, y) for x, y in rbf
    )


@pytest.fixture
def stage_calls(monkeypatch):
    """Runs of the two fit stages, counted by wrapping them in `koopman`."""
    calls = {"_regression_pairs": 0, "_input_response_fit": 0}
    for name in calls:
        stage = getattr(koopman, name)

        def counted(*args, _stage=stage, _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(koopman, name, counted)
    return calls


@pytest.fixture(scope="module")
def memo_records(dataset_small):
    """Training records of the memo tests; each test fits them in its own Dataset."""
    return dataset_small.train[:8]


def own_copies(records):
    """Records with their own arrays, safe to edit in place."""
    return [replace(r, omega=r.omega.copy(), y=r.y.copy(), ul=r.ul.copy(), ud=r.ud.copy()) for r in records]


def test_fit_peak_stays_near_the_larger_stage_system(grid, memo_records):
    # each stage's system is filled in place: no other array of its size is
    # built, and the first stage's is freed before the second starts
    records = list(memo_records)
    cfg = method_config("cefc-ntd")
    resolved = _resolve_rbf(records, cfg)
    Zr, Yr = reference_ridge_system(records, resolved)
    first = Zr.nbytes + Yr.nbytes
    n = Yr.shape[1]
    second = sum(steps for _, _, steps in reference_segments(records, resolved)) * n * 8  # X
    del Zr, Yr
    tracemalloc.start()
    try:
        fit(Dataset(train=records, test=[], grid=grid), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * max(first, second)


class TestFitMemo:
    def test_alias_pair_runs_each_stage_once(self, grid, memo_records, stage_calls):
        ds = Dataset(train=list(memo_records), test=[], grid=grid)
        ntd = fit(ds, method_config("cefc-ntd"))
        edmd = fit(ds, method_config("edmd"))
        assert stage_calls == {"_regression_pairs": 1, "_input_response_fit": 1}
        assert same_model(ntd, edmd)

    @pytest.mark.parametrize("name", METHODS)
    def test_hit_equals_a_fresh_fit_of_the_records(self, grid, memo_records, dataset_small, stage_calls, name):
        cfg = method_config(name)
        ds = Dataset(train=list(memo_records), test=[], grid=grid)
        first = fit(ds, cfg)
        hit = fit(ds, cfg)
        assert stage_calls["_regression_pairs"] == 1
        fresh = fit(Dataset(train=list(memo_records), test=[], grid=grid), cfg)
        assert same_model(hit, fresh) and same_model(first, fresh)
        test = dataset_small.test[:4]
        assert repr(eval_metrics(hit, test, 50.0)) == repr(eval_metrics(fresh, test, 50.0))

    def test_hit_keeps_the_callers_label_through_save(self, grid, memo_records, tmp_path):
        ds = Dataset(train=list(memo_records), test=[], grid=grid)
        fit(ds, method_config("cefc-ntd"))
        hit = fit(ds, method_config("edmd"))
        assert hit.config.dictionary == "rbf"
        hit.save(tmp_path / "edmd.json")
        with open(tmp_path / "edmd.json") as fh:
            assert json.load(fh)["config"]["dictionary"] == "rbf"
        assert KoopmanModel.load(tmp_path / "edmd.json").config.dictionary == "rbf"

    @pytest.mark.parametrize("change", ["layout", "edited-sample", "load-base"])
    def test_each_input_of_the_fit_misses(self, grid, memo_records, stage_calls, change):
        records = own_copies(memo_records)
        ds = Dataset(train=records, test=[], grid=grid)
        cfg = method_config("dmd")
        fit(ds, cfg)
        if change == "layout":
            cfg = ObservableConfig(dt=0.1, delay_span=0.2, dictionary="delay", include_voltage=False)
        elif change == "edited-sample":
            records[3].omega[100] = np.nextafter(records[3].omega[100], 1.0)
        else:  # another split of the load base, so another pl
            loads = tuple(replace(ld, base_power=ld.base_power * (1.0 + i)) for i, ld in enumerate(grid.loads))
            ds.grid = replace(grid, loads=loads)
        again = fit(ds, cfg)
        assert stage_calls["_regression_pairs"] == 2
        assert same_model(again, fit(Dataset(train=own_copies(records), test=[], grid=ds.grid), cfg))

    def test_hits_share_the_kept_read_only_arrays(self, grid, memo_records):
        cfg = ObservableConfig(dt=0.1, delay_span=0.0, dictionary="rbf", rbf_count=5)
        ds = Dataset(train=list(memo_records), test=[], grid=grid)
        first, hit = fit(ds, cfg), fit(ds, cfg)
        fresh = fit(Dataset(train=list(memo_records), test=[], grid=grid), cfg)
        for model in (first, hit):
            for a in (model.A, model.B_l, model.B_d, model.config.rbf_centers, model.config.rbf_widths):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] += 1.0
        for name in ("A", "B_l", "B_d"):
            assert np.shares_memory(getattr(hit, name), getattr(first, name))
        assert np.shares_memory(hit.config.rbf_centers, first.config.rbf_centers)
        assert same_model(fit(ds, cfg), fresh)


class TestRollout:
    def test_rollout_length_and_start(self, cefc_model, dataset_small):
        rec = dataset_small.test[0]
        w = cefc_model.config.window_len
        k0 = w - 1
        om_hat = predict_rollout(
            cefc_model,
            rec.omega[: k0 + 1],
            rec.y[: k0 + 1],
            rec.ul[k0 : k0 + 10],
            rec.ud[k0 : k0 + 10],
            10,
        )
        assert len(om_hat) == 11
        assert om_hat[0] == rec.omega[k0]

    @pytest.mark.parametrize("name", METHODS)
    def test_equals_the_per_step_reference(self, shed_models, dataset_small, name):
        model = shed_models[name]
        w = model.config.window_len
        for rec in dataset_small.test[:3]:
            k0 = 60
            args = (rec.omega[k0 - w + 1 : k0 + 1], rec.y[k0 - w + 1 : k0 + 1], rec.ul[k0:-1], rec.ud[k0:-1], len(rec) - 1 - k0)
            assert same_bits(predict_rollout(model, *args), reference_rollout(model, *args))

    @pytest.mark.parametrize("pattern", ["held", "changing", "signed-zero", "longer", "steps-0", "steps-1"])
    def test_held_input_products_keep_the_reference_bits(self, shed_models, dataset_small, pattern):
        """Held, changing and signed-zero inputs, and sequences longer than the
        rollout or as short as 0 and 1 steps, roll out the per-step bits."""
        rng = np.random.default_rng(3)
        rec = dataset_small.test[0]
        steps = {"steps-0": 0, "steps-1": 1}.get(pattern, 40)
        p, q = rec.ul.shape[1], rec.ud.shape[1]
        ul = np.tile(rng.uniform(0.0, 0.3, p), (steps + 5, 1))
        ud = np.tile(rng.uniform(-80.0, 80.0, q), (steps + 5, 1))
        ul[:3] = 0.0  # one-shot: nothing shed before the plan
        if pattern in ("changing", "steps-1"):
            ul = rng.uniform(0.0, 0.3, ul.shape)
            ud = rng.uniform(-80.0, 80.0, ud.shape)
        elif pattern == "signed-zero":
            ul[::2] = 0.0
            ul[1::2] = -0.0
            ud[::3] = -0.0
        n = steps if pattern != "longer" else steps + 5
        for model in shed_models.values():
            w = model.config.window_len
            args = (rec.omega[60 - w + 1 : 61], rec.y[60 - w + 1 : 61], ul[:n], ud[:n], steps)
            assert same_bits(predict_rollout(model, *args), reference_rollout(model, *args))

    @pytest.mark.parametrize("pattern", ["held", "changing"])
    @pytest.mark.parametrize("layout", ["fortran", "column-strided"])
    @pytest.mark.parametrize("name", ["cefc", "edmd", "dmd"])
    def test_strided_input_sequences_keep_the_reference_bits(self, shed_models, dataset_small, name, layout, pattern):
        """Each input product is taken on the row where it lies: B_d is
        Fortran-ordered, and the row stride picks the BLAS path, so a copy of
        a row rounds differently."""
        rng = np.random.default_rng(5)
        rec = dataset_small.test[0]
        steps, p, q = 40, rec.ul.shape[1], rec.ud.shape[1]
        if pattern == "held":
            ul, ud = np.tile(rng.uniform(0.0, 0.3, p), (steps, 1)), np.tile(rng.uniform(-80.0, 80.0, q), (steps, 1))
        else:
            ul, ud = rng.uniform(0.0, 0.3, (steps, p)), rng.uniform(-80.0, 80.0, (steps, q))
        if layout == "fortran":
            ul, ud = np.asfortranarray(ul), np.asfortranarray(ud)
        else:  # every other column of a wider array
            ul, ud = np.repeat(ul, 2, axis=1)[:, ::2], np.repeat(ud, 2, axis=1)[:, ::2]
        assert not (ul.flags.c_contiguous or ud.flags.c_contiguous)
        model = shed_models[name]
        w = model.config.window_len
        args = (rec.omega[60 - w + 1 : 61], rec.y[60 - w + 1 : 61], ul, ud, steps)
        assert same_bits(predict_rollout(model, *args), reference_rollout(model, *args))

    def test_short_control_sequence_rejected(self, cefc_model, dataset_small):
        rec = dataset_small.test[0]
        w = cefc_model.config.window_len
        with pytest.raises(ValueError):
            predict_rollout(
                cefc_model, rec.omega[:w], rec.y[:w], rec.ul[:3], rec.ud[:3], 10
            )


class TestSerialization:
    def test_model_save_load_round_trip(self, cefc_model, tmp_path):
        path = tmp_path / "model.json"
        cefc_model.save(path)
        back = KoopmanModel.load(path)
        assert np.array_equal(back.A, cefc_model.A)
        assert np.array_equal(back.B_l, cefc_model.B_l)
        assert np.array_equal(back.B_d, cefc_model.B_d)
        assert back.config.rbf_count == cefc_model.config.rbf_count

    @pytest.mark.parametrize("name", METHODS)
    def test_reloaded_model_rolls_out_the_fitted_bits(self, shed_models, dataset_small, tmp_path, name):
        model = shed_models[name]
        model.save(tmp_path / "model.json")
        back = KoopmanModel.load(tmp_path / "model.json")
        assert same_model(back, model)
        for rec in dataset_small.test[:4]:
            assert same_bits(predict_record(back, rec)[1], predict_record(model, rec)[1])

    def test_model_matrices_are_read_only_in_the_fitted_layout(self):
        # built from C-ordered arrays, as a hand-made or edited model would be
        A, B_l, B_d = np.arange(9.0).reshape(3, 3) / 10, np.ones((3, 2)), np.ones((3, 2))
        model = KoopmanModel(A=A, B_l=B_l, B_d=B_d, config=method_config("dmd"))
        assert model.A.flags.f_contiguous and model.B_d.flags.f_contiguous and model.B_l.flags.c_contiguous
        assert same_bits(model.A, A) and same_bits(model.B_d, B_d)
        for a in (model.A, model.B_l, model.B_d):
            assert not a.flags.writeable

    def test_model_file_records_the_spectral_radius(self, cefc_model, tmp_path):
        path = tmp_path / "model.json"
        cefc_model.save(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["spectral_radius"] == float(np.max(np.abs(np.linalg.eigvals(cefc_model.A))))
        # loading ignores the key, and a file without it loads the same model
        del doc["spectral_radius"]
        old = tmp_path / "old.json"
        with open(old, "w") as fh:
            json.dump(doc, fh)
        for back in (KoopmanModel.load(path), KoopmanModel.load(old)):
            assert np.array_equal(back.A, cefc_model.A)
            assert np.array_equal(back.B_l, cefc_model.B_l)
            assert np.array_equal(back.B_d, cefc_model.B_d)

    def test_model_file_with_a_ridge_entry_loads_the_same_model(self, cefc_model, tmp_path):
        # files written before the ridge became a constant carry it; loading ignores it
        path = tmp_path / "model.json"
        cefc_model.save(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert "ridge" not in doc
        with open(path, "w") as fh:
            json.dump({**doc, "ridge": 1e-3}, fh)
        back = KoopmanModel.load(path)
        assert same_model(back, cefc_model)

    def test_dataset_save_load_round_trip(self, grid, tmp_path):
        ds = generate_dataset(grid, 2, 1, seed=5)
        ds.save(tmp_path / "ds")
        back = Dataset.load(tmp_path / "ds")
        assert len(back.train) == 2 and len(back.test) == 1
        for a, b in zip(back.train + back.test, ds.train + ds.test):
            for name in ("dt", "t", "omega", "y", "ul", "ud"):
                assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes(), name
            assert a.scenario == b.scenario


    @pytest.mark.parametrize("value", [float("inf"), 1.5])
    def test_dataset_with_a_value_no_simulation_writes_is_rejected(self, grid, tmp_path, value):
        ds = generate_dataset(grid, 1, 1, seed=5)
        rec = ds.test[0]
        ul = rec.ul.copy()
        ul[30, 1] = value
        ds.test[0] = replace(rec, ul=ul)
        ds.save(tmp_path / "ds")
        with pytest.raises(ValueError, match=f"traj_0000.csv line 32 column 6 holds {value!r}"):
            Dataset.load(tmp_path / "ds")


class TestGeneration:
    def test_same_seed_reproduces_the_dataset(self, grid):
        a = generate_dataset(grid, 2, 1, seed=9)
        b = generate_dataset(grid, 2, 1, seed=9)
        for ra, rb in zip(a.train + a.test, b.train + b.test):
            assert np.array_equal(ra.omega, rb.omega)
            assert np.array_equal(ra.ud, rb.ud)

    def test_train_and_test_draws_differ(self, grid):
        ds = generate_dataset(grid, 1, 1, seed=9)
        assert not np.array_equal(ds.train[0].omega, ds.test[0].omega)

    def test_counts_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            generate_dataset(grid, 0, 1, seed=1)
