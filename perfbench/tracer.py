"""In-memory span recorder and the binding sites it wraps inside `cefc`.

The benchmark measures `cefc` from outside: it replaces each function name
where a caller looks it up (a module attribute) with a thin wrapper that
opens a span, calls the original and closes the span.  Spans are kept in
flat arrays (about 40 bytes each) and written out once, at the end of a run.

A span records its name, start, end, parent span and the workload operation
it belongs to; its self time is its duration minus the time covered by its
children.  Counters and per-call samples that a span alone cannot give
(Riccati iterations, QP active-set size, saturated LQR steps, ...) are taken
in the same wrappers, from the arguments and return values.
"""

from __future__ import annotations

import hashlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN_FIELDS = ("op", "span", "parent", "name", "t0_s", "t1_s", "self_s", "failed")


class Tracer:
    """Span stack plus flat span storage for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_t = array("d")
        self.failed = array("b")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.op_id = -1
        self.op_phase: dict[int, str] = {}
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[int, dict] = defaultdict(lambda: defaultdict(list))
        self.fit_digests: dict[int, list] = defaultdict(list)
        self.epoch = time.perf_counter()

    # -- operations --

    def begin_op(self, phase: str) -> int:
        """Start a new workload operation; spans opened from now on carry its id."""
        self.op_id += 1
        self.op_phase[self.op_id] = phase
        return self.op_id

    def ops(self, phase: str) -> list:
        return [i for i, p in self.op_phase.items() if p == phase]

    # -- spans --

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.t0)
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(nid)
        self.t1.append(0.0)
        self.self_t.append(0.0)
        self.failed.append(0)
        self._stack.append([idx, 0.0])
        self.t0.append(time.perf_counter())
        return idx

    def exit(self, failed: bool = False) -> float:
        t1 = time.perf_counter()
        idx, child = self._stack.pop()
        dur = t1 - self.t0[idx]
        self.t1[idx] = t1
        self.self_t[idx] = dur - child
        self.failed[idx] = 1 if failed else 0
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def inside(self, name: str) -> bool:
        """True when a span of this name is open on the stack."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name[i] == nid for i, _ in self._stack)

    # -- counters taken at the same boundaries --

    def count(self, key: str, n: float = 1.0):
        self.counters[self.op_id][key] += n

    def sample(self, key: str, value: float):
        self.samples[self.op_id][key].append(value)

    # -- aggregation --

    def span_table(self, ops) -> dict:
        """Per span name: calls, inclusive and self seconds, failures, durations."""
        ops = set(ops)
        out: dict[str, dict] = {}
        for i in range(len(self.t0)):
            if self.op[i] not in ops:
                continue
            row = out.setdefault(
                self.names[self.name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "dur": []}
            )
            dur = self.t1[i] - self.t0[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += self.self_t[i]
            row["failed"] += self.failed[i]
            row["dur"].append(dur)
        return out

    def write_spans(self, path):
        """One CSV row per span, times relative to the tracer's creation."""
        with open(path, "w") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for i in range(len(self.t0)):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.t0[i] - self.epoch:.9f},{self.t1[i] - self.epoch:.9f},"
                    f"{self.self_t[i]:.9f},{self.failed[i]}\n"
                )


def _wrap(tracer: Tracer, span: str, fn, before=None, after=None, on_error=None):
    """Wrapper that runs `fn` inside a span; hooks see arguments and result."""

    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        tracer.enter(span)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.exit(failed=True)
            if on_error is not None:
                on_error(exc)
            raise
        dur = tracer.exit()
        if after is not None:
            after(args, kwargs, out, dur)
        return out

    traced.__wrapped__ = fn
    return traced


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def method_name(config) -> str:
    """Name of the benchmarked method whose observable setup `config` matches."""
    from cefc.koopman import method_config

    for name in ("cefc", "cefc-ntd", "edmd", "dmd"):
        ref = method_config(name, dt=config.dt)
        if (ref.dictionary, ref.delay_span, ref.rbf_count, ref.include_voltage) == (
            config.dictionary,
            config.delay_span,
            config.rbf_count,
            config.include_voltage,
        ):
            return name
    return "other"


class Bindings:
    """Installs the tracing wrappers on every binding site and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def install(self):
        from cefc import bench, cli, controller, gridsim, koopman, qp, robustness
        from cefc.gridsim import SimulationError

        tr = self.tracer

        def w(span, fn, **hooks):
            return _wrap(tr, span, fn, **hooks)

        # -- gridsim.simulate, looked up as gridsim.simulate (controller,
        # robustness) and imported by name into koopman and cli --
        def policy_wrapper(policy, in_controller):
            def traced_policy(t, om_hist, y_hist):
                tr.enter("gridsim.policy")
                try:
                    out = policy(t, om_hist, y_hist)
                finally:
                    dur = tr.exit()
                if in_controller:
                    tr.sample("controller.policy_us", dur * 1e6)
                return out

            return traced_policy

        def sim_before(args, kwargs):
            policy = _arg(args, kwargs, 2, "policy")
            if policy is not None:
                wrapped = policy_wrapper(policy, tr.inside("controller.coordinate"))
                if len(args) > 2:
                    args = args[:2] + (wrapped,) + args[3:]
                else:
                    kwargs = dict(kwargs, policy=wrapped)
            return args, kwargs

        def sim_after(args, kwargs, rec, dur):
            scenario = _arg(args, kwargs, 1, "scenario")
            substeps = _arg(args, kwargs, 3, "substeps", 4)
            steps = int(round(scenario.horizon / scenario.dt))
            tr.count("gridsim.rhs_evals", steps * substeps * 4)  # computed, not counted
            tr.count("gridsim.simulated_s", steps * scenario.dt)

        def sim_error(exc):
            if isinstance(exc, SimulationError) and tr.inside("koopman.generate_dataset"):
                tr.count("koopman.generate_dataset.retries")

        sim = gridsim.__dict__["simulate"]
        for owner in (gridsim, koopman, cli):
            self._set(owner, "simulate", w("gridsim.simulate", sim, before=sim_before, after=sim_after, on_error=sim_error))

        # -- koopman --
        def fit_after(args, kwargs, model, dur):
            name = method_name(_arg(args, kwargs, 1, "config"))
            tr.count(f"koopman.fit.{name}.s", dur)
            tr.sample(f"koopman.dim.{name}", model.dim)
            h = hashlib.sha256()
            for mat in (model.A, model.B_l, model.B_d):
                h.update(np.ascontiguousarray(mat).tobytes())
            tr.fit_digests[tr.op_id].append(h.hexdigest())
            if name == "cefc":
                tr.sample("koopman.spectral_radius.cefc", float(np.max(np.abs(np.linalg.eigvals(model.A)))))

        fit = koopman.__dict__["fit"]
        for owner in (koopman, bench, cli):
            self._set(owner, "fit", w("koopman.fit", fit, after=fit_after))
        gen = koopman.__dict__["generate_dataset"]
        for owner in (koopman, bench, cli):
            self._set(owner, "generate_dataset", w("koopman.generate_dataset", gen))
        ev = koopman.__dict__["eval_metrics"]
        for owner in (koopman, bench):
            self._set(owner, "eval_metrics", w("koopman.eval_metrics", ev))
        for stage in ("_resolve_rbf", "_regression_pairs", "_ridge_lstsq", "_input_response_fit"):
            self._set(koopman, stage, w(f"koopman.{stage}", koopman.__dict__[stage]))
        lift = koopman.__dict__["lift"]
        for owner in (koopman, controller, robustness):
            self._set(owner, "lift", w("koopman.lift", lift))
        rollout = koopman.__dict__["predict_rollout"]
        for owner in (koopman, controller):
            self._set(owner, "predict_rollout", w("koopman.predict_rollout", rollout))

        def load_after(args, kwargs, ds, dur):
            tr.count("koopman.Dataset.load.bytes", tree_bytes(_arg(args, kwargs, 1, "outdir")))

        load = koopman.Dataset.__dict__["load"].__func__
        self._set(koopman.Dataset, "load", classmethod(w("koopman.Dataset.load", load, after=load_after)))

        # -- controller --
        def coordinate_after(args, kwargs, trace, dur):
            if trace.omega_pred is not None:
                gap = np.nanmax(np.abs(trace.omega_pred - trace.record.omega))
                limits = _arg(args, kwargs, 3, "limits")
                tr.sample("controller.pred_gap_hz", float(gap) * limits.base_frequency)

        coord = controller.__dict__["coordinate"]
        for owner in (controller, bench, cli):
            self._set(owner, "coordinate", w("controller.coordinate", coord, after=coordinate_after))

        def dare_after(args, kwargs, sol, dur):
            tr.sample("controller.solve_dare.iterations", sol.iterations)

        self._set(controller, "solve_dare", w("controller.solve_dare", controller.__dict__["solve_dare"], after=dare_after))

        def lqr_after(args, kwargs, u, dur):
            g, sol, limits = args[0], args[1], args[2]
            raw = -sol.K @ np.asarray(g, dtype=float)
            tr.count("controller.lqr_saturated", float(np.any((raw < limits.ud_min) | (raw > limits.ud_max))))

        self._set(controller, "lqr_step", w("controller.lqr_step", controller.__dict__["lqr_step"], after=lqr_after))

        def shed_after(args, kwargs, plan, dur):
            tr.count("controller.shed_feasible", float(plan.feasible))
            tr.count("controller.quantization_mw", float(np.sum(np.abs(plan.quantized_mw - plan.continuous_mw))))

        self._set(controller, "solve_shedding", w("controller.solve_shedding", controller.__dict__["solve_shedding"], after=shed_after))

        # -- qp, looked up by name in controller --
        def qp_after(args, kwargs, out, dur):
            tr.sample("qp.active_set_size", len(out[1]))

        self._set(controller, "solve_qp", w("qp.solve_qp", qp.__dict__["solve_qp"], after=qp_after))

        # -- robustness --
        def prop1_after(args, kwargs, report, dur):
            tr.sample("robustness.feasible_mode_share", float(np.mean(report.feasible)))

        prop1 = robustness.__dict__["check_prop1"]
        for owner in (robustness, cli):
            self._set(owner, "check_prop1", w("robustness.check_prop1", prop1, after=prop1_after))
        for name in ("brute_force_mode", "mode_hamiltonian_values"):
            self._set(robustness, name, w(f"robustness.{name}", robustness.__dict__[name]))

        # -- bench, looked up as bench_mod.<name> by cli --
        for name in ("run_prediction_table", "run_control_subcases", "run_edcps_comparison", "_write_csv"):
            self._set(bench, name, w(f"bench.{name}", bench.__dict__[name]))
        return self


def tree_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def layer_metrics(tracer: Tracer, phase: str = "timed") -> dict:
    """Per-layer metrics of one phase, as means per operation of that phase."""
    ops = tracer.ops(phase)
    n_ops = max(1, len(ops))
    spans = tracer.span_table(ops)
    counters: dict[str, float] = defaultdict(float)
    samples: dict[str, list] = defaultdict(list)
    useful = []  # distinct fitted (A, B_l, B_d) per fit call, per operation
    for op in ops:
        for k, v in tracer.counters[op].items():
            counters[k] += v
        for k, v in tracer.samples[op].items():
            samples[k].extend(v)
        if tracer.fit_digests[op]:
            useful.append(len(set(tracer.fit_digests[op])) / len(tracer.fit_digests[op]))

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per_op(x):
        return x / n_ops

    def sec(name, key="s"):
        return per_op(spans.get(name, {}).get(key, 0.0))

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def share(num, den):
        return num / den if den else 0.0

    sim_self = spans.get("gridsim.simulate", {}).get("self_s", 0.0)
    m = {
        "gridsim.simulate.calls": per_op(calls("gridsim.simulate")),
        "gridsim.simulate.self_s": sec("gridsim.simulate", "self_s"),
        "gridsim.simulate.ms_p50": 1e3 * pct(spans.get("gridsim.simulate", {}).get("dur", []), 50),
        "gridsim.simulate.failed": per_op(spans.get("gridsim.simulate", {}).get("failed", 0)),
        "gridsim.rhs_evals": per_op(counters["gridsim.rhs_evals"]),
        "gridsim.sim_s_per_s": share(counters["gridsim.simulated_s"], sim_self),
        "gridsim.policy.calls": per_op(calls("gridsim.policy")),
        "gridsim.policy.s": sec("gridsim.policy"),
        "koopman.generate_dataset.s": sec("koopman.generate_dataset"),
        "koopman.generate_dataset.retries": per_op(counters["koopman.generate_dataset.retries"]),
        "koopman.fit.calls": per_op(calls("koopman.fit")),
        "koopman.fit.s": sec("koopman.fit"),
    }
    for name in ("cefc", "cefc-ntd", "edmd", "dmd"):
        m[f"koopman.fit.{name}.s"] = per_op(counters[f"koopman.fit.{name}.s"])
    m["koopman.fit.useful_ratio"] = mean(useful)
    for stage in ("_resolve_rbf", "_regression_pairs", "_ridge_lstsq", "_input_response_fit"):
        m[f"koopman.{stage}.s"] = sec(f"koopman.{stage}")
    m.update(
        {
            "koopman.lift.calls": per_op(calls("koopman.lift")),
            "koopman.lift.s": sec("koopman.lift"),
            "koopman.eval_metrics.s": sec("koopman.eval_metrics"),
            "koopman.predict_rollout.calls": per_op(calls("koopman.predict_rollout")),
            "koopman.Dataset.load.calls": per_op(calls("koopman.Dataset.load")),
            "koopman.Dataset.load.s": sec("koopman.Dataset.load"),
            "koopman.Dataset.load.bytes": per_op(counters["koopman.Dataset.load.bytes"]),
            "koopman.spectral_radius.cefc": mean(samples["koopman.spectral_radius.cefc"]),
        }
    )
    for name in ("cefc", "cefc-ntd", "edmd", "dmd"):
        m[f"koopman.dim.{name}"] = mean(samples[f"koopman.dim.{name}"])
    n_lqr = calls("controller.lqr_step")
    n_shed = calls("controller.solve_shedding")
    m.update(
        {
            "controller.coordinate.calls": per_op(calls("controller.coordinate")),
            "controller.coordinate.self_s": sec("controller.coordinate", "self_s"),
            "controller.solve_dare.s": sec("controller.solve_dare"),
            "controller.solve_dare.iterations": mean(samples["controller.solve_dare.iterations"]),
            "controller.policy_us.p50": pct(samples["controller.policy_us"], 50),
            "controller.policy_us.p99": pct(samples["controller.policy_us"], 99),
            "controller.lqr_step.calls": per_op(n_lqr),
            "controller.lqr_saturation_share": share(counters["controller.lqr_saturated"], n_lqr),
            "controller.solve_shedding.calls": per_op(n_shed),
            "controller.solve_shedding.s": sec("controller.solve_shedding"),
            "controller.shed_feasible_share": share(counters["controller.shed_feasible"], n_shed),
            "controller.quantization_mw": share(counters["controller.quantization_mw"], n_shed),
            "controller.pred_gap_hz": max(samples["controller.pred_gap_hz"], default=0.0),
            "qp.solve_qp.calls": per_op(calls("qp.solve_qp")),
            "qp.solve_qp.s": sec("qp.solve_qp"),
            "qp.active_set_size": mean(samples["qp.active_set_size"]),
            "qp.failed": per_op(spans.get("qp.solve_qp", {}).get("failed", 0)),
            "robustness.check_prop1.calls": per_op(calls("robustness.check_prop1")),
            "robustness.check_prop1.self_s": sec("robustness.check_prop1", "self_s"),
            "robustness.brute_force_mode.s": sec("robustness.brute_force_mode"),
            "robustness.sims_per_check": share(
                sum(c["robustness.check_prop1.sims"] for c in calls_per_op(tracer, ops).values()),
                calls("robustness.check_prop1"),
            ),
            "robustness.mode_hamiltonian_values.calls": per_op(calls("robustness.mode_hamiltonian_values")),
            "robustness.feasible_mode_share": mean(samples["robustness.feasible_mode_share"]),
            "bench.run_prediction_table.s": sec("bench.run_prediction_table"),
            "bench.run_control_subcases.s": sec("bench.run_control_subcases"),
            "bench.run_edcps_comparison.s": sec("bench.run_edcps_comparison"),
            "bench._write_csv.s": sec("bench._write_csv"),
            "cli.main.s": sec("cli.main"),
            "trace.spans": per_op(sum(row["calls"] for row in spans.values())),
        }
    )
    # self time by module; a simulation's policy callback is its own bucket
    modules = ("gridsim", "policy", "koopman", "controller", "qp", "robustness", "bench", "cli")
    by_module = dict.fromkeys(modules, 0.0)
    for name, row in spans.items():
        module = "policy" if name == "gridsim.policy" else name.split(".")[0]
        by_module[module] += row["self_s"]
    for module in modules:
        m[f"self_s.{module}"] = per_op(by_module[module])
    return m


def calls_per_op(tracer: Tracer, ops) -> dict:
    """Per operation: `<span>.calls` for every span name, and the simulations
    run under `robustness.check_prop1` as `robustness.check_prop1.sims`."""
    out = {op: defaultdict(int) for op in ops}
    names = tracer.names
    sim = names.index("gridsim.simulate") if "gridsim.simulate" in names else -1
    prop1 = names.index("robustness.check_prop1") if "robustness.check_prop1" in names else -1
    for i in range(len(tracer.t0)):
        got = out.get(tracer.op[i])
        if got is None:
            continue
        got[names[tracer.name[i]] + ".calls"] += 1
        if tracer.name[i] == sim and prop1 >= 0:
            p = tracer.parent[i]
            while p >= 0 and tracer.name[p] != prop1:
                p = tracer.parent[p]
            if p >= 0:
                got["robustness.check_prop1.sims"] += 1
    return out
