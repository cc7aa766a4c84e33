"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed with the code under
test (`setup`), then runs one operation at a time (`op`).  An operation
returns a `Result`: a canonical document whose digest must repeat on the same
seed, the problems its output checks found, and its quality figures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from cefc import bench, cli, controller, koopman, robustness
from cefc.gridsim import Scenario, default_grid
from tracer import tree_bytes

SIZES = {
    # full: the measured size; tiny: the smoke-test size
    "full": {"train": 8, "test": 4, "cl_train": 8, "cl_test": 1, "off_nominal": 3, "checks": 2, "feeders": 3, "decisions": 100},
    "tiny": {"train": 4, "test": 1, "cl_train": 4, "cl_test": 1, "off_nominal": 1, "checks": 1, "feeders": 2, "decisions": 10},
}
#: closed-loop runs in one `cefc bench`: five subcases plus the LQR/max pair
BENCH_CONTROL_RUNS = len(bench.SUBCASE_INERTIA) + 2
#: fits in one `cefc bench`: Table 1 plus the refit of `cefc` for control
BENCH_FITS = len(bench.METHODS) + 1
PROP1_HORIZON = 30.0


@dataclass
class Result:
    doc: dict  # canonical outputs; its digest must repeat on the same seed
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # reported, not failed
    quality: dict = field(default_factory=dict)  # result figures, Hz / MW / share
    windows: list = field(default_factory=list)  # closed-loop activation windows, for `decide`
    expected: dict = field(default_factory=dict)  # traced per-op counts implied by the inputs
    output_bytes: int = 0  # size of the files the operation wrote

    @property
    def digest(self) -> str:
        return digest_doc(self.doc)


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"cannot serialise {type(x).__name__}")


def digest_doc(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=_plain).encode()).hexdigest()


def digest_tree(path) -> str:
    """Digest of every file under `path`: relative names and bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _fresh_dir(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- output checks --------------------------------------------------------


def check_table1(table: dict) -> list:
    """All four methods present with finite errors.

    How good the errors are (the 0.1 Hz target for `cefc`, the ordering of
    the methods) depends on the dataset size; it is reported as a metric and
    a note, not failed, because the benchmark's reduced size misses it on
    some seeds."""
    if set(table) != set(bench.METHODS):
        return [f"table1 rows {sorted(table)} != {sorted(bench.METHODS)}"]
    return [
        f"table1 {name}.{key} is not finite"
        for name, row in table.items()
        for key in ("nadir_hz", "ssv_hz", "mean_hz")
        if not math.isfinite(row[key])
    ]


def table1_notes(table: dict) -> list:
    notes = []
    if table["cefc"]["mean_hz"] >= 0.1:
        notes.append(f"table1.cefc.mean_hz {table['cefc']['mean_hz']:.4g} Hz is not below the 0.1 Hz full-size target")
    best = min(table, key=lambda n: table[n]["mean_hz"])
    if best != "cefc":
        notes.append(f"table1: {best} ({table[best]['mean_hz']:.4g} Hz) beats cefc ({table['cefc']['mean_hz']:.4g} Hz)")
    return notes


def check_shedding_series(shed_mw, label) -> list:
    """Shedding never decreases and steps up at most once (one-shot)."""
    shed = np.asarray(shed_mw, dtype=float)
    steps = np.diff(shed, axis=0)
    problems = []
    if np.any(steps < -1e-9):
        problems.append(f"{label}: shedding decreased")
    events = np.sum(np.any(steps > 1e-9, axis=-1) if steps.ndim > 1 else steps > 1e-9)
    if events > 1:
        problems.append(f"{label}: {events} shed events, expected at most one")
    return problems


def check_dc_limits(ud, lo, hi, label) -> list:
    ud = np.asarray(ud, dtype=float)
    if np.any(ud < np.asarray(lo) - 1e-9) or np.any(ud > np.asarray(hi) + 1e-9):
        return [f"{label}: DC command outside link limits"]
    return []


def check_trace(trace, limits, label) -> list:
    rec = trace.record
    problems = check_shedding_series(rec.ul, label)
    problems += check_dc_limits(trace.ud_commands, limits.ud_min, limits.ud_max, label)
    problems += check_dc_limits(rec.ud, limits.ud_min, limits.ud_max, label)
    if not np.all(np.isfinite(rec.omega)):
        problems.append(f"{label}: non-finite frequency")
    return problems


def check_prop1_report(report, n_modes, label) -> list:
    problems = []
    arrays = (report.values_learned, report.values_oracle, report.costs, report.feasible, report.modes)
    if any(len(a) != n_modes for a in arrays):
        return [f"{label}: report arrays do not have {n_modes} modes"]
    if not (0 <= report.k_star < n_modes and 0 <= report.i_star < n_modes):
        problems.append(f"{label}: selected mode out of range")
    if not (np.all(np.isfinite(report.values_learned)) and np.all(np.isfinite(report.costs))):
        problems.append(f"{label}: non-finite mode values")
    bf = report.brute_force_mode
    if bf is None:
        if np.any(report.feasible) or report.holds is not None:
            problems.append(f"{label}: no brute-force mode but feasible modes or a verdict")
    else:
        cheapest = np.min(np.asarray(report.costs)[np.asarray(report.feasible, dtype=bool)])
        if not report.feasible[bf] or report.costs[bf] != cheapest:
            problems.append(f"{label}: brute-force mode is not the cheapest feasible mode")
        if report.holds != (report.k_star == report.i_star):
            problems.append(f"{label}: holds disagrees with the selections")
    return problems


def nadir_margin_hz(nadir_pu, limits) -> float:
    return (nadir_pu - limits.omega_min) * limits.base_frequency


# -- workloads --------------------------------------------------------------


class Workload:
    name = ""
    tracer = None  # set by the runner for a traced run

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        self.grid = default_grid()
        self.limits = controller.ControlLimits.for_grid(self.grid)

    def setup(self, rep: int):
        """Build the inputs; returns (state, digest of what was built)."""
        raise NotImplementedError

    def op(self, state) -> Result:
        raise NotImplementedError

    def decide(self, state, windows) -> tuple:
        """Repeated one-shot decisions: (latencies in ms, problems)."""
        return [], []


class Reproduce(Workload):
    """`cefc bench` in-process at a reduced size."""

    name = "reproduce"

    def _config(self, path, outdir) -> str:
        with open(path, "w") as fh:
            json.dump({"seed": self.seed, "output_dir": outdir}, fh)
        return path

    def setup(self, rep):
        # warm-up through the same CLI: a one-plus-one `cefc gen-data`
        d = _fresh_dir(os.path.join(self.workdir, f"setup{rep}"))
        cfg = self._config(os.path.join(d, "config.json"), os.path.join(d, "out"))
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["gen-data", "--config", cfg, "--train", "1", "--test", "1"])
        if rc != 0:
            raise RuntimeError(f"cefc gen-data exited with {rc}")
        return cfg, digest_tree(os.path.join(d, "out"))

    def op(self, state):
        d = _fresh_dir(os.path.join(self.workdir, "op"))
        out = os.path.join(d, "out")
        cfg = self._config(os.path.join(d, "config.json"), out)
        argv = ["bench", "--config", cfg, "--train", str(self.size["train"]), "--test", str(self.size["test"])]
        with redirect_stdout(io.StringIO()):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                self.tracer.enter("cli.main")
                try:
                    rc = cli.main(argv)
                finally:
                    self.tracer.exit()
        if rc != 0:
            return Result(doc={"rc": rc}, problems=[f"cefc bench exited with {rc}"])

        with open(os.path.join(out, "table1.csv")) as fh:
            table = {
                row["method"]: {k: float(row[k]) for k in ("nadir_hz", "ssv_hz", "mean_hz")}
                for row in csv.DictReader(fh)
            }
        with open(os.path.join(out, "subcases", "summary.json")) as fh:
            subcases = json.load(fh)
        with open(os.path.join(out, "edcps_compare.json")) as fh:
            edcps = json.load(fh)

        problems = check_table1(table)
        dc_bound = sum(max(-lk.ud_min, lk.ud_max) for lk in self.grid.hvdc)
        for i in range(len(subcases)):
            cols = _read_columns(os.path.join(out, "subcases", f"subcase_{i + 1}.csv"))
            problems += check_shedding_series(cols["shed_total_mw"], f"subcase {i + 1}")
            problems += check_dc_limits(cols["ud_total_mw"], -dc_bound, dc_bound, f"subcase {i + 1}")
        cols = _read_columns(os.path.join(out, "edcps_compare.csv"))
        for key in ("ud_lqr_mw", "ud_max_mw"):
            problems += check_dc_limits(cols[key], -dc_bound, dc_bound, f"edcps {key}")

        runs = subcases + [edcps["lqr"], edcps["max"]]
        lqr_runs = subcases + [edcps["lqr"]]
        quality = _table_quality(table)
        quality.update(
            {
                "nadir_margin_hz": min(nadir_margin_hz(r["nadir_pu"], self.limits) for r in runs),
                "shed_mw": sum(sum(r["shed"]["quantized_mw"]) for r in runs if r["shed"]),
                "dc_effort_mw_s": sum(r["cumulative_abs_ud_mw_s"] for r in lqr_runs),
            }
        )
        n_traj = self.size["train"] + self.size["test"]
        return Result(
            notes=table1_notes(table),
            doc={"files": digest_tree(out)},
            output_bytes=tree_bytes(out),
            problems=problems,
            quality=quality,
            expected={
                # plus the dataset retries the trace counts
                "gridsim.simulate.calls": n_traj + BENCH_CONTROL_RUNS,
                "koopman.fit.calls": BENCH_FITS,
                "controller.coordinate.calls": BENCH_CONTROL_RUNS,
            },
        )


class Identify(Workload):
    """Load a saved dataset, then fit and score the four methods."""

    name = "identify"

    def setup(self, rep):
        path = os.path.join(_fresh_dir(os.path.join(self.workdir, f"setup{rep}")), "dataset")
        ds = koopman.generate_dataset(self.grid, self.size["train"], self.size["test"], self.seed)
        ds.save(path)
        return path, digest_tree(path)

    def op(self, state):
        ds = koopman.Dataset.load(state)
        table = {}
        for name in bench.METHODS:
            model = koopman.fit(ds, koopman.method_config(name, dt=ds.train[0].dt))
            table[name] = koopman.eval_metrics(model, ds.test, self.grid.base_frequency)
        return Result(
            doc={"table1": table},
            problems=check_table1(table),
            notes=table1_notes(table),
            quality=_table_quality(table),
            expected={
                "gridsim.simulate.calls": 0,
                "koopman.fit.calls": len(bench.METHODS),
                "koopman.Dataset.load.calls": 1,
                "koopman.predict_rollout.calls": len(bench.METHODS) * len(ds.test),
            },
        )


@dataclass
class ClosedLoopInputs:
    model: object
    off_nominal: list
    prop1_scenarios: list
    feeders: object


class ClosedLoop(Workload):
    """Coordinated closed loop, mode-selection checks and one-shot decisions."""

    name = "closed_loop"

    def _draw_scenario(self, rng, horizon) -> Scenario:
        trippable = [i for i, m in enumerate(self.grid.machines) if m.can_trip]
        n_trip = int(rng.integers(1, len(trippable) + 1))
        return Scenario(
            inertia_scale=float(rng.uniform(0.8, 0.95)),
            trip_set=tuple(sorted(rng.choice(trippable, size=n_trip, replace=False).tolist())),
            trip_time=5.0,
            extra_deficit=float(rng.uniform(0.0, 0.04)),
            horizon=horizon,
            dt=0.1,
        )

    def setup(self, rep):
        ds = koopman.generate_dataset(self.grid, self.size["cl_train"], self.size["cl_test"], self.seed)
        model = koopman.fit(ds, koopman.method_config("cefc", dt=ds.train[0].dt))
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(2)[1])
        off = [self._draw_scenario(rng, 60.0) for _ in range(self.size["off_nominal"])]
        checks = [self._draw_scenario(rng, PROP1_HORIZON) for _ in range(self.size["checks"])]
        n_feed = self.size["feeders"]
        feeders = robustness.FeederSpec(
            quanta_mw=rng.uniform(20.0, 60.0, n_feed), nodes=np.arange(n_feed) % self.grid.n_loads
        )
        inputs = ClosedLoopInputs(model, off, checks, feeders)
        built = {
            "model": [np.asarray(m).tolist() for m in (model.A, model.B_l, model.B_d)],
            "scenarios": [s.to_dict() for s in off + checks],
            "quanta": feeders.quanta_mw,
        }
        return inputs, digest_doc(built)

    def op(self, state):
        grid, limits, model = self.grid, self.limits, state.model
        runs = [("lqr", bench.control_scenario(s)) for s in bench.SUBCASE_INERTIA]
        runs.append(("max", bench.control_scenario(0.85)))
        runs += [("lqr", sc) for sc in state.off_nominal]
        traces = [controller.coordinate(grid, sc, model, limits, dc_mode=mode) for mode, sc in runs]
        reports = [
            robustness.check_prop1(model, model, grid, sc, state.feeders, limits) for sc in state.prop1_scenarios
        ]

        problems = []
        for i, ((mode, _), tr) in enumerate(zip(runs, traces)):
            problems += check_trace(tr, limits, f"run {i} ({mode})")
        n_modes = 2**state.feeders.n_feeders
        for i, rep in enumerate(reports):
            problems += check_prop1_report(rep, n_modes, f"prop1 {i}")

        windows = []  # activation window of every run, with the plan it executed
        for tr in traces:
            if tr.activation_time is None:
                continue
            k = int(round(tr.activation_time / tr.record.dt))
            w = model.config.window_len
            steps = min(int(round(30.0 / tr.record.dt)), len(tr.record) - 1 - k)
            planned = tr.plan.quantized_mw if tr.plan is not None else np.zeros(grid.n_loads)
            windows.append((tr.record.omega[k - w + 1 : k + 1], tr.record.y[k - w + 1 : k + 1], steps, planned))

        summaries = [tr.summary(grid.base_frequency) for tr in traces]
        quality = {
            "nadir_margin_hz": min(nadir_margin_hz(tr.nadir(), limits) for tr in traces),
            "shed_mw": sum(tr.plan.total_mw for tr in traces if tr.plan is not None),
            "dc_effort_mw_s": sum(s["cumulative_abs_ud_mw_s"] for (mode, _), s in zip(runs, summaries) if mode == "lqr"),
            "mode_agreement": float(np.mean([r.k_star == r.brute_force_mode for r in reports])) if reports else 0.0,
        }
        return Result(
            doc={"runs": summaries, "prop1": [r.to_dict() for r in reports]},
            problems=problems,
            quality=quality,
            windows=windows,
            expected={
                "gridsim.simulate.calls": len(runs) + len(reports) * (2 + n_modes),
                "controller.coordinate.calls": len(runs),
                "robustness.check_prop1.calls": len(reports),
                "robustness.sims_per_check": 2 + n_modes if reports else 0,
            },
        )

    def decide(self, state, windows):
        # predict_max_dc + solve_shedding, cycling over the activation windows;
        # each must reproduce the plan its closed-loop run executed
        node_base = np.array([ld.base_power for ld in self.grid.loads])
        latencies, problems = [], []
        for i in range(self.size["decisions"] if windows else 0):
            om, y, steps, planned = windows[i % len(windows)]
            t0 = time.perf_counter()
            controller.predict_max_dc(state.model, om, y, self.limits, steps)
            plan = controller.solve_shedding(state.model, om, y, self.limits, node_base, steps)
            latencies.append(1e3 * (time.perf_counter() - t0))
            if i < len(windows) and not np.array_equal(plan.quantized_mw, planned):
                problems.append(f"decision on window {i} differs from the closed-loop plan")
        return latencies, problems


WORKLOADS = {w.name: w for w in (Reproduce, Identify, ClosedLoop)}


def _table_quality(table) -> dict:
    return {
        "table1.cefc.mean_hz": table["cefc"]["mean_hz"],
        "table1.cefc.nadir_hz": table["cefc"]["nadir_hz"],
        "table1.cefc-ntd.mean_hz": table["cefc-ntd"]["mean_hz"],
        "table1.edmd.mean_hz": table["edmd"]["mean_hz"],
        "table1.dmd.mean_hz": table["dmd"]["mean_hz"],
    }


def _read_columns(path) -> dict:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
