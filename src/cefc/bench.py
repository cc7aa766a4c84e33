"""Desk-scale experiment harness.

Reproduces the experimental structure on the synthetic testbed: a
prediction-error table for the four identification configurations,
coordinated-control runs over inertia-scaled subcases, and the paired
closed-loop vs constant-support DC comparison.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .controller import ControlLimits, LqrWeights, coordinate
# bound as `_write_csv`, the name perfbench's tracer wraps
from .gridsim import GridModel, Scenario, default_grid, write_table as _write_csv
from .koopman import Dataset, KoopmanModel, eval_metrics, fit, generate_dataset, method_config

METHODS = ("cefc", "cefc-ntd", "edmd", "dmd")
SUBCASE_INERTIA = (0.80, 0.85, 0.94, 0.89, 0.82)
#: inertia scale of the LQR vs constant-support comparison
EDCPS_INERTIA = 0.85


@dataclass
class BenchSuite:
    grid: GridModel = field(default_factory=default_grid)
    methods: tuple = METHODS
    n_train: int = 300
    n_test: int = 200
    seed: int = 7
    inertia_scales: tuple = SUBCASE_INERTIA
    outdir: str = "bench_out"
    limits: ControlLimits | None = None

    def __post_init__(self):
        if self.limits is None:
            self.limits = ControlLimits.for_grid(self.grid)
        os.makedirs(self.outdir, exist_ok=True)


def run_prediction_table(suite: BenchSuite, dataset: Dataset | None = None) -> dict:
    """Fit every method on the shared dataset and tabulate test-set errors."""
    if dataset is None:
        dataset = generate_dataset(suite.grid, suite.n_train, suite.n_test, suite.seed)
    table = {}
    for name in suite.methods:
        cfg = method_config(name, dt=dataset.train[0].dt)
        model = fit(dataset, cfg)
        table[name] = eval_metrics(model, dataset.test, suite.grid.base_frequency)
    rows = [
        (name, m["nadir_hz"], m["ssv_hz"], m["mean_hz"]) for name, m in table.items()
    ]
    _write_csv(
        os.path.join(suite.outdir, "table1.csv"),
        ["method", "nadir_hz", "ssv_hz", "mean_hz"],
        rows,
    )
    return table


def control_scenario(inertia_scale: float) -> Scenario:
    """Large-deficit subcase used in the coordinated-control experiments."""
    return Scenario(
        inertia_scale=inertia_scale,
        trip_set=(1, 2, 3),
        trip_time=5.0,
        noise_amplitude=0.0,
        horizon=60.0,
        dt=0.1,
    )


def run_control_subcases(suite: BenchSuite, model: KoopmanModel, weights: LqrWeights | None = None) -> list:
    """Coordinated closed-loop runs across the inertia-scaled subcases."""
    subdir = os.path.join(suite.outdir, "subcases")
    os.makedirs(subdir, exist_ok=True)
    results = []
    for i, scale in enumerate(suite.inertia_scales):
        scenario = control_scenario(scale)
        trace = coordinate(suite.grid, scenario, model, suite.limits, weights)
        rows = np.column_stack(
            [
                trace.record.t,
                trace.record.omega,
                np.nan_to_num(trace.omega_pred, nan=0.0)
                if trace.omega_pred is not None
                else np.zeros(len(trace.record)),
                np.sum(trace.ud_commands, axis=1),
                np.sum(trace.record.ul * [ld.base_power for ld in suite.grid.loads], axis=1),
            ]
        ).tolist()
        _write_csv(
            os.path.join(subdir, f"subcase_{i + 1}.csv"),
            ["t", "omega", "omega_pred", "ud_total_mw", "shed_total_mw"],
            rows,
        )
        results.append({"inertia_scale": scale, **trace.summary(suite.grid.base_frequency)})
    with open(os.path.join(suite.outdir, "subcases", "summary.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    return results


def run_edcps_comparison(suite: BenchSuite, model: KoopmanModel, weights: LqrWeights | None = None) -> dict:
    """Same scenario under LQR DC support and under constant full support."""
    scenario = control_scenario(EDCPS_INERTIA)
    trace_lqr = coordinate(suite.grid, scenario, model, suite.limits, weights, dc_mode="lqr")
    trace_max = coordinate(suite.grid, scenario, model, suite.limits, weights, dc_mode="max")
    rows = np.column_stack(
        [
            trace_lqr.record.t,
            trace_lqr.record.omega,
            np.sum(trace_lqr.ud_commands, axis=1),
            trace_max.record.omega,
            np.sum(trace_max.ud_commands, axis=1),
        ]
    ).tolist()
    _write_csv(
        os.path.join(suite.outdir, "edcps_compare.csv"),
        ["t", "omega_lqr", "ud_lqr_mw", "omega_max", "ud_max_mw"],
        rows,
    )
    out = {
        "lqr": trace_lqr.summary(suite.grid.base_frequency),
        "max": trace_max.summary(suite.grid.base_frequency),
    }
    with open(os.path.join(suite.outdir, "edcps_compare.json"), "w") as fh:
        json.dump(out, fh, indent=2)
    return out
