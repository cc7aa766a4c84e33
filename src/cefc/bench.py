"""Desk-scale experiment harness.

Reproduces the experimental structure on the synthetic testbed: a
prediction-error table for the four identification configurations,
coordinated-control runs over inertia-scaled subcases, and the paired
closed-loop vs constant-support DC comparison.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .controller import ControlLimits, LqrWeights, coordinate
# bound as `_write_csv`, the name perfbench's tracer wraps
from .gridsim import GridModel, Scenario, write_table as _write_csv
from .koopman import Dataset, KoopmanModel, eval_metrics, fit, generate_dataset, method_config

METHODS = ("cefc", "cefc-ntd", "edmd", "dmd")
SUBCASE_INERTIA = (0.80, 0.85, 0.94, 0.89, 0.82)
#: inertia scale of the LQR vs constant-support comparison
EDCPS_INERTIA = 0.85


def run_prediction_table(grid: GridModel, dataset: Dataset, outdir: str) -> dict:
    """Fit every method on the shared dataset and tabulate test-set errors."""
    table = {}
    for name in METHODS:
        cfg = method_config(name, dt=dataset.train[0].dt)
        model = fit(dataset, cfg)
        table[name] = eval_metrics(model, dataset.test, grid.base_frequency)
    rows = [
        (name, m["nadir_hz"], m["ssv_hz"], m["mean_hz"]) for name, m in table.items()
    ]
    _write_csv(
        os.path.join(outdir, "table1.csv"),
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


def run_control_subcases(
    grid: GridModel, limits: ControlLimits, model: KoopmanModel, weights: LqrWeights, outdir: str
) -> list:
    """Coordinated closed-loop runs across the inertia-scaled subcases.

    `omega_pred` is NaN outside the prediction window, and in every row of a
    run that never arms.
    """
    subdir = os.path.join(outdir, "subcases")
    os.makedirs(subdir, exist_ok=True)
    results = []
    for i, scale in enumerate(SUBCASE_INERTIA):
        scenario = control_scenario(scale)
        trace = coordinate(grid, scenario, model, limits, weights)
        rows = np.column_stack(
            [
                trace.record.t,
                trace.record.omega,
                trace.omega_pred if trace.omega_pred is not None else np.full(len(trace.record), np.nan),
                np.sum(trace.ud_commands, axis=1),
                np.sum(trace.record.ul * grid.load_base_mw, axis=1),
            ]
        ).tolist()
        _write_csv(
            os.path.join(subdir, f"subcase_{i + 1}.csv"),
            ["t", "omega", "omega_pred", "ud_total_mw", "shed_total_mw"],
            rows,
        )
        results.append({"inertia_scale": scale, **trace.summary(grid.base_frequency)})
    with open(os.path.join(subdir, "summary.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    return results


def run_edcps_comparison(
    grid: GridModel, limits: ControlLimits, model: KoopmanModel, weights: LqrWeights, outdir: str
) -> dict:
    """Same scenario under LQR DC support and under constant full support."""
    scenario = control_scenario(EDCPS_INERTIA)
    trace_lqr = coordinate(grid, scenario, model, limits, weights, dc_mode="lqr")
    trace_max = coordinate(grid, scenario, model, limits, weights, dc_mode="max")
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
        os.path.join(outdir, "edcps_compare.csv"),
        ["t", "omega_lqr", "ud_lqr_mw", "omega_max", "ud_max_mw"],
        rows,
    )
    out = {
        "lqr": trace_lqr.summary(grid.base_frequency),
        "max": trace_max.summary(grid.base_frequency),
    }
    with open(os.path.join(outdir, "edcps_compare.json"), "w") as fh:
        json.dump(out, fh, indent=2)
    return out


def bench(
    grid: GridModel, limits: ControlLimits, weights: LqrWeights, n_train: int, n_test: int, seed: int, outdir: str
) -> dict:
    """`cefc bench`: the data, Table 1, the `cefc` fit, the subcases, then the LQR/max pair; returns Table 1."""
    dataset = generate_dataset(grid, n_train, n_test, seed)
    table = run_prediction_table(grid, dataset, outdir)
    model = fit(dataset, method_config("cefc", dt=dataset.train[0].dt))
    run_control_subcases(grid, limits, model, weights, outdir)
    run_edcps_comparison(grid, limits, model, weights, outdir)
    return table
