import csv
import json
import os

import numpy as np
import pytest

from cefc.bench import (
    EDCPS_INERTIA,
    METHODS,
    SUBCASE_INERTIA,
    control_scenario,
    run_control_subcases,
    run_edcps_comparison,
    run_prediction_table,
)
from cefc.controller import LqrWeights
from cefc.koopman import fit, generate_dataset, method_config


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def weights():
    return LqrWeights()


@pytest.fixture(scope="module")
def subcases(grid, limits, cefc_model, weights, outdir):
    return run_control_subcases(grid, limits, cefc_model, weights, outdir)


@pytest.fixture(scope="module")
def edcps(grid, limits, cefc_model, weights, outdir):
    return run_edcps_comparison(grid, limits, cefc_model, weights, outdir)


@pytest.fixture(scope="module", params=["cefc_model", 1, 7])
def bench_subcases(request, grid, limits, weights, subcases, tmp_path_factory):
    """The subcase summaries of the `cefc_model` fixture, and of `cefc bench
    --train 8 --test 4` on seeds 1 and 7."""
    if request.param == "cefc_model":
        return subcases
    ds = generate_dataset(grid, 8, 4, seed=request.param)
    model = fit(ds, method_config("cefc", dt=ds.train[0].dt))
    return run_control_subcases(grid, limits, model, weights, str(tmp_path_factory.mktemp("bench8")))


def read_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in rows[0]}


def test_subcase_inertia_values():
    assert SUBCASE_INERTIA == (0.80, 0.85, 0.94, 0.89, 0.82)


def test_control_scenario_layout():
    sc = control_scenario(0.85)
    assert sc.inertia_scale == 0.85
    assert sc.trip_set == (1, 2, 3)
    assert sc.trip_time == 5.0
    assert sc.noise_amplitude == 0.0


def test_prediction_table_outputs(grid, dataset_small, outdir):
    table = run_prediction_table(grid, dataset_small, outdir)
    assert tuple(table) == METHODS
    path = os.path.join(outdir, "table1.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,nadir_hz,ssv_hz,mean_hz"
    assert len(lines) == len(METHODS) + 1


def test_control_subcases_outputs(subcases, outdir):
    assert len(subcases) == len(SUBCASE_INERTIA)
    for i in range(len(subcases)):
        assert os.path.exists(os.path.join(outdir, "subcases", f"subcase_{i + 1}.csv"))
    with open(os.path.join(outdir, "subcases", "summary.json")) as fh:
        summary = json.load(fh)
    assert [r["inertia_scale"] for r in summary] == list(SUBCASE_INERTIA)
    for r in summary:
        assert r["nadir_hz"] > 48.0  # arrested decline in every subcase


def test_every_feasible_continuous_plan_sheds_one_ratio_at_every_node(grid, bench_subcases):
    # the model takes the shed as one channel, B_l = β plᵀ, and Q1 = diag(pl),
    # so the cheapest shed of a given power takes one ratio of every load base
    plans = [r["shed"] for r in bench_subcases if r["shed"] is not None and r["shed"]["feasible"]]
    assert any(sum(plan["continuous_mw"]) > 0 for plan in plans)
    for plan in plans:
        ratio = np.asarray(plan["continuous_mw"]) / grid.load_base_mw
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12, atol=0)


def test_edcps_comparison_outputs(edcps, outdir):
    assert edcps["lqr"]["cumulative_abs_ud_mw_s"] < edcps["max"]["cumulative_abs_ud_mw_s"]
    assert os.path.exists(os.path.join(outdir, "edcps_compare.csv"))
    assert os.path.exists(os.path.join(outdir, "edcps_compare.json"))


def test_edcps_lqr_run_is_the_subcase_at_its_inertia(subcases, edcps, outdir):
    # the LQR side of the comparison repeats the subcase at the same inertia,
    # with the same model, limits and weights
    i = SUBCASE_INERTIA.index(EDCPS_INERTIA)
    summary = dict(subcases[i])
    assert summary.pop("inertia_scale") == EDCPS_INERTIA
    assert summary == edcps["lqr"]
    subcase = read_columns(os.path.join(outdir, "subcases", f"subcase_{i + 1}.csv"))
    compare = read_columns(os.path.join(outdir, "edcps_compare.csv"))
    assert compare["t"] == subcase["t"]
    assert compare["omega_lqr"] == subcase["omega"]
    assert compare["ud_lqr_mw"] == subcase["ud_total_mw"]


def test_prediction_table_is_deterministic(grid, tmp_path):
    outputs = []
    for run in ("a", "b"):
        outdir = str(tmp_path / run)
        os.makedirs(outdir)
        run_prediction_table(grid, generate_dataset(grid, 4, 2, seed=33), outdir)
        with open(os.path.join(outdir, "table1.csv"), "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]
