import csv
import json
import os
import shutil

import numpy as np
import pytest

from cefc import cli
from cefc.bench import METHODS, SUBCASE_INERTIA
from cefc.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from cefc.gridsim import Scenario, default_grid, simulate
from cefc.koopman import Dataset, KoopmanModel, eval_metrics, fit, method_config, predict_record

GRID = default_grid().to_dict()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config + generated dataset + fitted model shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seed": 17,
        "output_dir": str(root / "out"),
        "scenario": {
            "inertia_scale": 0.85,
            "trip_set": [1, 2, 3],
            "trip_time": 5.0,
            "horizon": 30.0,
            "dt": 0.1,
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(cfg_path), "--train", "6", "--test", "3"]) == EXIT_OK
    assert main(["fit", "--config", str(cfg_path), "--method", "dmd"]) == EXIT_OK
    return {"root": root, "cfg_path": str(cfg_path), "out": cfg["output_dir"]}


def config_with(tmp_path, workspace, **changes) -> str:
    """The workspace config with `changes` applied, written under `tmp_path`."""
    with open(workspace["cfg_path"]) as fh:
        cfg = json.load(fh)
    cfg.update({"output_dir": str(tmp_path / "out"), **changes})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_data_writes_a_manifest(workspace):
    with open(os.path.join(workspace["out"], "dataset", "manifest.json")) as fh:
        manifest = json.load(fh)
    assert len(manifest["train"]) == 6
    assert len(manifest["test"]) == 3
    assert all(os.path.exists(os.path.join(workspace["out"], "dataset", e["file"])) for e in manifest["train"])


def test_fit_writes_a_model(workspace):
    assert os.path.exists(os.path.join(workspace["out"], "model_dmd.json"))


def test_predict_is_deterministic(workspace):
    model = os.path.join(workspace["out"], "model_dmd.json")
    pred = os.path.join(workspace["out"], "prediction.csv")
    outputs = []
    for _ in range(2):
        assert main(["predict", "--config", workspace["cfg_path"], "--model", model]) == EXIT_OK
        with open(pred, "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


def test_predict_writes_the_rollout_that_eval_metrics_scores(workspace):
    model_path = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["predict", "--config", workspace["cfg_path"], "--model", model_path]) == EXIT_OK
    with open(os.path.join(workspace["out"], "prediction.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))

    model = KoopmanModel.load(model_path)
    with open(workspace["cfg_path"]) as fh:
        rec = simulate(default_grid(), Scenario.from_dict(json.load(fh)["scenario"]))
    k0, om_hat = predict_record(model, rec)
    # each value is its shortest repr, which reads back as the same float
    assert [r["t"] for r in rows] == [repr(v) for v in rec.t[k0:].tolist()]
    assert [r["omega_pred"] for r in rows] == [repr(v) for v in om_hat.tolist()]
    assert [r["omega_true"] for r in rows] == [repr(v) for v in rec.omega[k0:].tolist()]

    # the written columns give back the errors eval_metrics scores on the record
    true = np.array([float(r["omega_true"]) for r in rows])
    pred = np.array([float(r["omega_pred"]) for r in rows])
    tail = int(round(5.0 / rec.dt))
    m = eval_metrics(model, [rec], 50.0)
    assert m["n_records"] == 1
    assert m["nadir_hz"] == 50.0 * abs(pred.min() - true.min())
    assert m["ssv_hz"] == 50.0 * abs(pred[-tail:].mean() - true[-tail:].mean())
    assert m["mean_hz"] == 50.0 * np.mean(np.abs(pred - true))


def test_control_writes_trace_and_summary(workspace):
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", workspace["cfg_path"], "--model", model]) == EXIT_OK
    assert os.path.exists(os.path.join(workspace["out"], "control_trace.csv"))
    with open(os.path.join(workspace["out"], "control_summary.json")) as fh:
        summary = json.load(fh)
    assert "nadir_hz" in summary and "cumulative_abs_ud_mw_s" in summary


def test_prop1_reports_eight_modes(workspace):
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["prop1", "--config", workspace["cfg_path"], "--model", model, "--feeders", "3"]) == EXIT_OK
    with open(os.path.join(workspace["out"], "prop1_report.json")) as fh:
        report = json.load(fh)
    assert len(report["modes"]) == 8


def test_unknown_command_is_a_usage_error(workspace):
    assert main(["frobnicate", "--config", workspace["cfg_path"]]) == EXIT_USAGE


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["fit", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_config_without_seed_is_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
    assert main(["gen-data", "--config", str(path), "--train", "1", "--test", "1"]) == EXIT_CONFIG


def test_invalid_scenario_is_a_config_error(tmp_path, workspace):
    path = tmp_path / "c.json"
    cfg = {
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "scenario": {"trip_set": [0], "trip_time": 5.0, "horizon": 10.0, "dt": 0.1},
    }
    path.write_text(json.dumps(cfg))
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["predict", "--config", str(path), "--model", model]) == EXIT_CONFIG


def test_diverging_scenario_is_a_numerical_error(tmp_path, workspace):
    path = tmp_path / "c.json"
    cfg = {
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "scenario": {
            "trip_set": [1],
            "extra_deficit": 8.0,
            "trip_time": 5.0,
            "horizon": 30.0,
            "dt": 0.1,
        },
    }
    path.write_text(json.dumps(cfg))
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["predict", "--config", str(path), "--model", model]) == EXIT_NUMERICAL


def test_linear_algebra_failure_is_a_numerical_error(tmp_path, workspace, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, so the config-error clause must not see it first
    def fail(data, config):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "fit", fail)
    model = tmp_path / "m.json"
    assert main(["fit", "--config", workspace["cfg_path"], "--method", "dmd", "--model", str(model)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: SVD did not converge\n"
    assert not model.exists()


@pytest.mark.parametrize(
    "scenario",
    [
        {"trip_set": [], "noise_amplitude": -3.0},
        {"trip_set": [], "noise_amplitude": float("nan")},
        {"trip_set": [1], "trip_time": float("nan")},
        {"trip_set": [1], "trip_time": "5"},
        {"trip_set": [1.5]},
        {"trip_set": [True]},
    ],
)
def test_invalid_scenario_value_is_a_config_error(tmp_path, workspace, capsys, scenario):
    path = config_with(tmp_path, workspace, scenario=dict(scenario, horizon=20.0, dt=0.1))
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_CONFIG
    assert "config error: " in capsys.readouterr().err


def test_trip_between_samples_is_a_config_error(tmp_path, workspace, capsys):
    scenario = {"trip_set": [1], "trip_time": 5.05, "horizon": 20.0, "dt": 0.1}
    path = config_with(tmp_path, workspace, scenario=scenario)
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "trip_time" in err and "Traceback" not in err


def test_horizon_ending_before_the_prediction_start_is_a_config_error(tmp_path, workspace, capsys):
    scenario = {"trip_set": [1], "trip_time": 5.0, "horizon": 5.0, "dt": 0.1}
    path = config_with(tmp_path, workspace, scenario=scenario)
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["predict", "--config", path, "--model", model]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_prop1_horizon_ending_before_the_measurement_window_is_a_config_error(tmp_path, workspace, capsys):
    scenario = {"trip_set": [1], "trip_time": 5.0, "horizon": 5.2, "dt": 0.1}
    path = config_with(tmp_path, workspace, scenario=scenario)
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["prop1", "--config", path, "--model", model]) == EXIT_CONFIG
    assert "horizon ends before the measurement window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [
        {"grid": "no-such-grid.json"},
        {"scenario": "no-such-scenario.json"},
        {"scenario": [1, 2]},
        {"grid": {**GRID, "machines": [{"inertia": 5}]}},
        {"grid": {key: value for key, value in GRID.items() if key != "machines"}},
        {"limits": {"quantum_mw": "ten"}},
    ],
    ids=["grid-file", "scenario-file", "scenario-list", "machine-fields", "grid-machines", "limits-type"],
)
def test_malformed_config_section_is_a_config_error(tmp_path, workspace, capsys, changes):
    path = config_with(tmp_path, workspace, **changes)
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_CONFIG
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "limits, key",
    [
        ({"planning_margin_pu": float("nan")}, "planning_margin_pu"),
        ({"planning_margin_pu": -1.0}, "planning_margin_pu"),
        ({"ul_max": 5.0}, "ul_max"),
        ({"ul_max": float("nan")}, "ul_max"),
        ({"ul_max": -0.1}, "ul_max"),
        # one ratio for every node: a list, even of valid ratios, is refused
        ({"ul_max": [True, 0.1, 0.2]}, "ul_max"),
        ({"ul_max": [0.1, 0.2, 0.3]}, "ul_max"),
        ({"ul_max": "0.3"}, "ul_max"),
        ({"quantum_mw": float("nan")}, "quantum_mw"),
        ({"quantum_mw": float("inf")}, "quantum_mw"),
        ({"quantum_mw": 0.0}, "quantum_mw"),
        ({"activation_threshold_hz": -1.0}, "activation_threshold_hz"),
        ({"activation_threshold_hz": float("inf")}, "activation_threshold_hz"),
        ({"omega_min": float("-inf")}, "omega_min"),
        ({"omega_min": float("nan")}, "omega_min"),
    ],
    ids=["margin-nan", "margin-negative", "ul-max-5", "ul-max-nan", "ul-max-negative", "ul-max-list-with-true",
         "ul-max-list", "ul-max-string", "quantum-nan", "quantum-inf",
         "quantum-zero", "threshold-negative", "threshold-inf", "floor-minus-inf", "floor-nan"],
)
def test_limits_value_that_can_break_safety_is_a_config_error(tmp_path, workspace, capsys, limits, key):
    path = config_with(tmp_path, workspace, limits=limits)
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out" / "control_summary.json").exists()


@pytest.mark.parametrize(
    "section, value, named",
    [
        ("scenario", {"trip_set": [1, 1]}, "trip_set"),
        ("scenario", {"trip_set": [1], "noise_amplitude": 2.0, "noise_seed": 1.5}, "noise_seed"),
        ("scenario", {"trip_set": [1], "noise_seed": -1}, "noise_seed"),
        ("scenario", {"trip_set": [1], "noise_seed": True}, "noise_seed"),
        ("weights", {"r": float("inf")}, "(r)"),
        ("weights", {"r": float("nan")}, "(r)"),
        ("weights", {"q_omega": float("inf")}, "(q_omega)"),
        ("weights", {"q_omega": float("nan")}, "(q_omega)"),
        # true is not a number: it would read as 1 (shed every load, 1 MW quanta, r = 1)
        ("limits", {"ul_max": True}, "ul_max"),
        ("limits", {"quantum_mw": True}, "quantum_mw"),
        ("scenario", {"trip_set": [1], "inertia_scale": True}, "inertia_scale"),
        ("weights", {"r": True}, "(r)"),
        # 20.05 s lies between two 0.1 s samples
        ("scenario", {"trip_set": [1], "horizon": 20.05}, "horizon"),
    ],
    ids=["trip-repeated", "seed-float", "seed-negative", "seed-bool", "r-inf", "r-nan", "q-inf", "q-nan",
         "ul-max-bool", "quantum-bool", "inertia-scale-bool", "r-bool", "horizon-between-samples"],
)
def test_scenario_or_weights_value_is_a_config_error_that_names_the_key(tmp_path, workspace, capsys, section, value, named):
    if section == "scenario":
        value = {"horizon": 20.0, "dt": 0.1, **value}
    path = config_with(tmp_path, workspace, **{section: value})
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "out" / "control_summary.json").exists()


@pytest.mark.parametrize(
    "key, index, field, value",
    [
        ("loads", 0, "base_power", -1.0),
        ("hvdc", 0, "ramp_rate", float("nan")),
        ("machines", 1, "damping", float("nan")),
        ("loads", 0, "motor_tc", 0.0),
        ("machines", 2, "capacity", float("inf")),
    ],
    ids=["base-power-negative", "ramp-rate-nan", "damping-nan", "motor-tc-zero", "capacity-inf"],
)
def test_grid_value_the_simulator_cannot_run_is_a_config_error(tmp_path, workspace, capsys, key, index, field, value):
    # the first two would run and write a dataset; the others end in "integration diverged"
    entries = [dict(entry) for entry in GRID[key]]
    entries[index][field] = value
    path = config_with(tmp_path, workspace, grid={**GRID, key: entries})
    assert main(["gen-data", "--config", path, "--train", "1", "--test", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: grid.{key}[{index}].{field} must be a finite number")
    assert not (tmp_path / "out" / "dataset").exists()


@pytest.mark.parametrize("key", ["machines", "loads", "hvdc"])
def test_grid_without_machines_loads_or_links_is_a_config_error(tmp_path, workspace, capsys, key):
    # gen-data used to fail in a traceback without loads (a division by zero) or
    # links, and on "low >= high" without machines
    grid = {**GRID, key: []}
    if key != "machines":  # a voltage-sensitivity column per load, then per link
        n = len(GRID["loads"])
        grid["voltage_sensitivity"] = [row[n:] if key == "loads" else row[:n] for row in GRID["voltage_sensitivity"]]
    path = config_with(tmp_path, workspace, grid=grid)
    assert main(["gen-data", "--config", path, "--train", "1", "--test", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: grid.{key} must hold at least one entry\n"


@pytest.mark.parametrize("rows", [[["a"] * 5], [[0.1] * 5, [0.1] * 4], [[float("nan")] * 5]], ids=["string", "ragged", "nan"])
def test_voltage_sensitivity_that_is_not_a_finite_matrix_is_a_config_error(tmp_path, workspace, capsys, rows):
    path = config_with(tmp_path, workspace, grid={**GRID, "voltage_sensitivity": rows})
    assert main(["gen-data", "--config", path, "--train", "1", "--test", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: grid.voltage_sensitivity must be")


@pytest.mark.parametrize(
    "feeders, quantum",
    [("2", "inf"), ("2", "nan"), ("2", "-40"), ("2", "0"), ("0", "40"), ("-1", "40")],
)
def test_invalid_prop1_feeders_are_a_config_error(tmp_path, workspace, capsys, feeders, quantum):
    path = config_with(tmp_path, workspace)
    model = os.path.join(workspace["out"], "model_dmd.json")
    argv = ["prop1", "--config", path, "--model", model, "--feeders", feeders, "--quantum", quantum]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "feeder" in err
    assert not (tmp_path / "out" / "prop1_report.json").exists()


def test_documented_limits_key_is_accepted(tmp_path, workspace):
    path = config_with(tmp_path, workspace, limits={"quantum_mw": 20.0})
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_OK


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("limits", {"shed_quantum_mw": 10.0}, "shed_quantum_mw"),
        ("limits", {"ss_floor": -0.01}, "ss_floor"),
        ("weights", {"q_omega": 1e4, "r_link": 1e-4}, "r_link"),
        ("scenario", {"trip_set": [1], "trip_tme": 5.0}, "trip_tme"),
        ("grid", {**GRID, "frequency": 60.0}, "frequency"),
        ("grid", {**GRID, "hvdc": [GRID["hvdc"][0], {**GRID["hvdc"][1], "ramp": 100.0}]}, "ramp"),
        ("limits", {"base_frequency": 60.0}, "base_frequency"),
        # top-level keys: a misspelled section and the two retired fit settings
        ("limit", {"omega_min": -0.005}, "in config: limit"),
        ("ridge", 1e-3, "in config: ridge"),
        ("observables", {"delay_span": 0.0, "dictionary": "identity", "include_voltage": False}, "in config: observables"),
    ],
)
def test_unknown_config_key_is_a_config_error(tmp_path, workspace, capsys, section, value, key):
    path = config_with(tmp_path, workspace, **{section: value})
    argv = ["control", "--model", os.path.join(workspace["out"], "model_dmd.json")]
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [
        {"output_dir": 5},
    ],
    ids=["output-dir-int"],
)
def test_malformed_fit_setting_is_a_config_error(tmp_path, workspace, capsys, changes):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "output_dir": workspace["out"], **changes}))
    model = tmp_path / "model.json"
    assert main(["fit", "--config", str(path), "--method", "dmd", "--model", str(model)]) == EXIT_CONFIG
    (key,) = changes
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["gen-data", "--train", "2", "--test", "1"], "generate_dataset"),
        (["bench", "--train", "2", "--test", "1"], "generate_dataset"),
        (["predict", "--model", "{model}"], "simulate"),
        (["control", "--model", "{model}"], "coordinate"),
        (["prop1", "--model", "{model}"], "check_prop1"),
    ],
    ids=["gen-data", "bench", "predict", "control", "prop1"],
)
def test_output_dir_that_is_a_file_is_a_config_error_found_before_any_work(tmp_path, workspace, capsys, monkeypatch, argv, work):
    def fail(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was made")

    monkeypatch.setattr(cli, work, fail)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = config_with(tmp_path, workspace, output_dir=str(taken))
    argv = [arg.format(model=os.path.join(workspace["out"], "model_dmd.json")) for arg in argv]
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {taken}: File exists\n"
    assert taken.read_text() == ""


def test_bench_refuses_its_weights_before_any_work(tmp_path, workspace, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("generate_dataset ran before the weights were read")

    monkeypatch.setattr(cli, "generate_dataset", fail)
    path = config_with(tmp_path, workspace, weights={"r": -1.0})
    assert main(["bench", "--config", path, "--train", "2", "--test", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "(r)" in err
    assert not (tmp_path / "out" / "table1.csv").exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_fit_model_path_that_cannot_be_written_is_a_config_error_found_before_any_work(
    tmp_path, workspace, capsys, monkeypatch, target
):
    def fail(*args, **kwargs):
        raise AssertionError("the dataset was read before the model path was checked")

    monkeypatch.setattr(cli.Dataset, "load", fail)
    model = tmp_path / "nope" / "m.json" if target == "missing-directory" else tmp_path
    assert main(["fit", "--config", workspace["cfg_path"], "--method", "dmd", "--model", str(model)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write model {model}: not a file in an existing directory\n"
    assert not (tmp_path / "nope").exists()


def test_output_file_that_cannot_be_written_is_a_config_error(tmp_path, workspace, capsys):
    out = tmp_path / "out"
    (out / "control_trace.csv").mkdir(parents=True)  # a directory where the trace goes
    path = config_with(tmp_path, workspace, output_dir=str(out))
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main(["control", "--config", path, "--model", model]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {out / 'control_trace.csv'}: Is a directory\n"


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["predict", "--model", "nope.json"], "nope.json"),
        (["control", "--model", "nope.json"], "nope.json"),
        (["prop1", "--model", "nope.json"], "nope.json"),
        (["prop1", "--model", "{model}", "--oracle", "nope.json"], "nope.json"),
        (["fit", "--method", "dmd"], os.path.join("out", "dataset")),
    ],
    ids=["predict-model", "control-model", "prop1-model", "prop1-oracle", "fit-dataset"],
)
def test_missing_input_file_is_a_config_error(tmp_path, workspace, capsys, monkeypatch, argv, missing):
    model = os.path.join(workspace["out"], "model_dmd.json")
    path = config_with(tmp_path, workspace)
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(model=model) for arg in argv]
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and missing in err


def test_dataset_without_training_trajectories_is_a_config_error(tmp_path, workspace, capsys):
    path = config_with(tmp_path, workspace)
    data_dir = tmp_path / "out" / "dataset"
    data_dir.mkdir(parents=True)
    (data_dir / "manifest.json").write_text(json.dumps({"seed": 1, "train": [], "test": [], "grid": GRID}))
    assert main(["fit", "--config", path, "--method", "dmd"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: dataset {data_dir} has no training trajectories\n"


def test_dataset_without_a_grid_is_a_config_error(tmp_path, workspace, capsys):
    # the fit reads the shed direction from the grid's load base
    path = config_with(tmp_path, workspace)
    data_dir = tmp_path / "out" / "dataset"
    shutil.copytree(os.path.join(workspace["out"], "dataset"), data_dir)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    del manifest["grid"]
    (data_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["fit", "--config", path, "--method", "cefc"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot read dataset {data_dir}: no 'grid' entry\n"
    assert not (tmp_path / "out" / "model_cefc.json").exists()


def test_dataset_with_a_shedding_ratio_above_one_is_a_config_error(tmp_path, workspace, capsys):
    path = config_with(tmp_path, workspace)
    data_dir = tmp_path / "out" / "dataset"
    shutil.copytree(os.path.join(workspace["out"], "dataset"), data_dir)
    traj = data_dir / "train" / "traj_0000.csv"
    lines = traj.read_text().splitlines()
    row = lines[2].split(",")
    row[4] = "1.5"  # ul_1
    lines[2] = ",".join(row)
    traj.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--config", path, "--method", "dmd"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read dataset {data_dir}: {traj} line 3 column 5 holds 1.5")
    assert not (tmp_path / "out" / "model_dmd.json").exists()


@pytest.mark.parametrize("what", ["model", "dataset"])
def test_malformed_input_file_is_a_config_error(tmp_path, workspace, capsys, what):
    path = config_with(tmp_path, workspace)
    if what == "model":
        bad = tmp_path / "m.json"
        bad.write_text("{}")
        argv, key = ["predict", "--model", str(bad)], "A"
    else:  # a manifest without its train split
        bad = tmp_path / "out" / "dataset"
        bad.mkdir(parents=True)
        (bad / "manifest.json").write_text(json.dumps({"seed": 1, "test": [], "grid": GRID}))
        argv, key = ["fit", "--method", "dmd"], "train"
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot read {what} {bad}: no '{key}' entry")


def test_misshapen_model_matrix_error_names_the_file(tmp_path, workspace, capsys):
    good = os.path.join(workspace["out"], "model_dmd.json")
    with open(good) as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "A": [[1.0, 2.0]]}))
    path = config_with(tmp_path, workspace)
    assert main(["prop1", "--config", path, "--model", good, "--oracle", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot read oracle {bad}: A must be square")


@pytest.mark.parametrize("key, value", [("A", 5), ("B_l", [0.1, 0.2]), ("B_d", 5)], ids=["A-scalar", "B_l-vector", "B_d-scalar"])
def test_model_matrix_that_is_not_2d_is_a_config_error(tmp_path, workspace, capsys, key, value):
    with open(os.path.join(workspace["out"], "model_dmd.json")) as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, key: value}))
    path = config_with(tmp_path, workspace)
    assert main(["predict", "--config", path, "--model", str(bad)]) == EXIT_CONFIG
    ndim = np.ndim(value)
    assert capsys.readouterr().err.startswith(f"config error: cannot read model {bad}: {key} must be a 2-D matrix, got {ndim}-D")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"rbf_count": 5.5}, "rbf_count must be an integer >= 0, got 5.5"),
        ({"rbf_count": -1}, "rbf_count must be an integer >= 0, got -1"),
        ({"rbf_count": True}, "rbf_count must be an integer >= 0, got True"),
        ({"include_voltage": "no"}, "include_voltage must be true or false, got 'no'"),
        ({"dt": 0}, "dt must be a finite number > 0"),
        ({"dt": -0.1}, "dt must be a finite number > 0"),
    ],
    ids=["rbf-count-float", "rbf-count-negative", "rbf-count-bool", "include-voltage-str", "dt-zero", "dt-negative"],
)
def test_malformed_model_config_value_is_a_config_error(tmp_path, workspace, capsys, config, message):
    with open(os.path.join(workspace["out"], "model_dmd.json")) as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "config": {**doc["config"], **config}}))
    path = config_with(tmp_path, workspace)
    assert main(["predict", "--config", path, "--model", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot read model {bad}: {message}")


@pytest.fixture(scope="module")
def cefc_model_doc(workspace, tmp_path_factory):
    """The `cefc` model fitted on the workspace dataset, as its file reads."""
    path = tmp_path_factory.mktemp("cefc") / "model_cefc.json"
    assert main(["fit", "--config", workspace["cfg_path"], "--method", "cefc", "--model", str(path)]) == EXIT_OK
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("29-centres", "rbf_centers must have shape (30, 15), got shape (29, 15)"),
        ("no-centres", "rbf_centers must have shape (30, 15), got none"),
        ("29-widths", "rbf_widths must have shape (30,), got shape (29,)"),
        ("no-voltage", "config (delay_span 0.4, rbf_count 30, include_voltage false) does not give 45 features"),
        # 45 features also read as 4 buses over a 3-sample window: only the grid's 2 buses tell
        ("delay-span", "config (delay_span 0.2, rbf_count 30, include_voltage true) gives 39 features on a grid of 2 monitored buses, not 45"),
        ("B_l-columns", "the model takes 2 shed and 2 link inputs but the grid has 3 loads and 2 links"),
    ],
    ids=["29-centres", "no-centres", "29-widths", "no-voltage", "delay-span", "B_l-columns"],
)
def test_model_config_that_does_not_describe_its_matrices_is_a_config_error(
    tmp_path, workspace, cefc_model_doc, capsys, edit, message
):
    doc = dict(cefc_model_doc)
    config = doc["config"] = dict(doc["config"])
    if edit == "29-centres":
        config["rbf_centers"] = config["rbf_centers"][:29]
    elif edit == "delay-span":
        config["delay_span"] = 0.2
    elif edit == "no-centres":
        del config["rbf_centers"]
    elif edit == "29-widths":
        config["rbf_widths"] = config["rbf_widths"][:29]
    elif edit == "no-voltage":
        config["include_voltage"] = False
    else:
        doc["B_l"] = [row[1:] for row in doc["B_l"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    path = config_with(tmp_path, workspace)
    assert main(["control", "--config", path, "--model", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot read model {bad}: {message}\n"
    assert not (tmp_path / "out" / "control_summary.json").exists()


@pytest.mark.parametrize("command", ["predict", "control", "prop1"])
def test_scenario_at_another_sample_time_than_the_model_is_a_config_error(tmp_path, workspace, capsys, command):
    scenario = {"inertia_scale": 0.85, "trip_set": [1, 2, 3], "trip_time": 5.0, "horizon": 10.0, "dt": 0.05}
    path = config_with(tmp_path, workspace, scenario=scenario)
    model = os.path.join(workspace["out"], "model_dmd.json")
    assert main([command, "--config", path, "--model", model]) == EXIT_CONFIG
    assert "samples every 0.05 s but the model runs at 0.1 s" in capsys.readouterr().err


def test_fit_writes_the_model_bench_fits(tmp_path, capsys):
    # records at 0.05 s: `fit` takes the sample time from the data
    grid = default_grid()
    records = [
        simulate(grid, Scenario(trip_set=(i,), trip_time=2.0, horizon=8.0, dt=0.05, noise_amplitude=3.0,
                                noise_seed=i, noise_channels=("dc",)))
        for i in (1, 2)
    ]
    out = tmp_path / "out"
    dataset = Dataset(train=records, test=records, grid=grid, seed=0)
    dataset.save(str(out / "dataset"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 0, "output_dir": str(out)}))
    # the fit of the in-memory records: the saved dataset reads back exactly
    for method in METHODS:
        assert main(["fit", "--config", str(path), "--method", method]) == EXIT_OK
        written = KoopmanModel.load(out / f"model_{method}.json")
        fitted = fit(dataset, method_config(method, dt=0.05))
        assert written.config.dt == 0.05
        for a, b in ((written.A, fitted.A), (written.B_l, fitted.B_l), (written.B_d, fitted.B_d)):
            assert a.tobytes() == b.tobytes(), method


def test_bench_writes_every_output(tmp_path):
    # At 2 training trajectories the `cefc` fit has rho(A) > 1 and its Table-1
    # mean error reads about 3e6 Hz on this seed.  So this checks that every
    # output is written, complete and finite, not how good the numbers are.
    out = tmp_path / "out"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "output_dir": str(out)}))
    assert main(["bench", "--config", str(path), "--train", "2", "--test", "1"]) == EXIT_OK

    def read_csv(name):
        with open(out / name) as fh:
            return list(csv.DictReader(fh))

    table = read_csv("table1.csv")
    assert [r["method"] for r in table] == list(METHODS)
    assert all(np.isfinite(float(r[k])) for r in table for k in ("nadir_hz", "ssv_hz", "mean_hz"))
    with open(out / "subcases" / "summary.json") as fh:
        summary = json.load(fh)
    assert [r["inertia_scale"] for r in summary] == list(SUBCASE_INERTIA)
    for i, s in enumerate(summary, start=1):
        rows = read_csv(f"subcases/subcase_{i}.csv")
        assert list(rows[0]) == ["t", "omega", "omega_pred", "ud_total_mw", "shed_total_mw"]
        assert len(rows) == 601
        assert all(np.isfinite(float(r[k])) for r in rows for k in r if k != "omega_pred")
        # the prediction covers the activation sample through the 30 s horizon, and is nan elsewhere
        predicted = np.isfinite([float(r["omega_pred"]) for r in rows])
        window = np.zeros(len(rows), dtype=bool)
        if s["activation_time"] is not None:
            k = round(s["activation_time"] / 0.1)
            window[k : k + 301] = True
        assert np.array_equal(predicted, window), f"subcase {i}"
        assert all(r["omega_pred"] == "nan" for r, w in zip(rows, window) if not w)
    assert all(np.isfinite(r["nadir_hz"]) and np.isfinite(r["steady_state_hz"]) for r in summary)
    rows = read_csv("edcps_compare.csv")
    assert list(rows[0]) == ["t", "omega_lqr", "ud_lqr_mw", "omega_max", "ud_max_mw"]
    assert all(np.isfinite(float(v)) for r in rows for v in r.values())
    with open(out / "edcps_compare.json") as fh:
        compare = json.load(fh)
    assert set(compare) == {"lqr", "max"}
    assert all(np.isfinite(compare[mode]["cumulative_abs_ud_mw_s"]) for mode in compare)


def test_bench_runs_where_the_riccati_residual_sits_at_the_rounding_floor(tmp_path):
    # At 2 training trajectories seed 7's `cefc` model has cond(A) about 1.4e9.
    # Its Riccati residual bottoms out near 3e-10 of ||P||, after the doubling
    # increment has settled, so the LQR gain is the 11th doubling's.
    out = tmp_path / "out"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 7, "output_dir": str(out)}))
    assert main(["bench", "--config", str(path), "--train", "2", "--test", "1"]) == EXIT_OK
    with open(out / "subcases" / "summary.json") as fh:
        summary = json.load(fh)
    assert [s["riccati"]["iterations"] for s in summary] == [11] * len(SUBCASE_INERTIA)
