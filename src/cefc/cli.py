"""Command-line entry point.

Subcommands: gen-data, fit, predict, control, prop1, bench.  Every command
takes `--config <path>` pointing at one JSON document whose sections mirror
the package types; all randomness derives from the config seed.  File
formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import koopman
from .controller import ControlLimits, LqrWeights, StabilizabilityError, coordinate
from .gridsim import GridModel, HvdcLink, LoadNode, Machine, Scenario, SimulationError, default_grid, simulate, write_table
from .koopman import Dataset, InsufficientHistoryError, KoopmanModel, fit, generate_dataset, method_config
from .robustness import FeederSpec, check_prop1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


#: every key a config may hold; the sections are read by the commands that need them
CONFIG_KEYS = ("seed", "output_dir", "grid", "scenario", "limits", "weights")


class ConfigError(Exception):
    pass


def _json_file(path):
    with open(path) as fh:
        return json.load(fh)


def _read(load, path, what):
    """`load(path)`, with an input file that cannot be read, parsed or built from as a config error."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError covers JSONDecodeError
        detail = f"no {exc} entry" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"cannot read {what} {path}: {detail}") from exc


def _load_model(path, what, grid) -> KoopmanModel:
    """The model file at `path`, checked against the grid it is to run on."""

    def load(path):
        model = KoopmanModel.load(path)
        koopman.check_grid(model, grid)
        return model

    return _read(load, path, what)


def load_config(path) -> dict:
    cfg = _read(_json_file, path, "config")
    if not isinstance(cfg, dict) or "seed" not in cfg:
        raise ConfigError("config must be a JSON object that provides a seed")
    _check_keys("config", cfg, CONFIG_KEYS)
    return cfg


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls) if f.init}


def _check_keys(section: str, given, accepted):
    """Reject a config section that is not a JSON object or has a key its target does not take."""
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {type(given).__name__}")
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


def _section(cfg, name, accepted, build, default=None):
    """`build` applied to the config's `name` section, or `default` when it is absent.

    A section is a JSON object, inline or in the file that a string value
    names.  A key outside `accepted`, a missing required key or a value of
    the wrong type is a config error.
    """
    section = cfg.get(name)
    if section is None:
        return default
    if isinstance(section, str):
        section = _read(_json_file, section, f"{name} file")
    _check_keys(name, section, accepted)
    try:
        return build(section)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _grid_from_config(cfg) -> GridModel:
    def build(section):
        for key, cls in (("machines", Machine), ("loads", LoadNode), ("hvdc", HvdcLink)):
            for item in section.get(key, ()):
                _check_keys(f"grid.{key}", item, _field_names(cls))
        return GridModel.from_dict(section)

    return _section(cfg, "grid", _field_names(GridModel), build, default_grid())


def _scenario_from_config(cfg) -> Scenario:
    scenario = _section(cfg, "scenario", _field_names(Scenario), Scenario.from_dict)
    if scenario is None:
        raise ConfigError("config must provide a scenario section for this command")
    return scenario


def _limits_from_config(cfg, grid) -> ControlLimits:
    # the link limits, the support and the base frequency come from the grid
    accepted = _field_names(ControlLimits) - {"ud_min", "ud_max", "ud_support", "base_frequency"}
    default = ControlLimits.for_grid(grid)
    return _section(cfg, "limits", accepted, lambda kw: ControlLimits.for_grid(grid, **kw), default)


def _weights_from_config(cfg) -> LqrWeights:
    return _section(cfg, "weights", _field_names(LqrWeights), lambda kw: LqrWeights(**kw), LqrWeights())


def _outdir(cfg) -> str:
    out = cfg.get("output_dir", "out")
    if not isinstance(out, str):
        raise ConfigError(f"output_dir must be a string, got {type(out).__name__}")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_gen_data(cfg, args) -> int:
    grid = _grid_from_config(cfg)
    outdir = _outdir(cfg)
    ds = generate_dataset(grid, args.train, args.test, cfg["seed"])
    ds.save(os.path.join(outdir, "dataset"))
    print(f"wrote {args.train} train + {args.test} test trajectories to {outdir}/dataset")
    return EXIT_OK


def cmd_fit(cfg, args) -> int:
    outdir = _outdir(cfg)
    path = args.model or os.path.join(outdir, f"model_{args.method}.json")
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write model {path}: not a file in an existing directory")
    data_dir = os.path.join(outdir, "dataset")
    ds = _read(Dataset.load, data_dir, "dataset")
    if not ds.train:
        raise ConfigError(f"dataset {data_dir} has no training trajectories")
    # the method's standard configuration at the data's sample time: the model `bench` fits
    model = fit(ds, method_config(args.method, dt=ds.train[0].dt))
    model.save(path)
    print(f"fitted {args.method} model (dim {model.dim}) -> {path}")
    return EXIT_OK


def cmd_predict(cfg, args) -> int:
    grid = _grid_from_config(cfg)
    scenario = _scenario_from_config(cfg)
    model = _load_model(args.model, "model", grid)
    outdir = _outdir(cfg)
    rec = simulate(grid, scenario)
    k0, om_hat = koopman.predict_record(model, rec)
    path = os.path.join(outdir, "prediction.csv")
    rows = np.column_stack([rec.t[k0:], rec.omega[k0:], om_hat]).tolist()
    write_table(path, ["t", "omega_true", "omega_pred"], rows)
    print(f"wrote prediction to {path}")
    return EXIT_OK


def cmd_control(cfg, args) -> int:
    grid = _grid_from_config(cfg)
    scenario = _scenario_from_config(cfg)
    model = _load_model(args.model, "model", grid)
    limits = _limits_from_config(cfg, grid)
    weights = _weights_from_config(cfg)
    outdir = _outdir(cfg)
    trace = coordinate(grid, scenario, model, limits, weights)
    trace.record.write_csv(os.path.join(outdir, "control_trace.csv"))
    summary = trace.summary(grid.base_frequency)
    with open(os.path.join(outdir, "control_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_prop1(cfg, args) -> int:
    grid = _grid_from_config(cfg)
    scenario = _scenario_from_config(cfg)
    learned = _load_model(args.model, "model", grid)
    oracle = _load_model(args.oracle, "oracle", grid) if args.oracle else learned
    limits = _limits_from_config(cfg, grid)
    feeders = FeederSpec.uniform(args.feeders, args.quantum, grid.n_loads)
    outdir = _outdir(cfg)
    report = check_prop1(learned, oracle, grid, scenario, feeders, limits)
    path = os.path.join(outdir, "prop1_report.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(
        f"k_star={report.k_star} i_star={report.i_star} "
        f"brute_force={report.brute_force_mode} holds={report.holds} -> {path}"
    )
    return EXIT_OK


def cmd_bench(cfg, args) -> int:
    grid = _grid_from_config(cfg)
    limits = _limits_from_config(cfg, grid)
    weights = _weights_from_config(cfg)
    outdir = _outdir(cfg)
    dataset = generate_dataset(grid, args.train, args.test, cfg["seed"])
    table = bench_mod.run_prediction_table(grid, dataset, outdir)
    model = fit(dataset, method_config("cefc", dt=dataset.train[0].dt))
    bench_mod.run_control_subcases(grid, limits, model, weights, outdir)
    bench_mod.run_edcps_comparison(grid, limits, model, weights, outdir)
    for name, m in table.items():
        print(f"{name:9s} nadir {m['nadir_hz']:.3f} Hz  ssv {m['ssv_hz']:.3f} Hz  mean {m['mean_hz']:.3f} Hz")
    print(f"outputs in {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cefc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.set_defaults(func=func)
        return p

    p = add("gen-data", cmd_gen_data)
    p.add_argument("--train", type=int, default=300)
    p.add_argument("--test", type=int, default=200)

    p = add("fit", cmd_fit)
    p.add_argument("--method", choices=bench_mod.METHODS, default="cefc")
    p.add_argument("--model", default=None)

    p = add("predict", cmd_predict)
    p.add_argument("--model", required=True)

    p = add("control", cmd_control)
    p.add_argument("--model", required=True)

    p = add("prop1", cmd_prop1)
    p.add_argument("--model", required=True)
    p.add_argument("--oracle", default=None)
    p.add_argument("--feeders", type=int, default=3)
    p.add_argument("--quantum", type=float, default=40.0)

    p = add("bench", cmd_bench)
    p.add_argument("--train", type=int, default=300)
    p.add_argument("--test", type=int, default=200)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(load_config(args.config), args)
    # before ValueError, which LinAlgError subclasses
    except (SimulationError, StabilizabilityError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientHistoryError as exc:
        print(f"config error: the scenario horizon ends before the measurement window ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # `_read` maps the inputs, so an output directory or file could not be written
        print(f"config error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
