#!/usr/bin/env python3
"""cefc benchmark: one workload per process, closed loop, one operation at a time.

    python3 perfbench/run.py --workload reproduce|identify|closed_loop \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout: the program is imported from
`src/`.  The workload seed generates every input.  Set-up runs three times
(`setup_s` is the median); then operations run back to back until `--seconds`
have passed, two at least (`wall_s` is the median operation).  With `--trace 0` the last
line of output carries the end-to-end metrics; with `--trace 1` one untraced
operation runs first, then traced ones, and the last line carries the
per-layer metrics.  Every operation's outputs are checked; a failed check is
printed and counted in `failed`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"  # fixed, so that every commit is measured alike
SETUP_REPS = 3
MIN_OPS = 2  # timed operations per run, at least, so that every run compares two results

#: name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_L, _H = "lower", "higher"
#: name -> (unit, better); per-op figures are means over the timed operations
PER_LAYER = {
    "gridsim.simulate.calls": ("count/op", _L),
    "gridsim.simulate.self_s": ("s/op", _L),
    "gridsim.simulate.ms_p50": ("ms", _L),
    "gridsim.simulate.failed": ("count/op", _L),
    "gridsim.rhs_evals": ("count/op", _L),
    "gridsim.sim_s_per_s": ("s/s", _H),
    "gridsim.policy.calls": ("count/op", _L),
    "gridsim.policy.s": ("s/op", _L),
    "koopman.generate_dataset.s": ("s/op", _L),
    "koopman.generate_dataset.retries": ("count/op", _L),
    "koopman.fit.calls": ("count/op", _L),
    "koopman.fit.s": ("s/op", _L),
    "koopman.fit.cefc.s": ("s/op", _L),
    "koopman.fit.cefc-ntd.s": ("s/op", _L),
    "koopman.fit.edmd.s": ("s/op", _L),
    "koopman.fit.dmd.s": ("s/op", _L),
    "koopman.fit.useful_ratio": ("share", _H),
    "koopman._resolve_rbf.s": ("s/op", _L),
    "koopman._regression_pairs.s": ("s/op", _L),
    "koopman._ridge_lstsq.s": ("s/op", _L),
    "koopman._input_response_fit.s": ("s/op", _L),
    "koopman.lift.calls": ("count/op", _L),
    "koopman.lift.s": ("s/op", _L),
    "koopman.eval_metrics.s": ("s/op", _L),
    "koopman.predict_rollout.calls": ("count/op", _L),
    "koopman.Dataset.load.calls": ("count/op", _L),
    "koopman.Dataset.load.s": ("s/op", _L),
    "koopman.Dataset.load.bytes": ("B/op", _L),
    "koopman.spectral_radius.cefc": ("ratio", _L),
    "koopman.dim.cefc": ("count", _L),
    "koopman.dim.cefc-ntd": ("count", _L),
    "koopman.dim.edmd": ("count", _L),
    "koopman.dim.dmd": ("count", _L),
    "table1.cefc.mean_hz": ("Hz", _L),
    "table1.cefc.nadir_hz": ("Hz", _L),
    "table1.cefc-ntd.mean_hz": ("Hz", _L),
    "table1.edmd.mean_hz": ("Hz", _L),
    "table1.dmd.mean_hz": ("Hz", _L),
    "controller.coordinate.calls": ("count/op", _L),
    "controller.coordinate.self_s": ("s/op", _L),
    "controller.solve_dare.s": ("s/op", _L),
    "controller.solve_dare.iterations": ("count/call", _L),
    "controller.policy_us.p50": ("us", _L),
    "controller.policy_us.p99": ("us", _L),
    "controller.lqr_step.calls": ("count/op", _L),
    "controller.lqr_saturation_share": ("share", _L),
    "controller.solve_shedding.calls": ("count/op", _L),
    "controller.solve_shedding.s": ("s/op", _L),
    "controller.shed_feasible_share": ("share", _H),
    "controller.quantization_mw": ("MW/call", _L),
    "controller.pred_gap_hz": ("Hz", _L),
    "nadir_margin_hz": ("Hz", _H),
    "shed_mw": ("MW", _L),
    "dc_effort_mw_s": ("MW.s", _L),
    "decision_ms.p50": ("ms", _L),
    "decision_ms.p90": ("ms", _L),
    "qp.solve_qp.calls": ("count/op", _L),
    "qp.solve_qp.s": ("s/op", _L),
    "qp.active_set_size": ("count/call", _L),
    "qp.failed": ("count/op", _L),
    "robustness.check_prop1.calls": ("count/op", _L),
    "robustness.check_prop1.self_s": ("s/op", _L),
    "robustness.brute_force_mode.s": ("s/op", _L),
    "robustness.sims_per_check": ("count/call", _L),
    "robustness.mode_hamiltonian_values.calls": ("count/op", _L),
    "robustness.feasible_mode_share": ("share", _H),
    "mode_agreement": ("share", _H),
    "bench.run_prediction_table.s": ("s/op", _L),
    "bench.run_control_subcases.s": ("s/op", _L),
    "bench.run_edcps_comparison.s": ("s/op", _L),
    "bench._write_csv.s": ("s/op", _L),
    "bench.output_bytes": ("B/op", _L),
    "cli.main.s": ("s/op", _L),
    "self_s.gridsim": ("s/op", _L),
    "self_s.policy": ("s/op", _L),
    "self_s.koopman": ("s/op", _L),
    "self_s.controller": ("s/op", _L),
    "self_s.qp": ("s/op", _L),
    "self_s.robustness": ("s/op", _L),
    "self_s.bench": ("s/op", _L),
    "self_s.cli": ("s/op", _L),
    "setup.gridsim.simulate.self_s": ("s/setup", _L),
    "setup.koopman.fit.s": ("s/setup", _L),
    "failed_share": ("share", _L),
    "trace.wall_s": ("s", _L),
    "trace.overhead_share": ("share", _L),
    "trace.spans": ("count/op", _L),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["reproduce", "identify", "closed_loop"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    return p.parse_args(argv)


@dataclass
class Op:
    """One timed operation and what its checks found."""

    traced: bool
    wall_s: float
    result: object  # workloads.Result, or None when the operation raised
    problems: list
    trace_id: int | None


def completeness(got: dict, counters: dict, expected: dict) -> list:
    """Traced call counts of one operation against the counts its inputs imply."""
    problems = []
    for name, want in expected.items():
        if name == "gridsim.simulate.calls":
            want += counters["koopman.generate_dataset.retries"]
        if name == "robustness.sims_per_check":
            have = got["robustness.check_prop1.sims"] / max(1, got["robustness.check_prop1.calls"])
        else:
            have = got[name]
        if have != want:
            problems.append(f"trace completeness: {name} = {have}, the inputs imply {want}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "cefc" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    import cefc

    if Path(cefc.__file__).resolve().parent != (src / "cefc").resolve():
        print(f"perfbench: imported cefc from {cefc.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy as np
    from tracer import Bindings, Tracer, calls_per_op, layer_metrics
    from workloads import WORKLOADS

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, args.size, str(run_dir))
    tracer = Tracer() if args.trace else None
    bindings = Bindings(tracer) if tracer else None

    def set_traced(on: bool):
        if on:
            bindings.install()
            wl.tracer = tracer
        else:
            bindings.restore()
            wl.tracer = None

    if tracer:
        set_traced(True)
    setup_s, setup_digests = [], []
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.begin_op("setup")
        t0 = time.perf_counter()
        state, digest = wl.setup(rep)
        setup_s.append(time.perf_counter() - t0)
        setup_digests.append(digest)

    ops: list[Op] = []

    def run_op(traced: bool):
        trace_id = tracer.begin_op("timed") if traced else None
        t0 = time.perf_counter()
        try:
            res = wl.op(state)
            problems = list(res.problems)
        except Exception:
            res, problems = None, ["operation raised:\n" + traceback.format_exc()]
        ops.append(Op(traced, time.perf_counter() - t0, res, problems, trace_id))

    if tracer:
        # the traced minus the untraced operation time is the tracing overhead
        set_traced(False)
        run_op(False)
        set_traced(True)
    start = time.perf_counter()
    for n in itertools.count(1):
        run_op(bool(tracer))
        if n >= MIN_OPS and time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        set_traced(False)
        # repeated one-shot decisions, untimed: their cost swings with the
        # seed's model (one failing QP costs as much as 20 to 50 decisions
        # that solve), so they stay out of `wall_s` and give `decision_ms.*`
        last = next((op for op in reversed(ops) if op.result is not None), None)
        latencies, problems = wl.decide(state, last.result.windows) if last else ([], [])
        if last:
            last.problems += problems

    # run-level checks, charged to the operation they were made on
    if len(set(setup_digests)) != 1:
        ops[0].problems.append(f"set-up outputs differ between repetitions on seed {args.seed}: {setup_digests}")
    digests = [op.result.digest if op.result is not None else None for op in ops]
    for op, d in zip(ops[1:], digests[1:]):
        if d != digests[0]:
            op.problems.append("result digest differs from the first operation on the same seed")
    if tracer:
        counts = calls_per_op(tracer, [op.trace_id for op in ops if op.traced])
        for op in ops:
            if op.traced and op.result is not None:
                op.problems += completeness(counts[op.trace_id], tracer.counters[op.trace_id], op.result.expected)

    failed = sum(1 for op in ops if op.problems)
    results = [op.result for op in ops if op.result is not None]
    wall_s = statistics.median(op.wall_s for op in ops if op.traced == bool(tracer))

    if tracer:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(tracer, "timed"))
        setup_m = layer_metrics(tracer, "setup")
        metrics["setup.gridsim.simulate.self_s"] = setup_m["gridsim.simulate.self_s"]
        metrics["setup.koopman.fit.s"] = setup_m["koopman.fit.s"]
        if results:
            metrics.update(results[-1].quality)
            metrics["bench.output_bytes"] = statistics.mean(r.output_bytes for r in results)
        if latencies:
            metrics["decision_ms.p50"] = float(np.percentile(latencies, 50))
            metrics["decision_ms.p90"] = float(np.percentile(latencies, 90))
        metrics["failed_share"] = failed / len(ops)
        metrics["trace.wall_s"] = wall_s
        metrics["trace.overhead_share"] = wall_s / ops[0].wall_s - 1.0
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = {k: v[0] for k, v in PER_LAYER.items()}
        tracer.write_spans(run_dir / "spans.csv")
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {k: v[0] for k, v in END_TO_END.items()}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "setup_s": setup_s,
        "op_wall_s": [op.wall_s for op in ops],
        "op_traced": [op.traced for op in ops],
        "setup_digest": setup_digests[0],
        "result_digest": digests[0],
        "same_seed_digest_match": len(set(setup_digests)) == 1 and len(set(digests)) == 1,
    }
    if results:
        context["quality"] = results[-1].quality
        context["notes"] = results[-1].notes
    context["problems"] = [f"operation {i}: {p}" for i, op in enumerate(ops) for p in op.problems]
    for problem in context["problems"]:
        print(f"perfbench: FAILED check, {problem}")
    for note in context.get("notes", []):
        print(f"perfbench: note: {note}")
    out = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump({"context": context, **out}, fh, indent=1, default=str)
    for name in os.listdir(run_dir):
        if name.startswith(("setup", "op")):
            shutil.rmtree(run_dir / name, ignore_errors=True)
    print("perfbench: context " + json.dumps(context, default=str))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
