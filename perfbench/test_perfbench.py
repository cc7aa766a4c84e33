"""Tests of the benchmark itself: catalogue, output checks, tracer and smoke runs.

Run with `python3 -m pytest perfbench` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, calls_per_op  # noqa: E402


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- catalogue -------------------------------------------------------------


def test_manifest_matches_the_metric_catalogue():
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == run.PER_LAYER


# -- output checks fail on corrupted results --------------------------------


def _trace(ud, ul):
    ud = np.asarray(ud, dtype=float)
    rec = SimpleNamespace(ul=np.asarray(ul, dtype=float), ud=ud, omega=np.zeros(len(ud)))
    return SimpleNamespace(record=rec, ud_commands=ud)


LIMITS = SimpleNamespace(ud_min=np.array([-80.0, -80.0]), ud_max=np.array([80.0, 80.0]))


def test_trace_check_accepts_a_clean_run():
    ul = [[0.0, 0.0], [0.1, 0.2], [0.1, 0.2]]
    assert workloads.check_trace(_trace([[0, 0], [80, 80], [10, -5]], ul), LIMITS, "run") == []


def test_trace_check_flags_dc_command_outside_limits():
    ul = np.zeros((3, 2))
    problems = workloads.check_trace(_trace([[0, 0], [80.5, 0], [0, 0]], ul), LIMITS, "run")
    assert problems == ["run: DC command outside link limits"] * 2


def test_trace_check_flags_second_shed_and_restoration():
    ud = np.zeros((4, 2))
    assert any("2 shed events" in p for p in workloads.check_trace(_trace(ud, [[0, 0], [0.1, 0], [0.1, 0.1], [0.1, 0.1]]), LIMITS, "r"))
    assert any("decreased" in p for p in workloads.check_trace(_trace(ud, [[0, 0], [0.1, 0], [0.0, 0], [0, 0]]), LIMITS, "r"))


def test_table1_check_flags_non_finite_and_missing_rows():
    row = lambda m: {"nadir_hz": 0.1, "ssv_hz": 0.1, "mean_hz": m}  # noqa: E731
    good = {"cefc": row(0.05), "cefc-ntd": row(0.2), "edmd": row(0.2), "dmd": row(0.3)}
    assert workloads.check_table1(good) == []
    assert workloads.table1_notes(good) == []
    assert workloads.check_table1({**good, "dmd": row(float("nan"))}) == ["table1 dmd.mean_hz is not finite"]
    assert len(workloads.check_table1({"cefc": row(0.05)})) == 1
    assert len(workloads.table1_notes({**good, "edmd": row(0.01), "cefc": row(0.2)})) == 2


def test_prop1_check_flags_malformed_report():
    report = SimpleNamespace(
        k_star=0,
        i_star=0,
        brute_force_mode=1,
        holds=True,
        values_learned=np.zeros(2),
        values_oracle=np.zeros(2),
        costs=np.array([0.0, 1.0]),
        feasible=np.array([False, True]),
        modes=np.array([[0], [1]]),
    )
    assert workloads.check_prop1_report(report, 2, "p") == []
    report.feasible = np.array([True, True])  # mode 0 is then cheaper than the reported one
    assert workloads.check_prop1_report(report, 2, "p") == ["p: brute-force mode is not the cheapest feasible mode"]
    assert workloads.check_prop1_report(report, 4, "p") == ["p: report arrays do not have 4 modes"]


def test_digest_changes_with_any_output():
    doc = {"runs": [{"nadir_pu": -0.0161}], "decisions": [np.array([10.0, 20.0])]}
    same = {"decisions": [np.array([10.0, 20.0])], "runs": [{"nadir_pu": -0.0161}]}
    assert workloads.digest_doc(doc) == workloads.digest_doc(same)
    doc["decisions"][0][1] = 20.000000001
    assert workloads.digest_doc(doc) != workloads.digest_doc(same)


# -- tracer ------------------------------------------------------------------


def test_self_time_excludes_children_and_calls_are_counted_per_op():
    tr = Tracer()
    op = tr.begin_op("timed")
    tr.enter("outer")
    tr.enter("gridsim.simulate")
    tr.exit()
    tr.enter("inner")
    tr.exit()
    tr.exit()
    table = tr.span_table([op])
    outer = table["outer"]
    children = table["gridsim.simulate"]["s"] + table["inner"]["s"]
    assert outer["self_s"] == pytest.approx(outer["s"] - children, abs=1e-12)
    assert calls_per_op(tr, [op])[op]["gridsim.simulate.calls"] == 1
    assert list(tr.parent) == [-1, 0, 0]


# -- whole runs --------------------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run_prints_every_layer_metric(workload):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "1", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = last_json(out.stdout)
    assert res["correct"], out.stdout
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] == 1 + run.MIN_OPS and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {k: v[0] for k, v in run.PER_LAYER.items()}


def test_tiny_untraced_run_prints_every_end_to_end_metric():
    out = bench("--workload", "identify", "--seed", "5", "--seconds", "0.1", "--trace", "0", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = last_json(out.stdout)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {k: v[0] for k, v in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "identify", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not os.path.exists(tmp_path / ".bench_work")
