"""Self-test of the benchmark at reduced sizes.

    python3 -m pytest bench/test_bench.py

It checks that every metric named in BENCHMARK.json is reported, that a wrong
reference value is counted as a failed operation, that a traced run makes
the same operations with the same verdicts as an untraced one, and that the
benchmark refuses to report without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SCALE = 0.3
SEED = 3


def _declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_declared_workloads_and_metrics_match_the_harness():
    run.import_package()
    import workloads

    end_to_end, per_layer, declared = _declared()
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.per_layer_units()
    assert tuple(declared) == run.WORKLOADS == workloads.WORKLOADS == tuple(workloads.BUILDERS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_reported(workload):
    result, report = run.run(workload, SEED, 0, 0, SCALE, probes=workload == "small_exact")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] == 2 * report["ops_per_pass"] >= 2  # warm-up and one timed pass
    assert result["correct"]


@pytest.mark.parametrize("workload", ["small_exact", "lp_euclid"])
def test_traced_run_makes_the_same_operations(workload):
    # the reduced euclidean corpus breaks down from scale 0.4 (n = 12) on
    scale = 0.4 if workload == "lp_euclid" else SCALE
    plain, _ = run.run(workload, SEED, 0, 0, scale, probes=False)
    traced, report = run.run(workload, SEED, 0, 1, scale, probes=False)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.per_layer_units()
    assert traced["attempted"] == report["ops_per_pass"] == plain["attempted"] // 2
    assert traced["failed"] == plain["failed"] // 2
    assert traced["correct"] == plain["correct"]
    assert traced["metrics"]["trace.spans"]["value"] > traced["attempted"]
    if workload == "lp_euclid":
        assert traced["failed"] > 0  # the breakdowns show at reduced size too
        assert traced["metrics"]["solvers.solve_lp.fail"]["value"] > 0


def test_nominal_latency_follows_the_host_speed_around_it():
    import speed

    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 10.0]
    probe.seconds = [speed.NOMINAL_S, speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert probe.to_nominal(0.1, 0.2) == pytest.approx(0.2)
    assert probe.to_nominal(9.8, 0.1) == pytest.approx(0.05)  # the host ran at half speed
    assert probe.to_nominal(1.2, 0.5) == pytest.approx(0.5 / 1.5)  # median of 1 and 2


def test_wrong_reference_value_counts_as_failure(monkeypatch):
    import oracle

    real = oracle.lambda_lp
    monkeypatch.setattr(oracle, "lambda_lp", lambda *a, **k: real(*a, **k) + 1e-3)
    result, report = run.run("small_exact", SEED, 0, 0, SCALE, probes=False)
    assert not result["correct"]
    # every identity instance and every config that reports a penalty
    assert result["failed"] >= report["ops_per_pass"] - 8
    assert {f["type"] for f in report["failures"]} == {"WrongValue"}


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
