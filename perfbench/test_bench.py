"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench/test_bench.py

The first run generates the MNIST fixture into perfbench/.cache (a few
seconds).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare()

import bench  # noqa: E402  (needs prepare() first)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_smoke(trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mnist_d1_cost",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_and_passes_the_hash_check(trace, section):
    result = run_smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[section]]
    assert list(result["metrics"]) == names
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert result["metrics"]["golden_csv_ok"]["value"] == 1
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # Two forward passes per evaluate today.
        assert metrics["network.forward.calls"] == 2 * metrics["network.evaluate.calls"]
        # Self times add up to the run by construction, up to the root
        # wrapper's own cost; the time no layer span accounts for is reported.
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.run_s"], rel=0.05)
        assert 0 < metrics["trace.unattributed_share"] < 1


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_golden_mismatch_counts_as_a_failed_run(capsys):
    workload = bench.smoke_size(bench.WORKLOADS["mnist_d1_cost"])
    config = bench.experiment_config(workload, 0)
    golden = json.loads(bench.GOLDEN_PATH.read_text())
    bench.ensure_fixture("mnist", bench.CACHE / "data", golden["fixtures"])
    inputs, _ = bench.set_up(workload, config, bench.CACHE / "data")

    good = bench.Tally(golden=golden["csv"]["mnist_d1_cost"]["smoke"][0])
    assert good.run(config, inputs) is not None
    assert (good.attempted, good.failed) == (1, 0)

    bad = bench.Tally(golden="0" * 64,
                      environment_note=bench.environment_note(golden["recorded_with"]))
    bad.run(config, inputs)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "!= golden" in capsys.readouterr().err


def test_environment_note_names_the_fields_that_differ():
    recorded = bench.environment()
    assert "matches" in bench.environment_note(recorded)
    note = bench.environment_note({**recorded, "nproc": 999})
    assert "differs" in note and "nproc (" in note and "999" in note


def test_corrupt_fixture_is_refused(tmp_path):
    expected = {}
    for name in bench.fixture_files("mnist"):
        (tmp_path / name).write_bytes(b"partial")
        expected[name] = bench.sha256_file(tmp_path / name)
    bench.ensure_fixture("mnist", tmp_path, expected)
    (tmp_path / "mnist-test-labels.idx").write_bytes(b"partia")
    with pytest.raises(bench.BenchError, match="mnist-test-labels.idx"):
        bench.ensure_fixture("mnist", tmp_path, expected)


def test_span_self_times_sum_to_the_root():
    tracer = bench.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return leaf() + tracer.wrap("leaf", leaf)()

    root = tracer.wrap("root", lambda: tracer.wrap("middle", middle)())
    root()
    summary = tracer.summary()
    assert [s[0] for s in tracer.spans] == ["root", "middle", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(summary["root"]["s"])


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mnist_d1_cost",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
