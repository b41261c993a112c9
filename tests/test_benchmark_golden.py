"""The benchmark's golden-CSV check, at smoke size, for every workload.

Each case runs ``perfbench/run.py --smoke --seconds 0`` in its own process,
as the benchmark runs a workload, and asserts that its results CSV hashed to
the sha256 in ``perfbench/golden.json``.  Three seeds per workload, none of
them 0, so a rewrite that is exact on one input set only fails here.  The
hashes hold for the environment they were recorded in (``recorded_with``);
elsewhere a case skips and names the fields that differ.  Fixtures are
written once into the ignored ``perfbench/.cache``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
RECORDED = json.loads((ROOT / "perfbench" / "golden.json").read_text())["recorded_with"]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("seed", [5, 26, 63])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_matches_the_golden_csv(workload, seed):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    here = json.loads(lines[0])["environment"]
    differ = sorted(k for k in here.keys() | RECORDED.keys() if here.get(k) != RECORDED.get(k))
    if differ:
        pytest.skip("golden.json was recorded elsewhere: " + ", ".join(
            f"{k} {here.get(k)!r} here, {RECORDED.get(k)!r} recorded" for k in differ))
    result = json.loads(lines[-1])
    assert result["correct"] is True, done.stdout
    assert result["metrics"]["golden_csv_ok"]["value"] == 1
