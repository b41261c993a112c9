"""Record the hashes the benchmark checks: fixture files and results CSVs.

    python3 perfbench/make_golden.py    # ~10 min on 2 cores

Records the fixtures and every workload at both sizes, so golden.json
always matches its recorded_with.  Re-record only when a change is meant to
alter the program's results (and say why in that change); the benchmark
counts any other change of a results CSV as a failed run.  The hashes hold
for the BLAS build, CPU kernel and thread count they were recorded with.
"""

import argparse
import json
import tempfile
from pathlib import Path

import run


def fixture_hashes(bench, names) -> dict[str, str]:
    bench.CACHE.mkdir(parents=True, exist_ok=True)
    hashes = {}
    with tempfile.TemporaryDirectory(dir=bench.CACHE) as scratch:
        for name in names:
            bench.write_fixture(name, scratch, seed=bench.FIXTURE_SEED)
            for f in bench.fixture_files(name):
                hashes[f] = bench.sha256_file(Path(scratch) / f)
    return hashes


def csv_hashes(bench, workload) -> list[str]:
    inputs, _ = bench.set_up(workload, bench.experiment_config(workload, 0),
                             bench.CACHE / "data")
    return [
        bench.csv_sha256(bench.run_experiment(bench.experiment_config(workload, input_set),
                                              inputs.train, inputs.partition, inputs.test))
        for input_set in range(bench.INPUT_SETS)
    ]


def main() -> None:
    run.prepare()
    import bench

    argparse.ArgumentParser(description=__doc__).parse_args()
    names = sorted({w.dataset for w in bench.WORKLOADS.values()})
    golden = {"recorded_with": bench.environment(),
              "fixtures": fixture_hashes(bench, names), "csv": {}}
    for name in names:
        bench.ensure_fixture(name, bench.CACHE / "data", golden["fixtures"])
    for name, workload in bench.WORKLOADS.items():
        golden["csv"][name] = {}
        for size, sized in (("full", workload), ("smoke", bench.smoke_size(workload))):
            golden["csv"][name][size] = csv_hashes(bench, sized)
            print(f"{name} {size}: {bench.INPUT_SETS} hashes", flush=True)
    bench.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
