"""The catfed benchmark: one workload, one seed, untraced or traced.

Each invocation is one process that sets up one workload and then repeats
``run_experiment`` on it until ``--seconds`` have passed, checking every
repeat's results CSV against its golden sha256.  It drives the library the
way the README's quick start does: ``load_dataset``, ``generate_partition``,
``run_experiment`` and ``cli.records_to_csv``.

With ``--trace 0`` it reports the end-to-end metrics.  ``setup_s`` is the
median of several set-ups in the measuring process: the first one before
the repeats, the others right after them.  With ``--trace 1`` it alternates
untraced and traced repeats and reports per-layer numbers from the traced
ones (see spans.py), plus the tracing overhead.

Run through run.py, which caps the OpenBLAS thread count and puts this
checkout's ``src`` on the import path.  perfbench/README.md documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from catfed import (
    ClientPartition,
    DatasetSpec,
    DistributionSpec,
    ExperimentConfig,
    LabeledDataset,
    generate_partition,
    load_dataset,
    run_experiment,
    write_fixture,
)
from catfed import federation, network
from catfed.cli import records_to_csv
from catfed.network import client_update, init_model

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
GOLDEN_PATH = HERE / "golden.json"

# The fixture data and each workload's partition are fixed; --seed picks the
# experiment seed (model init, client shuffles, the random baseline's draws)
# as seed % INPUT_SETS, and golden.json holds a CSV hash for every one.
FIXTURE_SEED = 0
PARTITION_SEED = 0
INPUT_SETS = 64

# Set-ups timed per untraced run; setup_s is their median.
SETUPS = 9


@dataclass(frozen=True)
class Workload:
    dataset: str
    kind: str
    num_clients: int
    samples_per_client: int
    strategy: str
    rounds: int


# All use the default ExperimentConfig: the 784-100-100-C MLP, the default
# TrainConfig, mode B and client fraction 0.1.
WORKLOADS = {
    # ~4 clients a round, so evaluating on the 10k test split is over half of
    # a round: moved by evaluate, hardly by client parallelism.
    "mnist_d1_cost": Workload("mnist", "D1", 100, 600, "cat_cost", rounds=10),
    # 42 clients a round on the 112.8k-row split: moved by client_update,
    # parallelism, and the dataset's size in setup_s and peak_rss_mb.
    "femnist47_d2_perf": Workload("femnist47", "D2", 100, 600, "cat_performance", rounds=2),
    # 100 clients of 60 samples (2 SGD steps each): per-call overhead.
    "mnist_d8_random_1k": Workload("mnist", "D8", 1000, 60, "fedavg_random", rounds=6),
}


def smoke_size(workload: Workload) -> Workload:
    """Toy size for the benchmark's own tests."""
    return dataclasses.replace(workload, num_clients=20, samples_per_client=60, rounds=2)


def _rows_trained(model, images, labels, config, rng):
    return images.shape[0] * config.local_epochs


def _rows_evaluated(model, images, labels):
    return images.shape[0]


def _updates(params, weights):
    return len(params)


# (module, global, span name, work count from the call's arguments).  These
# are the globals run_experiment's call path looks up.
TRACE_TARGETS = (
    (federation, "run_round", "federation.run_round", None),
    (federation, "select_random", "selection.select", None),
    (federation, "select_performance", "selection.select", None),
    (federation, "select_cost", "selection.select", None),
    (federation, "client_update", "network.client_update", _rows_trained),
    (federation, "aggregate_weighted", "federation.aggregate_weighted", _updates),
    (federation, "evaluate", "network.evaluate", _rows_evaluated),
    (federation, "check_loss_decomposition", "costs.check_loss_decomposition", None),
    (network, "loss_and_grad", "network.loss_and_grad", None),
    (network, "sgd_step", "network.sgd_step", None),
    (network, "per_sample_losses", "network.per_sample_losses", None),
    (network, "forward", "network.forward", None),
)
ROOT_SPAN = "federation.run_experiment"
LAYERS = (ROOT_SPAN,) + tuple(dict.fromkeys(t[2] for t in TRACE_TARGETS))


class BenchError(RuntimeError):
    """A set-up problem that makes the run meaningless: no result is printed."""


# ---------------------------------------------------------------- inputs


def fixture_files(name: str) -> list[str]:
    return [f"{name}-{split}-{part}.idx" for split in ("train", "test")
            for part in ("images", "labels")]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ensure_fixture(name: str, root: Path, expected: dict[str, str]) -> None:
    """Generate ``name``'s IDX files into ``root`` once, then check each sha256.

    Files are generated in a scratch directory and moved into place, so an
    interrupted generation leaves nothing behind; a file that is there but
    does not match its recorded hash is refused, never regenerated quietly.
    """
    root.mkdir(parents=True, exist_ok=True)
    missing = [f for f in fixture_files(name) if not (root / f).exists()]
    if missing:
        with tempfile.TemporaryDirectory(dir=root) as scratch:
            write_fixture(name, scratch, seed=FIXTURE_SEED)
            for f in missing:
                os.replace(Path(scratch) / f, root / f)
    for f in fixture_files(name):
        got = sha256_file(root / f)
        if got != expected.get(f):
            raise BenchError(
                f"{root / f}: sha256 {got} does not match the recorded "
                f"{expected.get(f)}; the file is stale or partial, or the fixture "
                f"generator changed (delete the file to regenerate it)"
            )


@dataclass(frozen=True)
class Inputs:
    train: LabeledDataset
    test: LabeledDataset
    partition: ClientPartition


def experiment_config(workload: Workload, input_set: int) -> ExperimentConfig:
    return ExperimentConfig(strategy=workload.strategy, rounds=workload.rounds, seed=input_set)


def set_up(workload: Workload, config: ExperimentConfig, root: Path,
           tracer: Tracer | None = None) -> tuple[Inputs, float]:
    """Load both splits, partition, warm up; return the inputs and the seconds taken."""
    load, partition_of = load_dataset, generate_partition
    if tracer is not None:
        load = tracer.wrap("datasets.load_dataset", load_dataset)
        partition_of = tracer.wrap("partitions.generate_partition", generate_partition)
    start = perf_counter()
    train = load(DatasetSpec(workload.dataset, "train", root))
    test = load(DatasetSpec(workload.dataset, "test", root))
    partition = partition_of(
        DistributionSpec(kind=workload.kind, num_clients=workload.num_clients,
                         samples_per_client=workload.samples_per_client,
                         seed=PARTITION_SEED),
        train,
    )
    # With two OpenBLAS threads the first small-batch calls in a process can
    # run ~50x slower for up to a second.  One client_update, the call a
    # round starts with, pays that here rather than in the first round.
    rows = partition.assignments[0]
    model = init_model([train.images.shape[1], *config.hidden, train.num_categories],
                       np.random.default_rng(0))
    client_update(model, train.images[rows], train.labels[rows], config.train,
                  np.random.default_rng(0))
    return Inputs(train, test, partition), perf_counter() - start


# ---------------------------------------------------------------- measuring


def csv_sha256(result) -> str:
    """sha256 of the results CSV that ``catfed run`` would write for ``result``."""
    return hashlib.sha256(records_to_csv(result.records).encode()).hexdigest()


@dataclass
class Tally:
    golden: str
    # Appended to a mismatch message: whether this environment differs from
    # the one the golden hashes were recorded with.
    environment_note: str = ""
    attempted: int = 0
    failed: int = 0
    result: object = None

    def run(self, config: ExperimentConfig, inputs: Inputs, experiment=run_experiment):
        """One checked run_experiment; returns its wall time, or None if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = experiment(config, inputs.train, inputs.partition, inputs.test)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        seconds = perf_counter() - start
        digest = csv_sha256(result)
        if digest != self.golden:
            print(f"results CSV sha256 {digest} != golden {self.golden}; "
                  f"{self.environment_note}", file=sys.stderr)
            self.failed += 1
        self.result = result
        return seconds


def measure(config, inputs, tally, seconds) -> tuple[list[float], list[float]]:
    """Repeat until ``seconds`` pass; return run times and round times.

    The round timer is the one timer around federation.run_round.  Stops at
    the first repeat that raises.
    """
    run_times: list[float] = []
    round_times: list[float] = []
    run_round = federation.run_round

    def timed_round(*args, **kwargs):
        start = perf_counter()
        out = run_round(*args, **kwargs)
        round_times.append(perf_counter() - start)
        return out

    federation.run_round = timed_round
    try:
        deadline = perf_counter() + seconds
        while tally.attempted == 0 or perf_counter() < deadline:
            elapsed = tally.run(config, inputs)
            if elapsed is None:
                break
            run_times.append(elapsed)
    finally:
        federation.run_round = run_round
    return run_times, round_times


def measure_traced(config, inputs, tally, seconds, tracer) -> tuple[list[dict], list[float]]:
    """Alternate untraced and traced repeats; per-layer values of each traced one.

    Stops at the first repeat that raises.
    """
    traced_experiment = tracer.wrap(ROOT_SPAN, run_experiment)
    architecture = [inputs.train.images.shape[1], *config.hidden, inputs.train.num_categories]
    layer_values: list[dict] = []
    untraced_times: list[float] = []
    deadline = perf_counter() + seconds
    while not layer_values or perf_counter() < deadline:
        elapsed = tally.run(config, inputs)
        if elapsed is None:
            break
        untraced_times.append(elapsed)
        first = len(tracer.spans)
        undo = tracer.install(TRACE_TARGETS)
        try:
            elapsed = tally.run(config, inputs, traced_experiment)
        finally:
            undo()
        if elapsed is None:
            break
        layer_values.append(layer_metrics(tracer.summary(first), architecture, elapsed))
    return layer_values, untraced_times


def mlp_flops(architecture: list[int]) -> tuple[int, int]:
    """Matmul FLOPs per sample: (one forward pass, one forward plus backward)."""
    pairs = list(zip(architecture[:-1], architecture[1:]))
    forward = 2 * sum(a * b for a, b in pairs)
    # Backward: one weight-gradient matmul per layer, plus a delta matmul
    # into every layer but the first.
    backward = forward + 2 * sum(a * b for a, b in pairs[1:])
    return forward, forward + backward


def layer_metrics(summary: dict, architecture: list[int], run_s: float) -> dict[str, float]:
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    out: dict[str, float] = {}
    for layer in LAYERS:
        entry = summary.get(layer, empty)
        out[f"{layer}.s"] = entry["s"]
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.calls"] = entry["calls"]
    forward_flops, train_flops = mlp_flops(architecture)
    train = summary.get("network.client_update", empty)
    evaluate = summary.get("network.evaluate", empty)
    out["network.train_gflop"] = train["work"] * train_flops / 1e9
    out["network.eval_gflop"] = evaluate["work"] * forward_flops / 1e9
    out["network.client_update.gflop_per_s"] = (
        out["network.train_gflop"] / train["s"] if train["s"] else 0.0)
    out["network.evaluate.gflop_per_s"] = (
        out["network.eval_gflop"] / evaluate["s"] if evaluate["s"] else 0.0)
    out["federation.updates_aggregated"] = summary.get(
        "federation.aggregate_weighted", empty)["work"]
    out["trace.self_sum_s"] = sum(entry["self_s"] for entry in summary.values())
    out["trace.run_s"] = run_s
    # Time in run_experiment and run_round outside every wrapped call: work
    # no layer span accounts for (row copies, RNG derivation, bookkeeping).
    out["trace.unattributed_share"] = sum(
        summary.get(layer, empty)["self_s"] for layer in (ROOT_SPAN, "federation.run_round")
    ) / run_s
    return out


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(specs: list[dict], values: dict[str, float], tally: Tally) -> None:
    """Print every metric with unit and direction, then the JSON result line."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    for s in specs:
        print(f"  {s['name']:<42} {values[s['name']]:>16.6g} {s['unit']:<8} "
              f"{s['better']} is better")
    named = {s["name"] for s in specs}
    for name in values.keys() - named:
        print(f"  {name:<42} {values[name]:>16.6g} (not a bounded metric)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))


def environment_note(recorded: dict) -> str:
    """Say which fields of ``environment()`` differ from ``recorded``."""
    here = environment()
    changed = sorted(k for k in here.keys() | recorded.keys() if here.get(k) != recorded.get(k))
    if not changed:
        return ("this environment matches golden.json's recorded_with, so the "
                "program's results changed")
    return ("this environment differs from golden.json's recorded_with in "
            + ", ".join(f"{k} ({here.get(k)!r} vs {recorded.get(k)!r})" for k in changed)
            + "; that alone can change the last bits of the results")


def print_layers(values: dict[str, float]) -> None:
    run_s = values["trace.run_s"]
    print(f"  {'layer':<34} {'calls':>8} {'total s':>10} {'self s':>10} {'self %':>7}")
    for layer in LAYERS:
        self_s = values[f"{layer}.self_s"]
        print(f"  {layer:<34} {values[f'{layer}.calls']:>8.0f} {values[f'{layer}.s']:>10.4f} "
              f"{self_s:>10.4f} {100 * self_s / run_s:>6.1f}%")
    print(f"  self times sum to {values['trace.self_sum_s']:.4f} s of {run_s:.4f} s traced; "
          f"{100 * values['trace.unattributed_share']:.1f}% is in run_experiment and "
          f"run_round outside every wrapped call")


def median_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one catfed workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed; the experiment seed is seed %% {INPUT_SETS}")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="toy size (20 clients x 60 samples, 2 rounds) for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    size = "smoke" if args.smoke else "full"
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_size(workload)
    input_set = args.seed % INPUT_SETS
    config = experiment_config(workload, input_set)
    data_root = CACHE / "data"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN_PATH.read_text())
    ensure_fixture(workload.dataset, data_root, golden["fixtures"])
    tally = Tally(golden=golden["csv"][args.workload][size][input_set],
                  environment_note=environment_note(golden["recorded_with"]))
    print(json.dumps({"environment": environment()}))
    print(f"workload {args.workload} ({size}), seed {args.seed} -> input set {input_set}, "
          f"{workload.rounds} rounds per repeat")

    if args.trace:
        tracer = Tracer()
        inputs, _ = set_up(workload, config, data_root, tracer)
        setup = tracer.summary()
        layer_values, untraced = measure_traced(config, inputs, tally, args.seconds, tracer)
        values = dict.fromkeys((s["name"] for s in spec["per_layer"]), 0.0)
        if layer_values:
            values.update(median_by_key(layer_values))
        values["trace.untraced_run_s"] = statistics.median(untraced) if untraced else 0.0
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
        values["datasets.load_dataset.s"] = setup["datasets.load_dataset"]["s"]
        values["partitions.generate_partition.s"] = setup["partitions.generate_partition"]["s"]
        values["datasets.train_images.bytes"] = inputs.train.images.nbytes
        values["selection.selected_per_round"] = statistics.fmean(
            r.selected_k for r in tally.result.records) if tally.result else 0.0
        traces = CACHE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-{size}-seed{args.seed}.jsonl")
        print(f"{len(layer_values)} traced and {len(untraced)} untraced repeats; "
              f"medians over the traced ones")
        if layer_values:
            print_layers(values)
        report(spec["per_layer"], values, tally)
        return 0

    inputs, setup_s = set_up(workload, config, data_root)
    run_times, round_times = measure(config, inputs, tally, args.seconds)
    # Read before the further set-ups: loading again while the BLAS buffers
    # of the repeats are resident would raise the peak above a single run's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del inputs
    # The first set-up also pays OpenBLAS's per-process thread start-up
    # (0 to ~1.5 s, at random), which the median leaves out.
    setups = [setup_s] + [set_up(workload, config, data_root)[1] for _ in range(SETUPS - 1)]
    result = tally.result
    run_s = statistics.median(run_times) if run_times else 0.0
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "round_s_p50": statistics.median(round_times) if round_times else 0.0,
        "client_samples_per_s": result.records[-1].data_seen / run_s if run_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "final_accuracy": result.final_accuracy if result else 0.0,
        "cumulative_cost": result.cumulative_cost if result else 0.0,
        "golden_csv_ok": 1 if tally.failed == 0 else 0,
    }
    print(f"{len(run_times)} repeats: {', '.join(f'{s:.3f}' for s in run_times)} s; "
          f"{len(round_times)} rounds; {len(setups)} set-ups: "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    report(spec["end_to_end"], values, tally)
    return 0
