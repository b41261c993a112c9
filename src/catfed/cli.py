"""Command-line front end: config-driven experiments emitting CSV.

Subcommands:

  run              train under the configured strategy, write per-round CSV
  partition        generate and export a client partition plus histogram CSV
  sweep-n          rerun the configured category strategy across N limits
  inspect-dataset  print per-class sample histograms
  trace-selection  print the ranked scan and per-step coverage of a selection

All state flows from the config file; the dataset root may also come from the
CATFED_DATA_ROOT environment variable when the config leaves it unset.  CSV
floats are written with repr so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .datasets import DatasetSpec, LabeledDataset, load_dataset
from .errors import _parse_int
from .federation import ExperimentResult, RoundRecord, run_experiment, run_round, train_rounds
from .partitions import (
    ClientPartition,
    generate_partition,
    partition_stats,
    save_partition,
)
from .selection import CATEGORY_STRATEGIES, SelectionConfig, trace_selection

ENV_DATA_ROOT = "CATFED_DATA_ROOT"
CSV_HEADER = (
    "round,strategy,selected_k,categories_covered,accuracy,test_loss,"
    "round_cost,cumulative_cost,data_seen"
)
SWEEP_HEADER = "n,selected_k,categories_covered,final_accuracy,cumulative_cost"


def resolve_data_root(config: RunConfig) -> Path:
    if config.data_root is not None:
        return Path(config.data_root)
    root = os.environ.get(ENV_DATA_ROOT, "data")
    if root == "":
        # Path("") is the working directory; refused as data_root = "" is.
        raise ValueError(f"{ENV_DATA_ROOT} must be a non-empty path or unset, got ''")
    return Path(root)


def records_to_csv(records: tuple[RoundRecord, ...]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.round_index},{r.strategy},{r.selected_k},{r.categories_covered},"
            f"{r.accuracy!r},{r.test_loss!r},{r.round_cost!r},"
            f"{r.cumulative_cost!r},{r.data_seen}"
        )
    return "\n".join(lines) + "\n"


def _load_pair(config: RunConfig, root: Path) -> tuple[LabeledDataset, LabeledDataset]:
    train = load_dataset(DatasetSpec(config.dataset, "train", root))
    test = load_dataset(DatasetSpec(config.dataset, "test", root))
    return train, test


def _note_replacements(partition: ClientPartition) -> None:
    if partition.replacement_events:
        repeated = sum(n for _, _, n in partition.replacement_events)
        print(
            f"note: {len(partition.replacement_events)} exhausted-pool draws "
            f"({repeated} samples drawn with replacement)"
        )


def _seed_csv_path(output: Path, seed: int, multi: bool) -> Path:
    if not multi:
        return output
    return output.with_name(f"{output.stem}.seed{seed}{output.suffix}")


def _summary_path(output: Path) -> Path:
    return output.with_name(f"{output.stem}.summary.txt")


def cmd_run(config_path: str) -> int:
    config = load_config(config_path)
    root = resolve_data_root(config)
    train, test = _load_pair(config, root)

    output = Path(config.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    multi = config.seeds > 1
    results: list[tuple[int, ExperimentResult]] = []
    for replicate in range(config.seeds):
        seeded = dataclasses.replace(config, seed=config.seed + replicate)
        partition = generate_partition(seeded.distribution_spec(), train)
        result = run_experiment(seeded.experiment_config(), train, partition, test)
        csv_path = _seed_csv_path(output, seeded.seed, multi)
        csv_path.write_text(records_to_csv(result.records), encoding="utf-8")
        results.append((seeded.seed, result))
        print(f"wrote {csv_path} ({len(result.records)} rounds)")
        _note_replacements(partition)

    summary_lines = [
        f"seed={seed} final_accuracy={res.final_accuracy!r} "
        f"cumulative_cost={res.cumulative_cost!r} "
        f"data_seen={res.records[-1].data_seen}"
        for seed, res in results
    ]
    if multi:
        acc = np.array([res.final_accuracy for _, res in results])
        cost = np.array([res.cumulative_cost for _, res in results])
        summary_lines.append(
            f"mean final_accuracy={acc.mean()!r} std={acc.std()!r} "
            f"mean cumulative_cost={cost.mean()!r} std={cost.std()!r}"
        )
    summary = "\n".join(summary_lines) + "\n"
    _summary_path(output).write_text(summary, encoding="utf-8")
    print(summary, end="")
    return 0


def cmd_partition(config_path: str) -> int:
    config = load_config(config_path)
    root = resolve_data_root(config)
    train = load_dataset(DatasetSpec(config.dataset, "train", root))
    partition = generate_partition(config.distribution_spec(), train)

    output = Path(config.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    save_partition(partition, output)

    stats = partition_stats(partition)
    stats_path = output.with_name(f"{output.stem}.stats.csv")
    lines = ["metric,key,value"]
    lines += [f"{metric},{key},{value}" for metric, key, value in stats.rows()]
    stats_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"wrote {output} ({partition.num_clients} clients)")
    print(f"wrote {stats_path}")
    _note_replacements(partition)
    return 0


def _parse_n_values(raw: str) -> list[int]:
    """``--n``: a comma list of N values and N-M ranges, each N >= 1, in
    ASCII numerals as config files are."""
    values: set[int] = set()
    for token in raw.split(","):
        token = token.strip()
        try:
            if "-" in token.lstrip("-"):
                lo, _, hi = token.partition("-")
                first, last = _parse_int(lo), _parse_int(hi)
            else:
                first = last = _parse_int(token)
        except ValueError:
            raise ValueError(
                f"--n: {token!r} is neither an integer nor a range N-M"
            ) from None
        if first < 1:
            raise ValueError(f"--n: N values must be >= 1, got {token!r}")
        if last < first:
            raise ValueError(f"--n: range {token!r} runs backwards")
        values.update(range(first, last + 1))
    return sorted(values)


def _require_category_strategy(config: RunConfig, command: str) -> None:
    if config.strategy not in CATEGORY_STRATEGIES:
        raise ValueError(f"{command} needs a category strategy, got {config.strategy!r}")


def cmd_sweep_n(config_path: str, n_values: list[int]) -> int:
    config = load_config(config_path)
    _require_category_strategy(config, "sweep-n")
    for key, written, reason in (
        ("limit", config.limit is not None, "--n sets N"),
        ("mode", config.mode is not None, "--n sets N"),
        ("seeds", config.seeds > 1, "it sweeps one seed"),
    ):
        if written:
            raise ValueError(f"{config_path}: {key} has no effect under sweep-n ({reason})")
    root = resolve_data_root(config)
    train, test = _load_pair(config, root)
    # One partition and one seed shared by every N so the sweep isolates N.
    partition = generate_partition(config.distribution_spec(), train)
    _note_replacements(partition)

    rows = []
    smallest_full: int | None = None
    for n in n_values:
        # Only the last round is reported, so only the last round is scored.
        exp = dataclasses.replace(config.experiment_config(), limit=n)
        rounds = train_rounds(exp, train, partition)
        for _ in range(exp.rounds - 1):
            next(rounds)
        _, last = run_round(rounds, test)
        rows.append(
            f"{n},{last.selected_k},{last.categories_covered},"
            f"{last.accuracy!r},{last.cumulative_cost!r}"
        )
        if smallest_full is None and last.categories_covered == train.num_categories:
            smallest_full = n
        print(
            f"N={n}: selected {last.selected_k}, covered {last.categories_covered}, "
            f"accuracy {last.accuracy:.4f}"
        )

    output = Path(config.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text("\n".join([SWEEP_HEADER] + rows) + "\n", encoding="utf-8")
    coverage_note = f"smallest_full_coverage_n={smallest_full or 'none'}"
    _summary_path(output).write_text(coverage_note + "\n", encoding="utf-8")
    print(coverage_note)
    return 0


def cmd_inspect_dataset(config_path: str, split: str) -> int:
    config = load_config(config_path)
    root = resolve_data_root(config)
    splits = ("train", "test") if split == "both" else (split,)
    for s in splits:
        ds = load_dataset(DatasetSpec(config.dataset, s, root))
        counts = ds.class_counts()
        print(f"{ds.name} {s}: {ds.num_samples} samples, {ds.num_categories} classes")
        for c, n in enumerate(counts):
            print(f"  class {c:>3}: {int(n)}")
    return 0


def cmd_trace_selection(config_path: str) -> int:
    config = load_config(config_path)
    _require_category_strategy(config, "trace-selection")
    root = resolve_data_root(config)
    train = load_dataset(DatasetSpec(config.dataset, "train", root))
    partition = generate_partition(config.distribution_spec(), train)
    experiment = config.experiment_config()
    sel = SelectionConfig(train.num_categories, experiment.mode, experiment.limit)
    for line in trace_selection(list(partition.masks), sel, config.strategy):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catfed",
        description="Category-aware federated averaging simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config", help="path to a key = value config file")

    p_part = sub.add_parser("partition", help="generate and export a partition")
    p_part.add_argument("config")

    p_sweep = sub.add_parser("sweep-n", help="rerun across client limits N")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--n",
        default="1-25",
        help="comma list of N values, ranges allowed (default 1-25)",
    )

    p_inspect = sub.add_parser("inspect-dataset", help="print class histograms")
    p_inspect.add_argument("config")
    p_inspect.add_argument(
        "--split", choices=("train", "test", "both"), default="both"
    )

    p_trace = sub.add_parser("trace-selection", help="print a selection trace")
    p_trace.add_argument("config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "partition":
            return cmd_partition(args.config)
        if args.command == "sweep-n":
            return cmd_sweep_n(args.config, _parse_n_values(args.n))
        if args.command == "inspect-dataset":
            return cmd_inspect_dataset(args.config, args.split)
        if args.command == "trace-selection":
            return cmd_trace_selection(args.config)
        raise AssertionError(args.command)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
