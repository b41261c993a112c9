"""End-to-end CLI tests on a tiny on-disk dataset, and the demo scripts."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catfed
from catfed import (
    DatasetSpec,
    DistributionSpec,
    generate_partition,
    load_dataset,
    run_experiment,
)
from catfed.cli import (
    CSV_HEADER,
    SWEEP_HEADER,
    _parse_n_values,
    main,
    records_to_csv,
)
from catfed.config import load_config
from catfed.datasets import write_idx_images, write_idx_labels
from catfed.federation import RoundRecord
from conftest import assert_export_matches, make_pair


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    """mnist-shaped train/test IDX files, 900/300 samples, learnable."""
    root = tmp_path_factory.mktemp("idx")
    train, test = make_pair(num_classes=10, num_pixels=784, seed=4)
    for split, ds in (("train", train), ("test", test)):
        pixels = np.round(ds.images * 255).astype(np.uint8)
        write_idx_images(root / f"mnist-{split}-images.idx", pixels)
        write_idx_labels(root / f"mnist-{split}-labels.idx", ds.labels)
    return root


BASE_KEYS = {
    "dataset": "mnist",
    "distribution": "D1",
    "num_clients": 15,
    "samples_per_client": 30,
    "rounds": 2,
    "learning_rate": 0.1,
    "batch_size": 16,
    "seed": 1,
}


def write_config(tmp_path, data_root, name="run.cfg", **extra):
    keys = {**BASE_KEYS, "data_root": data_root, **extra}
    path = tmp_path / name
    path.write_text(
        "".join(f"{key} = {value}\n" for key, value in keys.items()),
        encoding="utf-8",
    )
    return path


class TestRun:
    def test_writes_csv_and_summary(self, tmp_path, data_root, capsys):
        out = tmp_path / "results.csv"
        cfg = write_config(tmp_path, data_root, output=out)
        assert main(["run", str(cfg)]) == 0

        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "cat_performance"
        assert int(first[2]) >= 1
        assert 0.0 <= float(first[4]) <= 1.0

        summary = (tmp_path / "results.summary.txt").read_text(encoding="utf-8")
        assert "final_accuracy=" in summary
        assert "cumulative_cost=" in summary
        assert "wrote" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path, data_root):
        out_a = tmp_path / "a" / "results.csv"
        out_b = tmp_path / "b" / "results.csv"
        cfg_a = write_config(tmp_path, data_root, name="a.cfg", output=out_a)
        cfg_b = write_config(tmp_path, data_root, name="b.cfg", output=out_b)
        assert main(["run", str(cfg_a)]) == 0
        assert main(["run", str(cfg_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_multi_seed_outputs(self, tmp_path, data_root):
        out = tmp_path / "multi.csv"
        cfg = write_config(tmp_path, data_root, output=out, seeds=3)
        assert main(["run", str(cfg)]) == 0
        for seed in (1, 2, 3):
            assert (tmp_path / f"multi.seed{seed}.csv").exists()
        assert not out.exists()
        summary = (tmp_path / "multi.summary.txt").read_text(encoding="utf-8")
        assert summary.count("seed=") == 3
        assert "mean final_accuracy=" in summary
        assert "std=" in summary

    def test_env_var_data_root(self, tmp_path, data_root, monkeypatch):
        monkeypatch.setenv("CATFED_DATA_ROOT", str(data_root))
        out = tmp_path / "env.csv"
        cfg = tmp_path / "env.cfg"
        keys = {**BASE_KEYS, "output": out}
        cfg.write_text(
            "".join(f"{key} = {value}\n" for key, value in keys.items()),
            encoding="utf-8",
        )
        assert main(["run", str(cfg)]) == 0
        assert out.exists()

    def test_empty_env_var_data_root_refused(self, tmp_path, monkeypatch, capsys):
        # An empty root would read the working directory as the data root.
        monkeypatch.setenv("CATFED_DATA_ROOT", "")
        cfg = tmp_path / "env.cfg"
        cfg.write_text(
            "".join(f"{key} = {value}\n" for key, value in BASE_KEYS.items()),
            encoding="utf-8",
        )
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: CATFED_DATA_ROOT must be a non-empty path or unset, got ''\n"
        )

    def test_fedavg_strategy_runs(self, tmp_path, data_root):
        out = tmp_path / "avg.csv"
        cfg = write_config(
            tmp_path, data_root, output=out, strategy="fedavg_random"
        )
        assert main(["run", str(cfg)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert all(row.split(",")[1] == "fedavg_random" for row in rows)


class TestPartition:
    def test_writes_partition_and_stats(self, tmp_path, data_root, capsys):
        out = tmp_path / "part.csv"
        cfg = write_config(tmp_path, data_root, output=out)
        assert main(["partition", str(cfg)]) == 0
        assert out.exists()

        stats = (tmp_path / "part.stats.csv").read_text(encoding="utf-8")
        lines = stats.splitlines()
        assert lines[0] == "metric,key,value"
        presence = [l for l in lines if l.startswith("category_presence,")]
        assert len(presence) == 10
        assert "wrote" in capsys.readouterr().out


class TestSweepN:
    def test_sweep_outputs_and_coverage(self, tmp_path, data_root, capsys):
        out = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path, data_root, output=out, strategy="cat_cost", rounds=1
        )
        assert main(["sweep-n", str(cfg), "--n", "1-12"]) == 0

        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 13
        covered = [int(row.split(",")[2]) for row in lines[1:]]
        assert covered == sorted(covered)
        assert covered[-1] == 10

        summary = (tmp_path / "sweep.summary.txt").read_text(encoding="utf-8")
        n_star = int(summary.strip().split("=")[1])
        firsts = [n for n, c in zip(range(1, 13), covered) if c == 10]
        assert n_star == firsts[0]
        assert "smallest_full_coverage_n" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["cat_cost", "cat_performance"])
    def test_sweep_rows_are_the_last_record_of_a_run(self, tmp_path, data_root, capsys,
                                                     strategy):
        # Three rounds, so a row scored from any round but the last would show.
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, data_root, output=out, strategy=strategy, rounds=3)
        assert main(["sweep-n", str(cfg), "--n", "1-4"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("N=")]

        config = load_config(cfg)
        train, test = (load_dataset(DatasetSpec("mnist", s, data_root))
                       for s in ("train", "test"))
        partition = generate_partition(config.distribution_spec(), train)
        rows, lines = [SWEEP_HEADER], []
        for n in range(1, 5):
            exp = dataclasses.replace(config.experiment_config(), limit=n)
            last = run_experiment(exp, train, partition, test).records[-1]
            rows.append(f"{n},{last.selected_k},{last.categories_covered},"
                        f"{last.accuracy!r},{last.cumulative_cost!r}")
            lines.append(f"N={n}: selected {last.selected_k}, covered "
                         f"{last.categories_covered}, accuracy {last.accuracy:.4f}")
        assert out.read_text(encoding="utf-8").splitlines() == rows
        assert printed == lines

    def test_sweep_rejects_random_strategy(self, tmp_path, data_root, capsys):
        cfg = write_config(
            tmp_path, data_root, output=tmp_path / "x.csv", strategy="fedavg_random"
        )
        assert main(["sweep-n", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_refuses_a_written_limit(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root, strategy="cat_cost", limit=3)
        assert main(["sweep-n", str(cfg), "--n", "1-2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: limit has no effect under sweep-n (--n sets N)\n"
        )

    def test_sweep_refuses_a_written_mode(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root, strategy="cat_cost", mode="B")
        assert main(["sweep-n", str(cfg), "--n", "1-2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: mode has no effect under sweep-n (--n sets N)\n"
        )

    def test_sweep_refuses_more_than_one_seed(self, tmp_path, data_root, capsys):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, data_root, output=out, strategy="cat_cost", seeds=3)
        assert main(["sweep-n", str(cfg), "--n", "1-2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: seeds has no effect under sweep-n (it sweeps one seed)\n"
        )
        assert not out.exists()

    def test_parse_n_values(self):
        assert _parse_n_values("1,3,5-7") == [1, 3, 5, 6, 7]
        assert _parse_n_values("4") == [4]
        with pytest.raises(ValueError):
            _parse_n_values("0")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("a-3", "--n: 'a-3' is neither an integer nor a range N-M"),
            ("3,,4", "--n: '' is neither an integer nor a range N-M"),
            ("0", "--n: N values must be >= 1, got '0'"),
            ("1,-2", "--n: N values must be >= 1, got '-2'"),
            ("5-3", "--n: range '5-3' runs backwards"),
            ("\u0661-\u0663", "--n: '\u0661-\u0663' is neither an integer nor a range N-M"),
            ("1_0", "--n: '1_0' is neither an integer nor a range N-M"),
        ],
        ids=[
            "bad-range-end", "empty-token", "zero", "negative", "reversed-range",
            "arabic-indic-range", "underscore",
        ],
    )
    def test_bad_n_names_option_and_token(self, tmp_path, data_root, capsys, raw, message):
        cfg = write_config(tmp_path, data_root, strategy="cat_cost")
        assert main(["sweep-n", str(cfg), "--n", raw]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestImbalance:
    """``imbalance = k:r`` shrinks categories inside the partition spec."""

    def test_export_indexes_the_real_split(self, tmp_path, data_root):
        out = tmp_path / "part.txt"
        cfg = write_config(tmp_path, data_root, output=out, imbalance="4:0.1")
        assert main(["partition", str(cfg)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0].endswith(" imbalance=4:0.1")

        train = load_dataset(DatasetSpec("mnist", "train", data_root))
        spec = DistributionSpec(
            kind="D1", num_clients=15, samples_per_client=30, imbalance=(4, 0.1), seed=1
        )
        assert_export_matches(out, generate_partition(spec, train), train.labels)

    def test_run_and_sweep_print_the_exhausted_pool_note(self, tmp_path, data_root, capsys):
        def notes():
            return [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("note: ")
            ]

        keys = {"imbalance": "4:0.1", "strategy": "cat_cost"}
        part_cfg = write_config(tmp_path, data_root, "p.cfg", output=tmp_path / "p.txt", **keys)
        assert main(["partition", str(part_cfg)]) == 0
        expected = notes()
        assert len(expected) == 1 and "exhausted-pool draws" in expected[0]

        out = tmp_path / "run.csv"
        assert main(["run", str(write_config(tmp_path, data_root, output=out, **keys))]) == 0
        assert notes() == expected
        sweep = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, data_root, "s.cfg", output=sweep, rounds=1, **keys)
        assert main(["sweep-n", str(cfg), "--n", "1-2"]) == 0
        assert notes() == expected
        for path in (out, tmp_path / "run.summary.txt", sweep, tmp_path / "sweep.summary.txt"):
            assert "note" not in path.read_text(encoding="utf-8")


class TestInspectAndTrace:
    def test_inspect_dataset(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root)
        assert main(["inspect-dataset", str(cfg), "--split", "train"]) == 0
        out = capsys.readouterr().out
        assert "mnist train: 900 samples, 10 classes" in out
        assert out.count("  class ") == 10

    def test_inspect_both_splits(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root)
        assert main(["inspect-dataset", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "train: 900 samples" in out
        assert "test: 300 samples" in out

    def test_trace_selection(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root)
        assert main(["trace-selection", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "client" in out
        assert "covered 10/10 categories" in out

    def test_trace_selection_reads_the_written_limit(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root, strategy="cat_cost", limit=3)
        assert main(["trace-selection", str(cfg)]) == 0
        assert "strategy=cat_cost num_categories=10 limit=3\n" in capsys.readouterr().out

    def test_trace_rejects_random_strategy(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root, strategy="fedavg_random")
        assert main(["trace-selection", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_missing_data_reports_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "nowhere")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_diverging_run_reports_error(self, tmp_path, data_root, capsys):
        cfg = write_config(tmp_path, data_root, learning_rate=1e300)
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "round 1, client" in err and "diverged" in err

    def test_bad_config_reports_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strategy = powerd\n", encoding="utf-8")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "strategy" in err

    def test_config_refusal_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds = 2\nstrategy = powerd\n", encoding="utf-8")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: line 2: bad value for 'strategy': strategy must be one of "
        )

    def test_run_refuses_a_key_the_strategy_ignores(self, tmp_path, data_root, capsys):
        # Line 10 sets the strategy, line 11 the limit it never reads.
        cfg = write_config(tmp_path, data_root, strategy="fedavg_random", limit=3)
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 11: limit has no effect with strategy fedavg_random\n"
        )

    @pytest.mark.parametrize(
        "command", ["run", "partition", "sweep-n", "inspect-dataset", "trace-selection"]
    )
    def test_class_count_refusal_comes_before_any_data_is_read(self, tmp_path, command,
                                                               capsys):
        # Line 1 sets the dataset, line 2 the 10-class distribution it cannot take.
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = write_config(tmp_path, empty, dataset="femnist47")
        assert main([command, str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 2: dataset femnist47: "
            "D1 is defined for 10-class datasets, got 47\n"
        )

    def test_non_utf8_config_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"rounds = 2\noutput = caf\xe9.csv\n")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: not valid UTF-8 (byte 0xe9)\n"


def test_records_to_csv_uses_repr_floats():
    record = RoundRecord(
        round_index=1,
        strategy="cat_cost",
        selected=(0, 4, 7),
        categories_covered=10,
        accuracy=0.1 + 0.2,
        test_loss=2.302585092994046,
        round_cost=3.0,
        cumulative_cost=3.0,
        data_seen=90,
    )
    line = records_to_csv((record,)).splitlines()[1]
    assert line == "1,cat_cost,3,10,0.30000000000000004,2.302585092994046,3.0,3.0,90"


DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_run_and_their_imports_resolve(tmp_path):
    # The two quick demos run end to end; the third, which trains for about
    # half a minute, is compiled and its catfed imports are looked up.
    src = Path(catfed.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "CATFED_DATA_ROOT": str(tmp_path / "data"),
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    }
    for name in ("selection_walkthrough.py", "partition_gallery.py"):
        done = subprocess.run(
            [sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, f"{name}: {done.stderr}"
        assert done.stdout

    path = DEMOS / "coverage_vs_random.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    compile(tree, str(path), "exec")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "catfed"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
