"""Acceptance gate for the shipped guarantees.

One test per guarantee, each ending in a single printed PASS/FAIL line with
the measured numbers (run with ``pytest -s`` to see them).  Heavy experiment
arms are shared through module-scoped fixtures; the whole file runs in a few
minutes on a laptop CPU.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from catfed import (
    CostLedger,
    CostModel,
    DatasetSpec,
    DistributionSpec,
    ExperimentConfig,
    Mode,
    SelectionConfig,
    build_mask,
    check_loss_decomposition,
    cumulative_cost,
    evaluate,
    generate_partition,
    init_model,
    load_dataset,
    loss_and_grad,
    run_experiment,
    select_cost,
    select_performance,
)
from catfed.cli import main
from catfed.datasets import load_idx_labels
from catfed.partitions import generate_partition_from_labels
from catfed.synthetic import FIXTURE_COUNTS, write_fixture
from oracles import cost_pseudocode, minimal_cover_size, performance_pseudocode
from test_network import fd_gradient, max_relative_error

FULL_SCALE = {"num_clients": 100, "samples_per_client": 600}


def check(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_instance(rng) -> tuple[list, int]:
    num_clients = int(rng.integers(1, 51))
    num_categories = int(rng.integers(1, 51))
    density = rng.uniform(0.05, 0.9)
    rows = rng.random((num_clients, num_categories)) < density
    masks = [build_mask(np.flatnonzero(row), num_categories) for row in rows]
    return masks, num_categories


@pytest.fixture(scope="module")
def fixture_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-data")
    for name in ("mnist", "femnist47", "kmnist49"):
        write_fixture(name, root, seed=0)
    return root


@pytest.fixture(scope="module")
def mnist_pair(fixture_root):
    train = load_dataset(DatasetSpec("mnist", "train", fixture_root))
    test = load_dataset(DatasetSpec("mnist", "test", fixture_root))
    return train, test


@pytest.fixture(scope="module")
def d1_partition(mnist_pair):
    spec = DistributionSpec(kind="D1", seed=0, **FULL_SCALE)
    return generate_partition(spec, mnist_pair[0])


@pytest.fixture(scope="module")
def d1_runs(mnist_pair, d1_partition):
    """Three-seed D1 arms for both headline strategies, 50 rounds each."""
    train, test = mnist_pair
    out = {}
    for strategy in ("fedavg_random", "cat_performance"):
        for seed in (0, 1, 2):
            cfg = ExperimentConfig(strategy=strategy, rounds=50, seed=seed)
            out[strategy, seed] = run_experiment(cfg, train, d1_partition, test)
    return out


def big_labels(name: str) -> np.ndarray:
    return np.repeat(
        np.arange(len(FIXTURE_COUNTS[name]["train"])),
        FIXTURE_COUNTS[name]["train"],
    )


def test_selection_property_suite():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    brute_checked = 0
    for _ in range(10_000):
        masks, num_categories = random_instance(rng)
        union = 0
        for m in masks:
            union |= m.bits
        achievable = bin(union).count("1")

        full = SelectionConfig(num_categories=num_categories, mode=Mode.B)
        perf = select_performance(masks, full)
        cost = select_cost(masks, full)

        # Coverage guarantee: with N >= C both strategies reach every
        # category some client holds.
        assert perf.coverage.bits == union
        assert cost.coverage.bits == union

        # Strict gain: every cost-selected client contributes a new category.
        seen = 0
        for pos in cost.selected:
            assert seen | masks[pos].bits != seen
            seen |= masks[pos].bits
        assert cost.count <= achievable

        # Count bounds under an explicit limit.
        limit = int(rng.integers(1, num_categories + 1))
        capped = SelectionConfig(num_categories=num_categories, limit=limit)
        assert select_performance(masks, capped).count <= limit
        assert select_cost(masks, capped).count <= limit
        assert perf.count <= min(num_categories, len(masks))

        # Determinism: identical inputs, identical selections.
        assert select_performance(masks, full).selected == perf.selected
        assert select_cost(masks, full).selected == cost.selected

        # Greedy can never beat the optimal cover on small instances.
        if len(masks) <= 15 and num_categories <= 12:
            optimum = minimal_cover_size([m.bits for m in masks], num_categories)
            assert cost.count >= optimum
            brute_checked += 1

    elapsed = time.monotonic() - start
    check(
        "selection property suite",
        elapsed < 60.0,
        f"10000 instances (M<=50, C<=50), {brute_checked} brute-force cover "
        f"comparisons, {elapsed:.1f}s",
    )


def test_reference_transcription_agreement():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        masks, num_categories = random_instance(rng)
        bits = [m.bits for m in masks]
        limit = int(rng.integers(1, num_categories + 3))
        sel = SelectionConfig(num_categories=num_categories, limit=limit)
        assert list(select_performance(masks, sel).selected) == (
            performance_pseudocode(bits, num_categories, limit)
        )
        assert list(select_cost(masks, sel).selected) == (
            cost_pseudocode(bits, num_categories, limit)
        )
    check(
        "reference transcription agreement",
        True,
        "both selection rules match the line-by-line transcriptions on "
        "10000 instances",
    )


def _kink_margin(model, batch) -> float:
    """Distance of the closest hidden pre-activation to its ReLU corner."""
    a = batch
    worst = np.inf
    for l in range(len(model.weights) - 1):
        z = a @ model.weights[l].T + model.biases[l]
        worst = min(worst, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return worst


def test_gradient_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        # Central differences straddle the ReLU corner, so only batches
        # whose pre-activations stay 10h away from it are fair probes.
        while True:
            depth = int(rng.integers(1, 4))
            arch = [int(rng.integers(2, 11)) for _ in range(depth + 1)]
            model = init_model(arch, rng)
            batch = rng.standard_normal((int(rng.integers(2, 9)), arch[0]))
            if _kink_margin(model, batch) > 1e-3:
                break
        labels = rng.integers(0, arch[-1], batch.shape[0])
        _, grads = loss_and_grad(model, batch, labels)
        fd_w, fd_b = fd_gradient(model, batch, labels)
        worst = max(worst, max_relative_error(grads.weights, fd_w))
        worst = max(worst, max_relative_error(grads.biases, fd_b))
    check(
        "gradient check",
        worst <= 1e-4,
        f"100 networks (<=3 layers, widths <=10), max relative error "
        f"{worst:.2e} <= 1e-4",
    )


def test_cost_model_exactness():
    rng = np.random.default_rng(3)
    for _ in range(300):
        rounds = int(rng.integers(1, 1001))
        k = int(rng.integers(0, 101))
        client_cost = float(rng.integers(0, 21))
        server_cost = float(rng.integers(0, 21))
        model = CostModel(client_cost=client_cost, server_cost=server_cost)
        expected = rounds * k * client_cost + rounds * server_cost

        ledger = CostLedger(model)
        for _ in range(rounds):
            _, total = ledger.record(k, 0)
        assert total == expected
        assert cumulative_cost(model, [k] * rounds) == expected
    check(
        "cost model exactness",
        True,
        "cumulative cost is bit-exact on 300 integer cases (R<=1000, K<=100)",
    )


def test_loss_decomposition_identity(mnist_pair, d1_runs):
    rng = np.random.default_rng(5)
    worst = 0.0
    undefined_seen = False
    for _ in range(30):
        num_categories = int(rng.integers(2, 13))
        arch = [int(rng.integers(2, 9)), int(rng.integers(2, 9)), num_categories]
        model = init_model(arch, rng)
        reports = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 40))
            batch = rng.standard_normal((n, arch[0]))
            # Leave the top category out of some shards to exercise the
            # undefined-category bookkeeping.
            labels = rng.integers(0, max(num_categories - 1, 1), n)
            reports.append(evaluate(model, batch, labels))
        report = check_loss_decomposition(reports)
        worst = max(worst, report.relative_gap)
        undefined_seen = undefined_seen or report.has_undefined

    trained = d1_runs["cat_performance", 0].model
    test = mnist_pair[1]
    shards = np.array_split(rng.permutation(test.num_samples), 7)
    trained_reports = [
        evaluate(trained, test.images[idx], test.labels[idx]) for idx in shards
    ]
    worst = max(worst, check_loss_decomposition(trained_reports).relative_gap)

    check(
        "loss decomposition identity",
        worst <= 1e-9 and undefined_seen,
        f"client-major vs category-major gap {worst:.2e} <= 1e-9 on randomized "
        f"and trained evaluations",
    )


def test_dataset_split_counts(fixture_root):
    expected = {
        "mnist": (60000, 10000),
        "femnist47": (112800, 18800),
        "kmnist49": (232365, 38547),
    }
    observed = {}
    for name, (train_n, test_n) in expected.items():
        counts = []
        for split, want in (("train", train_n), ("test", test_n)):
            spec = DatasetSpec(name, split, fixture_root)
            labels = load_idx_labels(spec.labels_path())
            image_bytes = spec.images_path().stat().st_size
            assert image_bytes == 16 + want * 784
            counts.append(len(labels))
        observed[name] = tuple(counts)
    mnist = load_dataset(DatasetSpec("mnist", "train", fixture_root))
    ok = observed == expected and mnist.num_samples == 60000
    check(
        "dataset split counts",
        ok,
        f"train/test totals {observed} match the published sizes exactly",
    )


def test_accuracy_trend_d1(d1_runs):
    cat = np.mean([d1_runs["cat_performance", s].final_accuracy for s in (0, 1, 2)])
    avg = np.mean([d1_runs["fedavg_random", s].final_accuracy for s in (0, 1, 2)])
    gap = cat - avg
    check(
        "accuracy trend on D1",
        gap >= 0.10,
        f"3-seed mean over 50 rounds: category coverage {cat:.4f} vs random "
        f"{avg:.4f}, gap {gap:.4f} >= 0.10",
    )


def test_communication_cost_trend(mnist_pair, d1_partition, d1_runs):
    train, test = mnist_pair
    cfg = ExperimentConfig(strategy="cat_cost", rounds=50, seed=0)
    frugal = run_experiment(cfg, train, d1_partition, test)
    baseline = d1_runs["fedavg_random", 0].cumulative_cost
    ratio = frugal.cumulative_cost / baseline
    check(
        "communication cost trend",
        ratio <= 0.5,
        f"greedy coverage spent {frugal.cumulative_cost:.0f} vs random "
        f"{baseline:.0f} over 50 rounds (ratio {ratio:.2f} <= 0.5)",
    )


def test_selection_structure_d1_d5(d1_partition):
    sources = {
        "D1": d1_partition.masks,
        "D2": None, "D3": None, "D4": None, "D5": None,
    }
    labels47, labels49 = big_labels("femnist47"), big_labels("kmnist49")
    for kind, labels, c in (
        ("D2", labels47, 47), ("D3", labels49, 49),
        ("D4", labels47, 47), ("D5", labels49, 49),
    ):
        spec = DistributionSpec(kind=kind, seed=0, **FULL_SCALE)
        sources[kind] = generate_partition_from_labels(spec, labels, c).masks

    details = []
    ok = True
    for kind, masks in sources.items():
        masks = list(masks)
        c = masks[0].num_categories
        full = SelectionConfig(num_categories=c, mode=Mode.B)
        perf = select_performance(masks, full)
        cost = select_cost(masks, full)

        # One pick per category still wanting coverage; a skipped category
        # means all its holders were already selected, so it stays covered.
        available = c - len(perf.skipped_categories)
        holders_absorbed = all(
            {j for j, m in enumerate(masks) if m.has(cat)} <= set(perf.selected)
            for cat in perf.skipped_categories
        )
        ok &= perf.count == min(c, available) and holders_absorbed
        ok &= perf.covered_count() == c
        ok &= cost.covered_count() == c
        details.append(f"{kind}: perf {perf.count}/{c} cost {cost.count}")

        if kind in ("D4", "D5"):
            capped = select_performance(
                masks, SelectionConfig(num_categories=c, mode=Mode.A)
            )
            ok &= capped.covered_count() < c
            details[-1] += f" capped-cov {capped.covered_count()}"

    check("selection structure on D1-D5", ok, "; ".join(details))


def test_category_count_ablation(mnist_pair):
    train, test = mnist_pair
    finals = {}
    for kind in ("D6", "D10"):
        spec = DistributionSpec(kind=kind, seed=0, **FULL_SCALE)
        part = generate_partition(spec, train)
        cfg = ExperimentConfig(strategy="cat_performance", rounds=20, seed=0)
        finals[kind] = run_experiment(cfg, train, part, test).final_accuracy
    check(
        "category count ablation",
        finals["D10"] > finals["D6"],
        f"20 rounds, same strategy and seed: D10 {finals['D10']:.4f} > "
        f"D6 {finals['D6']:.4f}",
    )


def test_n_sweep_coverage():
    spec = DistributionSpec(kind="D5", seed=0, **FULL_SCALE)
    part = generate_partition_from_labels(spec, big_labels("kmnist49"), 49)
    masks = list(part.masks)
    coverage = []
    for n in range(1, 36):
        sel = SelectionConfig(num_categories=49, limit=n)
        coverage.append(select_cost(masks, sel).covered_count())
    smallest = next((n for n, c in enumerate(coverage, start=1) if c == 49), None)
    ok = (
        coverage == sorted(coverage)
        and smallest is not None
        and 10 <= smallest <= 30
    )
    check(
        "N-sweep coverage",
        ok,
        f"coverage non-decreasing over N=1..35, smallest full-coverage "
        f"N={smallest} in [10, 30]",
    )


def test_global_imbalance_trend(mnist_pair):
    train, test = mnist_pair
    spec = DistributionSpec(kind="D1", imbalance=(4, 0.1), seed=0, **FULL_SCALE)
    part = generate_partition(spec, train)
    finals = {}
    for strategy in ("fedavg_random", "cat_performance"):
        cfg = ExperimentConfig(strategy=strategy, rounds=50, seed=0)
        finals[strategy] = run_experiment(cfg, train, part, test).final_accuracy
    gap = finals["cat_performance"] - finals["fedavg_random"]
    check(
        "global imbalance trend",
        gap >= 0.10,
        f"4 minority categories at 1:10, 50 rounds: coverage "
        f"{finals['cat_performance']:.4f} vs random "
        f"{finals['fedavg_random']:.4f}, gap {gap:.4f} >= 0.10",
    )


def test_csv_determinism(fixture_root, tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag / "results.csv"
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(
            f"dataset = mnist\ndata_root = {fixture_root}\n"
            f"strategy = cat_cost\nrounds = 3\nseed = 0\noutput = {out}\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg)]) == 0
        outputs.append(out.read_bytes())
    check(
        "CSV determinism",
        outputs[0] == outputs[1],
        f"two identical runs produced byte-identical CSVs "
        f"({len(outputs[0])} bytes)",
    )
