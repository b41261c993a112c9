import tracemalloc

import numpy as np
import pytest

from catfed import (
    DistributionSpec,
    ExperimentConfig,
    LabeledDataset,
    Mode,
    RoundError,
    check_loss_decomposition,
    evaluate,
    generate_partition,
    init_model,
    run_experiment,
)
from catfed import federation
from catfed.federation import (
    _fedavg_k,
    _RunningAverage,
    run_round,
    train_rounds,
)
from catfed.network import COHORT, ModelParams, TrainConfig, client_update
from catfed.seeding import STREAM_CLIENT_UPDATE, STREAM_MODEL_INIT, derive_rng
from catfed.selection import CategoryMask
from conftest import make_dataset, make_pair, make_partition


def small_setup(strategy="cat_performance", kind="D1", **overrides):
    train, test = make_pair(num_classes=10, num_pixels=12, seed=0)
    spec = DistributionSpec(kind=kind, num_clients=15, samples_per_client=30, seed=2)
    part = generate_partition(spec, train)
    config = ExperimentConfig(
        strategy=strategy, rounds=overrides.pop("rounds", 3),
        hidden=(16,), seed=overrides.pop("seed", 5), **overrides,
    )
    return config, train, part, test


def record_calls(monkeypatch, calls, *names):
    """Wrap each ``federation.<name>`` so that a call appends its name to
    ``calls`` before running."""
    def wrap(name, inner):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(federation, name, wrap(name, getattr(federation, name)))


def fold(models, sizes):
    """``models`` folded through ``_RunningAverage(sizes)``, each from
    writable copies, since the fold may overwrite what it is given."""
    average = _RunningAverage(sizes)
    for i, m in enumerate(models):
        average.add(i, tuple(w.copy() for w in m.weights), tuple(b.copy() for b in m.biases))
    return average.result()


class TestAggregation:
    def test_weighted_mean_hand_check(self):
        a = ModelParams(weights=(np.full((2, 2), 1.0),), biases=(np.zeros(2),))
        b = ModelParams(weights=(np.full((2, 2), 4.0),), biases=(np.ones(2),))
        merged = fold([a, b], [1, 2])
        assert np.allclose(merged.weights[0], 3.0)
        assert np.allclose(merged.biases[0], 2.0 / 3.0)

    def test_equal_weights_is_plain_mean(self):
        rng = np.random.default_rng(0)
        models = [
            ModelParams(weights=(rng.standard_normal((3, 2)),), biases=(rng.standard_normal(3),))
            for _ in range(4)
        ]
        merged = fold(models, [2] * 4)
        stacked = np.mean([m.weights[0] for m in models], axis=0)
        assert np.allclose(merged.weights[0], stacked)

    def test_equals_summed_products_bitwise(self):
        # The fold rounds as sum(c * p for ...) over the whole list does.
        rng = np.random.default_rng(3)
        models = [
            ModelParams(weights=(rng.standard_normal((4, 3)),), biases=(rng.standard_normal(4),))
            for _ in range(5)
        ]
        sizes = [60, 7, 600, 33, 1]
        coef = np.array(sizes, dtype=np.float64) / sum(sizes)
        merged = fold(models, sizes)
        want_w = sum(c * m.weights[0] for c, m in zip(coef, models))
        want_b = sum(c * m.biases[0] for c, m in zip(coef, models))
        assert merged.weights[0].tobytes() == want_w.tobytes()
        assert merged.biases[0].tobytes() == want_b.tobytes()


def round_inputs(sizes, seed=0):
    """A partition of clients of the given sample counts over one uint8
    train split."""
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    train = LabeledDataset(
        images=rng.integers(0, 256, (total, 784), dtype=np.uint8),
        labels=rng.integers(0, 10, total), num_categories=10, name="mnist",
    )
    test = LabeledDataset(
        images=rng.integers(0, 256, (200, 784), dtype=np.uint8),
        labels=rng.integers(0, 10, 200), num_categories=10, name="mnist",
    )
    bounds = np.cumsum([0, *sizes])
    partition = make_partition(
        [np.arange(bounds[j], bounds[j + 1]) for j in range(len(sizes))],
        [CategoryMask(0b1, 10)] * len(sizes),
    )
    return train, test, partition


class TestStreamedRound:
    def test_round_equals_summed_products_of_the_updates_bitwise(self):
        sizes = [37, 5, 64, 20, 11, 50]
        train, test, part = round_inputs(sizes)
        config = ExperimentConfig(strategy="fedavg_random", client_fraction=1.0,
                                  hidden=(16,), seed=4)
        model = init_model([784, 16, 10], derive_rng(config.seed, STREAM_MODEL_INIT))
        new_model, record = run_round(train_rounds(config, train, part), test)
        assert record.selected == tuple(range(len(sizes)))
        updates = [
            client_update(
                model, train.images[idx], train.labels[idx], config.train,
                derive_rng(config.seed, STREAM_CLIENT_UPDATE, 1, j),
            )
            for j, idx in enumerate(part.assignments)
        ]
        coefs = np.array(sizes, dtype=np.float64) / sum(sizes)
        for l, got in enumerate(new_model.weights + new_model.biases):
            want = sum(c * (u.weights + u.biases)[l] for c, u in zip(coefs, updates))
            assert got.tobytes() == want.tobytes()

    def test_cohort_round_equals_summed_products_of_client_updates_bitwise(self):
        # Full cohorts, a cohort cut by COHORT, a size change and a last
        # cohort of one: every update is the one client_update gives alone.
        sizes = [20] * (COHORT + 1) + [7, 7, 20]
        train, test, part = round_inputs(sizes, seed=3)
        config = ExperimentConfig(strategy="fedavg_random", client_fraction=1.0,
                                  hidden=(16,), seed=9)
        model = init_model([784, 16, 10], derive_rng(config.seed, STREAM_MODEL_INIT))
        new_model, record = run_round(train_rounds(config, train, part), test)
        assert record.selected == tuple(range(len(sizes)))
        updates = [
            client_update(
                model, train.images[idx], train.labels[idx], config.train,
                derive_rng(config.seed, STREAM_CLIENT_UPDATE, 1, j),
            )
            for j, idx in enumerate(part.assignments)
        ]
        coefs = np.array(sizes, dtype=np.float64) / sum(sizes)
        for l, got in enumerate(new_model.weights + new_model.biases):
            want = sum(c * (u.weights + u.biases)[l] for c, u in zip(coefs, updates))
            assert got.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_selected_clients(self):
        # Each update is folded in as its client returns: a round that
        # trains 40 clients peaks within three model sizes of one that
        # trains 4 (holding every update would add 36).
        train, test, part = round_inputs([20] * 40)
        model = init_model([784, 100, 10], derive_rng(0, STREAM_MODEL_INIT))
        model_bytes = sum(a.nbytes for a in model.weights + model.biases)

        def round_peak(fraction):
            config = ExperimentConfig(strategy="fedavg_random", client_fraction=fraction,
                                      hidden=(100,))
            run_round(train_rounds(config, train, part), test)  # warm up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _, record = run_round(train_rounds(config, train, part), test)
                return record.selected_k, tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        few, few_peak = round_peak(0.1)
        many, many_peak = round_peak(1.0)
        assert (few, many) == (4, 40)
        assert many_peak - few_peak <= 3 * model_bytes


class TestFedavgK:
    def test_default_scale(self):
        assert _fedavg_k(0.1, 100) == 10

    def test_half_rounds_up(self):
        assert _fedavg_k(0.1, 25) == 3
        assert _fedavg_k(0.1, 24) == 2

    def test_floor_of_one(self):
        assert _fedavg_k(0.01, 5) == 1


class TestRunExperiment:
    def test_deterministic_records(self):
        cfg, train, part, test = small_setup()
        a = run_experiment(cfg, train, part, test)
        b = run_experiment(cfg, train, part, test)
        assert a.records == b.records
        for wa, wb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(wa, wb)

    def test_seed_changes_randomized_strategy(self):
        cfg, train, part, test = small_setup(strategy="fedavg_random", seed=1)
        cfg2, *_ = small_setup(strategy="fedavg_random", seed=2)
        a = run_experiment(cfg, train, part, test)
        b = run_experiment(cfg2, train, part, test)
        assert any(
            ra.selected != rb.selected for ra, rb in zip(a.records, b.records)
        )

    def test_round_records_are_consistent(self):
        cfg, train, part, test = small_setup(strategy="cat_cost", rounds=4)
        result = run_experiment(cfg, train, part, test)
        assert len(result.records) == 4
        running_cost = 0.0
        running_data = 0
        for i, rec in enumerate(result.records, start=1):
            assert rec.round_index == i
            assert rec.strategy == "cat_cost"
            assert rec.selected == tuple(sorted(rec.selected))
            assert rec.selected_k == len(rec.selected)
            assert rec.round_cost == float(rec.selected_k)
            running_cost += rec.round_cost
            assert rec.cumulative_cost == running_cost
            running_data += rec.selected_k * 30
            assert rec.data_seen == running_data
            assert 0.0 <= rec.accuracy <= 1.0

    def test_fedavg_draws_fraction(self):
        cfg, train, part, test = small_setup(
            strategy="fedavg_random", client_fraction=0.2, rounds=2
        )
        result = run_experiment(cfg, train, part, test)
        assert all(r.selected_k == 3 for r in result.records)

    def test_category_strategies_cover_when_unlimited(self):
        cfg, train, part, test = small_setup(strategy="cat_performance")
        result = run_experiment(cfg, train, part, test)
        union = 0
        for m in part.masks:
            union |= m.bits
        assert all(r.categories_covered == bin(union).count("1") for r in result.records)

    def test_training_actually_improves_on_coverage(self):
        cfg, train, part, test = small_setup(
            strategy="cat_performance", rounds=25,
            train=TrainConfig(learning_rate=0.5, batch_size=15),
        )
        result = run_experiment(cfg, train, part, test)
        assert result.final_accuracy > result.records[0].accuracy
        assert result.final_accuracy > 0.3

    def test_category_mismatch_rejected(self):
        cfg, train, part, _ = small_setup()
        other = make_dataset(num_classes=4, num_samples=80, num_pixels=12, seed=9)
        with pytest.raises(RoundError, match="category counts"):
            run_experiment(cfg, train, part, other)

    def test_row_width_mismatch_rejected_before_round_1(self, monkeypatch):
        cfg, train, part, _ = small_setup()
        other = make_dataset(num_classes=10, num_samples=80, num_pixels=13, seed=9)
        rounds = []
        monkeypatch.setattr(federation, "run_round", lambda *a: rounds.append(a))
        with pytest.raises(RoundError, match=r"train/test row widths differ: 12 != 13"):
            run_experiment(cfg, train, part, other)
        assert rounds == []

    def test_each_run_round_call_is_one_whole_round(self, monkeypatch):
        # The benchmark's round timer wraps federation.run_round, so each
        # call must train, score and return exactly one round's record.
        cfg, train, part, test = small_setup(strategy="cat_cost", rounds=3)
        inner, calls, rounds = [], [], federation.run_round
        record_calls(monkeypatch, inner, "train_clients", "evaluate")

        def timed_round(*args, **kwargs):
            start = len(inner)
            out = rounds(*args, **kwargs)
            calls.append((out, inner[start:]))
            return out

        monkeypatch.setattr(federation, "run_round", timed_round)
        result = run_experiment(cfg, train, part, test)
        assert len(calls) == 3
        for i, ((_, record), inside) in enumerate(calls):
            assert record is result.records[i]
            assert inside == ["train_clients", "evaluate"]
        assert calls[-1][0][0] is result.model

    @pytest.mark.parametrize("strategy, want", [
        ("fedavg_random", ["select_random"] * 4),
        ("cat_performance", ["select_performance"]),
        ("cat_cost", ["select_cost"]),
    ])
    def test_only_the_random_baseline_selects_every_round(self, monkeypatch, strategy, want):
        cfg, train, part, test = small_setup(strategy=strategy, rounds=4)
        calls = []
        record_calls(monkeypatch, calls, "select_random", "select_performance", "select_cost")
        result = run_experiment(cfg, train, part, test)
        assert calls == want
        if strategy != "fedavg_random":
            assert len({r.selected for r in result.records}) == 1

    @pytest.mark.parametrize("strategy", ["cat_cost", "cat_performance"])
    def test_empty_category_selection_refused_before_any_model(self, monkeypatch, strategy):
        # No client advertises a category, so neither rule picks anyone.
        train, test = make_pair(num_classes=3, num_pixels=5, seed=1)
        part = make_partition([np.arange(0, 6), np.arange(6, 12)], [CategoryMask(0, 3)] * 2)

        def fail(*args, **kwargs):
            raise AssertionError("called before the selection was checked")

        monkeypatch.setattr(federation, "train_clients", fail)
        monkeypatch.setattr(federation, "init_model", fail)
        config = ExperimentConfig(strategy=strategy, hidden=(4,))
        with pytest.raises(RoundError, match="^round 1: selection came back empty$"):
            run_experiment(config, train, part, test)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            ExperimentConfig(strategy="nope")
        with pytest.raises(ValueError, match="rounds"):
            ExperimentConfig(strategy="fedavg_random", rounds=0)
        with pytest.raises(ValueError, match="client_fraction"):
            ExperimentConfig(strategy="fedavg_random", client_fraction=0.0)
        with pytest.raises(ValueError, match="'C'"):
            ExperimentConfig(strategy="cat_cost", mode="C")
        with pytest.raises(ValueError, match="^limit must be >= 1, got 0$"):
            ExperimentConfig(strategy="cat_cost", limit=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentConfig(strategy="cat_cost", seed=-1)
        # A float limit never equals len(selected), so it would cap nothing.
        for field, value, shown in (
            ("limit", 2.5, "2.5"), ("limit", True, "True"), ("rounds", 2.5, "2.5"),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {shown}$"):
                ExperimentConfig(strategy="cat_cost", **{field: value})
        with pytest.raises(ValueError, match=r"^hidden width must be an integer, got 2\.5$"):
            ExperimentConfig(strategy="cat_cost", hidden=(100, 2.5))
        assert ExperimentConfig(strategy="cat_cost", limit=np.int64(3), hidden=(np.intp(8),))
        with pytest.raises(ValueError, match="^hidden must be a sequence of widths, got 100$"):
            ExperimentConfig(strategy="cat_cost", hidden=100)
        for field, kind in (("train", "TrainConfig"), ("cost", "CostModel")):
            with pytest.raises(ValueError, match=f"^{field} must be a {kind}, got None$"):
                ExperimentConfig(strategy="cat_cost", **{field: None})
        # A list of widths is stored as a tuple, so the frozen config hashes.
        listed = ExperimentConfig(strategy="cat_cost", hidden=[100])
        assert listed.hidden == (100,)
        assert hash(listed) == hash(ExperimentConfig(strategy="cat_cost", hidden=(100,)))

    def test_mode_value_caps_the_round_like_the_member(self):
        # Mode A caps a 47-category selection at 10 clients, whether the
        # config names the mode by its member or by its value.
        train, test = make_pair(num_classes=47, train_samples=2350, num_pixels=8, seed=1)
        spec = DistributionSpec(kind="D2", num_clients=100, samples_per_client=20, seed=4)
        part = generate_partition(spec, train)
        picked = []
        for mode in ("A", Mode.A, Mode.B):
            cfg = ExperimentConfig(strategy="cat_performance", rounds=1, hidden=(8,),
                                   mode=mode)
            picked.append(run_experiment(cfg, train, part, test).records[0].selected_k)
        assert picked[:2] == [10, 10]
        assert picked[2] > 10


def test_diverging_client_raises_round_error_naming_round_and_client():
    train_config = TrainConfig(learning_rate=1e300, batch_size=10)
    cfg, train, part, test = small_setup(train=train_config)
    with np.errstate(all="ignore"), pytest.raises(
        RoundError, match=r"round 1, client \d+: training diverged: .*epoch 1, "
        r"batch start \d+ \(last finite loss"
    ):
        run_experiment(cfg, train, part, test)


def test_divergence_names_the_client_a_one_at_a_time_run_names():
    # Clients 0 and 1 share a cohort.  Client 1's rows are infinite, so it
    # diverges at batch start 0; client 0 diverges a step later under a huge
    # learning rate.  Trained one at a time, client 0 raises first.
    rng = np.random.default_rng(3)
    images = rng.standard_normal((24, 5))
    images[12:] = np.inf
    train = LabeledDataset(images=images, labels=rng.integers(0, 3, 24),
                           num_categories=3, name="toy")
    test = LabeledDataset(images=rng.standard_normal((6, 5)),
                          labels=rng.integers(0, 3, 6), num_categories=3, name="toy")
    part = make_partition([np.arange(12), np.arange(12, 24)], [CategoryMask(0b111, 3)] * 2)
    config = ExperimentConfig(
        strategy="fedavg_random", client_fraction=1.0, hidden=(4,),
        train=TrainConfig(learning_rate=1e300, batch_size=4),
    )
    model = init_model([5, 4, 3], derive_rng(config.seed, STREAM_MODEL_INIT))
    alone = []
    with np.errstate(all="ignore"):
        for j, idx in enumerate(part.assignments):
            with pytest.raises(FloatingPointError) as info:
                client_update(model, images[idx], train.labels[idx], config.train,
                              derive_rng(config.seed, STREAM_CLIENT_UPDATE, 1, j))
            alone.append(str(info.value))
        assert "batch start 0 " in alone[1] and "batch start 0 " not in alone[0]
        with pytest.raises(RoundError) as info:
            next(train_rounds(config, train, part))
    assert str(info.value) == f"round 1, client 0: training diverged: {alone[0]}"


def test_round_error_names_the_partition_position():
    # cat_cost picks only client 2, the one full mask; its rows are infinite.
    rng = np.random.default_rng(0)
    images = rng.standard_normal((18, 5))
    images[12:] = np.inf
    train = LabeledDataset(images=images, labels=np.tile(np.arange(3), 6),
                           num_categories=3, name="toy")
    test = LabeledDataset(images=rng.standard_normal((6, 5)),
                          labels=rng.integers(0, 3, 6), num_categories=3, name="toy")
    part = make_partition(
        [np.arange(0, 6), np.arange(6, 12), np.arange(12, 18)],
        [CategoryMask(0b1, 3), CategoryMask(0b10, 3), CategoryMask(0b111, 3)],
    )
    config = ExperimentConfig(strategy="cat_cost", hidden=(4,))
    with np.errstate(all="ignore"), pytest.raises(
        RoundError, match=r"^round 1, client 2: training diverged"
    ):
        next(train_rounds(config, train, part))


def test_selected_client_with_no_samples_is_named_before_training(monkeypatch):
    # Client 1 of a hand-built partition holds no rows; every client is picked.
    train, _, _ = round_inputs([6, 6, 6])
    part = make_partition(
        [np.arange(0, 6), np.arange(0), np.arange(6, 18)],
        [CategoryMask(0b1, 10)] * 3,
    )
    config = ExperimentConfig(strategy="fedavg_random", client_fraction=1.0, hidden=(4,))

    def no_training(*args):
        raise AssertionError("trained a round with an empty client")

    monkeypatch.setattr(federation, "train_clients", no_training)
    with pytest.raises(RoundError) as info:
        next(train_rounds(config, train, part))
    assert str(info.value) == "round 1, client 1: holds no samples"


class TestDecompositionDuringRuns:
    def test_client_major_equals_category_major_each_round(self):
        cfg, train, part, test = small_setup(rounds=2)
        result = run_experiment(cfg, train, part, test)
        reports = [
            evaluate(result.model, train.images[idx], train.labels[idx])
            for idx in part.assignments
        ]
        out = check_loss_decomposition(reports)
        assert out.relative_gap <= 1e-9
        assert out.undefined_categories == ()


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        derive_rng(-1, STREAM_MODEL_INIT)
