import dataclasses
import hashlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catfed import (
    DistributionSpec,
    ExperimentConfig,
    GenerationError,
    LabeledDataset,
    generate_partition,
    run_experiment,
)
from catfed.cli import records_to_csv
from catfed import partitions
from catfed.federation import STRATEGIES
from catfed.network import TrainConfig
from catfed.partitions import (
    KINDS,
    _kept_rows,
    generate_partition_from_labels,
    kind_bounds,
    parse_imbalance,
    partition_stats,
    save_partition,
)
from catfed.selection import CategoryMask, build_mask
from catfed.seeding import STREAM_IMBALANCE, STREAM_PARTITION, derive_rng
from catfed.synthetic import FIXTURE_COUNTS
from conftest import assert_export_matches, make_dataset, make_pair
from oracles import validate_partition


def dataset_for(kind: str, num_clients=100, samples_per_client=40, seed=0):
    classes = {"D1": 10, "D2": 47, "D3": 49, "D4": 47, "D5": 49}.get(kind, 10)
    per_class = max(200, num_clients * samples_per_client // classes + 50)
    ds = make_dataset(
        num_classes=classes,
        num_samples=classes * per_class,
        num_pixels=8,
        seed=seed,
        name="mnist" if classes == 10 else ("femnist47" if classes == 47 else "kmnist49"),
    )
    return ds


class TestRangeKinds:
    @pytest.mark.parametrize("kind", ["D1", "D2", "D3", "D4", "D5"])
    def test_structural_bounds_hold(self, kind):
        ds = dataset_for(kind)
        spec = DistributionSpec(kind=kind, num_clients=100, samples_per_client=40, seed=3)
        part = generate_partition(spec, ds)
        assert validate_partition(part, ds.labels) == []
        assert part.num_clients == 100
        assert all(len(a) == 40 for a in part.assignments)

    def test_d1_presence_profile_non_increasing(self):
        ds = dataset_for("D1")
        spec = DistributionSpec(kind="D1", num_clients=100, samples_per_client=40, seed=1)
        part = generate_partition(spec, ds)
        presence = part.category_presence
        assert np.all(np.diff(presence) <= 0)
        assert presence.min() >= 3 and presence.max() <= 70

    def test_d5_upper_half_is_scarce(self):
        ds = dataset_for("D5")
        spec = DistributionSpec(kind="D5", num_clients=100, samples_per_client=40, seed=0)
        part = generate_partition(spec, ds)
        upper = part.category_presence[49 // 2 + 1 :]
        assert np.median(upper) <= 3

    def test_wrong_class_count_rejected(self):
        ds = dataset_for("D1")
        spec = DistributionSpec(kind="D2", num_clients=50, samples_per_client=20)
        with pytest.raises(ValueError, match="47-class"):
            generate_partition(spec, ds)


class TestFixedKinds:
    @pytest.mark.parametrize(
        "kind,expected", [("D6", 1), ("D7", 3), ("D8", 5), ("D9", 7), ("D10", 9)]
    )
    def test_ten_class_fixed_counts(self, kind, expected):
        ds = dataset_for(kind)
        spec = DistributionSpec(kind=kind, num_clients=30, samples_per_client=30, seed=2)
        part = generate_partition(spec, ds)
        assert all(m.popcount() == expected for m in part.masks)
        assert validate_partition(part, ds.labels) == []

    def test_forty_nine_class_fixed_counts(self):
        ds = make_dataset(num_classes=49, num_samples=49 * 120, num_pixels=8, name="kmnist49")
        spec = DistributionSpec(kind="D9", num_clients=20, samples_per_client=50, seed=5)
        part = generate_partition(spec, ds)
        assert all(m.popcount() == 25 for m in part.masks)

    def test_stats_histogram_single_bar_for_d6(self):
        ds = dataset_for("D6")
        spec = DistributionSpec(kind="D6", num_clients=25, samples_per_client=30, seed=0)
        stats = partition_stats(generate_partition(spec, ds))
        hist = stats.client_category_counts
        assert hist[1] == 25
        assert hist.sum() == 25


class TestDeterminismAndEdges:
    def test_same_seed_same_partition(self):
        ds = dataset_for("D1")
        spec = DistributionSpec(kind="D1", num_clients=40, samples_per_client=25, seed=9)
        a = generate_partition(spec, ds)
        b = generate_partition(spec, ds)
        assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))
        assert a.masks == b.masks

    def test_different_seed_different_partition(self):
        ds = dataset_for("D1")
        a = generate_partition(
            DistributionSpec(kind="D1", num_clients=40, samples_per_client=25, seed=1), ds
        )
        b = generate_partition(
            DistributionSpec(kind="D1", num_clients=40, samples_per_client=25, seed=2), ds
        )
        assert any(not np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))

    def test_single_client_degenerate(self):
        ds = dataset_for("D1")
        spec = DistributionSpec(kind="D1", num_clients=1, samples_per_client=30, seed=4)
        part = generate_partition(spec, ds)
        assert part.num_clients == 1
        assert 1 <= part.masks[0].popcount() <= 5
        assert len(part.assignments[0]) == 30

    def test_missing_category_in_dataset_fails(self):
        ds = dataset_for("D1")
        gutted = LabeledDataset(
            images=ds.images[ds.labels != 9],
            labels=ds.labels[ds.labels != 9],
            num_categories=10,
            name="mnist",
        )
        spec = DistributionSpec(kind="D1", num_clients=30, samples_per_client=20, seed=0)
        with pytest.raises(GenerationError):
            generate_partition(spec, gutted)

    def test_replacement_fallback_reported(self):
        # 10 samples per class cannot feed 20 clients x 30 samples without reuse.
        ds = make_dataset(num_classes=10, num_samples=100, num_pixels=8, seed=1)
        spec = DistributionSpec(kind="D6", num_clients=20, samples_per_client=30, seed=0)
        part = generate_partition(spec, ds)
        assert part.replacement_events
        assert all(len(a) == 30 for a in part.assignments)
        for client, category, shortfall in part.replacement_events:
            assert 0 <= client < 20 and 0 <= category < 10 and shortfall > 0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DistributionSpec(kind="D11")
        with pytest.raises(ValueError, match="num_clients must be >= 1, got 0"):
            DistributionSpec(kind="D1", num_clients=0)
        with pytest.raises(ValueError, match="ratio"):
            DistributionSpec(kind="D1", imbalance=(4, 1.5))
        for ratio in (5.0, float("nan")):
            with pytest.raises(ValueError, match="ratio"):
                DistributionSpec(kind="D1", imbalance=(0, ratio))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            DistributionSpec(kind="D1", seed=-1)
        for imbalance in ("4:0.1", (4,), (4, 0.1, 2), [4, 0.1]):
            with pytest.raises(
                ValueError, match=rf"^imbalance must be none or a \(count, ratio\) tuple, got "
            ):
                DistributionSpec(kind="D1", imbalance=imbalance)


class TestValidateReportsEachProblem:
    """Each check of validate_partition, tripped alone on a valid D1 partition
    (100 clients x 40 samples, presence 64 54 48 42 32 29 21 16 9 3)."""

    @pytest.fixture(scope="class")
    def valid(self):
        ds = dataset_for("D1")
        spec = DistributionSpec(kind="D1", num_clients=100, samples_per_client=40, seed=3)
        part = generate_partition(spec, ds)
        assert validate_partition(part, ds.labels) == []
        return part, ds.labels

    @staticmethod
    def with_client(part, j, assigned, mask):
        assignments, masks = list(part.assignments), list(part.masks)
        assignments[j], masks[j] = assigned, mask
        return dataclasses.replace(part, assignments=tuple(assignments), masks=tuple(masks))

    def test_wrong_sample_count(self, valid):
        part, labels = valid
        short = self.with_client(part, 3, part.assignments[3][:-1], part.masks[3])
        assert validate_partition(short, labels) == ["client 3: 39 samples != 40"]

    def test_stored_mask_disagrees(self, valid):
        part, labels = valid
        swapped = self.with_client(part, 3, part.assignments[3], part.masks[4])
        assert validate_partition(swapped, labels) == [
            "client 3: stored mask disagrees with assigned labels"
        ]

    def test_category_count_outside_bounds(self, valid):
        part, labels = valid
        rows = np.concatenate([np.flatnonzero(labels == c)[:7] for c in range(6)])[:40]
        wide = self.with_client(part, 3, rows, build_mask(labels[rows], 10))
        assert validate_partition(wide, labels) == ["client 3: 6 categories outside [1, 5]"]

    def test_presence_outside_bounds(self, valid):
        # Folding category 9 into 8 leaves 9 held by no client.
        part, labels = valid
        folded = np.minimum(labels, 8)
        masks = tuple(build_mask(folded[a], 10) for a in part.assignments)
        assert validate_partition(dataclasses.replace(part, masks=masks), folded) == [
            "category 9: presence 0 outside [3, 70]"
        ]

    def test_d1_profile_must_not_increase(self, valid):
        # Reversing the category ids reverses the presence profile.
        part, labels = valid
        reversed_labels = 9 - labels
        masks = tuple(build_mask(reversed_labels[a], 10) for a in part.assignments)
        reversed_part = dataclasses.replace(part, masks=masks)
        assert validate_partition(reversed_part, reversed_labels) == [
            "D1 presence profile is not non-increasing"
        ]


class TestKindBounds:
    def test_full_scale_bounds(self):
        counts, presence = kind_bounds("D1", 10, 100, 600)
        assert counts == (1, 5) and presence == (3, 70)
        counts, presence = kind_bounds("D4", 47, 100, 600)
        assert counts == (1, 4) and presence == (1, 13)
        counts, presence = kind_bounds("D5", 49, 100, 600)
        assert counts == (1, 4) and presence == (1, 18)

    def test_bounds_clip_to_instance(self):
        counts, presence = kind_bounds("D2", 47, 10, 3)
        assert counts[1] <= 3
        assert presence[1] <= 10


def kept_rows(dataset, minority_count, ratio=0.1, seed=0):
    spec = DistributionSpec(kind="D1", imbalance=(minority_count, ratio), seed=seed)
    return _kept_rows(spec, dataset.labels, dataset.num_categories)


def copy_path_transcription(
    dataset: LabeledDataset, minority_count: int, ratio: float, seed: int
) -> LabeledDataset:
    """Reference: the imbalance as a copy of the kept rows, partitioned afterwards
    with no imbalance in the spec.  Its runs must match the spec's imbalance."""
    rng = derive_rng(seed, STREAM_IMBALANCE)
    keep = np.ones(dataset.num_samples, dtype=bool)
    for c in range(minority_count):
        members = np.flatnonzero(dataset.labels == c)
        retain = int(round(ratio * members.size))
        dropped = rng.choice(members, size=members.size - retain, replace=False)
        keep[dropped] = False
    kept = np.flatnonzero(keep)
    return LabeledDataset(
        images=dataset.images[kept],
        labels=dataset.labels[kept],
        num_categories=dataset.num_categories,
        name=dataset.name,
    )


class TestImbalance:
    def test_minority_classes_subsampled(self, tiny_dataset):
        kept = kept_rows(tiny_dataset, minority_count=2, ratio=0.1, seed=0)
        before = tiny_dataset.class_counts()
        after = np.bincount(tiny_dataset.labels[kept], minlength=6)
        for c in (0, 1):
            assert after[c] == round(0.1 * before[c])
        for c in range(2, 6):
            assert after[c] == before[c]

    def test_sample_order_preserved(self, tiny_dataset):
        kept = kept_rows(tiny_dataset, minority_count=2, ratio=0.2, seed=1)
        assert np.all(np.diff(kept) > 0)
        # Surviving samples appear in their original relative order.
        kept_labels = tiny_dataset.labels[kept]
        majority = kept_labels[kept_labels >= 2]
        original_majority = tiny_dataset.labels[tiny_dataset.labels >= 2]
        assert np.array_equal(majority, original_majority)

    def test_zero_minorities_is_identity(self, tiny_dataset):
        assert DistributionSpec(kind="D1", imbalance=(0, 0.3)) == DistributionSpec(kind="D1")
        assert kept_rows(tiny_dataset, minority_count=0) is None
        spec = DistributionSpec(kind="D1")
        assert _kept_rows(spec, tiny_dataset.labels, 6) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="ratio"):
            DistributionSpec(kind="D1", imbalance=(1, 1.0))
        spec = DistributionSpec(kind="D1", imbalance=(10, 0.1))
        with pytest.raises(ValueError, match=r"minority count must be in \[0, 10\), got 10"):
            generate_partition_from_labels(spec, np.repeat(np.arange(10), 5), 10)

    def test_deterministic(self, tiny_dataset):
        a = kept_rows(tiny_dataset, minority_count=2, ratio=0.1, seed=3)
        b = kept_rows(tiny_dataset, minority_count=2, ratio=0.1, seed=3)
        assert np.array_equal(a, b)

    def test_spec_imbalance_indexes_the_real_split(self):
        ds = dataset_for("D1")
        plain = DistributionSpec(kind="D1", num_clients=30, samples_per_client=25, seed=11)
        skewed = dataclasses.replace(plain, imbalance=(4, 0.1))
        a, b = generate_partition(plain, ds), generate_partition(skewed, ds)
        assert any(not np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))
        kept = _kept_rows(skewed, ds.labels, ds.num_categories)
        assert kept.size < ds.num_samples
        assert np.isin(np.concatenate(b.assignments), kept).all()
        assert validate_partition(b, ds.labels) == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_matches_copy_path(self, strategy):
        train, test = make_pair(train_samples=1200, num_pixels=12, seed=2)
        spec = DistributionSpec(
            kind="D1", num_clients=20, samples_per_client=30, imbalance=(4, 0.2), seed=3
        )
        config = ExperimentConfig(
            strategy=strategy, rounds=4, hidden=(8,), seed=3,
            train=TrainConfig(learning_rate=0.1, batch_size=8),
        )
        new = run_experiment(config, train, generate_partition(spec, train), test)
        skewed = copy_path_transcription(train, 4, 0.2, seed=3)
        old_part = generate_partition(dataclasses.replace(spec, imbalance=None), skewed)
        old = run_experiment(config, skewed, old_part, test)
        assert records_to_csv(new.records) == records_to_csv(old.records)


ROUND_TRIP_LABELS = np.random.default_rng(0).permutation(np.repeat(np.arange(10), 60))


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.append(ROUND_TRIP_LABELS, 12), r"category 12 out of range \[0, 10\)"),
        (np.append(ROUND_TRIP_LABELS, -1), r"category -1 out of range \[0, 10\)"),
        (ROUND_TRIP_LABELS + 0.5, "labels must be integers, got dtype float64"),
        (ROUND_TRIP_LABELS.astype(np.float64), "labels must be integers, got dtype float64"),
        (ROUND_TRIP_LABELS % 2 == 1, "labels must be integers, got dtype bool"),
    ],
    ids=["above-range", "negative", "fractional-float", "integral-float", "bool"],
)
def test_labels_are_checked_on_entry(labels, message):
    spec = DistributionSpec(kind="D6", num_clients=20, samples_per_client=10)
    drawn = mock.patch.object(partitions, "_draw_samples", side_effect=AssertionError("drew"))
    with drawn, pytest.raises(ValueError, match=f"^{message}$"):
        generate_partition_from_labels(spec, labels, 10)


class TestExport:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["D1", "D6", "D7", "D8", "D9", "D10"]),
        num_clients=st.integers(1, 20),
        samples_per_client=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        imbalance=st.none() | st.tuples(st.integers(0, 9), st.floats(0.05, 0.95)),
    )
    def test_round_trip_property(self, kind, num_clients, samples_per_client, seed,
                                 imbalance):
        labels = ROUND_TRIP_LABELS
        spec = DistributionSpec(
            kind=kind, num_clients=num_clients, samples_per_client=samples_per_client,
            imbalance=imbalance, seed=seed,
        )
        part = generate_partition_from_labels(spec, labels, 10)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part.txt"
            save_partition(part, path)
            assert_export_matches(path, part, labels)
        assert validate_partition(part, labels) == []

    def test_round_trip_reproduces_masks(self, tmp_path):
        ds = dataset_for("D1")
        spec = DistributionSpec(
            kind="D1", num_clients=30, samples_per_client=25,
            imbalance=(4, 0.1), seed=11,
        )
        part = generate_partition(spec, ds)
        path = tmp_path / "part.txt"
        save_partition(part, path)
        assert_export_matches(path, part, ds.labels)

    def test_numpy_imbalance_is_stored_as_python_numbers(self, tmp_path):
        # A numpy ratio would be written as np.float64(0.2), which
        # parse_imbalance refuses.
        spec = DistributionSpec(kind="D6", num_clients=3, samples_per_client=4,
                                imbalance=(np.int64(3), np.float64(0.2)))
        assert [type(x) for x in spec.imbalance] == [int, float]
        save_partition(generate_partition_from_labels(spec, ROUND_TRIP_LABELS, 10),
                       tmp_path / "part.txt")
        header = (tmp_path / "part.txt").read_text().splitlines()[0]
        assert header.endswith(" imbalance=3:0.2")
        assert parse_imbalance(header.rpartition("=")[2]) == (3, 0.2)

    def test_export_format(self, tmp_path):
        ds = dataset_for("D1")
        spec = DistributionSpec(kind="D1", num_clients=5, samples_per_client=10, seed=0)
        part = generate_partition(spec, ds)
        path = tmp_path / "part.txt"
        save_partition(part, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# catfed-partition kind=D1 ")
        assert "imbalance=none" in lines[0]
        assert len(lines) == 6
        # Shrinking no category is no imbalance, and is written as such.
        unshrunk = dataclasses.replace(spec, imbalance=(0, 0.5))
        save_partition(generate_partition(unshrunk, ds), path)
        assert path.read_text().splitlines() == lines
        for j in range(5):
            prefix, _, rest = lines[j + 1].partition(":")
            assert int(prefix) == j
            assert len(rest.split()) == 10


def reference_draw_samples(client_categories, labels, samples_per_client, num_categories,
                           rng):
    """Reference: the per-chunk draw the array form replaced, one slice per
    (client, category) pair."""
    pools = []
    for c in range(num_categories):
        pool = np.flatnonzero(labels == c)
        pools.append(rng.permutation(pool) if pool.size else pool)
    cursors = np.zeros(num_categories, dtype=np.int64)

    assignments = []
    events = []
    for j, cats in enumerate(client_categories):
        base, rem = divmod(samples_per_client, len(cats))
        chunks = []
        for pos, c in enumerate(cats):
            quota = base + (1 if pos < rem else 0)
            pool = pools[c]
            if pool.size == 0:
                raise GenerationError(f"dataset holds no samples of category {c}")
            take = min(quota, pool.size - int(cursors[c]))
            if take > 0:
                chunks.append(pool[cursors[c] : cursors[c] + take])
                cursors[c] += take
            short = quota - take
            if short > 0:
                chunks.append(rng.choice(pool, size=short, replace=True))
                events.append((j, int(c), short))
        assignments.append(np.concatenate(chunks))
    return assignments, events


def reference_assign_categories(presence, counts, rng):
    """Reference: the category fill as per-client lists, one append per
    (client, category) placement, each list sorted at the end."""
    capacity = counts.astype(np.int64).copy()
    members = [[] for _ in range(counts.size)]
    for c in np.lexsort((np.arange(presence.size), presence)):
        need = int(presence[c])
        if need == 0:
            continue
        eligible = np.flatnonzero(capacity > 0)
        if eligible.size < need:
            raise GenerationError(
                f"category {c} needs {need} clients, only {eligible.size} have capacity"
            )
        tie = rng.random(eligible.size)
        for j in eligible[np.lexsort((tie, -capacity[eligible]))][:need]:
            members[int(j)].append(int(c))
            capacity[j] -= 1
    return [np.array(sorted(cats), dtype=np.int64) for cats in members]


def reference_partition(spec, labels, num_categories):
    """Reference: generate_partition_from_labels with the per-client list
    fill, the per-chunk draw and the per-label mask loop (one CategoryMask
    per client, presence counted mask by mask)."""
    count_bounds, presence_bounds = kind_bounds(
        spec.kind, num_categories, spec.num_clients, spec.samples_per_client
    )
    kept = _kept_rows(spec, labels, num_categories)
    pool_labels = labels if kept is None else labels[kept]
    last_error = "no attempt made"
    for attempt in range(partitions._MAX_ATTEMPTS):
        rng = derive_rng(spec.seed, STREAM_PARTITION, attempt)
        try:
            counts = rng.integers(count_bounds[0], count_bounds[1] + 1, size=spec.num_clients)
            if spec.kind in partitions._RANGE_KINDS:
                presence = partitions._presence_profile(
                    spec.kind, num_categories, int(counts.sum()), *presence_bounds, rng
                )
                client_categories = reference_assign_categories(presence, counts, rng)
            else:
                client_categories = [
                    np.sort(rng.choice(num_categories, size=int(k), replace=False))
                    for k in counts
                ]
            assignments, events = reference_draw_samples(
                client_categories, pool_labels, spec.samples_per_client, num_categories, rng
            )
        except GenerationError as exc:
            last_error = str(exc)
            continue
        if kept is not None:
            assignments = [kept[a] for a in assignments]
        masks = []
        for a in assignments:
            bits = 0
            for c in labels[a]:
                bits |= 1 << int(c)
            masks.append(CategoryMask(bits, num_categories))
        masks = tuple(masks)
        presence_realized = np.zeros(num_categories, dtype=np.int64)
        for m in masks:
            for c in m.categories():
                presence_realized[c] += 1
        return assignments, masks, presence_realized, tuple(events)
    raise GenerationError(
        f"{spec.kind}: no feasible partition after {partitions._MAX_ATTEMPTS} attempts "
        f"(last: {last_error})"
    )


def assert_matches_reference(spec, labels, num_categories):
    try:
        assignments, masks, presence, events = reference_partition(spec, labels, num_categories)
    except GenerationError as exc:
        with pytest.raises(GenerationError) as info:
            generate_partition_from_labels(spec, labels, num_categories)
        assert str(info.value) == str(exc)
        return
    part = generate_partition_from_labels(spec, labels, num_categories)
    assert len(part.assignments) == len(assignments)
    for new, old in zip(part.assignments, assignments):
        assert new.dtype == old.dtype
        assert np.array_equal(new, old)
    assert part.masks == masks
    assert part.category_presence.dtype == presence.dtype
    assert np.array_equal(part.category_presence, presence)
    assert part.replacement_events == events


# The class counts each kind is defined for.
KIND_CLASSES = {"D1": (10,), "D2": (47,), "D3": (49,), "D4": (47,), "D5": (49,)}


@st.composite
def small_label_specs(draw):
    """A spec and labels with few rows per class, so pools run out; some
    classes may have no rows at all."""
    kind = draw(st.sampled_from(KINDS))
    num_categories = draw(st.sampled_from(KIND_CLASSES.get(kind, (10, 47, 49))))
    per_class = np.array(draw(st.lists(st.integers(1, 30), min_size=num_categories,
                                       max_size=num_categories)))
    per_class[sorted(draw(st.sets(st.integers(0, num_categories - 1), max_size=2)))] = 0
    label_seed = draw(st.integers(0, 2**32 - 1))
    labels = np.random.default_rng(label_seed).permutation(
        np.repeat(np.arange(num_categories), per_class)
    )
    imbalance = draw(st.none() | st.tuples(st.integers(0, num_categories - 1),
                                           st.floats(0.05, 0.95)))
    spec = DistributionSpec(
        kind=kind,
        num_clients=draw(st.integers(1, 40)),
        samples_per_client=draw(st.integers(1, 80)),
        imbalance=imbalance,
        seed=draw(st.integers(0, 2**63 - 1)),
    )
    return spec, labels, num_categories


class TestReferenceTranscription:
    """The table fill, the array-form draw and the masks give the per-client
    list, per-chunk and per-label results."""

    @settings(max_examples=200, deadline=None)
    @given(case=small_label_specs(), block_rows=st.sampled_from([1, 7, 64, 1 << 13]))
    def test_matches_reference_property(self, case, block_rows):
        with mock.patch.object(partitions, "_BLOCK_ROWS", block_rows):
            assert_matches_reference(*case)

    @pytest.mark.parametrize("kind", ["D1", "D8"])
    def test_matches_reference_across_blocks(self, kind):
        ds = dataset_for(kind)
        spec = DistributionSpec(kind=kind, num_clients=300, samples_per_client=60, seed=1)
        assert spec.num_clients * spec.samples_per_client > partitions._BLOCK_ROWS
        assert_matches_reference(spec, ds.labels, ds.num_categories)

    def test_missing_category_text_matches_reference(self):
        labels = np.repeat(np.arange(10), 5)
        labels = labels[labels != 3]
        spec = DistributionSpec(kind="D10", num_clients=4, samples_per_client=20, seed=0)
        with pytest.raises(GenerationError, match="dataset holds no samples of category 3"):
            generate_partition_from_labels(spec, labels, 10)
        assert_matches_reference(spec, labels, 10)


# Label vectors shaped like the fixtures' test splits, shuffled once; they
# are small enough that most cases exhaust some pools and draw replacements.
PINNED_LABELS = {
    len(counts): np.random.default_rng(0).permutation(
        np.repeat(np.arange(len(counts)), counts)
    )
    for counts in (FIXTURE_COUNTS[name]["test"] for name in ("mnist", "femnist47", "kmnist49"))
}

# sha256 prefix, per kind, of every grid case's export text, mask bits and
# replacement events, or of its error text where the case is infeasible.
PINNED_DRAWS = {
    "D1": "5977f65d5f3650d4",
    "D2": "8d63edbdd772f59a",
    "D3": "79bfa8da6c4ecd68",
    "D4": "9cd578d5dbb1d357",
    "D5": "dcfdb2732665c1c4",
    "D6": "d74322c884e43af7",
    "D7": "59600b347767dbbb",
    "D8": "9e2a695d9f7ac1f7",
    "D9": "b86226677a93110f",
    "D10": "2d31e622e0b36b0c",
}


def pinned_cases(kind):
    """(classes, clients, samples per client) triples: the range kinds on
    their own class count, the fixed kinds on 10 classes and on 47 or 49."""
    sizes = [(100, 600), (1000, 60), (7, 3)]
    if kind in KIND_CLASSES:
        return [(KIND_CLASSES[kind][0], *size) for size in sizes]
    return [(10, *size) for size in sizes] + [(47 + 2 * (KINDS.index(kind) % 2), 100, 600)]


@pytest.mark.parametrize("kind", KINDS)
def test_draw_is_pinned(kind, tmp_path):
    digest = hashlib.sha256()
    for num_categories, num_clients, samples_per_client in pinned_cases(kind):
        for imbalance in (None, (3, 0.2)):
            spec = DistributionSpec(kind, num_clients, samples_per_client, imbalance, seed=5)
            try:
                part = generate_partition_from_labels(
                    spec, PINNED_LABELS[num_categories], num_categories
                )
            except GenerationError as exc:
                digest.update(f"error {exc}\n".encode())
                continue
            save_partition(part, tmp_path / "part.txt")
            digest.update((tmp_path / "part.txt").read_bytes())
            digest.update(" ".join(f"{m.bits:x}" for m in part.masks).encode())
            digest.update(repr(part.replacement_events).encode())
    assert digest.hexdigest()[:16] == PINNED_DRAWS[kind]
