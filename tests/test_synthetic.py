"""Synthetic IDX fixtures: shapes, counts, determinism, prototype sharing."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from catfed.datasets import (
    DATASET_CLASSES,
    DatasetSpec,
    load_dataset,
    write_idx_images,
    write_idx_labels,
)
from catfed.synthetic import (
    FIXTURE_COUNTS,
    class_prototypes,
    generate_split,
    write_fixture,
)


class TestCounts:
    @pytest.mark.parametrize(
        "name, train_total, test_total",
        [
            ("mnist", 60000, 10000),
            ("fmnist", 60000, 10000),
            ("kmnist10", 60000, 10000),
            ("femnist47", 112800, 18800),
            ("kmnist49", 232365, 38547),
        ],
    )
    def test_split_totals(self, name, train_total, test_total):
        assert sum(FIXTURE_COUNTS[name]["train"]) == train_total
        assert sum(FIXTURE_COUNTS[name]["test"]) == test_total

    def test_class_count_vectors_match_dataset_shapes(self):
        for name, splits in FIXTURE_COUNTS.items():
            for counts in splits.values():
                assert len(counts) == DATASET_CLASSES[name]

    def test_generated_labels_match_counts(self):
        images, labels = generate_split("mnist", "test", seed=0)
        assert images.shape == (10000, 784)
        assert images.dtype == np.uint8
        observed = np.bincount(labels, minlength=10)
        assert tuple(observed) == FIXTURE_COUNTS["mnist"]["test"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="no fixture shape"):
            generate_split("cifar10", "train")


class TestPrototypes:
    def test_twin_pairs_share_base(self):
        rng = np.random.default_rng(0)
        protos = class_prototypes(10, rng)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        within = cos(protos[0], protos[1])
        across = cos(protos[0], protos[2])
        assert within > 0.5
        assert abs(across) < 0.3
        assert within > across + 0.3

    def test_odd_class_count_supported(self):
        protos = class_prototypes(49, np.random.default_rng(1))
        assert protos.shape == (49, 784)
        assert np.all(np.isfinite(protos))

    def test_train_and_test_share_class_structure(self):
        train_images, train_labels = generate_split("mnist", "train", seed=0)
        test_images, test_labels = generate_split("mnist", "test", seed=0)

        def class_means(images, labels):
            centered = images.astype(np.float64) - 128.0
            return np.stack(
                [centered[labels == c].mean(axis=0) for c in range(10)]
            )

        mu_train = class_means(train_images, train_labels)
        mu_test = class_means(test_images, test_labels)
        for c in range(10):
            num = mu_train[c] @ mu_test[c]
            den = np.linalg.norm(mu_train[c]) * np.linalg.norm(mu_test[c])
            assert num / den > 0.8


class TestDeterminismAndFiles:
    def test_same_seed_same_bytes(self):
        a_img, a_lab = generate_split("mnist", "test", seed=3)
        b_img, b_lab = generate_split("mnist", "test", seed=3)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_lab, b_lab)

    def test_different_seed_differs(self):
        a_img, _ = generate_split("mnist", "test", seed=3)
        b_img, _ = generate_split("mnist", "test", seed=4)
        assert not np.array_equal(a_img, b_img)

    def test_write_fixture_round_trips(self, tmp_path):
        paths = write_fixture("mnist", tmp_path, seed=0)
        assert sorted(paths) == [
            "test_images",
            "test_labels",
            "train_images",
            "train_labels",
        ]
        ds = load_dataset(DatasetSpec("mnist", "test", tmp_path))
        assert ds.num_samples == 10000
        assert ds.num_categories == 10
        assert tuple(ds.class_counts()) == FIXTURE_COUNTS["mnist"]["test"]

    def test_write_fixture_skips_existing(self, tmp_path):
        paths = write_fixture("mnist", tmp_path, seed=0)
        written = paths["test_labels"].read_bytes()
        marker = b"sentinel"
        paths["test_labels"].write_bytes(marker)
        write_fixture("mnist", tmp_path, seed=0)
        assert paths["test_labels"].read_bytes() == marker
        # A split is rewritten from its generator through the IDX writers.
        images, labels = generate_split("mnist", "test", seed=0)
        write_idx_images(paths["test_images"], images)
        write_idx_labels(paths["test_labels"], labels)
        assert paths["test_labels"].read_bytes() == written


def test_mnist_fixture_matches_the_recorded_hashes(tmp_path):
    # The benchmark's golden CSVs were recorded on these exact bytes.
    golden = Path(__file__).parents[1] / "perfbench" / "golden.json"
    recorded = json.loads(golden.read_text(encoding="utf-8"))["fixtures"]
    paths = write_fixture("mnist", tmp_path, seed=0)
    for path in paths.values():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[path.name]


def test_generate_split_peak_is_near_the_splits_own_bytes():
    # Noise is drawn and scaled one block at a time, straight into the
    # shuffled rows: the peak is the split plus one 2,048-row float64 block
    # (12.8 MB), where float64 copies of the split would take 376 MB each.
    tracemalloc.start()
    try:
        images, labels = generate_split("mnist", "train", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= images.nbytes + labels.nbytes + 16 * 2**20
