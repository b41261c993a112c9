"""Fast spot checks of the production strategies against the test oracles.

The full 10,000-instance sweeps live in test_acceptance; these smaller runs
keep day-to-day iteration quick while exercising the same agreement logic.
"""

import numpy as np
import pytest

from catfed import DistributionSpec, Mode, SelectionConfig, select_cost, select_performance
from catfed.partitions import generate_partition_from_labels
from catfed.selection import resolve_limit
from catfed.synthetic import FIXTURE_COUNTS
from conftest import random_masks
from oracles import cost_pseudocode, minimal_cover_size, performance_pseudocode


def _random_instance(rng):
    num_categories = int(rng.integers(1, 13))
    num_clients = int(rng.integers(1, 16))
    masks = random_masks(rng, num_clients, num_categories)
    return masks, num_categories


@pytest.mark.parametrize("seed", range(5))
def test_production_matches_pseudocode(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        masks, width = _random_instance(rng)
        limit = int(rng.integers(1, width + 3))
        cfg = SelectionConfig(num_categories=width, limit=limit)
        bits = [m.bits for m in masks]
        assert list(select_performance(masks, cfg).selected) == performance_pseudocode(
            bits, width, limit
        )
        assert list(select_cost(masks, cfg).selected) == cost_pseudocode(
            bits, width, limit
        )


def test_mode_b_matches_pseudocode_at_category_limit(seed=99):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        masks, width = _random_instance(rng)
        cfg = SelectionConfig(num_categories=width, mode=Mode.B)
        bits = [m.bits for m in masks]
        n = resolve_limit(cfg)
        assert list(select_performance(masks, cfg).selected) == performance_pseudocode(
            bits, width, n
        )
        assert list(select_cost(masks, cfg).selected) == cost_pseudocode(bits, width, n)


@pytest.mark.parametrize(
    "kind, dataset",
    [("D1", "mnist"), ("D2", "femnist47"), ("D3", "kmnist49"),
     ("D4", "femnist47"), ("D5", "kmnist49")],
)
def test_production_matches_pseudocode_on_generated_partitions(kind, dataset):
    # Masks of 100 clients over 10-49 categories, as the runs select from:
    # wider and more skewed than the random instances above.
    counts = FIXTURE_COUNTS[dataset]["train"]
    labels = np.repeat(np.arange(len(counts)), counts)
    spec = DistributionSpec(kind=kind, num_clients=100, samples_per_client=600)
    masks = list(generate_partition_from_labels(spec, labels, len(counts)).masks)
    bits = [m.bits for m in masks]
    width = len(counts)
    for cfg in (
        SelectionConfig(num_categories=width, mode=Mode.A),
        SelectionConfig(num_categories=width, mode=Mode.B),
        SelectionConfig(num_categories=width, limit=100),
    ):
        n = resolve_limit(cfg)
        assert list(select_performance(masks, cfg).selected) == performance_pseudocode(
            bits, width, n
        )
        assert list(select_cost(masks, cfg).selected) == cost_pseudocode(bits, width, n)


def test_cost_count_bounded_below_by_minimal_cover():
    rng = np.random.default_rng(11)
    for _ in range(150):
        masks, width = _random_instance(rng)
        cfg = SelectionConfig(num_categories=width, limit=len(masks))
        res = select_cost(masks, cfg)
        optimum = minimal_cover_size([m.bits for m in masks], width)
        assert res.count >= optimum
        # Unlimited greedy reaches the same union the optimum covers.
        union = 0
        for m in masks:
            union |= m.bits
        assert res.coverage.bits == union


def test_minimal_cover_on_known_instance():
    # {0,1} {1,2} {2,3} {0,3}: two opposite pairs cover all four categories.
    bits = [0b0011, 0b0110, 0b1100, 0b1001]
    assert minimal_cover_size(bits, 4) == 2
    assert minimal_cover_size([0b1, 0b1], 1) == 1
    assert minimal_cover_size([0, 0], 3) == 0
