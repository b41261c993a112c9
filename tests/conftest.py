from pathlib import Path

import numpy as np
import pytest

from catfed import ClientPartition, DistributionSpec, LabeledDataset, build_mask
from catfed.partitions import parse_imbalance
from catfed.selection import CategoryMask


def make_dataset(
    num_classes: int = 10,
    num_samples: int = 1000,
    num_pixels: int = 24,
    seed: int = 0,
    name: str = "mnist",
    proto_seed: int | None = None,
) -> LabeledDataset:
    """Small learnable dataset: noisy class prototypes, roughly balanced.

    Prototypes come from ``proto_seed`` (default: ``seed``); pass the same
    proto_seed with different seeds to get train/test splits of one task.
    """
    rng = np.random.default_rng(seed)
    proto_rng = np.random.default_rng(seed if proto_seed is None else proto_seed)
    protos = proto_rng.standard_normal((num_classes, num_pixels))
    labels = np.concatenate(
        [np.full(num_samples // num_classes, c) for c in range(num_classes)]
    )
    pad = num_samples - labels.size
    labels = np.concatenate([labels, rng.integers(0, num_classes, pad)])
    labels = labels[rng.permutation(num_samples)].astype(np.int64)
    raw = protos[labels] + rng.standard_normal((num_samples, num_pixels))
    images = np.clip(0.5 + 0.17 * raw, 0.0, 1.0)
    return LabeledDataset(
        images=images, labels=labels, num_categories=num_classes, name=name
    )


def make_pair(
    num_classes: int = 10,
    train_samples: int = 900,
    test_samples: int = 300,
    num_pixels: int = 12,
    seed: int = 0,
    name: str = "mnist",
) -> tuple[LabeledDataset, LabeledDataset]:
    """Train/test splits drawn from the same prototypes."""
    train = make_dataset(num_classes, train_samples, num_pixels, seed, name, proto_seed=seed)
    test = make_dataset(
        num_classes, test_samples, num_pixels, seed + 10_000, name, proto_seed=seed
    )
    return train, test


def make_partition(assignments, masks) -> ClientPartition:
    """Hand-built partition: client j holds rows ``assignments[j]`` and
    advertises ``masks[j]``."""
    masks = tuple(masks)
    return ClientPartition(
        spec=DistributionSpec(kind="D1", num_clients=len(masks)),
        num_categories=masks[0].num_categories,
        assignments=tuple(assignments),
        masks=masks,
    )


def assert_export_matches(path, partition: ClientPartition, labels: np.ndarray) -> None:
    """The export at ``path`` carries ``partition``'s spec fields and client
    rows, and those rows index ``labels`` to the partition's masks."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert header.startswith("# catfed-partition ")
    fields = dict(item.split("=") for item in header.removeprefix("# catfed-partition ").split())
    spec = partition.spec
    assert parse_imbalance(fields.pop("imbalance")) == spec.imbalance
    assert fields == {
        "kind": spec.kind,
        "num_clients": str(spec.num_clients),
        "samples_per_client": str(spec.samples_per_client),
        "seed": str(spec.seed),
        "num_categories": str(partition.num_categories),
    }
    assert len(lines) == partition.num_clients
    for j, line in enumerate(lines):
        head, rest = line.split(": ")
        rows = [int(tok) for tok in rest.split()]
        assert (head, rows) == (str(j), partition.assignments[j].tolist())
        assert build_mask(labels[rows], partition.num_categories) == partition.masks[j]


def random_masks(
    rng: np.random.Generator, num_clients: int, num_categories: int,
    allow_empty: bool = True,
) -> list[CategoryMask]:
    masks = []
    for _ in range(num_clients):
        bits = int(rng.integers(0, 2**num_categories))
        if not allow_empty and bits == 0:
            bits = 1 << int(rng.integers(0, num_categories))
        masks.append(CategoryMask(bits=bits, num_categories=num_categories))
    return masks


@pytest.fixture
def tiny_dataset() -> LabeledDataset:
    return make_dataset(num_classes=6, num_samples=480, num_pixels=16, seed=3)
