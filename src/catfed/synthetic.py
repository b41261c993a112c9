"""Synthetic IDX fixtures with realistic per-class counts.

Each fixture mimics one of the supported dataset shapes: same image geometry,
same file naming, and per-class sample counts that add up to the real
train/test totals.  The images themselves are noisy class prototypes.
Prototypes come in confusable pairs built from a shared base pattern plus or
minus a separation direction, so a class the model never trains on tends to
be absorbed by its twin instead of staying trivially separable.  That keeps
coverage of rare categories consequential, which is the regime the selection
strategies are designed for.

Generation is deterministic in (name, split, seed).  It draws each class in
2,048-row blocks and writes every block straight to its shuffled rows, so a
split costs its own bytes plus one 12.8 MB float64 block.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datasets import (
    DATASET_CLASSES,
    DatasetSpec,
    IMAGE_PIXELS,
    write_idx_images,
    write_idx_labels,
)
from .seeding import STREAM_FIXTURE, derive_rng

# Per-class pixel-noise level and twin-pair separation.  Tuned so a fully
# covered federation learns the task within tens of rounds while classes with
# little training exposure stay near their twin's decision region.
NOISE_SCALE = 1.0
PAIR_SEPARATION = 0.35


def _even_counts(total: int, num_classes: int) -> tuple[int, ...]:
    base, rem = divmod(total, num_classes)
    return tuple(base + (1 if c < rem else 0) for c in range(num_classes))


# Per-class counts for each dataset shape.  MNIST uses the real class
# frequencies; the balanced sets split their totals evenly.
FIXTURE_COUNTS: dict[str, dict[str, tuple[int, ...]]] = {
    "mnist": {
        "train": (5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949),
        "test": (980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009),
    },
    "fmnist": {
        "train": _even_counts(60000, 10),
        "test": _even_counts(10000, 10),
    },
    "kmnist10": {
        "train": _even_counts(60000, 10),
        "test": _even_counts(10000, 10),
    },
    "femnist47": {
        "train": _even_counts(112800, 47),
        "test": _even_counts(18800, 47),
    },
    "kmnist49": {
        "train": _even_counts(232365, 49),
        "test": _even_counts(38547, 49),
    },
}


def class_prototypes(num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean prototype per class, twin classes sharing a base pattern."""
    protos = np.empty((num_classes, IMAGE_PIXELS))
    for pair in range((num_classes + 1) // 2):
        base = rng.standard_normal(IMAGE_PIXELS)
        delta = rng.standard_normal(IMAGE_PIXELS) * PAIR_SEPARATION
        lo, hi = 2 * pair, 2 * pair + 1
        protos[lo] = base + delta
        if hi < num_classes:
            protos[hi] = base - delta
    return protos


def generate_split(
    name: str, split: str, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Images (uint8, flattened) and labels for one fixture split, shuffled."""
    if name not in FIXTURE_COUNTS:
        raise ValueError(f"no fixture shape for {name!r}")
    counts = FIXTURE_COUNTS[name][split]
    num_classes = DATASET_CLASSES[name]

    # Prototypes depend only on (name, seed) so train and test share them.
    proto_rng = derive_rng(seed, STREAM_FIXTURE, 0)
    protos = class_prototypes(num_classes, proto_rng)

    split_tag = 1 if split == "train" else 2
    total = sum(counts)
    order = derive_rng(seed, STREAM_FIXTURE, split_tag, num_classes).permutation(total)
    # Row r of the class-major draw lands at shuffled position destination[r],
    # so the split is written once, already shuffled.
    destination = np.empty(total, dtype=np.intp)
    destination[order] = np.arange(total)
    images = np.empty((total, IMAGE_PIXELS), dtype=np.uint8)
    labels = np.empty(total, dtype=np.uint8)
    # Noise is drawn 2,048 rows at a time and scaled in place; a blocked draw
    # yields the same normals as one draw, and each in-place step rounds as
    # clip(128 + 44 * (protos[c] + NOISE_SCALE * noise), 0, 255).
    block = np.empty((2048, IMAGE_PIXELS))
    offset = 0
    for c, n in enumerate(counts):
        rng = derive_rng(seed, STREAM_FIXTURE, split_tag, c)
        for start in range(0, n, len(block)):
            raw = block[: min(len(block), n - start)]
            rng.standard_normal(out=raw)
            raw *= NOISE_SCALE
            raw += protos[c]
            raw *= 44.0
            raw += 128.0
            np.clip(raw, 0.0, 255.0, out=raw)
            rows = destination[offset + start : offset + start + len(raw)]
            images[rows] = raw
            labels[rows] = c
        offset += n
    return images, labels


def write_fixture(name: str, root, seed: int = 0) -> dict[str, Path]:
    """Write the four IDX files for ``name`` under ``root``; skips existing ones."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for split in ("train", "test"):
        spec = DatasetSpec(name=name, split=split, root_path=root)
        images_path, labels_path = spec.images_path(), spec.labels_path()
        paths[f"{split}_images"] = images_path
        paths[f"{split}_labels"] = labels_path
        if images_path.exists() and labels_path.exists():
            continue
        images, labels = generate_split(name, split, seed)
        write_idx_images(images_path, images)
        write_idx_labels(labels_path, labels)
    return paths
