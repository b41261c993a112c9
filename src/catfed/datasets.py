"""IDX dataset loading for the five MNIST-family corpora.

File layout under a root directory follows ``<name>-<split>-images.idx`` and
``<name>-<split>-labels.idx``.  The IDX container is big-endian: a magic word
(0x00000803 for images, 0x00000801 for labels), dimension sizes, then raw
unsigned bytes.  Images stay as those bytes: a loaded split holds read-only,
C-contiguous uint8 rows of 784 pixels, 8x smaller than float64, and the
network reads a uint8 row as pixel / 255 (see ``network._Workspace``).

A load holds one copy of the split.  The header's count is checked against
the file's size before anything is allocated, the payload is read straight
into one preallocated array, and a transposed dataset is fixed in place,
block by block.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataConsistencyError, DataFormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
IMAGE_SIDE = 28
IMAGE_PIXELS = IMAGE_SIDE * IMAGE_SIDE

# name -> number of label categories
DATASET_CLASSES = {
    "mnist": 10,
    "fmnist": 10,
    "kmnist10": 10,
    "femnist47": 47,
    "kmnist49": 49,
}

# EMNIST-derived files store each image transposed relative to MNIST; fix at
# load time so every dataset shares the same orientation.
TRANSPOSED_DATASETS = {"femnist47"}
# Images per block when transposing a loaded split in place.
_TRANSPOSE_BLOCK = 1024


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    split: str
    root_path: Path

    def __post_init__(self) -> None:
        if self.name not in DATASET_CLASSES:
            raise ValueError(
                f"unknown dataset {self.name!r}; expected one of {sorted(DATASET_CLASSES)}"
            )
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")

    @property
    def num_categories(self) -> int:
        return DATASET_CLASSES[self.name]

    def images_path(self) -> Path:
        return Path(self.root_path) / f"{self.name}-{self.split}-images.idx"

    def labels_path(self) -> Path:
        return Path(self.root_path) / f"{self.name}-{self.split}-labels.idx"


@dataclass(frozen=True)
class LabeledDataset:
    """Paired (num_samples x features) images and integer labels.

    ``load_dataset`` fills ``images`` with uint8 IDX pixels; float64 feature
    rows are accepted too.  The network reads either kind (uint8 as
    pixel / 255), so the rows are never converted up front.
    """

    images: np.ndarray
    labels: np.ndarray
    num_categories: int
    name: str

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataConsistencyError(
                f"{self.name}: {self.images.shape[0]} images vs "
                f"{self.labels.shape[0]} labels"
            )
        if self.labels.size and int(self.labels.max()) >= self.num_categories:
            raise DataConsistencyError(
                f"{self.name}: label {int(self.labels.max())} outside "
                f"[0, {self.num_categories})"
            )

    @property
    def num_samples(self) -> int:
        return int(self.images.shape[0])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_categories)


def _read_header(f, path, magic_expected: int, n_dims: int) -> tuple[int, ...]:
    raw = f.read(4 * (1 + n_dims))
    if len(raw) < 4 * (1 + n_dims):
        raise DataFormatError(f"{path}: truncated header")
    values = struct.unpack(f">{1 + n_dims}i", raw)
    if values[0] != magic_expected:
        raise DataFormatError(
            f"{path}: bad magic 0x{values[0] & 0xFFFFFFFF:08x}, "
            f"expected 0x{magic_expected:08x}"
        )
    return values[1:]


def _read_payload(f, path, count: int, item_bytes: int, what: str) -> np.ndarray:
    """The ``count`` items of ``item_bytes`` bytes left in ``f``, read into one array.

    The header's count is checked against the file's size before anything
    is allocated, so a corrupt count is refused rather than allocated.
    """
    if count < 0:
        raise DataFormatError(f"{path}: header promises a negative count of {what}: {count}")
    expected = count * item_bytes
    available = os.fstat(f.fileno()).st_size - f.tell()
    if available != expected:
        raise DataFormatError(
            f"{path}: payload holds {available} bytes, header promises "
            f"{expected} ({count} {what})"
        )
    out = np.empty((count, item_bytes), dtype=np.uint8)
    got = f.readinto(out.reshape(-1))
    if got != expected:
        raise DataFormatError(f"{path}: read {got} payload bytes, expected {expected}")
    return out


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into the (n, 784) uint8 pixels it holds."""
    path = Path(path)
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, path, IMAGE_MAGIC, 3)
        if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
            raise DataFormatError(
                f"{path}: image size {rows}x{cols} != {IMAGE_SIDE}x{IMAGE_SIDE}"
            )
        return _read_payload(f, path, n, IMAGE_PIXELS, "images")


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into an int vector."""
    path = Path(path)
    with open(path, "rb") as f:
        (n,) = _read_header(f, path, LABEL_MAGIC, 1)
        return _read_payload(f, path, n, 1, "labels").reshape(n).astype(np.int64)


def write_idx_images(path, pixels: np.ndarray) -> None:
    """Inverse of load_idx_images for uint8 (n, 784) data; used to build fixtures."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2 or pixels.shape[1] != IMAGE_PIXELS:
        raise ValueError(f"expected (n, {IMAGE_PIXELS}) uint8 pixels, got {pixels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">4i", IMAGE_MAGIC, pixels.shape[0], IMAGE_SIDE, IMAGE_SIDE))
        f.write(pixels.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and (labels.min() < 0 or labels.max() > 255)):
        raise ValueError("labels must be a 1-d vector of bytes")
    with open(path, "wb") as f:
        f.write(struct.pack(">2i", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def _transpose_in_place(pixels: np.ndarray) -> None:
    """Transpose each 28x28 image of ``pixels`` in place, one block of rows at
    a time, so the only temporary is one block."""
    grids = pixels.reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    block = np.empty((min(len(grids), _TRANSPOSE_BLOCK), IMAGE_SIDE, IMAGE_SIDE), np.uint8)
    for start in range(0, len(grids), _TRANSPOSE_BLOCK):
        rows = grids[start : start + _TRANSPOSE_BLOCK]
        staged = block[: len(rows)]
        np.copyto(staged, rows.transpose(0, 2, 1))
        np.copyto(rows, staged)


def load_dataset(spec: DatasetSpec) -> LabeledDataset:
    """Load and validate one split; image/label counts must agree.

    ``images`` holds the file's uint8 pixels as read-only, C-contiguous
    (n, 784) rows, transposed for TRANSPOSED_DATASETS.
    """
    pixels = load_idx_images(spec.images_path())
    labels = load_idx_labels(spec.labels_path())
    if pixels.shape[0] != labels.shape[0]:
        raise DataConsistencyError(
            f"{spec.name}/{spec.split}: {pixels.shape[0]} images vs "
            f"{labels.shape[0]} labels"
        )
    if spec.name in TRANSPOSED_DATASETS:
        _transpose_in_place(pixels)
    pixels.flags.writeable = False
    return LabeledDataset(
        images=pixels,
        labels=labels,
        num_categories=spec.num_categories,
        name=spec.name,
    )
