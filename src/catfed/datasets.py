"""IDX dataset loading for the five MNIST-family corpora.

File layout under a root directory follows ``<name>-<split>-images.idx`` and
``<name>-<split>-labels.idx``.  The IDX container is big-endian: a magic word
(0x00000803 for images, 0x00000801 for labels), dimension sizes, then raw
unsigned bytes.  Images stay as those bytes: a loaded split holds read-only,
C-contiguous uint8 rows of 784 pixels, 8x smaller than float64, and the
network reads a uint8 row as pixel / 255 (see ``network._Workspace``).

A split is a view of a read-only mapping of its file: the header's count is
checked against the file's size, then the payload is mapped, not copied, so
loading MNIST, Fashion-MNIST or KMNIST costs no pixel copy and the pages are
read as the run touches them.  FEMNIST-47 is stored transposed, so it is
copied out of the mapping transposed, one block of images at a time, each
copied block's pages released as it is done: its peak is one copy plus one
block.  Labels are converted to int64 straight from their mapping.

A dataset file must not be modified in place while a run holds it: the
mapped pages would change under the run, and truncating the file makes
reading them fail.  ``write_idx_images`` and ``write_idx_labels`` therefore
write a temporary sibling and rename it into place, which leaves an open
mapping on the old file's bytes.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataConsistencyError, DataFormatError
from .selection import _category_ids

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
# Images per block when copying a transposed split out of its mapping.
_TRANSPOSE_BLOCK = 1024
# Bytes before the pixels of an image file: magic, count, rows, cols.
_IMAGE_HEADER_BYTES = struct.calcsize(">4i")
# Whether mapped pages can be released early (POSIX platforms with madvise).
_CAN_RELEASE = hasattr(mmap, "MADV_DONTNEED")


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
        for field_name, rank in (("images", 2), ("labels", 1)):
            value = getattr(self, field_name)
            if not isinstance(value, np.ndarray):
                got = type(value).__name__
            elif value.ndim != rank:
                got = f"a {value.ndim}-D array"
            else:
                continue
            raise DataConsistencyError(
                f"{self.name}: {field_name} must be a {rank}-D numpy array, got {got}"
            )
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataConsistencyError(
                f"{self.name}: {self.images.shape[0]} images vs "
                f"{self.labels.shape[0]} labels"
            )
        try:
            _category_ids(self.labels, self.num_categories)
        except ValueError as exc:
            raise DataConsistencyError(f"{self.name}: {exc}") from exc

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
    """The ``count`` items of ``item_bytes`` bytes left in ``f``, as a read-only
    ``(count, item_bytes)`` uint8 view of a read-only mapping of the file.

    The header's count is checked against the file's size before anything
    is mapped, so a corrupt count is refused rather than trusted.  The view's
    ``base`` is the mapping, which stays open while the view is alive.
    """
    if count < 0:
        raise DataFormatError(f"{path}: header promises a negative count of {what}: {count}")
    expected = count * item_bytes
    offset = f.tell()
    available = os.fstat(f.fileno()).st_size - offset
    if available != expected:
        raise DataFormatError(
            f"{path}: payload holds {available} bytes, header promises "
            f"{expected} ({count} {what})"
        )
    try:
        mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"{path}: cannot map the file: {exc}") from exc
    return np.ndarray((count, item_bytes), dtype=np.uint8, buffer=mapping, offset=offset)


def load_idx_images(path) -> np.ndarray:
    """The (n, 784) uint8 pixels of an IDX image file, as they are stored.

    The result is a read-only view of a read-only mapping of the file (see
    ``_read_payload``); nothing is copied.
    """
    path = Path(path)
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, path, IMAGE_MAGIC, 3)
        if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
            raise DataFormatError(
                f"{path}: image size {rows}x{cols} != {IMAGE_SIDE}x{IMAGE_SIDE}"
            )
        return _read_payload(f, path, n, IMAGE_PIXELS, "images")


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into an int64 vector, converted from its mapping."""
    path = Path(path)
    with open(path, "rb") as f:
        (n,) = _read_header(f, path, LABEL_MAGIC, 1)
        return _read_payload(f, path, n, 1, "labels").reshape(n).astype(np.int64)


def _write_idx(path, header: bytes, payload: np.ndarray) -> None:
    """Write ``header`` and ``payload`` to a temporary sibling of ``path``, then
    rename it over ``path``.

    A loaded split maps its file, so rewriting the file in place would change
    or truncate the pages under it; a rename leaves the old bytes to whoever
    maps them.  If the write fails, ``path`` is left as it was.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as f:
            f.write(header)
            f.write(payload.tobytes())
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_idx_images(path, pixels: np.ndarray) -> None:
    """Inverse of load_idx_images for uint8 (n, 784) data; used to build fixtures."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2 or pixels.shape[1] != IMAGE_PIXELS:
        raise ValueError(f"expected (n, {IMAGE_PIXELS}) uint8 pixels, got {pixels.shape}")
    _write_idx(
        path, struct.pack(">4i", IMAGE_MAGIC, pixels.shape[0], IMAGE_SIDE, IMAGE_SIDE), pixels
    )


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and (labels.min() < 0 or labels.max() > 255)):
        raise ValueError("labels must be a 1-d vector of bytes")
    _write_idx(path, struct.pack(">2i", LABEL_MAGIC, labels.shape[0]), labels.astype(np.uint8))


def _copy_out_transposed(pixels: np.ndarray) -> np.ndarray:
    """A read-only copy of ``pixels`` (a view from ``load_idx_images``) with
    each 28x28 image transposed.

    The copy is made one block of images at a time, and the mapped pages of
    every block copied so far are released, so the mapping does not stay
    resident next to the copy.  Where the platform has no
    ``madvise(MADV_DONTNEED)`` (Windows), nothing is released and the load
    holds the mapping and the copy together until it returns.
    """
    mapping = pixels.base
    out = np.empty(pixels.shape, dtype=np.uint8)
    grids = pixels.reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    out_grids = out.reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    released = 0
    for start in range(0, len(grids), _TRANSPOSE_BLOCK):
        stop = min(start + _TRANSPOSE_BLOCK, len(grids))
        np.copyto(out_grids[start:stop], grids[start:stop].transpose(0, 2, 1))
        copied = (_IMAGE_HEADER_BYTES + stop * IMAGE_PIXELS) // mmap.PAGESIZE * mmap.PAGESIZE
        if _CAN_RELEASE and copied > released:
            mapping.madvise(mmap.MADV_DONTNEED, released, copied - released)
            released = copied
    out.flags.writeable = False
    return out


def load_dataset(spec: DatasetSpec) -> LabeledDataset:
    """Load and validate one split; image/label counts must agree.

    ``images`` holds the file's uint8 pixels as read-only, C-contiguous
    (n, 784) rows: a view of a read-only mapping of the images file, or for
    TRANSPOSED_DATASETS a transposed copy made block by block out of that
    mapping.  The file must not be modified in place while the split is held.
    """
    pixels = load_idx_images(spec.images_path())
    labels = load_idx_labels(spec.labels_path())
    if pixels.shape[0] != labels.shape[0]:
        raise DataConsistencyError(
            f"{spec.name}/{spec.split}: {pixels.shape[0]} images vs "
            f"{labels.shape[0]} labels"
        )
    if spec.name in TRANSPOSED_DATASETS:
        pixels = _copy_out_transposed(pixels)
    return LabeledDataset(
        images=pixels,
        labels=labels,
        num_categories=spec.num_categories,
        name=spec.name,
    )
