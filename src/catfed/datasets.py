"""IDX dataset loading for the five MNIST-family corpora.

File layout under a root directory follows ``<name>-<split>-images.idx`` and
``<name>-<split>-labels.idx``.  The IDX container is big-endian: a magic word
(0x00000803 for images, 0x00000801 for labels), dimension sizes, then raw
unsigned bytes.  Images stay as those bytes: a loaded split holds read-only,
C-contiguous uint8 rows of 784 pixels, 8x smaller than float64, and the
network reads a uint8 row as pixel / 255 (see ``network._Workspace``).
uint8 pixels and float64 features are the network's two row encodings; a
``LabeledDataset`` of any other dtype is refused, naming the dataset.

A split is a view of a read-only mapping of its file: the header's count is
checked against the file's size, then the payload is mapped, not copied, so
loading MNIST, Fashion-MNIST or KMNIST costs no pixel copy and the pages are
read as the run touches them.  Labels are converted to int64 straight from
their mapping.

FEMNIST-47 is stored transposed.  Its first load writes each split's images
once more, transposed, to a hidden row-major IDX file next to the source,
``.<images file>.rowmajor-<st_size>-<st_mtime_ns>-<st_ino>.idx``, one block
of images at a time; that load and every later one, in any process, map the
row-major file as MNIST's own is mapped.  So a data root holds a second copy
of the FEMNIST-47 images (88 MB for train, 15 MB for test).  The file is
rebuilt, and the split's older ones deleted, when the source's size, mtime or
inode changes, or when the file is missing, truncated or was written within
the source's own timestamp.  Where it cannot be written (a read-only root, a
full disk), the same blocks fill an in-memory copy instead, on every load.
An in-place rewrite of the source that keeps its size, mtime and inode goes
unnoticed.

A dataset file must not be modified in place while a run holds it: the
mapped pages would change under the run, and truncating the file makes
reading them fail.  ``write_idx_images`` and ``write_idx_labels`` therefore
write a temporary sibling and rename it into place, which leaves an open
mapping on the old file's bytes.
"""

from __future__ import annotations

import contextlib
import glob
import math
import mmap
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataConsistencyError, DataFormatError, _category_ids, _require_row_encoding

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
# Images per block when transposing a split or writing an images file.
_BLOCK_IMAGES = 1024
# Bytes before the pixels of an image file: magic, count, rows, cols.
_IMAGE_HEADER_BYTES = struct.calcsize(">4i")


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

    ``images`` holds rows in one of the network's two encodings: uint8
    pixels (what ``load_dataset`` fills), read as pixel / 255, or float64
    features, read as they are.  Any other dtype is refused.
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
            _require_row_encoding("images", self.images)
            _category_ids(self.labels, self.num_categories)
        except ValueError as exc:
            raise DataConsistencyError(f"{self.name}: {exc}") from exc

    @property
    def num_samples(self) -> int:
        return int(self.images.shape[0])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_categories)


def _map_idx(f, path, magic: int, item_dims: tuple[int, ...], what: str) -> np.ndarray:
    """The items of the open IDX file ``f``, as a read-only ``(count, item
    bytes)`` uint8 view of a read-only mapping of the file.

    The header's magic and item dimensions must be ``magic`` and
    ``item_dims``, and its count of ``what`` must fill the rest of the file
    exactly: a corrupt count is refused from the file's size before anything
    is mapped.  The view's ``base`` is the mapping, which stays open while the
    view is alive.
    """
    layout = f">{2 + len(item_dims)}i"
    header = struct.calcsize(layout)
    raw = f.read(header)
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated header")
    found, count, *dims = struct.unpack(layout, raw)
    if found != magic:
        raise DataFormatError(
            f"{path}: bad magic 0x{found & 0xFFFFFFFF:08x}, expected 0x{magic:08x}"
        )
    if tuple(dims) != item_dims:  # only image files have item dimensions
        size, wanted = ("x".join(map(str, d)) for d in (dims, item_dims))
        raise DataFormatError(f"{path}: image size {size} != {wanted}")
    if count < 0:
        raise DataFormatError(f"{path}: header promises a negative count of {what}: {count}")
    item_bytes = math.prod(item_dims)
    expected = count * item_bytes
    available = os.fstat(f.fileno()).st_size - header
    if available != expected:
        raise DataFormatError(
            f"{path}: payload holds {available} bytes, header promises "
            f"{expected} ({count} {what})"
        )
    try:
        mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"{path}: cannot map the file: {exc}") from exc
    return np.ndarray((count, item_bytes), dtype=np.uint8, buffer=mapping, offset=header)


def load_idx_images(path) -> np.ndarray:
    """The (n, 784) uint8 pixels of an IDX image file, as they are stored.

    The result is a read-only view of a read-only mapping of the file (see
    ``_map_idx``); nothing is copied.
    """
    path = Path(path)
    with open(path, "rb") as f:
        return _map_idx(f, path, IMAGE_MAGIC, (IMAGE_SIDE, IMAGE_SIDE), "images")


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into an int64 vector, converted from its mapping."""
    path = Path(path)
    with open(path, "rb") as f:
        return _map_idx(f, path, LABEL_MAGIC, (), "labels")[:, 0].astype(np.int64)


def _gone(pid: int) -> bool:
    """Whether no process ``pid`` runs; signal 0 checks and sends nothing."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        pass  # another user's process, or a number no pid can be
    return False


def _delete_dead_temporaries(directory: Path, target: str) -> None:
    """Delete the temporaries ``.<name>.<pid>.tmp`` in ``directory``, for every
    name the glob ``target`` matches, whose writer ``pid`` no longer runs."""
    for stale in directory.glob(f".{target}.*.tmp"):
        pid = stale.name.removesuffix(".tmp").rpartition(".")[2]
        if pid.isascii() and pid.isdigit() and _gone(int(pid)):
            with contextlib.suppress(OSError):
                stale.unlink()


def _write_idx(path, header: bytes, blocks: Iterable[np.ndarray]) -> None:
    """Write ``header`` and then each C-contiguous array of ``blocks``, from
    the array's own buffer, to a temporary sibling of ``path``; then rename it
    over ``path``.

    A loaded split maps its file, so rewriting the file in place would change
    or truncate the pages under it; a rename leaves the old bytes to whoever
    maps them.  If the write fails, ``path`` is left as it was.  Temporaries
    of ``path`` left by writers that no longer run (killed part-way) are
    deleted first.
    """
    path = Path(path)
    _delete_dead_temporaries(path.parent, glob.escape(path.name))
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as f:
            f.write(header)
            for block in blocks:
                f.write(block)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _image_header(count: int) -> bytes:
    return struct.pack(">4i", IMAGE_MAGIC, count, IMAGE_SIDE, IMAGE_SIDE)


def write_idx_images(path, pixels: np.ndarray) -> None:
    """Inverse of load_idx_images for uint8 (n, 784) data; used to build fixtures.

    The pixels are written a block of rows at a time from their own buffer, so
    uint8 rows are not copied (other dtypes are converted first).
    """
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2 or pixels.shape[1] != IMAGE_PIXELS:
        raise ValueError(f"expected (n, {IMAGE_PIXELS}) uint8 pixels, got {pixels.shape}")
    blocks = (
        np.ascontiguousarray(pixels[start : start + _BLOCK_IMAGES])
        for start in range(0, len(pixels), _BLOCK_IMAGES)
    )
    _write_idx(path, _image_header(len(pixels)), blocks)


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and (labels.min() < 0 or labels.max() > 255)):
        raise ValueError("labels must be a 1-d vector of bytes")
    _write_idx(
        path, struct.pack(">2i", LABEL_MAGIC, labels.shape[0]), [labels.astype(np.uint8)]
    )


def _transposed_blocks(f, path, count: int) -> Iterator[np.ndarray]:
    """The ``count`` images of the open IDX image file ``f``, each 28x28 image
    transposed, as C-contiguous (k, 784) blocks of up to ``_BLOCK_IMAGES``.

    The source is read with ``readinto`` into one block buffer and transposed
    into a second, which every block reuses: a conversion maps nothing and
    allocates two blocks, whatever the split's size.
    """
    raw = np.empty((min(count, _BLOCK_IMAGES), IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
    out = np.empty((len(raw), IMAGE_PIXELS), dtype=np.uint8)
    f.seek(_IMAGE_HEADER_BYTES)
    for start in range(0, count, _BLOCK_IMAGES):
        k = min(_BLOCK_IMAGES, count - start)
        if f.readinto(raw[:k]) != k * IMAGE_PIXELS:
            raise DataFormatError(f"{path}: file shrank while it was read")
        np.copyto(out[:k].reshape(k, IMAGE_SIDE, IMAGE_SIDE), raw[:k].transpose(0, 2, 1))
        yield out[:k]


def _row_major_images(f, path: Path, count: int) -> np.ndarray:
    """The images of the open, checked FEMNIST-47 file ``f`` at ``path``,
    transposed: a read-only view of a mapping of the split's row-major file.

    The row-major file, ``.<images file>.rowmajor-<size>-<mtime_ns>-<inode>.idx``
    next to the source, is keyed by the source's ``stat``.  It is used when it
    holds ``count`` images and was not written within the source's own
    timestamp: on a filesystem with coarse timestamps, a source rewritten in
    that tick can reuse the old file's inode and mtime, and so its key.
    Otherwise it is rebuilt through ``_write_idx``, and the split's older
    row-major files and its dead writers' temporaries are deleted.  If it
    cannot be written, the same blocks fill a read-only in-memory array instead.
    """
    source = os.fstat(f.fileno())
    row_major = path.with_name(
        f".{path.name}.rowmajor-{source.st_size}-{source.st_mtime_ns}-{source.st_ino}.idx"
    )
    try:
        if os.stat(row_major).st_mtime_ns != source.st_mtime_ns:
            pixels = load_idx_images(row_major)
            if len(pixels) == count:
                return pixels
    except (OSError, DataFormatError):
        pass
    try:
        _write_idx(row_major, _image_header(count), _transposed_blocks(f, path, count))
    except OSError:
        pixels = np.empty((count, IMAGE_PIXELS), dtype=np.uint8)
        starts = range(0, count, _BLOCK_IMAGES)
        for start, block in zip(starts, _transposed_blocks(f, path, count)):
            pixels[start : start + len(block)] = block
        pixels.flags.writeable = False
        return pixels
    row_major_files = f".{glob.escape(path.name)}.rowmajor-*.idx"
    for stale in path.parent.glob(row_major_files):
        if stale != row_major:
            with contextlib.suppress(OSError):
                stale.unlink()
    _delete_dead_temporaries(path.parent, row_major_files)
    return load_idx_images(row_major)


def load_dataset(spec: DatasetSpec) -> LabeledDataset:
    """Load and validate one split; image/label counts must agree.

    ``images`` holds the file's uint8 pixels as read-only, C-contiguous
    (n, 784) rows: a view of a read-only mapping of the images file, or for
    TRANSPOSED_DATASETS of the split's row-major file, written on the first
    load, or an in-memory copy where that file cannot be written (see
    ``_row_major_images``).  Both files are checked, and their counts
    compared, before any pixel is converted.  The files must not be modified
    in place while the split is held.
    """
    path = spec.images_path()
    with open(path, "rb") as f:
        pixels = _map_idx(f, path, IMAGE_MAGIC, (IMAGE_SIDE, IMAGE_SIDE), "images")
        labels = load_idx_labels(spec.labels_path())
        if len(pixels) != len(labels):
            raise DataConsistencyError(
                f"{spec.name}/{spec.split}: {len(pixels)} images vs {len(labels)} labels"
            )
        if spec.name in TRANSPOSED_DATASETS:
            pixels = _row_major_images(f, path, len(pixels))
    return LabeledDataset(pixels, labels, spec.num_categories, spec.name)
