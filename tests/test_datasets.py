import mmap
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catfed import (
    DataConsistencyError,
    DataFormatError,
    DatasetSpec,
    LabeledDataset,
    load_dataset,
)
from catfed import datasets
from catfed.datasets import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    load_idx_images,
    load_idx_labels,
    write_idx_images,
    write_idx_labels,
)


def write_pair(root, name, split, images, labels):
    spec = DatasetSpec(name, split, root)
    write_idx_images(spec.images_path(), images)
    write_idx_labels(spec.labels_path(), labels)
    return spec


def transposed(raw):
    return raw.reshape(-1, 28, 28).transpose(0, 2, 1).reshape(-1, 784)


def row_major_files(root):
    return sorted(p.name for p in Path(root).glob(".*.rowmajor-*"))


class DiskFull:
    """A file whose second write (the first of the payload) fails part-way."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.f.write(data[:5])
            raise OSError(28, "No space left on device")
        return self.f.write(data)


def fill_disk(monkeypatch):
    """Make every file ``datasets`` opens for writing fail in its payload."""
    monkeypatch.setattr(
        datasets, "open",
        lambda path, mode="r": DiskFull(open(path, mode)) if "w" in mode else open(path, mode),
        raising=False,
    )


class TestIdxRoundTrip:
    def test_images_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(15, 784), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, raw)
        loaded = load_idx_images(path)
        assert loaded.shape == (15, 784)
        assert loaded.dtype == np.uint8
        assert loaded.tobytes() == raw.tobytes()

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 3, 9, 9, 1], dtype=np.uint8)
        path = tmp_path / "labels.idx"
        write_idx_labels(path, labels)
        assert np.array_equal(load_idx_labels(path), labels)

    def test_image_file_layout(self, tmp_path):
        img = np.arange(784, dtype=np.uint8).reshape(1, 784)
        path = tmp_path / "one.idx"
        write_idx_images(path, img)
        raw = path.read_bytes()
        magic, n, rows, cols = struct.unpack(">4i", raw[:16])
        assert (magic, n, rows, cols) == (IMAGE_MAGIC, 1, 28, 28)
        assert raw[16:] == img.tobytes()

    def test_strided_rows_round_trip_across_blocks(self, tmp_path, monkeypatch):
        # Every other row of 15, in 3-row blocks: each block is made
        # contiguous on its own, and the last one is partial.
        monkeypatch.setattr(datasets, "_BLOCK_IMAGES", 3)
        raw = np.random.default_rng(14).integers(0, 256, size=(15, 784), dtype=np.uint8)
        path = tmp_path / "strided.idx"
        write_idx_images(path, raw[::2])
        assert load_idx_images(path).tobytes() == raw[::2].tobytes()

    def test_image_write_streams_the_payload(self, tmp_path):
        # The rows are written from their own buffer, a block at a time: no
        # copy of the 15.68 MB payload is made.
        pixels = np.random.default_rng(15).integers(0, 256, size=(20_000, 784), dtype=np.uint8)
        path = tmp_path / "big.idx"
        tracemalloc.start()
        try:
            write_idx_images(path, pixels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert load_idx_images(path).tobytes() == pixels.tobytes()

    def test_label_file_layout(self, tmp_path):
        path = tmp_path / "l.idx"
        write_idx_labels(path, np.array([7, 7], dtype=np.uint8))
        raw = path.read_bytes()
        magic, n = struct.unpack(">2i", raw[:8])
        assert (magic, n) == (LABEL_MAGIC, 2)
        assert raw[8:] == b"\x07\x07"


class TestIdxErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">4i", LABEL_MAGIC, 1, 28, 28) + b"\x00" * 784)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">4i", IMAGE_MAGIC, 2, 28, 28) + b"\x00" * 784)
        with pytest.raises(DataFormatError, match="payload"):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(DataFormatError, match="header"):
            load_idx_labels(path)

    @pytest.mark.parametrize("loader, header", [
        (load_idx_images, struct.pack(">4i", IMAGE_MAGIC, -3, 28, 28)),
        (load_idx_labels, struct.pack(">2i", LABEL_MAGIC, -3)),
    ], ids=["images", "labels"])
    def test_negative_count_rejected(self, tmp_path, loader, header):
        path = tmp_path / "negative.idx"
        path.write_bytes(header)
        with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: .*negative.* -3"):
            loader(path)

    @pytest.mark.parametrize("loader, header, payload, promised", [
        (load_idx_images, struct.pack(">4i", IMAGE_MAGIC, 2, 28, 28), 3 * 784, 2 * 784),
        (load_idx_labels, struct.pack(">2i", LABEL_MAGIC, 4), 3, 4),
    ], ids=["images", "labels"])
    def test_count_disagreeing_with_file_size_rejected(
        self, tmp_path, loader, header, payload, promised
    ):
        path = tmp_path / "sized.idx"
        path.write_bytes(header + b"\x00" * payload)
        with pytest.raises(
            DataFormatError,
            match=f"{re.escape(str(path))}: payload holds {payload} bytes, "
            f"header promises {promised}",
        ):
            loader(path)

    def test_huge_count_rejected_before_allocating(self, tmp_path):
        # 2^31 - 1 images would be 1.7 TB: refused from the file size, not
        # attempted (which would be a MemoryError).
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">4i", IMAGE_MAGIC, 2**31 - 1, 28, 28))
        with pytest.raises(
            DataFormatError,
            match=f"{re.escape(str(path))}: payload holds 0 bytes, "
            f"header promises {(2**31 - 1) * 784}",
        ):
            load_idx_images(path)

    def test_unexpected_geometry(self, tmp_path):
        path = tmp_path / "odd.idx"
        path.write_bytes(struct.pack(">4i", IMAGE_MAGIC, 1, 16, 16) + b"\x00" * 256)
        with pytest.raises(DataFormatError, match="16x16"):
            load_idx_images(path)


    @pytest.mark.parametrize("rows, cols", [(16, 49), (-28, -28)])
    def test_784_pixels_in_another_shape_rejected(self, tmp_path, rows, cols):
        path = tmp_path / "shape.idx"
        path.write_bytes(struct.pack(">4i", IMAGE_MAGIC, 1, rows, cols) + b"\x00" * 784)
        with pytest.raises(DataFormatError, match=f"{rows}x{cols} != 28x28"):
            load_idx_images(path)


class TestLoadDataset:
    def test_pairing_and_counts(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(30, 784), dtype=np.uint8)
        labels = rng.integers(0, 10, size=30).astype(np.uint8)
        spec = write_pair(tmp_path, "mnist", "train", images, labels)
        ds = load_dataset(spec)
        assert ds.num_samples == 30
        assert ds.num_categories == 10
        assert ds.class_counts().sum() == 30

    @pytest.mark.parametrize("name", ["mnist", "femnist47"])
    def test_images_stay_idx_bytes(self, tmp_path, name):
        # Guards against a float64 copy of the split creeping back in.
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(9, 784), dtype=np.uint8)
        spec = write_pair(tmp_path, name, "train", images, np.zeros(9, dtype=np.uint8))
        loaded = load_dataset(spec).images
        assert loaded.dtype == np.uint8 and loaded.flags.c_contiguous
        assert loaded.nbytes == 9 * 784

    @pytest.mark.parametrize("name", ["mnist", "femnist47"])
    def test_loaded_images_are_read_only(self, tmp_path, name):
        images = np.zeros((3, 784), dtype=np.uint8)
        spec = write_pair(tmp_path, name, "train", images, np.zeros(3, dtype=np.uint8))
        loaded = load_dataset(spec).images
        with pytest.raises(ValueError, match="read-only"):
            loaded[0, 0] = 1

    @pytest.mark.parametrize("name", ["mnist", "femnist47"])
    def test_load_holds_one_copy_of_the_split(self, tmp_path, name):
        # mnist's images are a view of the file's mapping and femnist47's
        # are transposed into its row-major file a block at a time, so the
        # peak is at most the loaded arrays, not a second copy of the pixels.
        rng = np.random.default_rng(7)
        n = 20_000
        spec = write_pair(
            tmp_path, name, "train",
            rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
            rng.integers(0, 10, size=n).astype(np.uint8),
        )
        tracemalloc.start()
        try:
            ds = load_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (ds.images.nbytes + ds.labels.nbytes)

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        spec = DatasetSpec("mnist", "train", tmp_path)
        write_idx_images(
            spec.images_path(), rng.integers(0, 256, (4, 784), dtype=np.uint8)
        )
        write_idx_labels(spec.labels_path(), np.zeros(5, dtype=np.uint8))
        with pytest.raises(DataConsistencyError):
            load_dataset(spec)

    def test_label_out_of_range_rejected(self, tmp_path):
        spec = DatasetSpec("mnist", "train", tmp_path)
        write_idx_images(spec.images_path(), np.zeros((1, 784), dtype=np.uint8))
        write_idx_labels(spec.labels_path(), np.array([10], dtype=np.uint8))
        with pytest.raises(DataConsistencyError):
            load_dataset(spec)

    def test_femnist_images_are_transposed_on_load(self, tmp_path):
        # One bright pixel at (row 2, col 5) must land at (5, 2) after the fix.
        img = np.zeros((28, 28), dtype=np.uint8)
        img[2, 5] = 255
        spec = write_pair(
            tmp_path, "femnist47", "train",
            img.reshape(1, 784), np.array([0], dtype=np.uint8),
        )
        ds = load_dataset(spec)
        grid = ds.images[0].reshape(28, 28)
        assert grid[5, 2] == 255
        assert grid[2, 5] == 0
        assert int(grid.sum()) == 255

    def test_femnist_load_equals_idx_images_transposed_bytewise(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 256, size=(7, 784), dtype=np.uint8)
        spec = write_pair(
            tmp_path, "femnist47", "test", raw, rng.integers(0, 47, 7).astype(np.uint8)
        )
        expected = (
            load_idx_images(spec.images_path())
            .reshape(-1, 28, 28)
            .transpose(0, 2, 1)
            .reshape(-1, 784)
        )
        images = load_dataset(spec).images
        assert images.dtype == np.uint8 and images.flags.c_contiguous
        assert images.tobytes() == expected.tobytes()

    def test_mnist_images_not_transposed(self, tmp_path):
        img = np.zeros((28, 28), dtype=np.uint8)
        img[2, 5] = 255
        spec = write_pair(
            tmp_path, "mnist", "train",
            img.reshape(1, 784), np.array([0], dtype=np.uint8),
        )
        grid = load_dataset(spec).images[0].reshape(28, 28)
        assert grid[2, 5] == 255
        assert int(grid.sum()) == 255

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset"):
            DatasetSpec("cifar", "train", tmp_path)

    def test_file_naming(self, tmp_path):
        spec = DatasetSpec("kmnist49", "test", tmp_path)
        assert spec.images_path().name == "kmnist49-test-images.idx"
        assert spec.labels_path().name == "kmnist49-test-labels.idx"


class TestMappedLoad:
    def test_mnist_images_are_not_copied(self, tmp_path):
        # The images are a view of the file's mapping: the only allocation
        # of a load's size is the int64 labels.
        rng = np.random.default_rng(8)
        n = 20_000
        spec = write_pair(
            tmp_path, "mnist", "train",
            rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
            rng.integers(0, 10, size=n).astype(np.uint8),
        )
        tracemalloc.start()
        try:
            ds = load_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.labels.nbytes + 64 * 1024

    def test_images_are_a_read_only_view_of_the_file(self, tmp_path):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 256, size=(11, 784), dtype=np.uint8)
        spec = write_pair(tmp_path, "kmnist49", "test", raw, rng.integers(0, 49, 11))
        images = load_dataset(spec).images
        assert isinstance(images.base, mmap.mmap)
        assert images.dtype == np.uint8 and images.shape == (11, 784)
        assert images.flags.c_contiguous and not images.flags.writeable
        assert images.tobytes() == spec.images_path().read_bytes()[16:]

    @pytest.mark.parametrize("name", ["mnist", "femnist47"])
    def test_zero_image_file_loads_empty(self, tmp_path, name):
        spec = write_pair(
            tmp_path, name, "test", np.zeros((0, 784), np.uint8), np.zeros(0, np.uint8)
        )
        assert load_idx_images(spec.images_path()).shape == (0, 784)
        ds = load_dataset(spec)
        assert ds.images.shape == (0, 784) and ds.labels.shape == (0,)

    def test_femnist_images_are_a_read_only_view_of_the_row_major_file(self, tmp_path):
        rng = np.random.default_rng(10)
        raw = rng.integers(0, 256, size=(5, 784), dtype=np.uint8)
        spec = write_pair(tmp_path, "femnist47", "train", raw, rng.integers(0, 47, 5))
        images = load_dataset(spec).images
        source = spec.images_path().stat()
        name = (f".femnist47-train-images.idx.rowmajor-"
                f"{source.st_size}-{source.st_mtime_ns}-{source.st_ino}.idx")
        assert row_major_files(tmp_path) == [name]
        assert isinstance(images.base, mmap.mmap)
        assert images.flags.c_contiguous and not images.flags.writeable
        assert images.tobytes() == (tmp_path / name).read_bytes()[16:]
        assert images.tobytes() == transposed(raw).tobytes()

    @pytest.mark.parametrize("through", ["file", "memory"])
    def test_femnist_blocks_across_the_split(self, tmp_path, monkeypatch, through):
        # 3-image blocks over 7 images, a partial last block: written to the
        # row-major file, or where that write fails, to an in-memory copy.
        monkeypatch.setattr(datasets, "_BLOCK_IMAGES", 3)
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 256, size=(7, 784), dtype=np.uint8)
        spec = write_pair(tmp_path, "femnist47", "train", raw, rng.integers(0, 47, 7))
        if through == "memory":
            fill_disk(monkeypatch)
        images = load_dataset(spec).images
        assert images.tobytes() == transposed(raw).tobytes()
        assert isinstance(images.base, mmap.mmap) == (through == "file")
        assert not images.flags.writeable
        assert len(row_major_files(tmp_path)) == (through == "file")

    def test_unmappable_file_names_the_file(self, tmp_path, monkeypatch):
        spec = write_pair(
            tmp_path, "mnist", "train", np.zeros((2, 784), np.uint8), np.zeros(2, np.uint8)
        )

        def refuse(*args, **kwargs):
            raise OSError("mapping refused")

        monkeypatch.setattr(datasets.mmap, "mmap", refuse)
        with pytest.raises(
            DataFormatError,
            match=f"{re.escape(str(spec.images_path()))}: cannot map the file: mapping refused",
        ):
            load_dataset(spec)


class TestAtomicWrites:
    def test_rewrite_leaves_a_loaded_split_unchanged(self, tmp_path):
        rng = np.random.default_rng(12)
        first = rng.integers(0, 256, size=(40, 784), dtype=np.uint8)
        spec = write_pair(tmp_path, "mnist", "train", first, np.zeros(40, np.uint8))
        ds = load_dataset(spec)
        write_idx_images(spec.images_path(), 255 - first)
        assert ds.images.tobytes() == first.tobytes()
        assert load_idx_images(spec.images_path()).tobytes() == (255 - first).tobytes()

    @pytest.mark.parametrize("writer, old, new", [
        (write_idx_images, np.zeros((4, 784), np.uint8), np.ones((9, 784), np.uint8)),
        (write_idx_labels, np.zeros(4, np.uint8), np.ones(9, np.uint8)),
    ], ids=["images", "labels"])
    def test_failed_write_leaves_the_previous_file(
        self, tmp_path, monkeypatch, writer, old, new
    ):
        path = tmp_path / "split.idx"
        writer(path, old)
        before = path.read_bytes()
        fill_disk(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            writer(path, new)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["split.idx"]

    def test_a_dead_writers_temporary_is_deleted_and_a_live_ones_kept(self, tmp_path):
        # A writer killed part-way leaves its temporary behind for good
        # unless a later write of the same file deletes it.
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped, so no process has its pid
        dead = tmp_path / f".split.idx.{child.pid}.tmp"
        live = tmp_path / f".split.idx.{os.getppid()}.tmp"
        for temporary in (dead, live):
            temporary.write_bytes(b"partial")
        write_idx_labels(tmp_path / "split.idx", np.zeros(3, np.uint8))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([live.name, "split.idx"])


class TestRowMajorFile:
    """FEMNIST-47's transposed pixels, written once per source file."""

    def femnist(self, root, n=7, seed=16):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, size=(n, 784), dtype=np.uint8)
        return raw, write_pair(root, "femnist47", "train", raw, rng.integers(0, 47, n))

    def test_first_and_second_loads_equal_the_transposed_source(self, tmp_path):
        raw, spec = self.femnist(tmp_path)
        first = load_dataset(spec).images.tobytes()
        second = load_dataset(spec).images.tobytes()
        assert first == second == transposed(raw).tobytes()

    def test_second_load_maps_without_copying(self, tmp_path):
        raw, spec = self.femnist(tmp_path, n=20_000)
        # A fixture written a second before the run, as one written earlier
        # is: a row-major file written within the source's own timestamp is
        # rebuilt (see test_file_sharing_the_source_timestamp_is_rebuilt).
        source = spec.images_path().stat()
        earlier = source.st_mtime_ns - 10**9
        os.utime(spec.images_path(), ns=(earlier, earlier))
        load_dataset(spec)
        tracemalloc.start()
        try:
            ds = load_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.labels.nbytes + 64 * 1024
        assert isinstance(ds.images.base, mmap.mmap)
        assert ds.images.tobytes() == transposed(raw).tobytes()

    def test_same_size_rewrites_are_reloaded(self, tmp_path):
        # Back-to-back rewrites of the same size can reuse the replaced
        # file's inode; each reload must still see the new pixels.
        _, spec = self.femnist(tmp_path)
        load_dataset(spec)
        rng = np.random.default_rng(17)
        for _ in range(20):
            raw = rng.integers(0, 256, size=(7, 784), dtype=np.uint8)
            write_idx_images(spec.images_path(), raw)
            assert load_dataset(spec).images.tobytes() == transposed(raw).tobytes()
        assert len(row_major_files(tmp_path)) == 1

    def test_file_sharing_the_source_timestamp_is_rebuilt(self, tmp_path):
        # What a rewrite that reused the inode within one coarse timestamp
        # tick would leave: a row-major file of the right name and size
        # holding other pixels, with the source's mtime.
        raw, spec = self.femnist(tmp_path)
        load_dataset(spec)
        (name,) = row_major_files(tmp_path)
        write_idx_images(tmp_path / name, np.zeros((7, 784), np.uint8))
        source = spec.images_path().stat()
        os.utime(tmp_path / name, ns=(source.st_atime_ns, source.st_mtime_ns))
        assert load_dataset(spec).images.tobytes() == transposed(raw).tobytes()

    @pytest.mark.parametrize("damage", ["truncated", "fewer-images"])
    def test_damaged_file_is_rebuilt(self, tmp_path, damage):
        raw, spec = self.femnist(tmp_path)
        load_dataset(spec)
        (name,) = row_major_files(tmp_path)
        full = (tmp_path / name).read_bytes()
        if damage == "truncated":
            (tmp_path / name).write_bytes(full[:100])
        else:
            write_idx_images(tmp_path / name, np.zeros((6, 784), np.uint8))
        assert load_dataset(spec).images.tobytes() == transposed(raw).tobytes()
        assert (tmp_path / name).read_bytes() == full

    def test_rebuild_deletes_dead_writers_temporaries_of_older_keys(self, tmp_path):
        # A writer killed part-way through an older key's row-major file
        # leaves a temporary that the new key's own write never sweeps.
        _, spec = self.femnist(tmp_path)
        load_dataset(spec)
        (old,) = row_major_files(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped, so no process has its pid
        dead = tmp_path / f".{old}.{child.pid}.tmp"
        live = tmp_path / f".{old}.{os.getppid()}.tmp"
        for temporary in (dead, live):
            temporary.write_bytes(b"partial")
        raw, spec = self.femnist(tmp_path, n=8, seed=17)
        assert load_dataset(spec).images.tobytes() == transposed(raw).tobytes()
        (new,) = [name for name in row_major_files(tmp_path) if name.endswith(".idx")]
        assert new != old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
            live.name, new, spec.images_path().name, spec.labels_path().name,
        ])

    def test_unwritable_root_loads_from_memory_and_leaves_no_file(self, tmp_path, monkeypatch):
        raw, spec = self.femnist(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        fill_disk(monkeypatch)
        for _ in range(2):
            images = load_dataset(spec).images
            assert images.tobytes() == transposed(raw).tobytes()
            assert images.base is None and not images.flags.writeable
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_pairing_is_checked_before_converting(self, tmp_path):
        _, spec = self.femnist(tmp_path)
        write_idx_labels(spec.labels_path(), np.zeros(6, np.uint8))
        with pytest.raises(DataConsistencyError, match="7 images vs 6 labels"):
            load_dataset(spec)
        assert row_major_files(tmp_path) == []

    def test_mnist_has_no_row_major_file(self, tmp_path):
        spec = write_pair(
            tmp_path, "mnist", "train", np.zeros((3, 784), np.uint8), np.zeros(3, np.uint8)
        )
        load_dataset(spec)
        assert row_major_files(tmp_path) == []


def test_labeled_dataset_guards():
    with pytest.raises(DataConsistencyError):
        LabeledDataset(
            images=np.zeros((3, 4)), labels=np.zeros(2, dtype=int),
            num_categories=2, name="mnist",
        )
    with pytest.raises(DataConsistencyError):
        LabeledDataset(
            images=np.zeros((2, 4)), labels=np.array([0, 5]),
            num_categories=3, name="mnist",
        )


@pytest.mark.parametrize("images, labels, message", [
    (np.zeros((2, 4)), np.array([-1, 3]), r"mnist: category -1 out of range \[0, 5\)"),
    (np.zeros((2, 4)), np.array([1.7, 3.2]),
     r"mnist: labels must be integers, got dtype float64"),
    (np.zeros((2, 4)), [0, 1], r"mnist: labels must be a 1-D numpy array, got list$"),
    (np.zeros((2, 4)), np.array([[0], [1]]),
     r"mnist: labels must be a 1-D numpy array, got a 2-D array$"),
    ([[0.0] * 4] * 2, np.array([0, 1]), r"mnist: images must be a 2-D numpy array, got list$"),
    (np.zeros(4), np.array([0, 1]),
     r"mnist: images must be a 2-D numpy array, got a 1-D array$"),
    (np.zeros((2, 2, 2)), np.array([0, 1]),
     r"mnist: images must be a 2-D numpy array, got a 3-D array$"),
], ids=["negative", "float", "labels-list", "labels-2d", "images-list", "images-1d",
        "images-3d"])
def test_labeled_dataset_refuses_bad_labels(images, labels, message):
    with pytest.raises(DataConsistencyError, match=message):
        LabeledDataset(images=images, labels=labels, num_categories=5, name="mnist")


# An IDX file that is nearly right: the right or a wrong magic, a count
# around the payload's, and a payload of a few plausible sizes.
_IDX_IMAGES = st.builds(
    lambda magic, n, side, size: struct.pack(">4i", magic, n, side, 28) + b"\x07" * size,
    st.sampled_from([IMAGE_MAGIC, LABEL_MAGIC, 0]),
    st.integers(-2, 3) | st.integers(-(2**31), 2**31 - 1),
    st.sampled_from([27, 28, 2**31 - 1]),
    st.sampled_from([0, 1, 783, 784, 1568]),
)
_IDX_LABELS = st.builds(
    lambda magic, n, payload: struct.pack(">2i", magic, n) + payload,
    st.sampled_from([LABEL_MAGIC, IMAGE_MAGIC]),
    st.integers(-2, 12) | st.integers(-(2**31), 2**31 - 1),
    st.binary(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64) | _IDX_IMAGES | _IDX_LABELS,
       loader=st.sampled_from([load_idx_images, load_idx_labels]))
def test_arbitrary_idx_bytes_load_or_name_the_file_property(data, loader):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz-idx-ubyte"
        path.write_bytes(data)
        try:
            loaded = loader(path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert loaded.shape[0] == struct.unpack(">i", data[4:8])[0]


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=64) | _IDX_IMAGES)
def test_arbitrary_femnist_images_load_or_name_the_source_property(data):
    # The labels agree with any count a valid file can hold, so a refusal
    # can only be the images file's, and must come before any conversion.
    with tempfile.TemporaryDirectory() as tmp:
        spec = DatasetSpec("femnist47", "train", tmp)
        spec.images_path().write_bytes(data)
        count = struct.unpack(">i", data[4:8])[0] if len(data) >= 8 else 0
        write_idx_labels(spec.labels_path(), np.zeros(min(max(count, 0), 3), np.uint8))
        try:
            ds = load_dataset(spec)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{spec.images_path()}:")
            assert sorted(p.name for p in Path(tmp).iterdir()) == sorted(
                [spec.images_path().name, spec.labels_path().name]
            )
        else:
            assert ds.num_samples == count
            assert ds.images.tobytes() == transposed(
                np.frombuffer(data[16:], np.uint8).reshape(-1, 784)
            ).tobytes()
