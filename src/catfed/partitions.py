"""Synthesis of non-IID client partitions from a labeled dataset.

Ten distribution families are supported.  The first five pair a per-client
category-count range with a per-category client-presence range and a shape for
how presence falls across category ids:

  D1  10 classes, counts 1-5,  presence 3-70, presence decays with category id
  D2  47 classes, counts 1-15, presence 6-30, bell over intermediate ids
  D3  49 classes, counts 1-15, presence 6-30, deformed (asymmetric) bell
  D4  47 classes, counts 1-4,  presence 1-13, skewed with a scarce tail
  D5  49 classes, counts 1-4,  presence 1-18, roughly half the ids very scarce

D6-D10 fix the exact category count per client: 1/3/5/7/9 for the 10-class
datasets and 1/3/10/25/35 for the 47- and 49-class ones.

Generation is two-phase: first realize an integer presence profile inside the
bounds (summing to the drawn total of per-client counts), then assign
categories to clients with a largest-remaining-capacity bipartite fill, which
succeeds whenever the margins are realizable.  Scarce categories are placed
first so they land on high-capacity clients.  Samples are then drawn without
replacement from per-category pools, split as evenly as possible across each
client's categories; exhausted pools fall back to drawing with replacement and
the event is recorded.

D1-D5 share one profile path: D5's scarce tail, its upper half of ids, is
drawn first, the other ids take the kind's shape scaled to what the tail left,
and a repair (monotone for D1) brings the sum to its target, those ids first.

The fill writes one (clients x categories) bool table of who holds what:
each client's mask is its row, and a category's presence, the number of
clients holding it, is the column sum.  Two tables of the same shape give
each (client, category) pair its quota, one ``divmod`` per row, and its pool
cursor, the column sum of the quotas above it.  The draw reads the pairs off
them in row-major order and fills a (clients, samples) index array with one
gather, in blocks of ``_BLOCK_ROWS`` sampled rows so no index temporary grows
with the partition; only the exhausted-pool pairs loop, in (client, category)
order, so the random stream and the replacement events are those of a draw
made pair by pair.  Labels are checked once on entry: a float, bool or
out-of-range label, and a kind or imbalance the class count cannot take
(``check_class_count``, which run configs also call), are refused before
anything is drawn.

A spec's ``imbalance = (k, r)`` is the global class imbalance: before any of
that, the k lowest category ids are shrunk to a fraction r of their rows,
drawn from the spec seed's imbalance stream, and only the kept rows are
partitioned.  ``(0, r)`` shrinks nothing, so the spec stores it as None, the
one spelling of no imbalance.  Its text form, ``none`` or ``k:r``, is read
from a config file by ``parse_imbalance`` and written in an export header.
Assignments always index the split they were generated from, so an imbalanced
partition needs no copy of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import LabeledDataset
from .errors import (
    GenerationError, SettingError, _category_ids, _parse_float, _parse_int, _require_count,
    _require_number,
)
from .seeding import STREAM_IMBALANCE, STREAM_PARTITION, derive_rng
from .selection import CategoryMask, _mask_bits

KINDS = tuple(f"D{i}" for i in range(1, 11))

# kind -> (expected class count, count bounds, presence bounds)
_RANGE_KINDS = {
    "D1": (10, (1, 5), (3, 70)),
    "D2": (47, (1, 15), (6, 30)),
    "D3": (49, (1, 15), (6, 30)),
    "D4": (47, (1, 4), (1, 13)),
    "D5": (49, (1, 4), (1, 18)),
}

# class-count family -> categories per client for D6..D10
_FIXED_COUNTS = {
    10: (1, 3, 5, 7, 9),
    47: (1, 3, 10, 25, 35),
    49: (1, 3, 10, 25, 35),
}

_MAX_ATTEMPTS = 20

# Sampled rows handled per step where a step over all of them would make
# full-size index temporaries.
_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    num_clients: int = 100
    samples_per_client: int = 600
    imbalance: tuple[int, float] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _require_count("num_clients", self.num_clients, 1)
        _require_count("samples_per_client", self.samples_per_client, 1)
        _require_count("seed", self.seed, 0)
        if self.imbalance is not None:
            if not (isinstance(self.imbalance, tuple) and len(self.imbalance) == 2):
                raise ValueError(
                    f"imbalance must be none or a (count, ratio) tuple, got {self.imbalance!r}"
                )
            minority_count, ratio = self.imbalance
            _require_count("imbalance minority count", minority_count, 0)
            _require_number("imbalance ratio", ratio)
            if not 0.0 < ratio < 1.0:
                raise ValueError(f"imbalance ratio must be in (0, 1), got {ratio}")
            # Python numbers, so the export header reads back through parse_imbalance.
            object.__setattr__(
                self, "imbalance", (int(minority_count), float(ratio)) if minority_count else None
            )


def parse_imbalance(raw: str) -> tuple[int, float] | None:
    """A spec's ``imbalance`` from its text form, ``none`` or ``k:r``."""
    if raw.lower() == "none":
        return None
    try:
        count, ratio = raw.split(":")
        return _parse_int(count), _parse_float(ratio)
    except ValueError:
        raise ValueError(f"imbalance must be none or k:r, got {raw!r}") from None


@dataclass(frozen=True)
class ClientPartition:
    """Per-client sample assignments plus the masks they imply.

    ``category_presence`` is not stored: it is the column sum of the masks.
    """

    spec: DistributionSpec
    num_categories: int
    assignments: tuple[np.ndarray, ...]
    masks: tuple[CategoryMask, ...]
    replacement_events: tuple[tuple[int, int, int], ...] = field(default=())

    @property
    def num_clients(self) -> int:
        return len(self.assignments)

    @property
    def category_presence(self) -> np.ndarray:
        """Number of clients holding each category, as int64."""
        width = (self.num_categories + 7) // 8
        packed = b"".join(m.bits.to_bytes(width, "little") for m in self.masks)
        held = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(-1, width),
                             axis=1, count=self.num_categories, bitorder="little")
        return held.sum(axis=0, dtype=np.int64)


def check_class_count(spec: DistributionSpec, num_categories: int) -> None:
    """Refuse a spec whose kind or imbalance a ``num_categories``-class
    dataset cannot take; the error's field is the spec field at fault."""
    if spec.kind in _RANGE_KINDS:
        expected = _RANGE_KINDS[spec.kind][0]
        if num_categories != expected:
            raise SettingError(
                "kind",
                f"{spec.kind} is defined for {expected}-class datasets, got {num_categories}",
            )
    elif num_categories not in _FIXED_COUNTS:
        raise SettingError(
            "kind",
            f"{spec.kind} is defined for class counts {sorted(_FIXED_COUNTS)}, "
            f"got {num_categories}",
        )
    if spec.imbalance is not None and spec.imbalance[0] >= num_categories:
        raise SettingError(
            "imbalance",
            f"minority count must be in [0, {num_categories}), got {spec.imbalance[0]}",
        )


def kind_bounds(kind: str, num_categories: int, num_clients: int,
                samples_per_client: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Effective (count, presence) bounds, clipped to the instance size, for a
    class count that ``check_class_count`` accepts."""
    if kind in _RANGE_KINDS:
        _, counts, presence = _RANGE_KINDS[kind]
    else:
        fixed = _FIXED_COUNTS[num_categories][KINDS.index(kind) - 5]
        counts, presence = (fixed, fixed), (0, num_clients)
    count_hi = min(counts[1], samples_per_client, num_categories)
    count_lo = min(counts[0], count_hi)
    presence_hi = min(presence[1], num_clients)
    presence_lo = min(presence[0], presence_hi)
    return (count_lo, count_hi), (presence_lo, presence_hi)


def _raw_profile(kind: str, num_categories: int, rng: np.random.Generator) -> np.ndarray:
    """Unnormalized presence shape over category ids for D1-D5; D5's dense
    ids take D4's shape."""
    ids = np.arange(num_categories, dtype=np.float64)
    if kind == "D1":
        base = np.linspace(1.0, 0.05, num_categories)
        base *= rng.uniform(0.9, 1.1, num_categories)
        return np.sort(base)[::-1]
    if kind in ("D2", "D3"):
        mu = num_categories * (0.5 + rng.uniform(-0.08, 0.08))
        if kind == "D2":
            sigma_left = sigma_right = num_categories * 0.22
        else:
            sigma_left = num_categories * 0.16
            sigma_right = num_categories * 0.30
        sigma = np.where(ids < mu, sigma_left, sigma_right)
        base = np.exp(-0.5 * ((ids - mu) / sigma) ** 2)
        return base * rng.uniform(0.85, 1.15, num_categories)
    if kind in ("D4", "D5"):
        peak = num_categories * 0.25
        base = (ids + 1.0) ** 1.3 * np.exp(-ids / max(peak, 1.0))
        return base * rng.uniform(0.85, 1.15, num_categories)
    raise AssertionError(kind)


def _repair_sum(
    profile: np.ndarray, lo: int, hi: int, target: int, rng: np.random.Generator, preferred: int
) -> None:
    """Nudge entries by +-1 (inside [lo, hi]) until the profile sums to target.

    The first ``preferred`` entries are adjusted first; the rest are touched
    only once those are saturated.
    """
    while True:
        delta = target - int(profile.sum())
        if delta == 0:
            return
        step = 1 if delta > 0 else -1
        room = profile < hi if step > 0 else profile > lo
        candidates = np.flatnonzero(room[:preferred])
        if candidates.size == 0:
            candidates = np.flatnonzero(room)
        if candidates.size == 0:
            raise GenerationError(
                f"presence sum {int(profile.sum())} cannot reach {target} in [{lo}, {hi}]"
            )
        picked = rng.choice(candidates, size=min(abs(delta), candidates.size), replace=False)
        profile[picked] += step


def _repair_sum_monotone(profile: np.ndarray, lo: int, hi: int, target: int) -> None:
    """Like _repair_sum but preserves a non-increasing profile (D1)."""
    while True:
        delta = target - int(profile.sum())
        if delta == 0:
            return
        if delta > 0:
            addable = np.flatnonzero(
                (profile < hi)
                & (np.concatenate(([hi], profile[:-1])) > profile)
            )
            if addable.size == 0:
                raise GenerationError(f"cannot raise monotone profile to {target}")
            profile[addable[0]] += 1
        else:
            droppable = np.flatnonzero(
                (profile > lo)
                & (profile > np.concatenate((profile[1:], [lo])))
            )
            if droppable.size == 0:
                raise GenerationError(f"cannot lower monotone profile to {target}")
            profile[droppable[-1]] -= 1


def effective_presence_lo(lo: int, total_slots: int, num_categories: int) -> int:
    """Presence floor, relaxed when there are too few slots to honor it.

    Degenerate instances (one client, tiny counts) cannot put every category
    on ``lo`` clients; the floor then drops to what the slots support, down to
    zero, leaving the tail categories unassigned.
    """
    if total_slots < num_categories * lo:
        return total_slots // num_categories
    return lo


def _presence_profile(
    kind: str,
    num_categories: int,
    target: int,
    presence_lo: int,
    presence_hi: int,
    rng: np.random.Generator,
) -> np.ndarray:
    presence_lo = effective_presence_lo(presence_lo, target, num_categories)
    if target > num_categories * presence_hi:
        raise GenerationError(
            f"total category slots {target} exceed presence capacity "
            f"{num_categories * presence_hi}"
        )

    # D5's scarce tail, the upper half of category ids, sits at presence 1-2
    # (clipped to the bounds); every other kind's tail is empty.
    dense = num_categories - (num_categories // 2 if kind == "D5" else 0)
    profile = np.empty(num_categories, dtype=np.int64)
    profile[dense:] = np.clip(
        rng.integers(1, 3, size=num_categories - dense), presence_lo, presence_hi
    )
    raw = _raw_profile(kind, dense, rng)
    remaining = target - int(profile[dense:].sum())
    profile[:dense] = np.clip(
        np.round(raw * remaining / raw.sum()).astype(np.int64), presence_lo, presence_hi
    )
    if kind == "D1":
        profile = np.sort(profile)[::-1]
        _repair_sum_monotone(profile, presence_lo, presence_hi, target)
    else:
        _repair_sum(profile, presence_lo, presence_hi, target, rng, preferred=dense)
    return profile


def _assign_categories(
    presence: np.ndarray, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Bipartite fill honoring per-category presence and per-client counts,
    as the (clients, categories) table of who holds what.

    Categories are placed scarcest-first onto the clients with the largest
    remaining capacity (random tie-breaks), which realizes any feasible margin
    pair and naturally stacks rare categories on category-rich clients.
    """
    capacity = counts.astype(np.int64).copy()
    held = np.zeros((counts.size, presence.size), dtype=bool)
    order = np.lexsort((np.arange(presence.size), presence))
    for c in order:
        need = int(presence[c])
        if need == 0:
            continue
        eligible = np.flatnonzero(capacity > 0)
        if eligible.size < need:
            raise GenerationError(
                f"category {c} needs {need} clients, only {eligible.size} have capacity"
            )
        tie = rng.random(eligible.size)
        chosen = eligible[np.lexsort((tie, -capacity[eligible]))][:need]
        held[chosen, c] = True
        capacity[chosen] -= 1
    return held


def _draw_samples(
    held: np.ndarray, labels: np.ndarray, samples_per_client: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Each client's sample indices as one (clients, samples_per_client) array.

    Every category's rows are permuted once, in category order.  A client
    splits its samples over its (client, category) pairs as evenly as one
    ``divmod`` allows, earlier categories taking the remainder; each
    category's pairs take consecutive slices of its permuted pool in client
    order, so a pair's quota and pool cursor are read off (clients,
    categories) tables, the cursor a column sum of the quotas above it.  One
    gather, taken in blocks, reads every slice.  A pair that finds the pool
    exhausted draws its shortfall with replacement, in (client, category)
    order, so the random stream and the returned replacement events are the
    ones a per-pair loop makes.
    """
    num_clients, num_categories = held.shape
    # Category c's permuted pool is pool_rows[bounds[c]:bounds[c + 1]].
    pool_rows = np.empty(labels.size, dtype=np.intp)
    bounds = np.zeros(num_categories + 1, dtype=np.intp)
    for c in range(num_categories):
        rows = np.flatnonzero(labels == c)
        if rows.size:
            rng.shuffle(rows)
        bounds[c + 1] = bounds[c] + rows.size
        pool_rows[bounds[c] : bounds[c + 1]] = rows
    sizes = np.diff(bounds)

    # One entry per (client, category) pair, in client order.
    owner, cats = np.nonzero(held)
    empty = np.flatnonzero(sizes[cats] == 0)
    if empty.size:
        raise GenerationError(f"dataset holds no samples of category {cats[empty[0]]}")
    base, rem = divmod(samples_per_client, held.sum(axis=1))
    quotas = held * (base[:, None] + (np.cumsum(held, axis=1) <= rem[:, None]))
    # How much of its category's pool the earlier clients holding it used.
    cursors = np.cumsum(quotas, axis=0) - quotas
    quota, cursor = quotas[owner, cats], cursors[owner, cats]
    take = np.clip(sizes[cats] - cursor, 0, quota)

    # Pair p fills flat slots [out_start[p], out_start[p] + quota[p]); its
    # first take[p] slots read its category's pool from cursor[p] onwards.
    out_start = np.cumsum(quota) - quota
    # Slot i reads pool position drawn[i] + i; an exhausted pair's extra slots
    # read past its pool (clipped) and are overwritten below.
    drawn = np.repeat(bounds[cats] + cursor - out_start, quota)
    for lo in range(0, drawn.size, _BLOCK_ROWS):
        block = drawn[lo : lo + _BLOCK_ROWS]
        block += np.arange(lo, lo + block.size)
        block[:] = pool_rows.take(block, mode="clip")

    events: list[tuple[int, int, int]] = []
    for p in np.flatnonzero(take < quota):
        c, short = int(cats[p]), int(quota[p] - take[p])
        pool = pool_rows[bounds[c] : bounds[c + 1]]
        # Pool exhausted: fall back to drawing with replacement.
        drawn[out_start[p] + take[p] : out_start[p] + quota[p]] = rng.choice(
            pool, size=short, replace=True
        )
        events.append((int(owner[p]), c, short))
    return drawn.reshape(num_clients, samples_per_client), events


def _kept_rows(
    spec: DistributionSpec, labels: np.ndarray, num_categories: int
) -> np.ndarray | None:
    """Ascending row ids left by ``spec.imbalance``; None keeps every row.

    Each of the ``k`` lowest category ids keeps ``round(r * size)`` of its
    rows, the dropped ones drawn from the imbalance stream of ``spec.seed``.
    """
    if spec.imbalance is None:
        return None
    minority_count, ratio = spec.imbalance
    rng = derive_rng(spec.seed, STREAM_IMBALANCE)
    keep = np.ones(labels.size, dtype=bool)
    for c in range(minority_count):
        members = np.flatnonzero(labels == c)
        retain = int(round(ratio * members.size))
        keep[rng.choice(members, size=members.size - retain, replace=False)] = False
    return np.flatnonzero(keep)


def generate_partition_from_labels(
    spec: DistributionSpec, labels: np.ndarray, num_categories: int
) -> ClientPartition:
    """Core generator; see generate_partition for the dataset-level entry point."""
    labels = _category_ids(labels, num_categories)
    check_class_count(spec, num_categories)
    count_bounds, presence_bounds = kind_bounds(
        spec.kind, num_categories, spec.num_clients, spec.samples_per_client
    )
    kept = _kept_rows(spec, labels, num_categories)
    pool_labels = labels if kept is None else labels[kept]
    last_error = "no attempt made"
    for attempt in range(_MAX_ATTEMPTS):
        rng = derive_rng(spec.seed, STREAM_PARTITION, attempt)
        try:
            counts = rng.integers(
                count_bounds[0], count_bounds[1] + 1, size=spec.num_clients
            )
            if spec.kind in _RANGE_KINDS:
                presence = _presence_profile(
                    spec.kind,
                    num_categories,
                    int(counts.sum()),
                    presence_bounds[0],
                    presence_bounds[1],
                    rng,
                )
                held = _assign_categories(presence, counts, rng)
            else:
                held = np.zeros((spec.num_clients, num_categories), dtype=bool)
                for j, k in enumerate(counts):
                    held[j, rng.choice(num_categories, size=int(k), replace=False)] = True
            assignments, events = _draw_samples(held, pool_labels, spec.samples_per_client, rng)
        except GenerationError as exc:
            last_error = str(exc)
            continue
        if kept is not None:
            assignments = kept.take(assignments)
        return ClientPartition(
            spec=spec,
            num_categories=num_categories,
            assignments=tuple(assignments),
            masks=tuple(CategoryMask(_mask_bits(row), num_categories) for row in held),
            replacement_events=tuple(events),
        )
    raise GenerationError(
        f"{spec.kind}: no feasible partition after {_MAX_ATTEMPTS} attempts "
        f"(last: {last_error})"
    )


def generate_partition(spec: DistributionSpec, dataset: LabeledDataset) -> ClientPartition:
    """Deterministically partition ``dataset`` according to ``spec``."""
    return generate_partition_from_labels(spec, dataset.labels, dataset.num_categories)


@dataclass(frozen=True)
class PartitionStats:
    category_presence: np.ndarray
    client_category_counts: np.ndarray  # index k = number of clients with k categories

    def rows(self) -> list[tuple[str, int, int]]:
        out = [
            ("category_presence", int(c), int(n))
            for c, n in enumerate(self.category_presence)
        ]
        out += [
            ("client_category_count", int(k), int(n))
            for k, n in enumerate(self.client_category_counts)
            if n
        ]
        return out


def partition_stats(partition: ClientPartition) -> PartitionStats:
    """Presence histogram per category and histogram of per-client category counts."""
    sizes = np.array([m.popcount() for m in partition.masks])
    return PartitionStats(
        partition.category_presence,
        np.bincount(sizes, minlength=partition.num_categories + 1),
    )


def save_partition(partition: ClientPartition, path) -> None:
    """Text export: a header with the DistributionSpec fields, then one indices line per client."""
    spec = partition.spec
    imbalance = (
        "none" if spec.imbalance is None else f"{spec.imbalance[0]}:{spec.imbalance[1]!r}"
    )
    header = (
        f"# catfed-partition kind={spec.kind} num_clients={spec.num_clients} "
        f"samples_per_client={spec.samples_per_client} seed={spec.seed} "
        f"num_categories={partition.num_categories} imbalance={imbalance}"
    )
    lines = [header]
    for j, assigned in enumerate(partition.assignments):
        lines.append(f"{j}: " + " ".join(str(int(i)) for i in assigned))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
