"""Category bitmasks and the three client-selection strategies.

Clients advertise which label categories they hold as a C-bit mask (bit i set
means at least one sample of category i).  The server picks a round's clients
either uniformly at random (the averaging baseline), one client per category
tolerating redundant coverage (performance strategy), or greedily keeping only
clients that enlarge the covered set (cost strategy).

All functions here are pure: given the same masks and config they return
bit-identical results, and the random baseline draws only from a caller-owned
Generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import UnreadSettingError, _category_ids, _require_count

MODE_A_LIMIT = 10

# The strategies that select by category masks, as run and config name them.
CATEGORY_STRATEGIES = ("cat_performance", "cat_cost")


class Mode(enum.Enum):
    """Selection-limit regimes: A caps the pick at 10 clients, B at one per category."""

    A = "A"
    B = "B"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"mode must be A or B, got {value!r}")


@dataclass(frozen=True)
class CategoryMask:
    """Fixed-width bitset over category ids; bit i (LSB first) is category i."""

    bits: int
    num_categories: int

    def __post_init__(self) -> None:
        _require_count("num_categories", self.num_categories, 1)
        _require_count("bits", self.bits, 0)
        if self.bits >> self.num_categories:
            raise ValueError(
                f"bits 0x{self.bits:x} do not fit in {self.num_categories} categories"
            )

    def popcount(self) -> int:
        return self.bits.bit_count()

    def has(self, category: int) -> bool:
        return bool(self.bits >> category & 1)

    def categories(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.num_categories) if self.bits >> i & 1)


def _mask_bits(present: np.ndarray) -> int:
    """The int whose bit i is set iff ``present[i]`` is true."""
    return int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")


def build_mask(labels, num_categories: int) -> CategoryMask:
    """Mask with bit i set iff label i occurs at least once in ``labels``.

    ``labels`` is an array-like or any other iterable of integer ids (a set or
    a generator is read into a list first).  Floats and bools are refused
    rather than truncated, and the range error names the first bad label in
    input order.
    """
    if not isinstance(labels, (np.ndarray, list, tuple)):
        labels = list(labels)
    present = np.bincount(_category_ids(labels, num_categories), minlength=num_categories) > 0
    return CategoryMask(_mask_bits(present), num_categories)


@dataclass(frozen=True)
class SelectionConfig:
    """Resolves the client cap N from a mode (A=10, B=C) or an explicit value;
    ``mode`` may be a Mode or its value, and is stored as the Mode.  An unset
    mode reads as B, and a mode set beside a limit is refused: the limit wins."""

    num_categories: int
    mode: Mode | None = None
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.mode is not None:
            object.__setattr__(self, "mode", Mode(self.mode))
        _require_count("num_categories", self.num_categories, 1)
        if self.limit is not None:
            _require_count("limit", self.limit, 1)
            if self.mode is not None:
                raise UnreadSettingError("mode", "when limit is set")


def resolve_limit(config: SelectionConfig) -> int:
    """Maximum number of selectable clients: the limit if set, else the mode's cap."""
    if config.limit is not None:
        return config.limit
    if config.mode is Mode.A:
        return MODE_A_LIMIT
    return config.num_categories


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selected client indices, their count, and the covered-category union."""

    selected: tuple[int, ...]
    coverage: CategoryMask
    skipped_categories: tuple[int, ...] = field(default=())

    @property
    def count(self) -> int:
        return len(self.selected)

    def covered_count(self) -> int:
        return self.coverage.popcount()


def _check_masks(masks: list[CategoryMask]) -> int:
    if not masks:
        raise ValueError("at least one client mask is required")
    width = masks[0].num_categories
    for m in masks[1:]:
        if m.num_categories != width:
            raise ValueError("all client masks must share num_categories")
    return width


def _ranked_scan(masks: list[CategoryMask], config: SelectionConfig) -> tuple[int, int, list]:
    """The mask width (checked against the config), the cap N, and the clients
    ranked by descending popcount, ties by ascending index."""
    width = _check_masks(masks)
    if width != config.num_categories:
        raise ValueError(
            f"mask width {width} != config num_categories {config.num_categories}"
        )
    order = sorted(range(len(masks)), key=lambda j: (-masks[j].popcount(), j))
    return width, resolve_limit(config), order


def _union_coverage(masks: list[CategoryMask], selected, num_categories: int) -> CategoryMask:
    bits = 0
    for j in selected:
        bits |= masks[j].bits
    return CategoryMask(bits, num_categories)


def select_random(
    masks: list[CategoryMask], k: int, rng: np.random.Generator
) -> SelectionResult:
    """Draw k distinct client indices uniformly without replacement.

    The averaging baseline does not look at the masks when it draws; it
    reads them only to report the coverage the random pick happened to get.
    """
    width = _check_masks(masks)
    _require_count("k", k, 1)
    if k > len(masks):
        raise ValueError(f"k must be <= {len(masks)}, the client count, got {k}")
    selected = tuple(int(j) for j in rng.choice(len(masks), size=k, replace=False))
    return SelectionResult(
        selected=selected, coverage=_union_coverage(masks, selected, width)
    )


def _performance_scan(
    masks: list[CategoryMask], width: int, limit: int, order: list[int]
) -> SelectionResult:
    selected: list[int] = []
    taken = [False] * len(masks)
    skipped: list[int] = []
    for category in range(width):
        if len(selected) == limit:
            break
        for j in order:
            if masks[j].bits >> category & 1 and not taken[j]:
                taken[j] = True
                selected.append(j)
                break
        else:
            skipped.append(category)
    return SelectionResult(
        tuple(selected), _union_coverage(masks, selected, width), tuple(skipped)
    )


def _cost_scan(
    masks: list[CategoryMask], width: int, limit: int, order: list[int]
) -> SelectionResult:
    full = (1 << width) - 1
    selected: list[int] = []
    psi = 0
    for j in order:
        if len(selected) == limit or psi == full:
            break
        if psi & masks[j].bits != masks[j].bits:
            selected.append(j)
            psi |= masks[j].bits
    return SelectionResult(tuple(selected), CategoryMask(psi, width))


# Each category strategy's scan of the ranked order, by its name.
_SCANS = dict(zip(CATEGORY_STRATEGIES, (_performance_scan, _cost_scan)))


def select_performance(masks: list[CategoryMask], config: SelectionConfig) -> SelectionResult:
    """One client per category, in ascending category order.

    Clients are ranked by descending mask popcount (ties by ascending client
    index).  Each category claims the first ranked client that holds it and is
    not yet selected; redundant coverage from earlier picks is deliberately not
    checked, so popular clients soak up multiple categories.  Categories that
    no untaken client holds are skipped and reported.
    """
    return _performance_scan(masks, *_ranked_scan(masks, config))


def select_cost(masks: list[CategoryMask], config: SelectionConfig) -> SelectionResult:
    """Greedy coverage: keep a ranked client only if it adds an uncovered category.

    Scans clients by descending popcount (ties by ascending index) and selects
    a client iff its mask has at least one bit outside the running union; the
    scan stops once the cap is reached or every category is covered.  Every
    selected client therefore strictly grows coverage.
    """
    return _cost_scan(masks, *_ranked_scan(masks, config))


def trace_selection(
    masks: list[CategoryMask], config: SelectionConfig, strategy: str
) -> list[str]:
    """Human-readable trace of a selection pass: ranked order, then per-step union."""
    if strategy not in CATEGORY_STRATEGIES:
        raise ValueError(f"no trace for strategy {strategy!r}")
    width, limit, order = _ranked_scan(masks, config)
    lines = [
        f"strategy={strategy} num_categories={width} limit={limit}",
        "rank order (client: popcount categories):",
    ]
    for rank, j in enumerate(order):
        cats = ",".join(str(c) for c in masks[j].categories())
        lines.append(f"  #{rank}: client {j}: {masks[j].popcount()} [{cats}]")

    result = _SCANS[strategy](masks, width, limit, order)

    lines.append("steps:")
    psi = 0
    for step, j in enumerate(result.selected):
        psi |= masks[j].bits
        covered = ",".join(str(c) for c in CategoryMask(psi, width).categories())
        lines.append(f"  step {step}: select client {j} -> covered [{covered}]")
    if result.skipped_categories:
        skipped = ",".join(str(c) for c in result.skipped_categories)
        lines.append(f"skipped categories (no eligible client): [{skipped}]")
    lines.append(
        f"selected {result.count} clients, covered "
        f"{result.covered_count()}/{width} categories"
    )
    return lines
