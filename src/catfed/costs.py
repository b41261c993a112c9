"""Communication-cost accounting and loss bookkeeping checks.

The cost of one round is ``K * client_cost + server_cost`` where K is the
number of participating clients: each selected client uploads one update and
the server broadcasts once.  Cumulative cost simply sums rounds, so with a
fixed K it is ``R*K*client_cost + R*server_cost``.  The derivative of the
cumulative cost in the per-client price, averaged over rounds, is the mean
number of clients per round; that quantity is what an N-sweep trades against
coverage.

Data seen is the total number of samples held by the selected clients,
counted every round they participate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import _require_count, _require_number
from .network import EvalReport


@dataclass(frozen=True)
class CostModel:
    client_cost: float = 1.0
    server_cost: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("client_cost", self.client_cost), ("server_cost", self.server_cost)):
            _require_number(name, value)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
            # A numpy real would reach the results CSV as np.float64(...).
            object.__setattr__(self, name, float(value))


def round_cost(model: CostModel, num_selected: int) -> float:
    _require_count("num_selected", num_selected, 0)
    return num_selected * model.client_cost + model.server_cost


def cumulative_cost(model: CostModel, selection_sizes: Sequence[int]) -> float:
    return sum(round_cost(model, k) for k in selection_sizes)


class CostLedger:
    """Accumulates per-round costs and data volume for one experiment arm."""

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self._cumulative = 0.0
        self._data_seen = 0

    def record(self, num_selected: int, samples_seen: int) -> tuple[float, float]:
        """Log one round; returns (round cost, cumulative cost)."""
        _require_count("samples_seen", samples_seen, 0)
        cost = round_cost(self.model, num_selected)
        self._cumulative += cost
        self._data_seen += int(samples_seen)
        return cost, self._cumulative

    @property
    def total_data_seen(self) -> int:
        return self._data_seen


@dataclass(frozen=True)
class DecompositionReport:
    client_major: float
    category_major: float
    relative_gap: float
    total_samples: int
    undefined_categories: tuple[int, ...]

    @property
    def has_undefined(self) -> bool:
        return bool(self.undefined_categories)


def check_loss_decomposition(reports: Sequence[EvalReport]) -> DecompositionReport:
    """Cross-check the two ways of summing a population's loss.

    Client-major sums each client's total loss; category-major regroups the
    same per-sample terms by label first.  Both divide by the population
    sample count, so the two totals must agree up to float roundoff.
    Categories that no client holds contribute nothing to either side; they
    are reported as undefined rather than silently treated as zero-loss.
    """
    if not reports:
        raise ValueError("needs at least one client report")
    num_categories = reports[0].num_categories
    for r in reports:
        if r.num_categories != num_categories:
            raise ValueError(
                f"mixed category counts: {r.num_categories} != {num_categories}"
            )

    total_n = sum(r.num_samples for r in reports)
    if total_n == 0:
        raise ValueError("no samples across the client reports")

    client_major = sum(r.summed_loss for r in reports) / total_n

    category_totals = [0.0] * num_categories
    category_counts = [0] * num_categories
    for r in reports:
        for c, (loss_sum, count) in r.per_category_loss.items():
            category_totals[c] += loss_sum
            category_counts[c] += count
    category_major = sum(category_totals) / total_n

    gap = abs(client_major - category_major)
    scale = max(abs(client_major), abs(category_major), 1e-300)
    return DecompositionReport(
        client_major=client_major,
        category_major=category_major,
        relative_gap=gap / scale,
        total_samples=total_n,
        undefined_categories=tuple(
            c for c in range(num_categories) if category_counts[c] == 0
        ),
    )
