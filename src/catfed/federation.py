"""Round-based federated averaging with pluggable client selection.

One experiment runs R rounds against a fixed client partition.  The server
reads the partition's category masks (position j is client j) and the
strategy picks a subset of positions; the category strategies read only the
masks, so they pick once, before round 1.  Every round, each selected client
runs local SGD from the current global weights on its own samples, and the
server replaces the global model with the sample-count-weighted average of
the returned weights.  ``train_rounds``, the one round loop, yields each
round's model and record before evaluation; ``run_round`` scores the next
round on the held-out test set, so ``sweep-n`` can score only its last.

Local training runs in cohorts (``network.train_clients``): up to
``network.COHORT`` consecutive selected clients, in ascending id, with the
same sample count step in lockstep, each on its own copy of the global
weights, and each gets the bits it would get alone.  Batch rows are gathered
straight from the train split by index.

The average is streamed: ``_RunningAverage`` takes the weights from the
selected clients' sample counts and folds each update into one running sum,
in the update's own arrays, as its client finishes, in ascending client id.
A round holds the global model, that sum and one cohort's private models,
however many clients it selects, and no scratch model; the result is the
same bits as ``sum(c * p ...)`` over the list of updates.

Everything is driven by one experiment seed.  Model init, the random
baseline's draws, and each client's shuffling use independent streams derived
from (seed, stream tag, round, client id), so at one BLAS thread count the
results are reproducible bit-for-bit regardless of execution order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import CostLedger, CostModel
from .datasets import LabeledDataset
from .errors import RoundError, UnreadSettingError, _require_count, _require_number
from .network import (
    Diverged,
    ModelParams,
    TrainConfig,
    evaluate,
    init_model,
    train_clients,
)
from .partitions import ClientPartition
from .seeding import (
    STREAM_CLIENT_UPDATE,
    STREAM_MODEL_INIT,
    STREAM_SELECTION,
    derive_rng,
)
from .selection import (
    CATEGORY_STRATEGIES,
    CategoryMask,
    Mode,
    SelectionConfig,
    SelectionResult,
    select_cost,
    select_performance,
    select_random,
)

STRATEGIES = ("fedavg_random", *CATEGORY_STRATEGIES)


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str
    rounds: int = 50
    client_fraction: float | None = None  # unset reads as 0.1
    mode: Mode | None = None  # unset reads as B
    limit: int | None = None
    hidden: tuple[int, ...] = (100, 100)
    train: TrainConfig = field(default_factory=TrainConfig)
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        _require_count("rounds", self.rounds, 1)
        if self.client_fraction is not None:
            _require_number("client_fraction", self.client_fraction)
            if not 0.0 < self.client_fraction <= 1.0:
                raise ValueError(
                    f"client_fraction must be in (0, 1], got {self.client_fraction}"
                )
        if not isinstance(self.hidden, Sequence):
            raise ValueError(f"hidden must be a sequence of widths, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        for width in self.hidden:
            _require_count("hidden width", width, 1)
        if not isinstance(self.train, TrainConfig):
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        if not isinstance(self.cost, CostModel):
            raise ValueError(f"cost must be a CostModel, got {self.cost!r}")
        _require_count("seed", self.seed, 0)
        # The category count comes with the dataset; mode and limit are checked now.
        object.__setattr__(self, "mode", SelectionConfig(1, self.mode, self.limit).mode)
        # After every domain check: the selection settings the strategy leaves unread.
        unread = ("mode", "limit") if self.strategy == "fedavg_random" else ("client_fraction",)
        for key in unread:
            if getattr(self, key) is not None:
                raise UnreadSettingError(key, f"with strategy {self.strategy}")


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    strategy: str
    selected: tuple[int, ...]
    categories_covered: int
    accuracy: float
    test_loss: float
    round_cost: float
    cumulative_cost: float
    data_seen: int

    @property
    def selected_k(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[RoundRecord, ...]
    model: ModelParams

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy

    @property
    def cumulative_cost(self) -> float:
        return self.records[-1].cumulative_cost


class _RunningAverage:
    """FedAvg folded one update at a time.  The coefficients are the sample
    counts ``sizes`` over their total; member i's update is folded as
    ``acc = c_0 * p_0``, then ``acc += c_i * p_i``, in member order.

    That is the rounding order of ``sum(c * p for ...)``, so the result is
    the same bits as summing the whole list at once.  Each product after
    the first is formed in the update's own arrays, which ``add`` may
    overwrite, so only the running sum is held.
    """

    def __init__(self, sizes: Sequence[int]) -> None:
        sizes = np.asarray(sizes, dtype=np.float64)
        self._coefs = sizes / sizes.sum()
        self._acc: list[np.ndarray] = []

    def add(self, i: int, weights: tuple, biases: tuple) -> None:
        coef, arrays = self._coefs[i], weights + biases
        if not self._acc:
            self._acc = [coef * p for p in arrays]
            return
        for acc, p in zip(self._acc, arrays):
            acc += np.multiply(coef, p, out=p)

    def result(self) -> ModelParams:
        layers = len(self._acc) // 2
        return ModelParams(
            weights=tuple(self._acc[:layers]), biases=tuple(self._acc[layers:])
        )


def _fedavg_k(fraction: float, num_clients: int) -> int:
    # Half rounds up so a 0.1 fraction of 25 clients still fields 3.
    return max(int(np.floor(fraction * num_clients + 0.5)), 1)


def _selector(
    config: ExperimentConfig, masks: tuple[CategoryMask, ...], num_categories: int
) -> Callable[[int], SelectionResult]:
    """Each round's selection by round index; a category strategy reads only
    the masks, so it selects once, here."""
    if config.strategy == "fedavg_random":
        fraction = 0.1 if config.client_fraction is None else config.client_fraction
        k = _fedavg_k(fraction, len(masks))
        return lambda r: select_random(masks, k, derive_rng(config.seed, STREAM_SELECTION, r))
    select = select_performance if config.strategy == "cat_performance" else select_cost
    result = select(masks, SelectionConfig(num_categories, config.mode, config.limit))
    if result.count == 0:
        raise RoundError("round 1: selection came back empty")
    return lambda r: result


def train_rounds(
    config: ExperimentConfig,
    train_dataset: LabeledDataset,
    partition: ClientPartition,
) -> Iterator[tuple[ModelParams, RoundRecord]]:
    """The round loop: train ``config.rounds`` rounds, yielding each new
    global model and its record before it is scored, so the record's
    ``accuracy`` and ``test_loss`` are NaN (``run_round`` fills them in)."""
    select = _selector(config, partition.masks, train_dataset.num_categories)
    architecture = [train_dataset.images.shape[1], *config.hidden, train_dataset.num_categories]
    model = init_model(architecture, derive_rng(config.seed, STREAM_MODEL_INIT))
    ledger = CostLedger(config.cost)
    for round_index in range(1, config.rounds + 1):
        result = select(round_index)
        selected = tuple(sorted(result.selected))
        indices = [partition.assignments[j] for j in selected]
        sizes = [len(idx) for idx in indices]
        if 0 in sizes:
            j = selected[sizes.index(0)]
            raise RoundError(f"round {round_index}, client {j}: holds no samples")
        # Each update is folded in as its client finishes, so a round holds the
        # running average and one cohort's models, not one update per client.
        average = _RunningAverage(sizes)
        try:
            train_clients(
                model, train_dataset.images, train_dataset.labels, indices, config.train,
                [derive_rng(config.seed, STREAM_CLIENT_UPDATE, round_index, j) for j in selected],
                average.add,
            )
        except Diverged as exc:
            raise RoundError(
                f"round {round_index}, client {selected[exc.member]}: "
                f"training diverged: {exc}"
            ) from exc
        model = average.result()
        round_cost, cumulative = ledger.record(result.count, sum(sizes))
        yield model, RoundRecord(
            round_index=round_index, strategy=config.strategy, selected=selected,
            categories_covered=result.covered_count(), accuracy=math.nan, test_loss=math.nan,
            round_cost=round_cost, cumulative_cost=cumulative, data_seen=ledger.total_data_seen,
        )


def run_round(
    rounds: Iterator[tuple[ModelParams, RoundRecord]], test_dataset: LabeledDataset
) -> tuple[ModelParams, RoundRecord]:
    """Train the next round of ``rounds`` and score its model on the test
    split: one call is one whole round, selection to record."""
    model, record = next(rounds)
    report = evaluate(model, test_dataset.images, test_dataset.labels)
    return model, replace(record, accuracy=report.accuracy, test_loss=report.total_loss)


def run_experiment(
    config: ExperimentConfig,
    train_dataset: LabeledDataset,
    partition: ClientPartition,
    test_dataset: LabeledDataset,
) -> ExperimentResult:
    """Run the full federated loop and return per-round records plus the model."""
    if train_dataset.num_categories != test_dataset.num_categories:
        raise RoundError(
            f"train/test category counts differ: {train_dataset.num_categories} "
            f"!= {test_dataset.num_categories}"
        )
    width = train_dataset.images.shape[1]
    if test_dataset.images.shape[1] != width:
        raise RoundError(
            f"train/test row widths differ: {width} != {test_dataset.images.shape[1]}"
        )
    rounds = train_rounds(config, train_dataset, partition)
    records: list[RoundRecord] = []
    for _ in range(config.rounds):
        model, record = run_round(rounds, test_dataset)
        records.append(record)
    return ExperimentResult(config=config, records=tuple(records), model=model)
