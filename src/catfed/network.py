"""Dense feed-forward classifier trained with plain SGD.

Float64 arithmetic, ReLU hidden layers, softmax output.  Input rows come in
two encodings: uint8 IDX pixels, read as pixel / 255, and float64 features,
read as they are; every entry point refuses any other dtype by name rather
than copying the rows into one of these.  ModelParams holds read-only arrays.

Every entry point runs the network through one ``_Workspace``: buffers for
the float64 input rows, each layer's output, the backward deltas and the
gradients, allocated once per call.  ``train_clients`` is the one training
loop.  It trains clients in cohorts: up to COHORT consecutive clients with
the same sample count step in lockstep on stacked ``(g, rows, width)``
buffers, each with its own private copy of the weights, its own shuffle and
its own gradient for every layer, and each gets the bits it would get trained
alone.  client_update is a cohort of one; evaluate runs its chunks through
the same workspace.  So a loop over batches or chunks allocates no array
data, and its results are the same bits as the plain ``a @ w.T + b``
expressions.  The input model is never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import _category_ids, _require_count, _require_number, _require_row_encoding

PROB_FLOOR = 1e-12  # clamp before log so empty-probability classes stay finite

# evaluate runs the network on chunks of this many rows, so only one chunk is
# ever held as float64; per-row results are the same bits as one full pass.
EVAL_CHUNK_ROWS = 512

# train_clients steps up to this many equal-size clients in lockstep.
COHORT = 4


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.003
    batch_size: int = 32
    local_epochs: int = 1

    def __post_init__(self) -> None:
        _require_number("learning_rate", self.learning_rate)
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be a finite number >= 0, got {self.learning_rate}"
            )
        _require_count("batch_size", self.batch_size, 1)
        _require_count("local_epochs", self.local_epochs, 1)


@dataclass(frozen=True)
class ModelParams:
    """Layered weights (fan_out x fan_in) and biases (fan_out,), read-only."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and parallel")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {l}: weight {w.shape} / bias {b.shape} mismatch")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(
                    f"layer {l}: fan-in {w.shape[1]} != previous fan-out "
                    f"{self.weights[l - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameters")
            w.flags.writeable = False
            b.flags.writeable = False

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus a per-category loss ledger.

    ``summed_loss`` is accumulated category-major (ascending category id), so
    summing the per-category entries in id order reproduces it exactly.
    ``per_category_loss`` maps category id -> (summed loss, sample count) and
    has no entry for categories absent from the evaluated set.
    """

    accuracy: float
    total_loss: float
    summed_loss: float
    per_category_loss: dict[int, tuple[float, int]] = field(default_factory=dict)
    num_samples: int = 0
    num_categories: int = 0


def init_model(architecture: list[int], rng: np.random.Generator) -> ModelParams:
    """Uniform fan-in-scaled weights (bound sqrt(6/fan_in)), zero biases."""
    if len(architecture) < 2:
        raise ValueError(f"architecture needs >= 2 widths, got {architecture}")
    for width in architecture:
        _require_count("architecture width", width, 1)
    weights = []
    biases = []
    for fan_in, fan_out in zip(architecture[:-1], architecture[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights=tuple(weights), biases=tuple(biases))


def _check_rows(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != model.weights[0].shape[1]:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input width "
            f"{model.weights[0].shape[1]}"
        )
    _require_row_encoding("rows", batch)
    return batch


def _check_labels(model: ModelParams, labels: np.ndarray, rows: int) -> np.ndarray:
    """One integer class label per row, as intp (the caller's array when it
    is intp); float and bool labels are refused, not truncated."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"{rows} images vs {labels.size} labels")
    return _category_ids(labels, model.num_classes)


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first entries of flat ``buffer`` as a C-contiguous array of ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


class _Workspace:
    """Buffers for running one model, or ``members`` stacked models in
    lockstep, on up to ``rows`` rows each.

    Every buffer is flat, and a call views its first entries in the shape at
    hand: ``(n, width)`` for one model, ``(g, n, width)`` for a cohort of g.
    So every view is C-contiguous and a loop over batches or chunks allocates
    no array data.  A stacked operation gives each member the bits it would
    get alone: ``np.matmul`` runs the same gemm on each member's slice, and
    row and column sums add in the same order.  Each in-place step rounds
    exactly as the expression it stands for: ``a @ w.T + b``, ``max(z, 0)``,
    softmax as ``exp(z - max) / sum``, and cross-entropy as
    ``-log(max(p, PROB_FLOOR))``.  The backward buffers exist only when built
    with ``train=True``; each member has its own weight and bias gradient
    for every layer, ``(members, fan_out, fan_in)`` and ``(members,
    fan_out)``.

    numpy buffers an operand it broadcasts (up to 64 KiB per call), so a bias
    or a row statistic is first copied out to full rows in ``spread`` and
    every in-place operation works on equal shapes.
    """

    def __init__(self, weights, rows: int, members: int = 1, train: bool = False) -> None:
        fan_in = weights[0].shape[1]
        widths = [w.shape[0] for w in weights]
        total = members * rows
        self.x = np.empty(total * fan_in)
        self.outs = [np.empty(total * width) for width in widths]
        self.row_stat = np.empty(total)
        self.spread = np.empty(total * max(widths))
        # Flat offsets of each row's labelled probability in outs[-1].
        self.row_starts = np.arange(total) * widths[-1]
        self.flat_index = np.empty(total, dtype=np.intp)
        self.picked = np.empty(total)
        if train:
            self.index = np.empty(total, dtype=np.intp)
            self.pixels = np.empty(total * fan_in, dtype=np.uint8)
            self.labels = np.empty(total, dtype=np.intp)
            self.losses = np.empty(total)
            self.deltas = [np.empty(total * width) for width in widths[:-1]]
            self.inactive = [np.empty(total * width, dtype=bool) for width in widths[:-1]]
            self.grad_w = [np.empty((members, *w.shape)) for w in weights]
            self.grad_b = [np.empty((members, width)) for width in widths]

    def convert(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as float64: uint8 pixels are read as pixel / 255 into ``x``."""
        if rows.dtype == np.float64:
            return rows
        x = _view(self.x, rows.shape)
        np.copyto(x, rows)
        x /= 255.0
        return x

    def gather(self, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``rows[index]`` as float64, for uint8 or float64 ``rows``."""
        shape = index.shape + rows.shape[1:]
        # mode="clip" keeps np.take from buffering ``out``; index is in range.
        if rows.dtype == np.uint8:
            pixels = np.take(rows, index, axis=0, out=_view(self.pixels, shape), mode="clip")
            return self.convert(pixels)
        return np.take(rows, index, axis=0, out=_view(self.x, shape), mode="clip")

    def forward(self, weights, biases, x: np.ndarray) -> np.ndarray:
        """Class probabilities of float64 rows ``x``, ``(n, fan_in)`` for one
        model or ``(g, n, fan_in)`` for g stacked ones; layer l's output lands
        in outs[l]."""
        lead = x.shape[:-1]
        a = x
        last = len(weights) - 1
        for l, (w, b) in enumerate(zip(weights, biases)):
            z = np.matmul(
                a, np.swapaxes(w, -1, -2), out=_view(self.outs[l], lead + w.shape[-2:-1])
            )
            z += self._spread(b[..., None, :], z.shape)
            if l < last:
                np.maximum(z, 0.0, out=z)
            else:
                stat = _view(self.row_stat, lead + (1,))
                np.maximum.reduce(z, axis=-1, keepdims=True, out=stat)
                z -= self._spread(stat, z.shape)
                np.exp(z, out=z)
                np.add.reduce(z, axis=-1, keepdims=True, out=stat)
                z /= self._spread(stat, z.shape)
            a = z
        return a

    def _spread(self, values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """``values`` broadcast to ``shape`` as a contiguous array in ``spread``."""
        out = _view(self.spread, shape)
        np.copyto(out, values)
        return out

    def cross_entropy(self, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Loss of each row of the last forward pass against its label, into
        contiguous ``out`` of the labels' shape.

        Leaves each row's labelled probability in ``picked``.
        """
        m = labels.size
        flat = np.add(self.row_starts[:m], labels.reshape(-1), out=self.flat_index[:m])
        picked = np.take(self.outs[-1], flat, out=self.picked[:m], mode="clip")
        losses = out.reshape(-1)
        np.maximum(picked, PROB_FLOOR, out=losses)
        np.log(losses, out=losses)
        np.negative(losses, out=losses)
        return out

    def backward(self, weights, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Each member's mean cross-entropy of the last forward pass (on
        stacked ``x``), returned, and its exact gradient, from the top layer
        down: layer l's weight gradients land in ``grad_w[l]``, its bias
        gradients in ``grad_b[l]``."""
        g, n = x.shape[:2]
        losses = self.cross_entropy(labels, _view(self.losses, (g, n)))
        means = np.add.reduce(losses, axis=1)
        means /= n

        # Output delta of softmax + cross-entropy; hidden deltas gated by ReLU.
        # The probabilities are not needed after the loss, so they become the delta.
        picked = self.picked[: g * n]
        picked -= 1.0
        np.put(self.outs[-1], self.flat_index[: g * n], picked, mode="clip")
        delta = _view(self.outs[-1], (g, n, weights[-1].shape[-2]))
        delta /= n

        for l in range(len(weights) - 1, -1, -1):
            a_in = _view(self.outs[l - 1], (g, n, weights[l].shape[-1])) if l else x
            np.matmul(np.swapaxes(delta, 1, 2), a_in, out=self.grad_w[l][:g])
            np.add.reduce(delta, axis=1, out=self.grad_b[l][:g])
            if l:
                delta = np.matmul(delta, weights[l], out=_view(self.deltas[l - 1], a_in.shape))
                _relu_gate(delta, a_in, _view(self.inactive[l - 1], a_in.shape))
        return means


def _relu_gate(delta: np.ndarray, a: np.ndarray, inactive: np.ndarray) -> None:
    """Zero ``delta`` where not (a > 0), in place, as ``np.where(a > 0.0, delta,
    0.0)`` does: a NaN activation zeroes its delta too.  ``inactive`` is a
    bool buffer of the same shape."""
    np.greater(a, 0.0, out=inactive)
    np.logical_not(inactive, out=inactive)
    np.copyto(delta, 0.0, where=inactive)


def loss_and_grad(
    model: ModelParams, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy and its exact gradient via backpropagation."""
    batch = _check_rows(model, batch)
    labels = _check_labels(model, labels, batch.shape[0])
    if batch.shape[0] == 0:
        raise ValueError("batch is empty")
    ws = _Workspace(model.weights, batch.shape[0], train=True)
    # A cohort of one: the model's arrays viewed with a leading member axis.
    weights = [w[None] for w in model.weights]
    x = ws.convert(batch[None])
    ws.forward(weights, [b[None] for b in model.biases], x)
    losses = ws.backward(weights, x, labels[None])
    return float(losses[0]), ModelParams(
        weights=tuple(g[0] for g in ws.grad_w), biases=tuple(g[0] for g in ws.grad_b)
    )


class Diverged(FloatingPointError):
    """A member's local training went non-finite; ``member`` is its position
    in the member list handed to ``train_clients``."""

    def __init__(self, member: int, message: str) -> None:
        super().__init__(message)
        self.member = member


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` without a bool array: a NaN makes min and max
    NaN, and an infinity shows in one of them."""
    return math.isfinite(np.minimum.reduce(a, axis=None)) and math.isfinite(
        np.maximum.reduce(a, axis=None)
    )


def _cohorts(sizes: list[int]) -> list[tuple[int, int]]:
    """``(first, stop)`` member ranges: runs of up to COHORT consecutive
    members with the same sample count."""
    cohorts: list[tuple[int, int]] = []
    for i, size in enumerate(sizes):
        if cohorts and i - cohorts[-1][0] < COHORT and sizes[cohorts[-1][0]] == size:
            cohorts[-1] = (cohorts[-1][0], i + 1)
        else:
            cohorts.append((i, i + 1))
    return cohorts


def train_clients(
    model: ModelParams,
    images: np.ndarray,
    labels: np.ndarray,
    members: list[np.ndarray],
    config: TrainConfig,
    rngs: list[np.random.Generator],
    take: Callable[[int, tuple[np.ndarray, ...], tuple[np.ndarray, ...]], None],
) -> None:
    """Local SGD from ``model`` for each member; ``take(i, weights, biases)``
    receives member i's update, in member order.

    Member i trains on the rows ``members[i]`` of ``images`` and ``labels``
    and shuffles with ``rngs[i]``: per epoch, shuffle, split into batches of
    B, SGD each; the last short batch is trained on rather than dropped.
    Runs of up to COHORT consecutive members with the same sample count
    train in lockstep, as one cohort, and each member's update is the same
    bits as training it alone.  Batch rows are gathered straight from
    ``images``, uint8 read as pixel / 255.

    ``take`` gets views into buffers that the next cohort reuses, so it must
    use or copy them before it returns, and may overwrite them: they are not
    read again.  The input model is never written.
    A step whose loss is not finite, or a final model that is not, raises
    Diverged for the first member (in list order) that a one-at-a-time run
    would name, after ``take`` has had every member before it; the message
    names the epoch (from 1), the batch's start offset and the member's last
    finite loss.
    """
    images = _check_rows(model, images)
    labels = _check_labels(model, labels, images.shape[0])
    if len(rngs) != len(members):
        raise ValueError(f"{len(members)} members but {len(rngs)} generators")
    sizes = [len(index) for index in members]
    for index in members:
        if len(index) == 0:
            raise ValueError("client data is empty")
        if index.min() < 0 or index.max() >= images.shape[0]:
            raise ValueError(
                f"row indices must be in [0, {images.shape[0]}), got range "
                f"[{index.min()}, {index.max()}]"
            )
    cohorts = _cohorts(sizes)
    width = max(stop - first for first, stop in cohorts)
    batch_size, lr = config.batch_size, config.learning_rate
    ws = _Workspace(model.weights, min(max(sizes), batch_size), width, train=True)
    # The cohort's private models, one per member along the leading axis,
    # stepped in place: ``g *= lr; p -= g`` rounds exactly as ``p - lr * g``.
    stacked_w = [np.empty((width, *w.shape)) for w in model.weights]
    stacked_b = [np.empty((width, *b.shape)) for b in model.biases]
    order_buffer = np.empty(width * max(sizes), dtype=np.intp)

    for first, stop in cohorts:
        g, n = stop - first, sizes[first]
        weights, biases = stacked_w, stacked_b
        if g < width:
            weights, biases = [w[:g] for w in weights], [b[:g] for b in biases]
        for p, initial in zip(weights + biases, model.weights + model.biases):
            p[...] = initial
        order = _view(order_buffer, (g, n))
        failures: list[str | None] = [None] * g
        last: list[float | None] = [None] * g
        for epoch in range(1, config.local_epochs + 1):
            for i in range(g):
                # Shuffling the indices in place makes the same swaps, from
                # the same draws, as ``members[i][rng.permutation(n)]``.
                np.copyto(order[i], members[first + i])
                rngs[first + i].shuffle(order[i])
            for start in range(0, n, batch_size):
                index = _view(ws.index, (g, min(batch_size, n - start)))
                np.copyto(index, order[:, start : start + batch_size])
                x = ws.gather(images, index)
                ys = np.take(labels, index, out=_view(ws.labels, index.shape), mode="clip")
                ws.forward(weights, biases, x)
                values = ws.backward(weights, x, ys).tolist()
                for i, loss in enumerate(values):
                    if failures[i] is None and not math.isfinite(loss):
                        failures[i] = (
                            f"loss {loss} at epoch {epoch}, batch start {start} "
                            f"(last finite loss {last[i]!r})"
                        )
                if failures[0] is not None:
                    raise Diverged(first, failures[0])
                last = values
                for p, grad in zip(weights + biases, ws.grad_w + ws.grad_b):
                    grad = grad[:g]
                    grad *= lr
                    p -= grad

        for i in range(g):
            if failures[i] is not None:
                raise Diverged(first + i, failures[i])
            for l, (w, b) in enumerate(zip(weights, biases)):
                if not (_all_finite(w[i]) and _all_finite(b[i])):
                    raise Diverged(
                        first + i,
                        f"layer {l}: non-finite parameters after the step at epoch "
                        f"{epoch}, batch start {start} (last finite loss {last[i]!r})",
                    )
            take(first + i, tuple(w[i] for w in weights), tuple(b[i] for b in biases))


def client_update(
    model: ModelParams,
    images: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Local refinement of ``model`` on all of ``images``: ``train_clients``
    with one member.  Returns the updated copy; a step or a final model that
    is not finite raises FloatingPointError (Diverged)."""
    images = _check_rows(model, images)
    updates = []
    train_clients(
        model, images, labels, [np.arange(images.shape[0])], config, [rng],
        lambda _, weights, biases: updates.append((weights, biases)),
    )
    ((weights, biases),) = updates
    return ModelParams(weights=weights, biases=biases)


def evaluate(model: ModelParams, images: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Argmax accuracy plus the per-category loss decomposition.

    Runs the network on EVAL_CHUNK_ROWS rows at a time in one workspace, so
    uint8 ``images`` (read as pixel / 255) are converted one chunk at a time.
    """
    images = _check_rows(model, images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("evaluation set is empty")
    labels = _check_labels(model, labels, n)
    losses = np.empty(n)
    predictions = np.empty(n, dtype=np.intp)
    ws = _Workspace(model.weights, min(n, EVAL_CHUNK_ROWS))
    for start in range(0, n, EVAL_CHUNK_ROWS):
        stop = start + EVAL_CHUNK_ROWS
        probs = ws.forward(model.weights, model.biases, ws.convert(images[start:stop]))
        ws.cross_entropy(labels[start:stop], losses[start:stop])
        np.argmax(probs, axis=1, out=predictions[start:stop])
    accuracy = float(np.count_nonzero(predictions == labels) / n)

    per_category: dict[int, tuple[float, int]] = {}
    summed = 0.0
    for c in range(model.num_classes):
        mask = labels == c
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        category_sum = float(losses[mask].sum())
        per_category[c] = (category_sum, count)
        summed += category_sum

    return EvalReport(
        accuracy=accuracy,
        total_loss=summed / n,
        summed_loss=summed,
        per_category_loss=per_category,
        num_samples=n,
        num_categories=model.num_classes,
    )
