"""Dense feed-forward classifier trained with plain SGD.

Float64 arithmetic, ReLU hidden layers, softmax output.  Input rows may be
uint8 IDX pixels, read as pixel / 255, or any other numeric rows, read as
float64.  ModelParams holds read-only arrays.

Every entry point runs the network through one ``_Workspace``: buffers for
the float64 input rows, each layer's output, the backward deltas and the
gradients, allocated once per call.  client_update gathers each batch into
those buffers and steps in place on one private copy of the weights, then
wraps it in a fresh ModelParams at the end; evaluate runs its chunks through
them.  So a loop over batches or chunks allocates no array data, and its
results are the same bits as the plain ``a @ w.T + b`` expressions.  The
input model is never written, which is what lets concurrent client updates
share one global model safely.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12  # clamp before log so empty-probability classes stay finite

# evaluate runs the network on chunks of this many rows, so only one chunk is
# ever held as float64; per-row results are the same bits as one full pass.
EVAL_CHUNK_ROWS = 512


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.003
    batch_size: int = 32
    local_epochs: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be positive, got {self.local_epochs}")


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
    def architecture(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

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
    if len(architecture) < 2 or any(int(n) < 1 for n in architecture):
        raise ValueError(f"architecture needs >= 2 positive widths, got {architecture}")
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
    return batch


def _check_labels(model: ModelParams, labels: np.ndarray, rows: int) -> np.ndarray:
    """One class label per row, as intp."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"{rows} images vs {labels.size} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= model.num_classes):
        raise ValueError(
            f"labels must be in [0, {model.num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels.astype(np.intp)


class _Workspace:
    """Buffers for running one model on up to ``rows`` rows at a time.

    A call builds one and then runs every batch or chunk in row slices of its
    arrays, so a loop over batches allocates no array data.  Each in-place
    step rounds exactly as the expression it stands for: ``a @ w.T + b``,
    ``max(z, 0)``, softmax as ``exp(z - max) / sum``, and cross-entropy as
    ``-log(max(p, PROB_FLOOR))``.  The backward buffers exist only when built
    with ``train=True``.

    numpy buffers an operand it broadcasts (up to 64 KiB per call), so a bias
    or a row statistic is first copied out to full rows in ``spread`` and
    every in-place operation works on equal shapes.
    """

    def __init__(self, weights, rows: int, train: bool = False) -> None:
        fan_in = weights[0].shape[1]
        widths = [w.shape[0] for w in weights]
        self.x = np.empty((rows, fan_in))
        self.outs = [np.empty((rows, width)) for width in widths]
        self.row_stat = np.empty((rows, 1))
        self.spread = np.empty(rows * max(widths))
        # Flat offsets of each row's labelled probability in outs[-1].
        self.row_starts = np.arange(rows) * widths[-1]
        self.flat_index = np.empty(rows, dtype=np.intp)
        self.picked = np.empty(rows)
        if train:
            self.pixels = np.empty((rows, fan_in), dtype=np.uint8)
            self.labels = np.empty(rows, dtype=np.intp)
            self.losses = np.empty(rows)
            self.deltas = [np.empty((rows, width)) for width in widths[:-1]]
            self.inactive = [np.empty((rows, width), dtype=bool) for width in widths[:-1]]
            self.grad_w = [np.empty_like(w) for w in weights]
            self.grad_b = [np.empty(width) for width in widths]

    def convert(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as float64: uint8 pixels are read as pixel / 255 into ``x``."""
        if rows.dtype == np.float64:
            return rows
        x = self.x[: len(rows)]
        np.copyto(x, rows, casting="unsafe")
        if rows.dtype == np.uint8:
            x /= 255.0
        return x

    def gather(self, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``rows[index]`` as float64, for uint8 or float64 ``rows``."""
        n = len(index)
        # mode="clip" keeps np.take from buffering ``out``; index is in range.
        if rows.dtype == np.uint8:
            pixels = np.take(rows, index, axis=0, out=self.pixels[:n], mode="clip")
            return self.convert(pixels)
        return np.take(rows, index, axis=0, out=self.x[:n], mode="clip")

    def forward(self, weights, biases, x: np.ndarray) -> np.ndarray:
        """Class probabilities of float64 rows ``x``; layer l's output lands in outs[l]."""
        n = x.shape[0]
        a = x
        last = len(weights) - 1
        for l, (w, b) in enumerate(zip(weights, biases)):
            z = np.matmul(a, w.T, out=self.outs[l][:n])
            z += self._spread(b, z.shape)
            if l < last:
                np.maximum(z, 0.0, out=z)
            else:
                stat = self.row_stat[:n]
                np.max(z, axis=1, keepdims=True, out=stat)
                z -= self._spread(stat, z.shape)
                np.exp(z, out=z)
                np.sum(z, axis=1, keepdims=True, out=stat)
                z /= self._spread(stat, z.shape)
            a = z
        return a

    def _spread(self, values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """``values`` broadcast to ``shape`` as a contiguous array in ``spread``."""
        out = self.spread[: shape[0] * shape[1]].reshape(shape)
        np.copyto(out, values)
        return out

    def cross_entropy(self, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Loss of each row of the last forward pass against its label, into ``out``.

        Leaves each row's labelled probability in ``picked``.
        """
        n = len(labels)
        flat = np.add(self.row_starts[:n], labels, out=self.flat_index[:n])
        picked = np.take(self.outs[-1], flat, out=self.picked[:n], mode="clip")
        np.maximum(picked, PROB_FLOOR, out=out)
        np.log(out, out=out)
        return np.negative(out, out=out)

    def backward(self, weights, x: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy of the last forward pass (on ``x``) and its exact
        gradient, left in ``grad_w`` and ``grad_b``."""
        n = x.shape[0]
        loss = float(self.cross_entropy(labels, self.losses[:n]).mean())

        # Output delta of softmax + cross-entropy; hidden deltas gated by ReLU.
        # The probabilities are not needed after the loss, so they become the delta.
        picked = self.picked[:n]
        picked -= 1.0
        np.put(self.outs[-1], self.flat_index[:n], picked, mode="clip")
        delta = self.outs[-1][:n]
        delta /= n

        for l in range(len(weights) - 1, -1, -1):
            a_in = x if l == 0 else self.outs[l - 1][:n]
            np.matmul(delta.T, a_in, out=self.grad_w[l])
            np.sum(delta, axis=0, out=self.grad_b[l])
            if l > 0:
                delta = np.matmul(delta, weights[l], out=self.deltas[l - 1][:n])
                _relu_gate(delta, a_in, self.inactive[l - 1][:n])
        return loss


def _relu_gate(delta: np.ndarray, a: np.ndarray, inactive: np.ndarray) -> None:
    """Zero ``delta`` where not (a > 0), in place, as ``np.where(a > 0.0, delta,
    0.0)`` does: a NaN activation zeroes its delta too.  ``inactive`` is a
    bool buffer of the same shape."""
    np.greater(a, 0.0, out=inactive)
    np.logical_not(inactive, out=inactive)
    np.copyto(delta, 0.0, where=inactive)


def forward(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Class probabilities for each row of ``batch``; rows sum to 1.

    A uint8 batch is read as pixel / 255, anything else as float64.
    """
    batch = _check_rows(model, batch)
    ws = _Workspace(model.weights, batch.shape[0])
    return ws.forward(model.weights, model.biases, ws.convert(batch))


def per_sample_losses(model: ModelParams, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample against its label."""
    batch = _check_rows(model, batch)
    labels = _check_labels(model, labels, batch.shape[0])
    ws = _Workspace(model.weights, batch.shape[0])
    ws.forward(model.weights, model.biases, ws.convert(batch))
    return ws.cross_entropy(labels, np.empty(batch.shape[0]))


def loss_and_grad(
    model: ModelParams, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy and its exact gradient via backpropagation."""
    batch = _check_rows(model, batch)
    labels = _check_labels(model, labels, batch.shape[0])
    if batch.shape[0] == 0:
        raise ValueError("batch is empty")
    ws = _Workspace(model.weights, batch.shape[0], train=True)
    x = ws.convert(batch)
    ws.forward(model.weights, model.biases, x)
    loss = ws.backward(model.weights, x, labels)
    return loss, ModelParams(weights=tuple(ws.grad_w), biases=tuple(ws.grad_b))


def sgd_step(model: ModelParams, grad: ModelParams, learning_rate: float) -> ModelParams:
    return ModelParams(
        weights=tuple(w - learning_rate * g for w, g in zip(model.weights, grad.weights)),
        biases=tuple(b - learning_rate * g for b, g in zip(model.biases, grad.biases)),
    )


def client_update(
    model: ModelParams,
    images: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Local refinement: per epoch, shuffle, split into batches of B, SGD each.

    Each batch's rows are gathered into one batch buffer, uint8 ``images``
    read as pixel / 255 there.  The last short batch is trained on rather
    than dropped.  The input model is never touched; the updated copy is
    returned.  A step whose loss is not finite, or a final model that is not,
    raises FloatingPointError naming the epoch (from 1), the batch's start
    offset and the last finite loss.
    """
    images = _check_rows(model, images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("client data is empty")
    labels = _check_labels(model, labels, n)
    if images.dtype != np.uint8:
        images = images.astype(np.float64, copy=False)

    # One private copy, stepped in place: ``g *= lr; p -= g`` rounds exactly
    # as ``p - lr * g`` does.
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    ws = _Workspace(weights, min(n, config.batch_size), train=True)
    steps = list(zip(weights + biases, ws.grad_w + ws.grad_b))
    last_loss = None
    for epoch in range(1, config.local_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            index = order[start : start + config.batch_size]
            x = ws.gather(images, index)
            ys = np.take(labels, index, out=ws.labels[: len(index)], mode="clip")
            ws.forward(weights, biases, x)
            loss = ws.backward(weights, x, ys)
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"loss {loss} at epoch {epoch}, batch start {start} "
                    f"(last finite loss {last_loss!r})"
                )
            last_loss = loss
            for p, g in steps:
                g *= config.learning_rate
                p -= g
    # Free the buffers before ModelParams checks the result, so the call's
    # peak is the training loop's.
    del ws, steps
    try:
        return ModelParams(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise FloatingPointError(
            f"{exc} after the step at epoch {epoch}, batch start {start} "
            f"(last finite loss {last_loss!r})"
        ) from exc


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


def save_model(model: ModelParams, path) -> None:
    """Checkpoint: count-prefixed <i32 widths, then per layer row-major <f8 W, then b."""
    arch = model.architecture
    with open(path, "wb") as f:
        f.write(struct.pack("<i", len(arch)))
        f.write(struct.pack(f"<{len(arch)}i", *arch))
        for w, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path) -> ModelParams:
    """Read a save_model checkpoint; a malformed one raises ValueError naming ``path``."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4:
        raise ValueError(f"{path}: truncated header")
    (n_widths,) = struct.unpack_from("<i", data)
    if n_widths < 2:
        raise ValueError(f"{path}: invalid width count {n_widths}")
    offset = 4 + 4 * n_widths
    if len(data) < offset:
        raise ValueError(
            f"{path}: truncated header: {n_widths} widths need {offset} bytes, "
            f"file has {len(data)}"
        )
    arch = list(struct.unpack_from(f"<{n_widths}i", data, 4))
    if min(arch) < 1:
        raise ValueError(f"{path}: layer widths must be positive, got {arch}")
    layers = list(zip(arch[:-1], arch[1:]))
    expected = offset + 8 * sum(fan_out * (fan_in + 1) for fan_in, fan_out in layers)
    if len(data) < expected:
        raise ValueError(
            f"{path}: truncated layer payload: architecture {arch} needs "
            f"{expected} bytes, file has {len(data)}"
        )
    if len(data) > expected:
        raise ValueError(
            f"{path}: {len(data) - expected} trailing bytes after the last layer "
            f"of architecture {arch}"
        )
    weights = []
    biases = []
    for fan_in, fan_out in layers:
        w = np.frombuffer(data, dtype="<f8", count=fan_out * fan_in, offset=offset)
        offset += w.nbytes
        b = np.frombuffer(data, dtype="<f8", count=fan_out, offset=offset)
        offset += b.nbytes
        weights.append(w.reshape(fan_out, fan_in).astype(np.float64))
        biases.append(b.astype(np.float64))
    try:
        return ModelParams(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
