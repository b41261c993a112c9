"""Dense feed-forward classifier trained with plain SGD.

Float64 arithmetic, ReLU hidden layers, softmax output.  Input rows may be
uint8 IDX pixels, read as pixel / 255 at the one conversion site
(``_check_batch``), or any other numeric rows, read as float64.  ModelParams
holds read-only arrays.  client_update steps in place on one private copy of
the weights and wraps it in a fresh ModelParams once at the end; the input
model is never written, which is what lets concurrent client updates share
one global model safely.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12  # clamp before log so empty-probability classes stay finite

# evaluate runs forward on chunks of this many rows, so only one chunk is ever
# held as float64; per-row results are the same bits as one full-size pass.
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


def _check_batch(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """The checked batch as float64; uint8 pixels are read as pixel / 255."""
    batch = _check_rows(model, batch)
    if batch.dtype == np.uint8:
        return batch / 255.0
    return batch.astype(np.float64, copy=False)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _forward_trace(weights, biases, batch: np.ndarray) -> list[np.ndarray]:
    # Returns per-layer inputs (post-activation) and the final probabilities.
    activations = [batch]
    a = batch
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        a = _softmax(z) if l == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations


def forward(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Class probabilities for each row of ``batch``; rows sum to 1.

    A uint8 batch is read as pixel / 255, anything else as float64.
    """
    batch = _check_batch(model, batch)
    return _forward_trace(model.weights, model.biases, batch)[-1]


def _check_labels(model: ModelParams, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= model.num_classes):
        raise ValueError(
            f"labels must be in [0, {model.num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels.astype(np.intp)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    picked = probs[np.arange(len(labels)), labels]
    return -np.log(np.maximum(picked, PROB_FLOOR))


def per_sample_losses(model: ModelParams, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample against its label."""
    batch = _check_batch(model, batch)
    labels = _check_labels(model, labels)
    return _cross_entropy(forward(model, batch), labels)


def _backprop(weights, biases, batch: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of a checked, non-empty batch and its exact gradient.

    Takes and returns per-layer lists of plain arrays: (loss, grad_w, grad_b).
    """
    n = batch.shape[0]
    activations = _forward_trace(weights, biases, batch)
    probs = activations[-1]
    loss = float(_cross_entropy(probs, labels).mean())

    # Output delta of softmax + cross-entropy; hidden deltas gated by ReLU.
    # The probabilities are not needed after the loss, so they become the delta.
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grad_w = [np.empty(0)] * len(weights)
    grad_b = [np.empty(0)] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        a_in = activations[l]
        grad_w[l] = delta.T @ a_in
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ weights[l]
            delta = np.where(activations[l] > 0.0, delta, 0.0)
    return loss, grad_w, grad_b


def loss_and_grad(
    model: ModelParams, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy and its exact gradient via backpropagation."""
    batch = _check_batch(model, batch)
    labels = _check_labels(model, labels)
    if batch.shape[0] == 0:
        raise ValueError("batch is empty")
    loss, grad_w, grad_b = _backprop(model.weights, model.biases, batch, labels)
    return loss, ModelParams(weights=tuple(grad_w), biases=tuple(grad_b))


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

    uint8 ``images`` are read as pixel / 255, converted once for the call.
    The last short batch is trained on rather than dropped.  The input model
    is never touched; the updated copy is returned.  A step whose loss is not
    finite, or a final model that is not, raises FloatingPointError naming
    the epoch (from 1), the batch's start offset and the last finite loss.
    """
    images = _check_batch(model, images)
    if images.shape[0] == 0:
        raise ValueError("client data is empty")
    labels = _check_labels(model, labels)
    if labels.shape[0] != images.shape[0]:
        raise ValueError(f"{images.shape[0]} images vs {labels.shape[0]} labels")

    # One private copy, stepped in place: ``g *= lr; p -= g`` rounds exactly
    # as ``p - lr * g`` does.
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    params = weights + biases
    last_loss = None
    n = images.shape[0]
    for epoch in range(1, config.local_epochs + 1):
        order = rng.permutation(n)
        xs, ys = images[order], labels[order]
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            loss, grad_w, grad_b = _backprop(weights, biases, xs[start:stop], ys[start:stop])
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"loss {loss} at epoch {epoch}, batch start {start} "
                    f"(last finite loss {last_loss!r})"
                )
            last_loss = loss
            for p, g in zip(params, grad_w + grad_b):
                g *= config.learning_rate
                p -= g
    try:
        return ModelParams(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise FloatingPointError(
            f"{exc} after the step at epoch {epoch}, batch start {start} "
            f"(last finite loss {last_loss!r})"
        ) from exc


def evaluate(model: ModelParams, images: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Argmax accuracy plus the per-category loss decomposition.

    Runs ``forward`` on EVAL_CHUNK_ROWS rows at a time, so uint8 ``images``
    (read as pixel / 255) are converted one chunk at a time.
    """
    images = _check_rows(model, images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("evaluation set is empty")
    labels = _check_labels(model, labels)
    if labels.shape[0] != n:
        raise ValueError(f"{n} images vs {labels.shape[0]} labels")
    losses = np.empty(n)
    predictions = np.empty(n, dtype=np.intp)
    for start in range(0, n, EVAL_CHUNK_ROWS):
        stop = start + EVAL_CHUNK_ROWS
        probs = forward(model, images[start:stop])
        losses[start:stop] = _cross_entropy(probs, labels[start:stop])
        predictions[start:stop] = np.argmax(probs, axis=1)
    accuracy = float(np.mean(predictions == labels))

    per_category: dict[int, tuple[float, int]] = {}
    summed = 0.0
    for c in range(model.num_classes):
        mask = labels == c
        count = int(mask.sum())
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
