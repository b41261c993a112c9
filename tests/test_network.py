import math
import tracemalloc

import numpy as np
import pytest

from catfed import DataConsistencyError, LabeledDataset, evaluate, init_model, loss_and_grad
from catfed.network import (
    COHORT,
    EVAL_CHUNK_ROWS,
    PROB_FLOOR,
    Diverged,
    EvalReport,
    ModelParams,
    TrainConfig,
    _cohorts,
    _relu_gate,
    _Workspace,
    client_update,
    train_clients,
)


# The network runs in preallocated buffers; these are the plain expressions
# it must reproduce bit for bit.
def reference_activations(weights, biases, x):
    activations = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        if l == last:
            shifted = z - z.max(axis=1, keepdims=True)
            exps = np.exp(shifted)
            a = exps / exps.sum(axis=1, keepdims=True)
        else:
            a = np.maximum(z, 0.0)
        activations.append(a)
    return activations


def reference_cross_entropy(probs, labels):
    picked = probs[np.arange(len(labels)), labels]
    return -np.log(np.maximum(picked, PROB_FLOOR))


def reference_loss_and_grad(weights, biases, x, labels):
    n = x.shape[0]
    activations = reference_activations(weights, biases, x)
    probs = activations[-1]
    loss = float(reference_cross_entropy(probs, labels).mean())
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w = [None] * len(weights)
    grad_b = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grad_w[l] = delta.T @ activations[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = np.where(activations[l] > 0.0, delta @ weights[l], 0.0)
    return loss, grad_w, grad_b


def fd_gradient(model, batch, labels, h=1e-4):
    """Central finite differences over every parameter; the gradient oracle."""

    def loss_at(weights, biases):
        m = ModelParams(
            weights=tuple(w.copy() for w in weights),
            biases=tuple(b.copy() for b in biases),
        )
        return loss_and_grad(m, batch, labels)[0]

    grads_w, grads_b = [], []
    for l in range(len(model.weights)):
        gw = np.zeros_like(model.weights[l])
        for idx in np.ndindex(*model.weights[l].shape):
            plus = [w.copy() for w in model.weights]
            minus = [w.copy() for w in model.weights]
            plus[l][idx] += h
            minus[l][idx] -= h
            gw[idx] = (
                loss_at(plus, model.biases) - loss_at(minus, model.biases)
            ) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(model.biases[l])
        for i in range(model.biases[l].size):
            plus = [b.copy() for b in model.biases]
            minus = [b.copy() for b in model.biases]
            plus[l][i] += h
            minus[l][i] -= h
            gb[i] = (
                loss_at(model.weights, plus) - loss_at(model.weights, minus)
            ) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestInit:
    def test_bounds_and_zero_biases(self):
        model = init_model([5, 8, 3], np.random.default_rng(0))
        for w, fan_in in zip(model.weights, [5, 8]):
            assert np.all(np.abs(w) <= math.sqrt(6.0 / fan_in))
        for b in model.biases:
            assert np.all(b == 0.0)
        assert [w.shape for w in model.weights] == [(8, 5), (3, 8)]
        assert model.num_classes == 3

    def test_deterministic_given_stream(self):
        a = init_model([4, 4, 2], np.random.default_rng(9))
        b = init_model([4, 4, 2], np.random.default_rng(9))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_bad_architecture_rejected(self):
        with pytest.raises(ValueError):
            init_model([5], np.random.default_rng(0))
        with pytest.raises(ValueError):
            init_model([5, 0, 2], np.random.default_rng(0))

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError, match="layer 0: non-finite parameters"):
            ModelParams(weights=(np.array([[math.inf]]),), biases=(np.zeros(1),))


class TestForward:
    def test_hand_computed_two_layer(self):
        # x=[1,-2] -> ReLU gives [1,0]; output logits [1.5,-1.5].
        model = ModelParams(
            weights=(np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]])),
            biases=(np.zeros(2), np.array([0.5, -0.5])),
        )
        expected_p0 = math.exp(1.5) / (math.exp(1.5) + math.exp(-1.5))
        report = evaluate(model, np.array([[1.0, -2.0]]), np.array([0]))
        assert report.accuracy == 1.0
        assert report.total_loss == pytest.approx(-math.log(expected_p0), rel=1e-12)

        loss, _ = loss_and_grad(model, np.array([[1.0, -2.0]]), np.array([0]))
        assert loss == pytest.approx(-math.log(expected_p0), rel=1e-12)

    def test_extreme_logits_stay_finite(self):
        model = ModelParams(
            weights=(np.array([[1000.0], [-1000.0]]),),
            biases=(np.zeros(2),),
        )
        x = np.array([[1.0], [-1.0]])
        report = evaluate(model, x, np.array([1, 1]))
        assert math.isfinite(report.total_loss) and report.accuracy == 0.5
        loss, grad = loss_and_grad(model, x, np.array([1, 1]))
        assert math.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grad.weights + grad.biases)


class TestLossAndGrad:
    def test_zero_weight_model_gives_log_c(self):
        for c in (2, 5, 10):
            model = ModelParams(
                weights=(np.zeros((c, 4)),), biases=(np.zeros(c),)
            )
            loss, _ = loss_and_grad(
                model, np.random.default_rng(0).standard_normal((7, 4)),
                np.zeros(7, dtype=int),
            )
            assert loss == pytest.approx(math.log(c), rel=1e-12)

    def test_duplicated_batch_changes_nothing(self):
        rng = np.random.default_rng(5)
        model = init_model([4, 6, 3], rng)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        loss1, grad1 = loss_and_grad(model, x, y)
        loss2, grad2 = loss_and_grad(
            model, np.vstack([x, x]), np.concatenate([y, y])
        )
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for g1, g2 in zip(grad1.weights, grad2.weights):
            assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences_on_toy_network(self):
        rng = np.random.default_rng(12)
        model = init_model([6, 4, 3], rng)
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 3, 5)
        _, grad = loss_and_grad(model, x, y)
        fw, fb = fd_gradient(model, x, y)
        assert max_relative_error(grad.weights, fw) <= 1e-4
        assert max_relative_error(grad.biases, fb) <= 1e-4

    def test_empty_batch_rejected(self):
        model = init_model([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            loss_and_grad(model, np.empty((0, 3)), np.empty(0, dtype=int))

    def test_label_out_of_range_rejected(self):
        model = init_model([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"category 2 out of range \[0, 2\)"):
            loss_and_grad(model, np.zeros((1, 3)), np.array([2]))


class TestSgdAndClientUpdate:
    def test_nan_learning_rate_rejected(self):
        for bad in ("nan", "inf"):
            with pytest.raises(
                ValueError, match=f"learning_rate must be a finite number >= 0, got {bad}"
            ):
                TrainConfig(learning_rate=float(bad))

    def test_client_update_matches_manual_loop(self):
        # A short last batch over two epochs, batches that divide the rows,
        # one batch larger than the client, and uint8 pixel rows.
        cases = [(11, 4, 2, False), (12, 4, 1, False), (5, 8, 2, False), (19, 6, 2, True)]
        for rows, batch_size, epochs, pixels in cases:
            rng = np.random.default_rng(8)
            model = init_model([5, 4, 3], rng)
            if pixels:
                x = rng.integers(0, 256, (rows, 5), dtype=np.uint8)
            else:
                x = rng.standard_normal((rows, 5))
            y = rng.integers(0, 3, rows)
            cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=epochs)

            got = client_update(model, x, y, cfg, np.random.default_rng(77))

            reference = [w.copy() for w in model.weights], [b.copy() for b in model.biases]
            xf = x / 255.0 if pixels else x
            loop_rng = np.random.default_rng(77)
            for _ in range(cfg.local_epochs):
                order = loop_rng.permutation(rows)
                for start in range(0, rows, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    _, gw, gb = reference_loss_and_grad(*reference, xf[idx], y[idx])
                    reference = (
                        [w - cfg.learning_rate * g for w, g in zip(reference[0], gw)],
                        [b - cfg.learning_rate * g for b, g in zip(reference[1], gb)],
                    )

            for a, b in zip(got.weights + got.biases, reference[0] + reference[1]):
                assert a.tobytes() == b.tobytes()

    def test_input_model_untouched(self):
        rng = np.random.default_rng(2)
        model = init_model([4, 3], rng)
        before = [w.copy() for w in model.weights]
        client_update(
            model,
            rng.standard_normal((6, 4)),
            rng.integers(0, 3, 6),
            TrainConfig(),
            np.random.default_rng(0),
        )
        for w, orig in zip(model.weights, before):
            assert np.array_equal(w, orig)

    def test_update_order_independent(self):
        rng = np.random.default_rng(4)
        model = init_model([4, 3], rng)
        xa, ya = rng.standard_normal((8, 4)), rng.integers(0, 3, 8)
        xb, yb = rng.standard_normal((8, 4)), rng.integers(0, 3, 8)

        a_first = client_update(model, xa, ya, TrainConfig(), np.random.default_rng(1))
        b_then = client_update(model, xb, yb, TrainConfig(), np.random.default_rng(2))

        b_first = client_update(model, xb, yb, TrainConfig(), np.random.default_rng(2))
        a_then = client_update(model, xa, ya, TrainConfig(), np.random.default_rng(1))

        for u, v in zip(a_first.weights, a_then.weights):
            assert np.array_equal(u, v)
        for u, v in zip(b_then.weights, b_first.weights):
            assert np.array_equal(u, v)

    def test_empty_client_data_rejected(self):
        model = init_model([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            client_update(
                model, np.empty((0, 3)), np.empty(0, dtype=int),
                TrainConfig(), np.random.default_rng(0),
            )


class TestDivergence:
    def test_non_finite_loss_names_epoch_batch_and_last_finite_loss(self):
        rng = np.random.default_rng(3)
        model = init_model([5, 4, 3], rng)
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, 12)
        cfg = TrainConfig(learning_rate=1e300, batch_size=4)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
            client_update(model, x, y, cfg, np.random.default_rng(0))
        message = str(info.value)
        assert "epoch 1, batch start 4" in message
        first = np.random.default_rng(0).permutation(12)[:4]
        first_loss, _ = loss_and_grad(model, x[first], y[first])
        assert f"last finite loss {first_loss!r}" in message

    def test_non_finite_weights_after_the_last_step_are_named(self):
        # One batch, a finite loss, then an update that overflows.
        rng = np.random.default_rng(4)
        model = init_model([5, 3], rng)
        x = 1e3 * rng.standard_normal((4, 5))
        y = np.array([0, 1, 2, 0])
        cfg = TrainConfig(learning_rate=1e308, batch_size=4)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite parameters after the step at "
            r"epoch 1, batch start 0 \(last finite loss [0-9.e+-]+\)"
        ):
            client_update(model, x, y, cfg, np.random.default_rng(0))


class TestEvaluate:
    # Under one chunk, exactly one, one row past it, and a ragged last chunk.
    @pytest.mark.parametrize(
        "rows", [1, EVAL_CHUNK_ROWS - 1, EVAL_CHUNK_ROWS, EVAL_CHUNK_ROWS + 1, 1100]
    )
    def test_chunked_equals_one_pass_forward_reference_exactly(self, rows):
        rng = np.random.default_rng(9)
        model = init_model([6, 7, 5], rng)
        x = rng.standard_normal((rows, 6))
        y = rng.integers(0, 4, rows)  # category 4 absent
        report = evaluate(model, x, y)

        probs = reference_activations(model.weights, model.biases, x)[-1]
        losses = reference_cross_entropy(probs, y)
        predictions = np.argmax(probs, axis=1)
        assert report.accuracy == float(np.mean(predictions == y))
        present = [int(c) for c in np.unique(y)]
        expected = {
            c: (float(losses[y == c].sum()), int((y == c).sum())) for c in present
        }
        assert report.per_category_loss == expected
        summed = 0.0
        for c in present:
            summed += expected[c][0]
        assert report.summed_loss == summed
        assert report.total_loss == summed / rows
        assert report.num_samples == rows

    def test_per_category_sums_reproduce_total_exactly(self):
        rng = np.random.default_rng(6)
        model = init_model([5, 8, 4], rng)
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 4, 40)
        report = evaluate(model, x, y)
        resummed = 0.0
        for c in sorted(report.per_category_loss):
            resummed += report.per_category_loss[c][0]
        assert resummed == report.summed_loss
        assert report.total_loss == pytest.approx(report.summed_loss / 40, rel=1e-15)
        counts = sum(n for _, n in report.per_category_loss.values())
        assert counts == report.num_samples == 40

    def test_label_count_mismatch_rejected(self):
        # One label would otherwise broadcast over every row's loss.
        model = init_model([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="5 images vs 1 labels"):
            evaluate(model, np.zeros((5, 3)), np.array([1]))

    def test_absent_category_has_no_entry(self):
        rng = np.random.default_rng(7)
        model = init_model([3, 4], rng)
        report = evaluate(model, rng.standard_normal((10, 3)), np.zeros(10, dtype=int))
        assert set(report.per_category_loss) == {0}

    def test_accuracy_of_forced_predictions(self):
        # Bias strongly toward class 1 regardless of input.
        model = ModelParams(
            weights=(np.zeros((3, 2)),),
            biases=(np.array([0.0, 50.0, 0.0]),),
        )
        x = np.zeros((4, 2))
        report = evaluate(model, x, np.array([1, 1, 0, 2]))
        assert report.accuracy == pytest.approx(0.5)


def _trained_alone(model, images, labels, members, cfg, seeds):
    """Each member's ``client_update`` on its own rows, as parameter lists."""
    out = []
    for index, seed in zip(members, seeds):
        update = client_update(model, images[index], labels[index], cfg,
                               np.random.default_rng(seed))
        out.append(list(update.weights + update.biases))
    return out


def _trained_in_cohorts(model, images, labels, members, cfg, seeds, overwrite=False):
    """``train_clients`` over all members, each update copied as it comes;
    with ``overwrite``, the arrays handed over are then filled with NaN."""
    out = []

    def take(i, weights, biases):
        assert i == len(out)
        out.append([a.copy() for a in weights + biases])
        for a in weights + biases if overwrite else ():
            a.fill(np.nan)

    train_clients(model, images, labels, members, cfg,
                  [np.random.default_rng(seed) for seed in seeds], take)
    return out


class TestCohorts:
    def test_runs_of_equal_sizes_up_to_cohort(self):
        sizes = [5] * (COHORT + 1) + [3, 3, 5]
        assert _cohorts(sizes) == [
            (0, COHORT), (COHORT, COHORT + 1), (COHORT + 1, COHORT + 3),
            (COHORT + 3, COHORT + 4),
        ]
        assert _cohorts([7]) == [(0, 1)]

    @pytest.mark.parametrize("pixels", [False, True])
    @pytest.mark.parametrize(
        "sizes, batch_size, epochs",
        [([10] * g, 4, 2) for g in range(1, COHORT + 2)]  # short last batch
        + [
            ([8] * COHORT, 4, 1),  # batches that divide the rows
            ([10, 10, 7, 7, 7, 10, 3, 3], 4, 2),  # a new size starts a new cohort
            ([5, 5, 5], 8, 1),  # one batch larger than the client
        ],
    )
    def test_each_member_gets_the_bits_it_gets_alone(self, sizes, batch_size, epochs, pixels):
        rng = np.random.default_rng(len(sizes) + batch_size)
        model = init_model([12, 8, 6, 3], rng)
        total = sum(sizes) + 9  # rows no member trains on
        if pixels:
            x = rng.integers(0, 256, (total, 12), dtype=np.uint8)
        else:
            x = rng.standard_normal((total, 12))
        y = rng.integers(0, 3, total)
        rows = rng.permutation(total)
        members = np.split(rows, np.cumsum(sizes))[: len(sizes)]
        cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=epochs)
        seeds = [100 + i for i in range(len(sizes))]

        got = _trained_in_cohorts(model, x, y, members, cfg, seeds)
        want = _trained_alone(model, x, y, members, cfg, seeds)
        assert len(got) == len(want) == len(sizes)
        for g_params, w_params in zip(got, want):
            for a, b in zip(g_params, w_params):
                assert a.tobytes() == b.tobytes()

    def test_mnist_shaped_cohort_matches_members_alone(self):
        rng = np.random.default_rng(40)
        model = init_model([784, 100, 100, 10], rng)
        x = rng.integers(0, 256, (400, 784), dtype=np.uint8)
        y = rng.integers(0, 10, 400)
        members = list(rng.permutation(400)[:360].reshape(COHORT + 2, -1)[:, :60])
        cfg = TrainConfig(batch_size=32)
        seeds = list(range(len(members)))
        got = _trained_in_cohorts(model, x, y, members, cfg, seeds)
        want = _trained_alone(model, x, y, members, cfg, seeds)
        for g_params, w_params in zip(got, want):
            for a, b in zip(g_params, w_params):
                assert a.tobytes() == b.tobytes()

    def test_take_may_overwrite_what_it_is_given(self):
        # After ``take`` is handed a member's arrays, no update and no
        # finiteness check reads them again: each copy is still exact.
        sizes = [10] * (COHORT + 1) + [7, 7, 10]
        rng = np.random.default_rng(42)
        model = init_model([12, 8, 3], rng)
        x = rng.integers(0, 256, (sum(sizes), 12), dtype=np.uint8)
        y = rng.integers(0, 3, sum(sizes))
        members = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes))[: len(sizes)]
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, local_epochs=2)
        seeds = [200 + i for i in range(len(sizes))]
        got = _trained_in_cohorts(model, x, y, members, cfg, seeds, overwrite=True)
        want = _trained_alone(model, x, y, members, cfg, seeds)
        assert len(got) == len(want) == len(sizes)
        for g_params, w_params in zip(got, want):
            for a, b in zip(g_params, w_params):
                assert a.tobytes() == b.tobytes()

    def test_model_and_rows_are_not_written(self):
        rng = np.random.default_rng(41)
        model = init_model([6, 4, 3], rng)
        x = rng.standard_normal((24, 6))
        y = rng.integers(0, 3, 24)
        before = [a.copy() for a in model.weights + model.biases] + [x.copy(), y.copy()]
        train_clients(model, x, y, [np.arange(12), np.arange(12, 24)], TrainConfig(),
                      [np.random.default_rng(0), np.random.default_rng(1)], lambda *_: None)
        for a, b in zip(model.weights + model.biases + (x, y), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.array([0, 24]), np.array([-1, 3]), np.array([], dtype=int)])
    def test_bad_member_rows_rejected(self, bad):
        model = init_model([6, 3], np.random.default_rng(0))
        x = np.zeros((24, 6))
        y = np.zeros(24, dtype=int)
        with pytest.raises(ValueError, match="row indices|empty"):
            train_clients(model, x, y, [np.arange(4), bad], TrainConfig(),
                          [np.random.default_rng(0)] * 2, lambda *_: None)

    def test_lower_member_diverging_later_is_named_first(self):
        # Member 1's rows are infinite, so alone it
        # diverges at batch start 0; member 0 diverges a step later under a
        # huge learning rate.  A one-at-a-time run names member 0 first.
        rng = np.random.default_rng(3)
        model = init_model([5, 4, 3], rng)
        x = rng.standard_normal((24, 5))
        x[12:] = np.inf
        y = rng.integers(0, 3, 24)
        members = [np.arange(12), np.arange(12, 24)]
        cfg = TrainConfig(learning_rate=1e300, batch_size=4)
        alone = []
        with np.errstate(all="ignore"):
            for i, index in enumerate(members):
                with pytest.raises(FloatingPointError) as info:
                    client_update(model, x[index], y[index], cfg, np.random.default_rng(i))
                alone.append(str(info.value))
            assert "batch start 0 " in alone[1] and "batch start 0 " not in alone[0]
            taken = []
            with pytest.raises(Diverged) as info:
                train_clients(model, x, y, members, cfg,
                              [np.random.default_rng(0), np.random.default_rng(1)],
                              lambda i, *_: taken.append(i))
        assert info.value.member == 0
        assert str(info.value) == alone[0]
        assert taken == []

    def test_members_before_the_diverging_one_are_taken(self):
        rng = np.random.default_rng(5)
        model = init_model([5, 4, 3], rng)
        x = rng.standard_normal((36, 5))
        x[24:] = np.inf
        y = rng.integers(0, 3, 36)
        members = [np.arange(0, 12), np.arange(12, 24), np.arange(24, 36)]
        taken = []
        with np.errstate(all="ignore"), pytest.raises(Diverged) as info:
            train_clients(model, x, y, members, TrainConfig(batch_size=4),
                          [np.random.default_rng(i) for i in range(3)],
                          lambda i, *_: taken.append(i))
        assert info.value.member == 2 and taken == [0, 1]
        assert "epoch 1, batch start 0 (last finite loss None)" in str(info.value)


class TestUint8Rows:
    """uint8 rows are IDX pixels: every entry point reads them as pixel / 255."""

    @pytest.fixture
    def pixels(self):
        rng = np.random.default_rng(12)
        return rng.integers(0, 256, size=(70, 20), dtype=np.uint8), rng.integers(0, 5, 70)

    @pytest.fixture
    def model(self):
        return init_model([20, 8, 5], np.random.default_rng(13))

    def test_evaluate(self, model, pixels):
        x, y = pixels
        assert evaluate(model, x, y) == evaluate(model, x / 255.0, y)

    def test_client_update(self, model, pixels):
        x, y = pixels
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, local_epochs=2)
        got = client_update(model, x, y, cfg, np.random.default_rng(5))
        want = client_update(model, x / 255.0, y, cfg, np.random.default_rng(5))
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "labels, dtype",
    [(np.array([1.7, 0.2]), "float64"), (np.array([True, False]), "bool")],
    ids=["float", "bool"],
)
@pytest.mark.parametrize("entry", ["evaluate", "loss_and_grad", "train_clients"])
def test_non_integer_labels_refused(entry, labels, dtype):
    # Truncating 1.7 to 1, or reading True as 1, would train on labels the
    # caller never gave.
    model = init_model([3, 2], np.random.default_rng(0))
    x = np.zeros((2, 3))
    calls = {
        "evaluate": lambda: evaluate(model, x, labels),
        "loss_and_grad": lambda: loss_and_grad(model, x, labels),
        "train_clients": lambda: train_clients(
            model, x, labels, [np.arange(2)], TrainConfig(),
            [np.random.default_rng(0)], lambda *_: None,
        ),
    }
    with pytest.raises(ValueError, match=f"labels must be integers, got dtype {dtype}"):
        calls[entry]()


@pytest.mark.parametrize("dtype", ["float32", "int64"])
@pytest.mark.parametrize("entry", ["evaluate", "loss_and_grad", "train_clients", "client_update"])
def test_rows_in_neither_encoding_refused(entry, dtype):
    # Rows are uint8 pixels or float64 features; any other dtype would need a
    # float64 copy of the whole array, so it is refused by name instead.
    model = init_model([3, 2], np.random.default_rng(0))
    x = np.zeros((2, 3), dtype=dtype)
    labels = np.array([0, 1])
    calls = {
        "evaluate": lambda: evaluate(model, x, labels),
        "loss_and_grad": lambda: loss_and_grad(model, x, labels),
        "train_clients": lambda: train_clients(
            model, x, labels, [np.arange(2)], TrainConfig(),
            [np.random.default_rng(0)], lambda *_: None,
        ),
        "client_update": lambda: client_update(
            model, x, labels, TrainConfig(), np.random.default_rng(0)
        ),
    }
    message = f"rows must be uint8 pixels or float64 features, got dtype {dtype}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        calls[entry]()


@pytest.mark.parametrize("dtype", ["float32", "int64"])
def test_labeled_dataset_refuses_rows_in_neither_encoding(dtype):
    # Refused where the dataset is built, naming it, not in every later round.
    message = f"toy: images must be uint8 pixels or float64 features, got dtype {dtype}"
    with pytest.raises(DataConsistencyError, match=f"^{message}$"):
        LabeledDataset(np.zeros((2, 3), dtype=dtype), np.array([0, 1]), 2, "toy")


def test_relu_gate_matches_np_where_including_nan():
    a = np.array([[np.nan, -1.0, 0.0, -0.0, 2.0, np.inf]])
    delta = np.array([[3.0, -4.0, 5.0, 6.0, -7.0, 8.0]])
    expected = np.where(a > 0.0, delta, 0.0)
    _relu_gate(delta, a, np.empty(a.shape, dtype=bool))
    assert delta.tobytes() == expected.tobytes()
    assert delta.tolist() == [[0.0, 0.0, 0.0, 0.0, -7.0, 8.0]]


def test_forward_and_loss_and_grad_match_plain_expressions_bitwise():
    rng = np.random.default_rng(21)
    model = init_model([9, 7, 6, 4], rng)
    for x in (rng.standard_normal((13, 9)), rng.integers(0, 256, (13, 9), dtype=np.uint8)):
        y = rng.integers(0, 4, 13)
        xf = x / 255.0 if x.dtype == np.uint8 else x
        probs = reference_activations(model.weights, model.biases, xf)[-1]
        report = evaluate(model, x, y)
        assert report.accuracy == float(np.mean(np.argmax(probs, axis=1) == y))
        losses = reference_cross_entropy(probs, y)
        assert report.per_category_loss == {
            c: (float(losses[y == c].sum()), int((y == c).sum())) for c in set(y.tolist())
        }
        loss, grad = loss_and_grad(model, x, y)
        want_loss, want_w, want_b = reference_loss_and_grad(
            model.weights, model.biases, xf, y
        )
        assert loss == want_loss
        for got, want in zip(grad.weights + grad.biases, want_w + want_b):
            assert got.tobytes() == want.tobytes()


def _buffer_bytes(ws: _Workspace) -> int:
    arrays = [v for value in vars(ws).values() for v in (value if isinstance(value, list) else [value])]
    return sum(a.nbytes for a in arrays)


def _traced_peak(call) -> int:
    """Peak traced bytes above what was allocated before ``call``."""
    call()  # warm caches and lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Python objects (views, scalars) only: a third of one batch's hidden
# activations, 32 x 100 float64 values.
LOOP_SLACK = 8 * 1024


def test_client_update_allocates_nothing_per_batch():
    # 40 batches over two epochs: the peak is the workspace, the private
    # copy of the model and per-row index arrays (labels as intp, the
    # client's row indices and the epoch's shuffled copy of them); no batch
    # allocates on top of that.
    rng = np.random.default_rng(30)
    model = init_model([784, 100, 100, 10], rng)
    n = 640
    x = rng.integers(0, 256, (n, 784), dtype=np.uint8)
    y = rng.integers(0, 10, n)
    cfg = TrainConfig(batch_size=32, local_epochs=2)
    peak = _traced_peak(lambda: client_update(model, x, y, cfg, np.random.default_rng(0)))

    held = (
        _buffer_bytes(_Workspace(model.weights, cfg.batch_size, train=True))
        + sum(a.nbytes for a in model.weights + model.biases)
        + 3 * 8 * n
    )
    assert peak <= held + LOOP_SLACK


def test_evaluate_allocates_nothing_per_chunk():
    # Five chunks: the peak is the workspace plus per-row arrays (losses,
    # predictions, labels as intp, then one bool mask and the losses it
    # selects); no chunk allocates on top of that.
    rng = np.random.default_rng(31)
    model = init_model([784, 100, 100, 10], rng)
    n = 4 * EVAL_CHUNK_ROWS + 100
    x = rng.integers(0, 256, (n, 784), dtype=np.uint8)
    y = rng.integers(0, 10, n)
    peak = _traced_peak(lambda: evaluate(model, x, y))

    held = _buffer_bytes(_Workspace(model.weights, EVAL_CHUNK_ROWS)) + (3 * 8 + 1 + 8) * n
    assert peak <= held + LOOP_SLACK


def test_cohort_training_allocates_nothing_per_batch():
    # A full cohort, 40 batches over two epochs: the peak is the workspace,
    # the cohort's private models and per-row index arrays (the split's
    # labels as intp and the members' shuffled rows); no batch allocates on
    # top of that.  The slack is LOOP_SLACK per member, still a third of one
    # cohort batch's hidden activations.
    rng = np.random.default_rng(32)
    model = init_model([784, 100, 100, 10], rng)
    n = 640
    x = rng.integers(0, 256, (COHORT * n, 784), dtype=np.uint8)
    y = rng.integers(0, 10, COHORT * n)
    members = [np.arange(i * n, (i + 1) * n) for i in range(COHORT)]
    cfg = TrainConfig(batch_size=32, local_epochs=2)
    peak = _traced_peak(lambda: train_clients(
        model, x, y, members, cfg,
        [np.random.default_rng(i) for i in range(COHORT)], lambda *_: None,
    ))

    held = (
        _buffer_bytes(_Workspace(model.weights, cfg.batch_size, COHORT, train=True))
        + COHORT * sum(a.nbytes for a in model.weights + model.biases)
        + 8 * len(y)
        + 8 * COHORT * n
    )
    assert peak <= held + COHORT * LOOP_SLACK


def test_training_reads_intp_labels_in_place():
    # A round trains a few clients against the whole split: the split's
    # labels, already intp, are read where they are, not copied per call.
    rng = np.random.default_rng(33)
    model = init_model([4, 3, 10], rng)
    n = 60_000
    x = rng.integers(0, 256, (n, 4), dtype=np.uint8)
    y = rng.integers(0, 10, n).astype(np.intp)
    members = [np.arange(32), np.arange(32, 64)]
    cfg = TrainConfig(batch_size=8)
    peak = _traced_peak(lambda: train_clients(
        model, x, y, members, cfg,
        [np.random.default_rng(i) for i in range(2)], lambda *_: None,
    ))
    assert peak < y.nbytes // 8


def test_eval_report_is_plain_data():
    r = EvalReport(accuracy=0.5, total_loss=1.0, summed_loss=2.0, num_samples=2)
    assert r.accuracy == 0.5 and r.per_category_loss == {}
