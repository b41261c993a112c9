import numpy as np
import pytest

from catfed import (
    CostLedger,
    CostModel,
    DistributionSpec,
    ExperimentConfig,
    check_loss_decomposition,
    cumulative_cost,
    evaluate,
    generate_partition,
    init_model,
    run_experiment,
)
from catfed.cli import records_to_csv
from catfed.costs import round_cost
from catfed.network import EvalReport
from conftest import make_pair


class TestCostModel:
    def test_single_round(self):
        model = CostModel(client_cost=1.0, server_cost=0.0)
        assert round_cost(model, 10) == 10.0
        assert round_cost(CostModel(client_cost=2.0, server_cost=5.0), 3) == 11.0

    def test_cumulative_fixed_k_closed_form(self):
        model = CostModel(client_cost=3.0, server_cost=2.0)
        sizes = [7] * 40
        assert cumulative_cost(model, sizes) == 40 * 7 * 3.0 + 40 * 2.0

    def test_cumulative_varying_k(self):
        model = CostModel()
        assert cumulative_cost(model, [1, 2, 3]) == 6.0

    def test_marginal_matches_numeric_derivative(self):
        # Cumulative cost is linear in the client price, so any h is exact.
        sizes = [4, 9, 2, 7]
        h = 0.37
        base = cumulative_cost(CostModel(client_cost=1.0), sizes)
        bumped = cumulative_cost(CostModel(client_cost=1.0 + h), sizes)
        numeric = (bumped - base) / (h * len(sizes))
        # Per round, that slope is the mean number of clients.
        assert numeric == pytest.approx(sum(sizes) / len(sizes), rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(client_cost=-1.0)
        with pytest.raises(ValueError, match="client_cost must be a finite number >= 0"):
            CostModel(client_cost=float("nan"))
        for key in ("client_cost", "server_cost"):
            with pytest.raises(ValueError, match=f"{key} must be a finite number >= 0"):
                CostModel(**{key: float("inf")})
        with pytest.raises(ValueError):
            round_cost(CostModel(), -2)

    def test_numpy_reals_write_the_csv_of_python_floats(self):
        # A numpy cost would reach the CSV's repr as np.float64(6.5).
        model = CostModel(client_cost=np.float64(1.5), server_cost=np.float32(0.5))
        assert (type(model.client_cost), type(model.server_cost)) == (float, float)
        train, test = make_pair(train_samples=300, num_pixels=8)
        spec = DistributionSpec(kind="D1", num_clients=10, samples_per_client=20)
        part = generate_partition(spec, train)

        def csv(client_cost):
            config = ExperimentConfig(strategy="cat_cost", rounds=2, hidden=(4,),
                                      cost=CostModel(client_cost=client_cost))
            return records_to_csv(run_experiment(config, train, part, test).records)

        assert csv(np.float64(1.5)) == csv(1.5)


class TestLedger:
    def test_accumulates(self):
        ledger = CostLedger(CostModel(client_cost=1.0, server_cost=0.5))
        assert ledger.record(10, 6000) == (10.5, 10.5)
        assert ledger.record(3, 1800) == (3.5, 14.0)
        assert ledger.total_data_seen == 7800


def _client_reports(num_clients, num_categories, seed):
    rng = np.random.default_rng(seed)
    model = init_model([6, 5, num_categories], rng)
    reports = []
    for _ in range(num_clients):
        n = int(rng.integers(3, 30))
        x = rng.standard_normal((n, 6))
        y = rng.integers(0, num_categories, n)
        reports.append(evaluate(model, x, y))
    return reports


class TestDecomposition:
    def test_identity_holds_tightly(self):
        for seed in range(5):
            reports = _client_reports(12, 7, seed)
            out = check_loss_decomposition(reports)
            assert out.relative_gap <= 1e-9
            assert out.total_samples == sum(r.num_samples for r in reports)

    def test_weighted_client_view_equals_client_major(self):
        reports = _client_reports(6, 4, 3)
        out = check_loss_decomposition(reports)
        n = out.total_samples
        weighted = sum(
            (r.num_samples / n) * (r.summed_loss / r.num_samples) for r in reports
        )
        assert weighted == pytest.approx(out.client_major, rel=1e-12)

    def test_undefined_categories_flagged(self):
        rng = np.random.default_rng(0)
        model = init_model([4, 6], rng)
        reports = [
            evaluate(model, rng.standard_normal((8, 4)), np.full(8, 2)),
            evaluate(model, rng.standard_normal((5, 4)), np.full(5, 4)),
        ]
        out = check_loss_decomposition(reports)
        assert out.undefined_categories == (0, 1, 3, 5)
        assert out.has_undefined

    def test_all_categories_defined_when_covered(self):
        reports = _client_reports(20, 3, 1)
        out = check_loss_decomposition(reports)
        assert out.undefined_categories == ()

    def test_mixed_widths_rejected(self):
        a = _client_reports(1, 3, 0)[0]
        b = _client_reports(1, 4, 0)[0]
        with pytest.raises(ValueError, match="mixed"):
            check_loss_decomposition([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_loss_decomposition([])

    def test_reports_without_samples_rejected(self):
        empty = EvalReport(accuracy=0.0, total_loss=0.0, summed_loss=0.0, num_categories=3)
        with pytest.raises(ValueError, match="^no samples across the client reports$"):
            check_loss_decomposition([empty, empty])


def test_cost_exactness_small_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rounds = int(rng.integers(1, 50))
        k = int(rng.integers(1, 30))
        cc = int(rng.integers(0, 10))
        cs = int(rng.integers(0, 10))
        model = CostModel(client_cost=float(cc), server_cost=float(cs))
        assert cumulative_cost(model, [k] * rounds) == float(rounds * k * cc + rounds * cs)
