import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catfed import Mode, SelectionConfig, build_mask, select_cost, select_performance
from catfed import selection
from catfed.selection import CategoryMask, resolve_limit, select_random, trace_selection
from conftest import random_masks


class TestCategoryMask:
    def test_bits_and_categories_round_trip(self):
        m = build_mask([0, 3, 5], 6)
        assert m.bits == 0b101001
        assert m.categories() == (0, 3, 5)
        assert m.popcount() == 3
        assert m.has(3) and not m.has(1)

    def test_full_mask(self):
        assert build_mask(range(4), 4).bits == 0b1111
        assert build_mask([0, 1, 2], 4).popcount() == 3

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            CategoryMask(bits=1 << 4, num_categories=4)
        with pytest.raises(ValueError):
            CategoryMask(bits=-1, num_categories=4)

    def test_build_mask_from_labels(self):
        labels = np.array([1, 1, 4, 2])
        assert build_mask(labels, 5).categories() == (1, 2, 4)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_build_mask_takes_any_integer_dtype(self, dtype):
        labels = np.array([1, 1, 4, 2], dtype=dtype)
        assert build_mask(labels, 5).categories() == (1, 2, 4)

    def test_build_mask_refuses_float_labels(self):
        with pytest.raises(ValueError, match="labels must be integers, got dtype float64"):
            build_mask(np.array([1.7, 3.2]), 10)

    def test_build_mask_of_nothing_is_empty(self):
        assert build_mask(np.array([]), 10) == CategoryMask(0, 10)
        assert build_mask([], 3).categories() == ()

    def test_build_mask_refuses_bools(self):
        with pytest.raises(ValueError, match="labels must be integers, got dtype bool"):
            build_mask([True, False], 2)

    def test_build_mask_takes_any_iterable(self):
        expected = CategoryMask(0b10110, 5)
        assert build_mask({4, 1, 2}, 5) == expected
        assert build_mask((c for c in [2, 4, 1, 2]), 5) == expected
        assert build_mask({1: "a", 2: "b", 4: "c"}.keys(), 5) == expected
        assert build_mask(iter([]), 5) == CategoryMask(0, 5)

    def test_build_mask_names_first_out_of_range_label(self):
        with pytest.raises(ValueError, match=r"^category -1 out of range \[0, 10\)$"):
            build_mask(np.array([3, -1, 12]), 10)
        with pytest.raises(ValueError, match=r"^category 12 out of range \[0, 10\)$"):
            build_mask([3, 12, -1], 10)

    @given(st.integers(1, 20), st.data())
    def test_popcount_matches_category_count(self, width, data):
        bits = data.draw(st.integers(0, 2**width - 1))
        m = CategoryMask(bits=bits, num_categories=width)
        assert m.popcount() == len(m.categories())


class TestLimitResolution:
    def test_mode_a_is_ten(self):
        assert resolve_limit(SelectionConfig(num_categories=47, mode=Mode.A)) == 10

    def test_mode_b_is_category_count(self):
        assert resolve_limit(SelectionConfig(num_categories=47, mode=Mode.B)) == 47

    def test_explicit_limit_wins(self):
        assert resolve_limit(SelectionConfig(num_categories=47, limit=19)) == 19
        with pytest.raises(ValueError, match="^mode has no effect when limit is set$"):
            SelectionConfig(num_categories=47, mode=Mode.A, limit=19)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(num_categories=5, limit=0)

    @pytest.mark.parametrize("limit", [2.5, 3.0, True])
    def test_non_integer_limit_rejected(self, limit):
        with pytest.raises(ValueError, match=f"^limit must be an integer, got {limit!r}$"):
            SelectionConfig(num_categories=5, limit=limit)

    def test_mode_value_is_read_as_the_member(self):
        cfg = SelectionConfig(num_categories=47, mode="A")
        assert cfg.mode is Mode.A
        assert resolve_limit(cfg) == 10
        assert SelectionConfig(num_categories=47, mode="B").mode is Mode.B

    @pytest.mark.parametrize("mode", ["C", "a"])
    def test_unknown_mode_rejected_at_construction(self, mode):
        with pytest.raises(ValueError, match=repr(mode)):
            SelectionConfig(num_categories=5, mode=mode)

    def test_unset_mode_reads_as_b(self):
        cfg = SelectionConfig(num_categories=5, mode=None)
        assert cfg.mode is None
        assert resolve_limit(cfg) == 5


class TestPerformanceStrategy:
    def test_redundant_coverage_tolerated(self):
        # Client 0 already covers category 2; the category is skipped rather
        # than triggering a third pick, and coverage stays full.
        masks = [build_mask([0, 2], 4), build_mask([1, 3], 4), build_mask([0], 4)]
        res = select_performance(masks, SelectionConfig(num_categories=4, limit=4))
        assert res.selected == (0, 1)
        assert res.covered_count() == 4
        assert res.skipped_categories == (2, 3)

    def test_limit_stops_scan(self):
        masks = [build_mask([0], 3), build_mask([1], 3), build_mask([2], 3)]
        res = select_performance(masks, SelectionConfig(num_categories=3, limit=2))
        assert res.selected == (0, 1)

    def test_ties_prefer_lower_client_index(self):
        masks = [build_mask([1], 3), build_mask([1], 3), build_mask([0, 2], 3)]
        res = select_performance(masks, SelectionConfig(num_categories=3, mode=Mode.B))
        # category 0 -> client 2 (largest mask), category 1 -> client 0 over 1
        assert res.selected == (2, 0)

    def test_uncovered_category_skipped(self):
        masks = [build_mask([0], 3), build_mask([2], 3)]
        res = select_performance(masks, SelectionConfig(num_categories=3, mode=Mode.B))
        assert res.selected == (0, 1)
        assert res.skipped_categories == (1,)
        assert res.coverage.categories() == (0, 2)


class TestCostStrategy:
    def test_subset_client_rejected(self):
        masks = [build_mask([0, 1, 2], 4), build_mask([1, 2, 3], 4), build_mask([0], 4)]
        res = select_cost(masks, SelectionConfig(num_categories=4, limit=3))
        assert res.selected == (0, 1)
        assert res.covered_count() == 4

    def test_duplicate_mask_rejected_equal_sets(self):
        masks = [build_mask([0, 1], 3), build_mask([0, 1], 3), build_mask([2], 3)]
        res = select_cost(masks, SelectionConfig(num_categories=3, limit=3))
        assert res.selected == (0, 2)

    def test_stops_at_full_coverage(self):
        masks = [build_mask(range(5), 5)] + [build_mask([i], 5) for i in range(5)]
        res = select_cost(masks, SelectionConfig(num_categories=5, mode=Mode.B))
        assert res.selected == (0,)

    def test_limit_one_takes_largest_mask(self):
        masks = [build_mask([0], 4), build_mask([1, 2, 3], 4), build_mask([0, 1], 4)]
        res = select_cost(masks, SelectionConfig(num_categories=4, limit=1))
        assert res.selected == (1,)
        assert res.covered_count() == masks[1].popcount()


class TestRandomStrategy:
    def test_draws_k_distinct(self):
        masks = [build_mask([i % 4], 4) for i in range(20)]
        res = select_random(masks, 5, np.random.default_rng(0))
        assert len(set(res.selected)) == 5
        assert all(0 <= j < 20 for j in res.selected)
        assert res.coverage.categories() == tuple(sorted({j % 4 for j in res.selected}))

    def test_same_stream_same_draw(self):
        masks = [build_mask([0], 2)] * 30
        a = select_random(masks, 7, np.random.default_rng(42))
        b = select_random(masks, 7, np.random.default_rng(42))
        assert a.selected == b.selected

    def test_coverage_reported(self):
        masks = [build_mask([i % 3], 3) for i in range(9)]
        res = select_random(masks, 9, np.random.default_rng(1))
        assert res.covered_count() == 3

    def test_bad_k_rejected(self):
        masks = [build_mask([0], 2)] * 5
        with pytest.raises(ValueError):
            select_random(masks, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            select_random(masks, 0, np.random.default_rng(0))

    def test_no_masks_rejected(self):
        with pytest.raises(ValueError, match="at least one client mask"):
            select_random([], 1, np.random.default_rng(0))


@st.composite
def mask_instances(draw, max_clients=12, max_categories=8):
    width = draw(st.integers(1, max_categories))
    n = draw(st.integers(1, max_clients))
    bits = draw(st.lists(st.integers(0, 2**width - 1), min_size=n, max_size=n))
    return [CategoryMask(bits=b, num_categories=width) for b in bits]


@settings(max_examples=200, deadline=None)
@given(mask_instances())
def test_cost_picks_strictly_grow_coverage(masks):
    cfg = SelectionConfig(num_categories=masks[0].num_categories, mode=Mode.B)
    res = select_cost(masks, cfg)
    psi = 0
    for j in res.selected:
        assert psi | masks[j].bits != psi
        psi |= masks[j].bits
    assert psi == res.coverage.bits


@settings(max_examples=200, deadline=None)
@given(mask_instances())
def test_both_strategies_cover_union_when_unlimited(masks):
    width = masks[0].num_categories
    union = 0
    for m in masks:
        union |= m.bits
    cfg = SelectionConfig(num_categories=width, limit=max(width, len(masks)))
    assert select_cost(masks, cfg).coverage.bits == union
    assert select_performance(masks, cfg).coverage.bits == union


@settings(max_examples=200, deadline=None)
@given(mask_instances(), st.integers(1, 12))
def test_counts_respect_limit(masks, limit):
    cfg = SelectionConfig(num_categories=masks[0].num_categories, limit=limit)
    for select in (select_performance, select_cost):
        res = select(masks, cfg)
        assert res.count <= limit
        assert res.count <= len(masks)
        assert len(set(res.selected)) == res.count


@settings(max_examples=200, deadline=None)
@given(mask_instances())
def test_cost_never_selects_more_than_performance(masks):
    # Each cost pick strictly grows coverage while the performance scan pays
    # one client per category, so under the same cap cost is never larger.
    width = masks[0].num_categories
    cfg = SelectionConfig(num_categories=width, mode=Mode.B)
    assert select_cost(masks, cfg).count <= select_performance(masks, cfg).count


def test_mixed_mask_widths_rejected():
    masks = [build_mask([0], 4), build_mask([0], 5)]
    cfg = SelectionConfig(num_categories=4)
    for select in (select_performance, select_cost):
        with pytest.raises(ValueError, match="must share num_categories"):
            select(masks, cfg)
    with pytest.raises(ValueError, match="must share num_categories"):
        select_random(masks, 1, np.random.default_rng(0))


def test_selection_is_deterministic():
    rng = np.random.default_rng(7)
    masks = random_masks(rng, 40, 12)
    cfg = SelectionConfig(num_categories=12, mode=Mode.B)
    assert select_performance(masks, cfg) == select_performance(masks, cfg)
    assert select_cost(masks, cfg) == select_cost(masks, cfg)


def test_trace_mentions_each_pick():
    masks = [build_mask([0, 2], 4), build_mask([1, 3], 4), build_mask([0], 4)]
    cfg = SelectionConfig(num_categories=4, limit=4)
    lines = trace_selection(masks, cfg, "cat_performance")
    text = "\n".join(lines)
    assert "select client 0" in text and "select client 1" in text
    assert "covered 4/4" in text
    assert lines[-2] == "skipped categories (no eligible client): [2,3]"
    with pytest.raises(ValueError, match="no trace"):
        trace_selection(masks, cfg, "fedavg_random")


def test_trace_of_cost_keeps_only_growing_picks():
    masks = [build_mask([0, 1], 4), build_mask([0], 4), build_mask([2], 4)]
    lines = trace_selection(masks, SelectionConfig(num_categories=4), "cat_cost")
    assert lines[0] == "strategy=cat_cost num_categories=4 limit=4"
    assert lines[-3:] == [
        "  step 0: select client 0 -> covered [0,1]",
        "  step 1: select client 2 -> covered [0,1,2]",
        "selected 2 clients, covered 3/4 categories",
    ]


def test_trace_refuses_a_width_mismatch_up_front():
    masks = [build_mask([0, 1], 4), build_mask([2], 4)]
    for strategy in ("cat_performance", "cat_cost"):
        with pytest.raises(ValueError, match="mask width 4 != config num_categories 5"):
            trace_selection(masks, SelectionConfig(num_categories=5), strategy)


@pytest.mark.parametrize("strategy", ["cat_performance", "cat_cost"])
def test_trace_ranks_the_masks_once(monkeypatch, strategy):
    calls = []
    ranked_scan = selection._ranked_scan

    def counted(*args):
        calls.append(args)
        return ranked_scan(*args)

    monkeypatch.setattr(selection, "_ranked_scan", counted)
    masks = [build_mask([0, 1], 4), build_mask([0], 4), build_mask([2], 4)]
    trace_selection(masks, SelectionConfig(num_categories=4), strategy)
    assert len(calls) == 1
