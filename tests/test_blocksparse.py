import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satool import blocksparse
from satool.blocksparse import (
    BlockGrid,
    BlockMask,
    BlockScores,
    block_score_values,
    block_scores,
    changed_block_ratio,
    cumulative_prefix_mask,
    mask_iou,
    top_p_mask,
    top_p_select,
)
from satool.errors import ConfigError, DomainError, ShapeMismatch
from satool.surrogate import expand_block_mask


def make_mask(indices, size):
    retained = np.zeros(size, dtype=bool)
    retained[list(indices)] = True
    return BlockMask(retained=retained)


class TestBlockGrid:
    def test_counts(self):
        grid = BlockGrid(tokens=64, block_size=8)
        assert grid.blocks_per_side == 8
        assert grid.total_blocks == 64

    def test_index_round_trip(self):
        # Block m covers query-block row and key-block column divmod(m, blocks_per_side).
        grid = BlockGrid(tokens=16, block_size=4)
        for idx in range(grid.total_blocks):
            row, col = divmod(idx, grid.blocks_per_side)
            allow = expand_block_mask(make_mask([idx], grid.total_blocks), grid)
            expected = np.zeros((16, 16), dtype=bool)
            expected[4 * row:4 * row + 4, 4 * col:4 * col + 4] = True
            np.testing.assert_array_equal(allow, expected)

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            BlockGrid(tokens=10, block_size=3)

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            BlockGrid(tokens=0, block_size=1)


class TestBlockScores:
    def test_constant_rows_give_uniform_scores(self):
        grid = BlockGrid(tokens=8, block_size=2)
        q = np.ones((8, 4))
        k = np.ones((8, 4))
        scores = block_scores(q, k, grid)
        np.testing.assert_allclose(scores.values, 1.0 / grid.total_blocks)

    def test_scores_sum_to_one(self, rng):
        grid = BlockGrid(tokens=16, block_size=4)
        scores = block_scores(rng.standard_normal((16, 5)), rng.standard_normal((16, 5)), grid)
        assert scores.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(scores.values >= 0)

    def test_matches_hand_computed_pooled_softmax(self):
        # 4 tokens, block size 2: summaries are means of token pairs.
        grid = BlockGrid(tokens=4, block_size=2)
        q = np.array([[1.0, 0.0], [3.0, 2.0], [0.0, 1.0], [2.0, 1.0]])
        k = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 2.0], [2.0, 0.0]])
        u = [q[0:2].mean(axis=0), q[2:4].mean(axis=0)]
        v = [k[0:2].mean(axis=0), k[2:4].mean(axis=0)]
        logits = [
            float(np.dot(u[i], v[j])) / math.sqrt(2.0)
            for i in (0, 1) for j in (0, 1)
        ]
        exps = [math.exp(x - max(logits)) for x in logits]
        expected = [e / sum(exps) for e in exps]
        scores = block_scores(q, k, grid)
        np.testing.assert_allclose(scores.values, expected, rtol=1e-12)

    def test_shape_mismatch(self):
        grid = BlockGrid(tokens=4, block_size=2)
        with pytest.raises(ShapeMismatch):
            block_scores(np.ones((4, 2)), np.ones((6, 2)), grid)


class TestTopPSelect:
    def test_forced_prefix(self):
        scores = BlockScores(np.array([0.5, 0.3, 0.2]))
        mask = top_p_select(scores, 0.7)
        assert list(np.flatnonzero(mask.retained)) == [0, 1]

    def test_tau_one_keeps_all_positive_mass(self):
        scores = BlockScores(np.array([0.25, 0.25, 0.25, 0.25]))
        mask = top_p_select(scores, 1.0)
        assert mask.count == 4

    def test_tau_one_skips_zero_scores_when_positive_mass_suffices(self):
        # Positive mass already sums to 1, so zero-score blocks stay excluded.
        scores = BlockScores(np.array([0.5, 0.5, 0.0, 0.0]))
        mask = top_p_select(scores, 1.0)
        assert list(np.flatnonzero(mask.retained)) == [0, 1]

    def test_uniform_count_matches_ceiling(self):
        scores = BlockScores(np.full(64, 1.0 / 64.0))
        mask = top_p_select(scores, 0.9)
        assert mask.count == math.ceil(0.9 * 64) == 58

    def test_tie_break_by_ascending_index(self):
        scores = BlockScores(np.array([0.25, 0.25, 0.25, 0.25]))
        mask = top_p_select(scores, 0.5)
        assert list(np.flatnonzero(mask.retained)) == [0, 1]

    def test_domain_errors(self):
        scores = BlockScores(np.array([0.5, 0.5]))
        for tau in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                top_p_select(scores, tau)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            top_p_select(BlockScores(np.array([0.5, 0.2])), 0.5)

    def test_batched_scores_checked_per_row(self):
        BlockScores(np.array([[0.5, 0.5], [0.9, 0.1]])).validate()
        for values in ([[0.5, 0.5], [0.5, 0.2]], [[0.5, 0.5], [1.5, -0.5]]):
            with pytest.raises(DomainError):
                BlockScores(np.array(values)).validate()
        with pytest.raises(ShapeMismatch):
            BlockScores(np.array(1.0)).validate()

    def test_minimality_and_monotonicity_randomized(self, rng):
        # Properties over randomized normalized score vectors: the retained set
        # is minimal, it grows with tau, and realized sparsity shrinks with tau.
        for _ in range(300):
            n = int(rng.integers(2, 40))
            raw = rng.exponential(size=n)
            values = raw / raw.sum()
            scores = BlockScores(values)
            t1, t2 = sorted(rng.uniform(0.05, 1.0, size=2))
            m1 = top_p_select(scores, t1)
            m2 = top_p_select(scores, t2)
            assert not (m1.retained & ~m2.retained).any()
            assert 1.0 - m1.count / n >= 1.0 - m2.count / n
            for mask, tau in ((m1, t1), (m2, t2)):
                kept = values[mask.retained]
                assert kept.sum() >= tau - 1e-12
                lowest = kept.min()
                assert kept.sum() - lowest < tau


def argsort_prefix_mask(values, threshold):
    """Reference: stable argsort by descending value, prefix mass, scatter back."""
    arr = np.asarray(values, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    order = np.argsort(-arr, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(arr, order, axis=1)
    before = np.cumsum(sorted_vals, axis=1) - sorted_vals
    keep_sorted = before < threshold
    keep = np.zeros_like(keep_sorted)
    np.put_along_axis(keep, order, keep_sorted, axis=1)
    return keep[0] if squeeze else keep


def _normalized(values):
    total = values.sum(axis=-1, keepdims=True)
    return np.divide(values, total, out=np.zeros_like(values), where=total > 0)


# Quantized to eighths (exact sums; many ties, all-zero rows) or continuous.
_eighths = st.integers(0, 4).map(lambda n: n / 8.0)
_unit = st.floats(0.0, 1.0, allow_subnormal=False)
_thresholds = st.one_of(
    st.sampled_from([-0.5, 0.0, 1.0, 1.5]),
    st.floats(-0.1, 1.2),
    _eighths,
)


def _matrices(elements):
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 24))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@st.composite
def _wide_rows(draw):
    """Softmax rows 32-512 wide at logit scales 1-1e3, with ties at the top, and a row scale.

    Each row copies its largest logit into up to 3 other entries, so the
    prefix cut often lands on a run of equal values inside the sorted top
    slice.  The scale, 1 or off it, makes rows that do not sum to 1.
    """
    rows, n = draw(st.integers(1, 4)), draw(st.integers(32, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(size=(rows, n)) * 10.0 ** draw(st.floats(0.0, 3.0))
    for row in logits:
        row[rng.choice(n, size=draw(st.integers(0, 3)), replace=False)] = row.max()
    scale = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0), st.floats(1.0, 4.0)))
    return _softmax(logits), scale


class TestCumulativePrefixMask:
    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(_matrices(_eighths), _matrices(_unit)),
           normalize=st.booleans(), threshold=_thresholds)
    def test_matches_argsort_reference(self, values, normalize, threshold):
        if normalize:
            values = _normalized(values)
        expected = argsort_prefix_mask(values, threshold)
        got = cumulative_prefix_mask(values, threshold)
        assert got.shape == values.shape and got.dtype == bool
        np.testing.assert_array_equal(got, expected)
        for row, row_expected in zip(values, expected):
            np.testing.assert_array_equal(cumulative_prefix_mask(row, threshold), row_expected)

    @settings(max_examples=200, deadline=None)
    @given(rows=_wide_rows(), data=st.data())
    def test_wide_rows_match_argsort_reference(self, rows, data):
        # Wide softmax rows take the bounded top-width sort unless flat; rows
        # scaled off a unit sum can reach the width and are redone at full width.
        values, scale = rows
        thresholds = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([math.nan, 0.0, 1.0, 1.5]), st.floats(0.0, 1.0),
                      st.floats(0.5, 1.0)),
            min_size=len(values), max_size=len(values))))
        values = values * scale
        expected = argsort_prefix_mask(values, thresholds[:, None])
        np.testing.assert_array_equal(cumulative_prefix_mask(values, thresholds), expected)
        expected_scalar = argsort_prefix_mask(values, thresholds[0])
        np.testing.assert_array_equal(cumulative_prefix_mask(values, thresholds[0]),
                                      expected_scalar)

    def test_sort_width_follows_row_mass(self, rng):
        # Peaky rows sort a top slice, flat rows their full width, and rows
        # that keep past the slice (here: rows summing below the threshold)
        # are redone at full width.
        n = 256
        logits = rng.normal(size=(6, n))
        peaky, flat = _softmax(300.0 * logits), _softmax(0.1 * logits)
        for values, threshold, widths in (
            (peaky, 0.95, "partial"),
            (flat, 0.95, "full"),
            (0.5 * peaky, 0.9, "partial, then full"),
        ):
            with mock.patch.object(blocksparse, "_descending_prefix",
                                   wraps=blocksparse._descending_prefix) as spy:
                got = cumulative_prefix_mask(values, threshold)
            np.testing.assert_array_equal(got, argsort_prefix_mask(values, threshold))
            seen = [(call.args[0].shape[0], call.args[2]) for call in spy.call_args_list]
            if widths == "full":
                assert seen == [(6, n)]
            else:
                assert seen[0][0] == 6 and 2 * seen[0][1] <= n
                assert seen[1:] == ([] if widths == "partial" else [(6, n)])

    @settings(max_examples=200, deadline=None)
    @given(values=st.one_of(_matrices(_eighths), _matrices(_unit)), data=st.data())
    def test_per_row_thresholds_match_scalar_calls(self, values, data):
        values = _normalized(values)
        thresholds = np.array(data.draw(st.lists(
            st.one_of(_thresholds, st.just(math.nan)),
            min_size=len(values), max_size=len(values))))
        got = cumulative_prefix_mask(values, thresholds)
        for row, threshold, kept in zip(values, thresholds, got):
            np.testing.assert_array_equal(kept, cumulative_prefix_mask(row, threshold))
            np.testing.assert_array_equal(kept, argsort_prefix_mask(row, threshold))

    def test_batch_axes_and_empty_input(self, rng):
        values = rng.integers(0, 3, size=(2, 3, 5, 7)) / 8.0
        got = cumulative_prefix_mask(values, 0.5)
        assert got.shape == values.shape
        np.testing.assert_array_equal(
            got.reshape(-1, 7), argsort_prefix_mask(values.reshape(-1, 7), 0.5)
        )
        assert cumulative_prefix_mask(np.zeros(0), 0.5).shape == (0,)
        assert cumulative_prefix_mask(np.zeros((3, 0)), 0.5).shape == (3, 0)

    def test_ties_at_cut_keep_lowest_indices(self):
        row = np.array([1.0, 3.0, 3.0, 0.0, 3.0]) / 8.0
        assert list(np.flatnonzero(cumulative_prefix_mask(row, 0.5))) == [1, 2]
        assert list(np.flatnonzero(cumulative_prefix_mask(row, 0.75))) == [1, 2]
        assert list(np.flatnonzero(cumulative_prefix_mask(row, 0.8))) == [1, 2, 4]
        assert not cumulative_prefix_mask(row, 0.0).any()
        assert cumulative_prefix_mask(np.zeros(4), 0.5).all()

    @settings(max_examples=200, deadline=None)
    @given(values=_matrices(_eighths), threshold=st.floats(0.0, 2.0))
    def test_minimal_descending_prefix(self, values, threshold):
        # Eighths sum exactly, so the mass checks below carry no rounding.
        keep = cumulative_prefix_mask(values, threshold)
        for row, kept in zip(values, keep):
            if kept.any() and not kept.all():
                assert row[kept].min() >= row[~kept].max()
            mass = row[kept].sum()
            assert mass >= threshold or kept.all()
            if kept.any():
                assert mass - row[kept].min() < threshold

    @settings(max_examples=200, deadline=None)
    @given(values=st.one_of(_matrices(_eighths), _matrices(_unit)),
           t1=_thresholds, t2=_thresholds)
    def test_monotone_in_threshold(self, values, t1, t2):
        lo, hi = sorted((t1, t2))
        small = cumulative_prefix_mask(values, lo)
        large = cumulative_prefix_mask(values, hi)
        assert not (small & ~large).any()


class TestTauOneKeepsEveryBlock:
    """Every top-p call site keeps all blocks at tau = 1, even below the rounded mass.

    On this trace head 0's smallest score at step 5 is 6.4e-18, below the
    rounding of the cumulative mass before it: the prefix mask alone keeps
    15 of its 16 blocks.
    """

    @pytest.fixture(scope="class")
    def pipe(self):
        from satool.surrogate import ForwardPipeline
        from satool.trace import TraceConfig, generate_trace

        return ForwardPipeline(generate_trace(TraceConfig(
            layers=1, heads=2, tokens=4, head_dim=1, steps=6, block_size=1, seed=4)))

    def test_prefix_mask_alone_drops_a_block(self, pipe):
        assert cumulative_prefix_mask(pipe.scores(5, 0, 0).values, 1.0).sum() == 15

    def test_top_p_select_and_mask(self, pipe):
        scores = pipe.scores(5, 0, 0).values
        assert top_p_select(BlockScores(scores), 1.0).count == 16
        rows = np.stack([scores, scores])
        keep = top_p_mask(rows, np.array([0.9, 1.0]))
        np.testing.assert_array_equal(keep[0], cumulative_prefix_mask(scores, 0.9))
        assert keep[1].all()

    def test_simulate(self, pipe):
        from satool.reuse import simulate

        result = simulate(pipe, np.ones((1, 2)), delta=0.0, gate=(0.0, 1.0))
        assert result.predictions == 12
        assert all(record.sparsity == 0.0 for record in result.records)
        assert result.mean_velocity_rel_l2 == 0.0

    def test_measure_head(self, pipe):
        from satool.calibration import measure_head

        steps = [1, 5]
        [point] = measure_head(pipe, 0, 0, [1.0], steps=steps)
        assert point.kept_blocks == 16 * len(steps)
        assert point.sparsity == 0.0 and point.error == 0.0

    def test_adjacent_pair_samples(self, pipe):
        from satool.analysis import adjacent_pair_samples

        samples = adjacent_pair_samples(pipe.trace, tau=1.0)
        assert (samples.block_iou == 1.0).all() and (samples.changed_ratio == 0.0).all()

    def test_zero_scores_still_excluded(self):
        keep = top_p_mask(np.array([[0.5, 0.5, 0.0, 0.0]]), np.array([1.0]))
        np.testing.assert_array_equal(keep, [[True, True, False, False]])


class TestBatchedBlockScores:
    def test_batch_matches_per_entry(self, rng):
        grid = BlockGrid(tokens=16, block_size=4)
        q = rng.standard_normal((3, 2, 16, 5))
        k = rng.standard_normal((3, 2, 16, 5))
        batched = block_score_values(q, k, grid)
        assert batched.shape == (3, 2, 16)
        for i in range(3):
            for j in range(2):
                single = block_scores(np.ascontiguousarray(q[i, j]),
                                      np.ascontiguousarray(k[i, j]), grid)
                np.testing.assert_array_equal(batched[i, j], single.values)

    def test_shape_checked(self):
        grid = BlockGrid(tokens=8, block_size=4)
        with pytest.raises(ShapeMismatch):
            block_score_values(np.zeros((2, 8, 3)), np.zeros((2, 8, 4)), grid)
        with pytest.raises(ShapeMismatch):
            block_score_values(np.zeros((2, 6, 3)), np.zeros((2, 6, 3)), grid)


class TestRealizedSparsity:
    # Realized sparsity is 1 - mask.count / mask.size.
    def test_full_and_empty(self):
        grid = BlockGrid(tokens=8, block_size=2)
        full = BlockMask(np.ones(grid.total_blocks, dtype=bool))
        empty = make_mask([], grid.total_blocks)
        assert 1 - full.count / full.size == 0.0
        assert 1 - empty.count / empty.size == 1.0

    def test_arithmetic(self):
        grid = BlockGrid(tokens=64, block_size=8)
        mask = make_mask(range(16), grid.total_blocks)
        assert 1 - mask.count / mask.size == 0.75


class TestTokenMask:
    # Token masks are top_p_mask over one attention row.
    def test_one_hot_row(self):
        row = np.zeros(10)
        row[3] = 1.0
        assert list(np.flatnonzero(top_p_mask(row, 0.95))) == [3]

    def test_uniform_twenty_keys(self):
        row = np.full(20, 0.05)
        assert top_p_mask(row, 0.95).sum() == 19

    def test_exact_cumulative_boundary(self):
        row = np.array([0.6, 0.25, 0.1, 0.05])
        assert list(np.flatnonzero(top_p_mask(row, 0.95))) == [0, 1, 2]


class TestMaskSimilarity:
    def test_iou_identical_and_disjoint(self):
        a = make_mask([1, 2], 8).retained
        b = make_mask([2, 3], 8).retained
        assert mask_iou(a, a) == 1.0
        assert mask_iou(make_mask([0], 8).retained, make_mask([5], 8).retained) == 0.0
        assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_iou_both_empty(self):
        e = make_mask([], 6).retained
        assert mask_iou(e, e) == 1.0

    def test_iou_symmetric(self, rng):
        for _ in range(50):
            a = rng.random(16) < 0.4
            b = rng.random(16) < 0.4
            assert mask_iou(a, b) == mask_iou(b, a)

    def test_changed_ratio_cases(self):
        assert changed_block_ratio(make_mask([1, 2], 8).retained, make_mask([1, 2], 8).retained) == 0.0
        assert changed_block_ratio(make_mask([1, 2], 8).retained, make_mask([2, 3], 8).retained) == 0.25
        half = make_mask(range(4), 8).retained
        assert changed_block_ratio(half, ~half) == 1.0

    def test_changed_ratio_symmetric_and_identity(self, rng):
        # Algebraic identity: changed ratio equals (1 - IoU) * |union| / M.
        for _ in range(100):
            a = rng.random(32) < 0.5
            b = rng.random(32) < 0.5
            r_ab = changed_block_ratio(a, b)
            assert r_ab == changed_block_ratio(b, a)
            union = np.logical_or(a, b).sum()
            assert r_ab == pytest.approx((1.0 - mask_iou(a, b)) * union / 32.0, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mask_iou(np.zeros(4, bool), np.zeros(5, bool))
        with pytest.raises(ShapeMismatch):
            changed_block_ratio(np.zeros(4, bool), np.zeros(5, bool))

    @pytest.mark.parametrize("fn", [mask_iou, changed_block_ratio])
    def test_batch_shape_mismatch(self, fn):
        with pytest.raises(ShapeMismatch):
            fn(np.zeros((2, 4), bool), np.zeros((3, 4), bool))
        with pytest.raises(ShapeMismatch):
            fn(np.zeros((2, 4), bool), np.zeros(4, bool))
        with pytest.raises(ShapeMismatch):
            fn(np.array(True), np.array(True))

    @pytest.mark.parametrize("fn", [mask_iou, changed_block_ratio])
    def test_batch_axes_match_per_pair_calls(self, rng, fn):
        a = rng.random((3, 4, 10)) < 0.3
        b = rng.random((3, 4, 10)) < 0.3
        a[0, 0] = b[0, 0] = False
        batched = fn(a, b)
        assert isinstance(batched, np.ndarray) and batched.shape == (3, 4)
        for index in np.ndindex(3, 4):
            single = fn(a[index], b[index])
            assert type(single) is float
            assert float(batched[index]).hex() == single.hex()
        assert batched[0, 0] == (1.0 if fn is mask_iou else 0.0)

    def test_iou_is_python_integer_division(self):
        # Every (intersection, union) pair up to 96 blocks, in one batch.
        size = 96
        pairs = [(inter, union) for union in range(1, size + 1) for inter in range(union + 1)]
        a = np.zeros((len(pairs), size), dtype=bool)
        b = np.zeros_like(a)
        for row, (inter, union) in enumerate(pairs):
            a[row, :union] = True
            b[row, :inter] = True
        got = mask_iou(a, b)
        assert [float(v).hex() for v in got] == [(i / u).hex() for i, u in pairs]
        ratios = changed_block_ratio(a, b)
        assert [float(v).hex() for v in ratios] == [((u - i) / size).hex() for i, u in pairs]


class TestHexRoundTrip:
    def test_round_trip(self, rng):
        for size in (1, 7, 8, 64, 130):
            retained = rng.random(size) < 0.5
            mask = BlockMask(retained=retained)
            bits = np.unpackbits(np.frombuffer(bytes.fromhex(mask.to_hex()), dtype=np.uint8))
            assert bits.size == -(-size // 8) * 8
            np.testing.assert_array_equal(bits[:size].astype(bool), retained)
            assert not bits[size:].any()
