import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satool import analysis, surrogate
from satool.analysis import (
    PairStats,
    adjacent_pair_samples,
    spearman,
    stability_rows,
    two_step_bound_constants,
)
from satool.blocksparse import (
    block_scores,
    changed_block_ratio,
    cumulative_prefix_mask,
    mask_iou,
    top_p_mask,
    top_p_select,
)
from satool.cli import main
from satool.errors import DomainError, ShapeMismatch
from satool.reuse import full_token_drift, mean_pool_drift
from satool.runio import format_cell
from satool.surrogate import attention_probs
from satool.trace import TraceConfig, generate_trace, write_trace


def row_iou(masks_a, masks_b):
    """Reference: mean over attention rows of each row's token-mask IoU."""
    inter = np.logical_and(masks_a, masks_b).sum(axis=1)
    union = np.logical_or(masks_a, masks_b).sum(axis=1)
    ious = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(ious.mean())


def per_step_pair_samples(trace, token_p=0.95, tau=0.95):
    """Reference: walk each head step by step through the per-step public calls."""
    cfg = trace.config
    samples = PairStats(*np.full((6, cfg.layers, cfg.heads, cfg.steps - 1), np.nan))
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            prev = None
            for step in range(cfg.steps):
                q, k = trace.q(step, layer, head), trace.k(step, layer, head)
                scores = block_scores(q, k, cfg.grid)
                state = {
                    "rows": top_p_mask(attention_probs(q, k), token_p),
                    "mask": top_p_select(scores, tau),
                    "scores": scores.values,
                    "q": q, "k": k,
                    "q_mean": q.mean(axis=0), "k_mean": k.mean(axis=0),
                }
                if prev is not None:
                    pair = (layer, head, step - 1)
                    samples.full_drift[pair] = full_token_drift(prev["q"], q, prev["k"], k)
                    samples.pool_drift[pair] = mean_pool_drift(
                        prev["q_mean"], state["q_mean"], prev["k_mean"], state["k_mean"])
                    samples.score_drift[pair] = float(
                        np.abs(prev["scores"] - state["scores"]).mean())
                    samples.token_iou[pair] = row_iou(prev["rows"], state["rows"])
                    samples.block_iou[pair] = mask_iou(
                        prev["mask"].retained, state["mask"].retained)
                    samples.changed_ratio[pair] = changed_block_ratio(
                        prev["mask"].retained, state["mask"].retained)
                prev = state
    return samples


def assert_same_bits(got, expected):
    """Every field is a float64 array of the expected shape and bits."""
    assert isinstance(got, PairStats)
    for name, x, y in zip(PairStats._fields, got, expected):
        assert x.dtype == np.float64 and x.shape == y.shape, name
        np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64), err_msg=name)


def drift_iou_lines(samples):
    """Reference: drift_iou.csv's data lines, built pair by pair in (layer, head, step) order."""
    layers, heads, pairs = samples.token_iou.shape
    return [",".join(format_cell(v) for v in [step, layer, head]
                     + [float(x[layer, head, step]) for x in samples])
            for layer in range(layers) for head in range(heads) for step in range(pairs)]


@st.composite
def pair_sample_cases(draw):
    """Small traces (1-9 steps, frozen or drifting) with thresholds and a forced chunk size."""
    block_size = draw(st.integers(1, 4))
    config = TraceConfig(
        layers=draw(st.integers(1, 2)), heads=draw(st.integers(1, 3)),
        tokens=block_size * draw(st.integers(1, 3)), head_dim=draw(st.integers(1, 4)),
        steps=draw(st.integers(1, 9)), block_size=block_size,
        kappa_range=draw(st.sampled_from([(1.0, 1.0), (0.0, 0.0), (0.2, 0.999)])),
        scale_range=draw(st.sampled_from([(0.8, 2.0), (3.0, 6.0)])),
        velocity_shape=(2, 2, 2), seed=draw(st.integers(0, 2 ** 16)),
    )
    thresholds = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
    chunk_steps = draw(st.integers(1, config.steps + 1))
    return config, draw(thresholds), draw(thresholds), chunk_steps


@pytest.fixture(scope="module")
def short_trace():
    return generate_trace(TraceConfig(steps=10))


@pytest.fixture(scope="module")
def short_samples(short_trace):
    return adjacent_pair_samples(short_trace)


class TestPairSamples:
    def test_sample_count(self, short_trace, short_samples):
        cfg = short_trace.config
        for values in short_samples:
            assert values.shape == (cfg.layers, cfg.heads, cfg.steps - 1)

    def test_frozen_trace_is_perfectly_stable(self):
        samples = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=6)))
        assert (samples.token_iou == 1.0).all()
        assert (samples.block_iou == 1.0).all()
        assert (samples.changed_ratio == 0.0).all()
        assert (samples.full_drift == 0.0).all()
        assert (samples.pool_drift == 0.0).all()

    def test_iid_trace_less_stable_than_frozen(self):
        frozen = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=6)))
        iid = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(0.0, 0.0), steps=6)))
        assert iid.token_iou.mean() < frozen.token_iou.mean()

    def test_negative_drift_iou_correlation(self, short_samples):
        rho = spearman(short_samples.pool_drift.ravel(), short_samples.token_iou.ravel())
        assert rho <= -0.3


class TestBatchedPassMatchesPerStep:
    @pytest.mark.parametrize("config, token_p, tau", [
        (TraceConfig(steps=7, seed=4), 0.95, 0.95),
        (TraceConfig(layers=1, heads=2, tokens=48, head_dim=8, steps=5, block_size=16,
                     scale_range=(3.0, 6.0), seed=9), 0.5, 1.0),
        (TraceConfig(layers=2, heads=3, tokens=16, head_dim=4, steps=9, block_size=4,
                     kappa_range=(1.0, 1.0), seed=2), 0.9, 0.7),
    ])
    def test_every_field_identical(self, config, token_p, tau):
        trace = generate_trace(config)
        expected = per_step_pair_samples(trace, token_p, tau)
        assert_same_bits(adjacent_pair_samples(trace, token_p, tau), expected)

    @pytest.mark.parametrize("chunk_steps", [1, 3])
    def test_several_chunks_with_partial_last(self, monkeypatch, chunk_steps):
        # 8 steps in chunks of 3 leaves a last chunk of 2; chunks of 1 split every step.
        config = TraceConfig(layers=1, heads=2, tokens=32, head_dim=8, steps=8, block_size=8,
                             seed=6)
        trace = generate_trace(config)
        expected = per_step_pair_samples(trace)
        monkeypatch.setattr(surrogate, "PROB_CHUNK_ELEMENTS", chunk_steps * 32 * 32 + 5)
        assert_same_bits(adjacent_pair_samples(trace), expected)

    def test_token_p_one_keeps_every_positive_key(self, monkeypatch):
        # A long-attn-shaped trace, where the rounded mass before a tiny
        # probability already reaches 1 on many rows.
        config = TraceConfig(layers=1, heads=1, tokens=384, head_dim=32, steps=3,
                             block_size=32, kappa_range=(0.95, 0.999), scale_range=(3.0, 6.0),
                             velocity_shape=(4, 4, 4), seed=3)
        token_masks = []

        def spy(values, tau):
            keep = top_p_mask(values, tau)
            if np.ndim(values) == 3:
                token_masks.append((values, keep))
            return keep

        monkeypatch.setattr(analysis, "top_p_mask", spy)
        adjacent_pair_samples(generate_trace(config), token_p=1.0)
        probs = token_masks[0][0]
        assert not np.array_equal(cumulative_prefix_mask(probs, 1.0), probs > 0)
        for probs, keep in token_masks:
            np.testing.assert_array_equal(keep, probs > 0)

    def test_invalid_tau_rejected(self, short_trace):
        with pytest.raises(DomainError):
            adjacent_pair_samples(short_trace, tau=0.0)

    @pytest.mark.parametrize("token_p", [0.0, -1.0, 1.5, math.nan])
    def test_invalid_token_p_rejected(self, short_trace, token_p):
        with pytest.raises(DomainError, match="token_p"):
            adjacent_pair_samples(short_trace, token_p=token_p)

    @settings(max_examples=150, deadline=None)
    @given(case=pair_sample_cases())
    def test_matches_per_step_oracle(self, case):
        config, token_p, tau, chunk_steps = case
        trace = generate_trace(config)
        expected = per_step_pair_samples(trace, token_p, tau)
        chunk = chunk_steps * config.tokens * config.tokens
        with mock.patch.object(surrogate, "PROB_CHUNK_ELEMENTS", chunk):
            got = adjacent_pair_samples(trace, token_p, tau)
            if expected.token_iou.size < 2:
                scatter = None  # analyze rejects fewer than two pairs
            else:
                with tempfile.TemporaryDirectory() as tmp:
                    path = Path(tmp) / "trace.satr"
                    write_trace(config, path)
                    result = CliRunner().invoke(main, [
                        "analyze", "--trace", str(path), "--out", tmp,
                        "--token-p", repr(token_p), "--tau", repr(tau)])
                    assert result.exit_code == 0, result.output
                    scatter = (Path(tmp) / "drift_iou.csv").read_text().splitlines()
        assert_same_bits(got, expected)
        if scatter is not None:
            assert scatter[1:] == drift_iou_lines(expected)

    def test_one_drift_call_per_head(self, monkeypatch, short_trace):
        cfg = short_trace.config
        calls = {"full": [], "pool": []}

        def spy(name, fn):
            def wrapper(*args):
                calls[name].append(args[0].shape)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(analysis, "full_token_drift", spy("full", analysis.full_token_drift))
        monkeypatch.setattr(analysis, "mean_pool_drift", spy("pool", analysis.mean_pool_drift))
        adjacent_pair_samples(short_trace)
        heads = cfg.layers * cfg.heads
        assert calls["full"] == [(cfg.steps - 1, cfg.tokens, cfg.head_dim)] * heads
        assert calls["pool"] == [(cfg.steps - 1, cfg.head_dim)] * heads


class TestMeanRowIou:
    """Token IoU is ``mask_iou(...).mean(axis=-1)``: row IoUs averaged per pair."""

    def test_batch_axes_match_per_pair_calls(self, rng):
        a = rng.random((2, 3, 5, 7)) < 0.4
        b = rng.random((2, 3, 5, 7)) < 0.4
        a[0, 0, 1] = b[0, 0, 1] = False
        batched = mask_iou(a, b).mean(axis=-1)
        assert batched.shape == (2, 3)
        for index in np.ndindex(2, 3):
            single = mask_iou(a[index], b[index]).mean(axis=-1)
            assert float(batched[index]).hex() == float(single).hex() == (
                row_iou(a[index], b[index]).hex())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mask_iou(np.zeros((2, 3, 4), bool), np.zeros((3, 3, 4), bool))


def list_mean_rows(samples):
    """Reference: report rows with each mean taken as ``float(np.mean(list))`` in (layer, head) order."""
    layers, heads, pairs = samples.token_iou.shape
    token, block = samples.token_iou.tolist(), samples.block_iou.tolist()
    groups = ([("prompt", "", "", list(np.ndindex(layers, heads)))]
              + [("layer", l, "", [(l, h) for h in range(heads)]) for l in range(layers)]
              + [("head", l, h, [(l, h)]) for l, h in np.ndindex(layers, heads)])
    return [[granularity, step, layer, head,
             float(np.mean([token[l][h][step] for l, h in group])),
             float(np.mean([block[l][h][step] for l, h in group]))]
            for granularity, layer, head, group in groups for step in range(pairs)]


@pytest.fixture(scope="module")
def wide_samples():
    """Random statistics of 3 layers of 20 heads: numpy's pairwise sums differ from sequential ones."""
    values = np.random.default_rng(24).random((6, 3, 20, 5))
    return PairStats(*values)


class TestStabilityRows:
    def test_row_count_covers_all_granularities(self, short_trace, short_samples):
        cfg = short_trace.config
        rows = stability_rows(short_samples)
        expected = (cfg.steps - 1) * (1 + cfg.layers + cfg.layers * cfg.heads)
        assert len(rows) == expected

    @staticmethod
    def assert_bits_of_list_means(samples, granularity):
        rows = [r for r in stability_rows(samples) if r[0] == granularity]
        expected = [r for r in list_mean_rows(samples) if r[0] == granularity]
        assert [[type(v) for v in r] for r in rows] == [[type(v) for v in r] for r in expected]
        assert [[float(v).hex() if isinstance(v, float) else v for v in r] for r in rows] == [
            [float(v).hex() if isinstance(v, float) else v for v in r] for r in expected]
        # The summation order matters: a sequential sum gives other bits for some row.
        token = samples.token_iou
        groups = token.reshape(1, -1, token.shape[-1]) if granularity == "prompt" else token
        sequential = [sum(group[:, step].tolist()) / len(group)
                      for group in groups for step in range(token.shape[-1])]
        assert [r[4] for r in rows] != sequential

    def test_prompt_rows_average_everything(self, wide_samples):
        self.assert_bits_of_list_means(wide_samples, "prompt")

    def test_layer_rows_average_their_heads(self, wide_samples):
        self.assert_bits_of_list_means(wide_samples, "layer")

    def test_every_row_matches_the_list_means(self, short_samples):
        assert stability_rows(short_samples) == list_mean_rows(short_samples)


def loop_ranks(values):
    """Reference: average ranks by walking the sorted values run by run."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j)
        i = j + 1
    return ranks


_tied_values = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, math.inf, math.nan])


class TestSpearman:
    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(
        st.lists(_tied_values, min_size=2, max_size=30),
        st.lists(st.floats(), min_size=2, max_size=30),
        st.tuples(st.floats(), st.integers(2, 30)).map(lambda c: [c[0]] * c[1]),
    ))
    @example(values=[1.0, 1.0])
    @example(values=[3.0, -1.0])
    def test_ranks_match_loop(self, values):
        values = np.array(values, dtype=np.float64)
        assert analysis._ranks(values).tobytes() == loop_ranks(values).tobytes()

    def test_perfect_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, x ** 3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_known_value_with_ties(self):
        # Ranks with average ties: x ranks (0, 1.5, 1.5, 3), y ranks (3, 1, 2, 0).
        x = [1.0, 2.0, 2.0, 5.0]
        y = [9.0, 2.0, 3.0, 1.0]
        rx = np.array([0.0, 1.5, 1.5, 3.0])
        ry = np.array([3.0, 1.0, 2.0, 0.0])
        rx -= rx.mean()
        ry -= ry.mean()
        expected = float((rx * ry).sum() / np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))
        assert spearman(x, y) == pytest.approx(expected)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            spearman([1.0], [2.0])
        with pytest.raises(DomainError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSplitAndBounds:
    def test_fitted_constant_bounds_generalize(self, short_samples):
        drift, score, ratio = (x.ravel() for x in (
            short_samples.full_drift, short_samples.score_drift, short_samples.changed_ratio))
        # A seeded shuffle into calibration and held-out halves.
        order = np.random.default_rng(np.random.SeedSequence([3, 707])).permutation(drift.size)
        cal, held = np.split(order, [round(0.5 * drift.size)])
        constant = two_step_bound_constants(drift[cal], score[cal], ratio[cal])["mask_per_drift"]
        violations = ((drift[held] > 0) & (ratio[held] > constant * drift[held])).sum()
        assert violations / held.size <= 0.05

    def test_two_step_chain_bounds_every_sample(self, short_samples):
        s = short_samples
        drift, score, ratio = s.full_drift, s.score_drift, s.changed_ratio
        constants = two_step_bound_constants(drift, score, ratio)
        moved = drift > 0
        assert (score[moved] <= constants["score_per_drift"] * drift[moved] + 1e-15).all()
        assert (ratio[moved] <= constants["mask_per_drift"] * drift[moved] + 1e-15).all()
        scored = score > 0
        assert (ratio[scored] <= constants["mask_per_score"] * score[scored] + 1e-15).all()
        # Composing the two stages bounds the end-to-end constant.
        assert constants["mask_per_drift"] <= (
            constants["score_per_drift"] * constants["mask_per_score"] + 1e-15
        )


def drift_samples(pairs):
    """(full drift, score drift, changed-block ratio) arrays from (drift, ratio) pairs."""
    drift, ratio = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return drift, np.zeros_like(drift), ratio


class TestMaskPerDrift:
    def test_max_ratio(self):
        constants = two_step_bound_constants(*drift_samples([(1.0, 0.1), (2.0, 0.5)]))
        assert constants["mask_per_drift"] == pytest.approx(0.25)

    def test_zero_ratios_give_zero(self):
        constants = two_step_bound_constants(*drift_samples([(1.0, 0.0), (2.0, 0.0)]))
        assert constants["mask_per_drift"] == 0.0

    def test_zero_drift_samples_ignored(self):
        samples = drift_samples([(0.0, 0.9), (1.0, 0.1), (2.0, 0.5)])
        assert two_step_bound_constants(*samples)["mask_per_drift"] == pytest.approx(0.25)
        assert two_step_bound_constants(*(x[:1] for x in samples))["mask_per_drift"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            two_step_bound_constants(*drift_samples([]))
