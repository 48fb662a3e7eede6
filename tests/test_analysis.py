import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satool import analysis
from satool.analysis import (
    PairSample,
    adjacent_pair_samples,
    spearman,
    split_samples,
    stability_rows,
    two_step_bound_constants,
)
from satool.blocksparse import (
    block_scores,
    changed_block_ratio,
    cumulative_prefix_mask,
    mask_iou,
    top_p_select,
)
from satool.errors import DomainError, ShapeMismatch
from satool.reuse import full_token_drift, mean_pool_drift
from satool.surrogate import attention_probs
from satool.trace import TraceConfig, generate_trace


def row_iou(masks_a, masks_b):
    """Reference: mean over attention rows of each row's token-mask IoU."""
    inter = np.logical_and(masks_a, masks_b).sum(axis=1)
    union = np.logical_or(masks_a, masks_b).sum(axis=1)
    ious = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(ious.mean())


def per_step_pair_samples(trace, token_p=0.95, tau=0.95):
    """Reference: walk each head step by step through the per-step public calls."""
    cfg = trace.config
    samples = []
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            prev = None
            for step in range(cfg.steps):
                q, k = trace.q(step, layer, head), trace.k(step, layer, head)
                scores = block_scores(q, k, cfg.grid)
                state = {
                    "rows": cumulative_prefix_mask(attention_probs(q, k), token_p),
                    "mask": top_p_select(scores, tau),
                    "scores": scores.values,
                    "q": q, "k": k,
                    "q_mean": q.mean(axis=0), "k_mean": k.mean(axis=0),
                }
                if prev is not None:
                    samples.append(PairSample(
                        step=step - 1, layer=layer, head=head,
                        full_drift=full_token_drift(prev["q"], q, prev["k"], k),
                        pool_drift=mean_pool_drift(
                            prev["q_mean"], state["q_mean"], prev["k_mean"], state["k_mean"]
                        ),
                        score_drift=float(np.abs(prev["scores"] - state["scores"]).mean()),
                        token_iou=row_iou(prev["rows"], state["rows"]),
                        block_iou=mask_iou(prev["mask"].retained, state["mask"].retained),
                        changed_ratio=changed_block_ratio(
                            prev["mask"].retained, state["mask"].retained
                        ),
                    ))
                prev = state
    return samples


def exact_fields(samples):
    """Each sample's fields with floats as their exact bit patterns (and types)."""
    return [tuple((type(v).__name__, v.hex() if isinstance(v, float) else v)
                  for v in astuple(sample)) for sample in samples]


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
        assert len(short_samples) == (cfg.steps - 1) * cfg.layers * cfg.heads

    def test_frozen_trace_is_perfectly_stable(self):
        trace = generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=6))
        for sample in adjacent_pair_samples(trace):
            assert sample.token_iou == 1.0
            assert sample.block_iou == 1.0
            assert sample.changed_ratio == 0.0
            assert sample.full_drift == 0.0
            assert sample.pool_drift == 0.0

    def test_iid_trace_less_stable_than_frozen(self):
        frozen = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=6)))
        iid = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(0.0, 0.0), steps=6)))
        assert np.mean([s.token_iou for s in iid]) < np.mean([s.token_iou for s in frozen])

    def test_negative_drift_iou_correlation(self, short_samples):
        rho = spearman(
            [s.pool_drift for s in short_samples],
            [s.token_iou for s in short_samples],
        )
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
        assert adjacent_pair_samples(trace, token_p, tau) == expected

    @pytest.mark.parametrize("chunk_steps", [1, 3])
    def test_several_chunks_with_partial_last(self, monkeypatch, chunk_steps):
        # 8 steps in chunks of 3 leaves a last chunk of 2; chunks of 1 split every step.
        config = TraceConfig(layers=1, heads=2, tokens=32, head_dim=8, steps=8, block_size=8,
                             seed=6)
        trace = generate_trace(config)
        expected = per_step_pair_samples(trace)
        monkeypatch.setattr(analysis, "PROB_CHUNK_ELEMENTS", chunk_steps * 32 * 32 + 5)
        assert adjacent_pair_samples(trace) == expected

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
        with mock.patch.object(analysis, "PROB_CHUNK_ELEMENTS", chunk):
            got = adjacent_pair_samples(trace, token_p, tau)
        assert len(got) == (config.steps - 1) * config.layers * config.heads
        assert exact_fields(got) == exact_fields(expected)

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
    def test_batch_axes_match_per_pair_calls(self, rng):
        a = rng.random((2, 3, 5, 7)) < 0.4
        b = rng.random((2, 3, 5, 7)) < 0.4
        a[0, 0, 1] = b[0, 0, 1] = False
        batched = analysis._mean_row_iou(a, b)
        assert isinstance(batched, np.ndarray) and batched.shape == (2, 3)
        for index in np.ndindex(2, 3):
            single = analysis._mean_row_iou(a[index], b[index])
            assert type(single) is float
            assert float(batched[index]).hex() == single.hex() == row_iou(a[index], b[index]).hex()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            analysis._mean_row_iou(np.zeros((2, 3, 4), bool), np.zeros((3, 3, 4), bool))


class TestStabilityRows:
    def test_row_count_covers_all_granularities(self, short_trace, short_samples):
        cfg = short_trace.config
        rows = stability_rows(short_samples, cfg.layers, cfg.heads, cfg.steps)
        expected = (cfg.steps - 1) * (1 + cfg.layers + cfg.layers * cfg.heads)
        assert len(rows) == expected

    def test_prompt_rows_average_everything(self, short_trace, short_samples):
        cfg = short_trace.config
        rows = stability_rows(short_samples, cfg.layers, cfg.heads, cfg.steps)
        prompt = [r for r in rows if r["granularity"] == "prompt"]
        step0 = [s.token_iou for s in short_samples if s.step == 0]
        assert prompt[0]["token_iou"] == pytest.approx(np.mean(step0))


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
    def test_split_partitions_samples(self, short_samples):
        cal, held = split_samples(short_samples, 0.5, seed=3)
        assert len(cal) + len(held) == len(short_samples)
        assert len(cal) == round(0.5 * len(short_samples))

    def test_split_deterministic(self, short_samples):
        a = split_samples(short_samples, 0.5, seed=3)
        b = split_samples(short_samples, 0.5, seed=3)
        assert [id(s) for s in a[0]] == [id(s) for s in b[0]]

    def test_fitted_constant_bounds_generalize(self, short_samples):
        cal, held = split_samples(short_samples, 0.5, seed=3)
        constant = two_step_bound_constants(cal)["mask_per_drift"]
        violations = sum(
            1 for s in held if s.full_drift > 0 and s.changed_ratio > constant * s.full_drift
        )
        assert violations / len(held) <= 0.05

    def test_two_step_chain_bounds_every_sample(self, short_samples):
        constants = two_step_bound_constants(short_samples)
        for s in short_samples:
            if s.full_drift > 0:
                assert s.score_drift <= constants["score_per_drift"] * s.full_drift + 1e-15
                assert s.changed_ratio <= constants["mask_per_drift"] * s.full_drift + 1e-15
            if s.score_drift > 0:
                assert s.changed_ratio <= constants["mask_per_score"] * s.score_drift + 1e-15
        # Composing the two stages bounds the end-to-end constant.
        assert constants["mask_per_drift"] <= (
            constants["score_per_drift"] * constants["mask_per_score"] + 1e-15
        )


def drift_samples(pairs):
    """Samples whose only meaningful fields are (full drift, changed-block ratio)."""
    return [PairSample(step=0, layer=0, head=0, full_drift=drift, pool_drift=0.0,
                       score_drift=0.0, token_iou=1.0, block_iou=1.0, changed_ratio=ratio)
            for drift, ratio in pairs]


class TestMaskPerDrift:
    def test_max_ratio(self):
        constants = two_step_bound_constants(drift_samples([(1.0, 0.1), (2.0, 0.5)]))
        assert constants["mask_per_drift"] == pytest.approx(0.25)

    def test_zero_ratios_give_zero(self):
        constants = two_step_bound_constants(drift_samples([(1.0, 0.0), (2.0, 0.0)]))
        assert constants["mask_per_drift"] == 0.0

    def test_zero_drift_samples_ignored(self):
        samples = drift_samples([(0.0, 0.9), (1.0, 0.1), (2.0, 0.5)])
        assert two_step_bound_constants(samples)["mask_per_drift"] == pytest.approx(0.25)
        assert two_step_bound_constants(samples[:1])["mask_per_drift"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            two_step_bound_constants([])
