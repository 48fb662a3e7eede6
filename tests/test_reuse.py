import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satool import surrogate
from satool.blocksparse import changed_block_ratio, top_p_select
from satool.errors import DomainError, ShapeMismatch, StateError
from satool.reuse import (
    COLD_START,
    DEFAULT_GATE,
    REFRESH,
    REUSE,
    cache_footprint,
    full_token_drift,
    StepRecord,
    layer_gate,
    mean_pool_drift,
    simulate,
)
from satool.surrogate import ForwardPipeline
from satool.trace import TraceConfig, generate_trace


class TestDriftStatistics:
    def test_identical_inputs_zero(self, rng):
        q = rng.standard_normal((8, 4))
        k = rng.standard_normal((8, 4))
        assert full_token_drift(q, q, k, k) == 0.0
        assert mean_pool_drift(q.mean(0), q.mean(0), k.mean(0), k.mean(0)) == 0.0

    def test_constant_shift(self):
        q = np.zeros((6, 4))
        shifted = q + 0.5
        k = np.ones((6, 4))
        assert full_token_drift(q, shifted, k, k) == pytest.approx(2.0)
        assert mean_pool_drift(q.mean(0), shifted.mean(0), k.mean(0), k.mean(0)) == pytest.approx(2.0)

    def test_full_drift_matches_naive_loop(self, rng):
        q_a, q_b = rng.standard_normal((8, 4)), rng.standard_normal((8, 4))
        k_a, k_b = rng.standard_normal((8, 4)), rng.standard_normal((8, 4))
        total = 0.0
        for i in range(8):
            total += sum(abs(q_a[i, d] - q_b[i, d]) for d in range(4)) / 8
        for j in range(8):
            total += sum(abs(k_a[j, d] - k_b[j, d]) for d in range(4)) / 8
        assert full_token_drift(q_a, q_b, k_a, k_b) == pytest.approx(total, rel=1e-12)

    def test_pooled_never_exceeds_full(self, rng):
        # Triangle inequality on the token mean.
        for _ in range(100):
            q_a, q_b = rng.standard_normal((10, 5)), rng.standard_normal((10, 5))
            k_a, k_b = rng.standard_normal((10, 5)), rng.standard_normal((10, 5))
            pooled = mean_pool_drift(q_a.mean(0), q_b.mean(0), k_a.mean(0), k_b.mean(0))
            assert pooled <= full_token_drift(q_a, q_b, k_a, k_b) + 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            full_token_drift(np.ones((4, 2)), np.ones((5, 2)), np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(ShapeMismatch):
            mean_pool_drift(np.ones(3), np.ones(4), np.ones(3), np.ones(3))

    def test_batch_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            full_token_drift(*(np.ones((2, 4, 3)),) * 3, np.ones((3, 4, 3)))
        with pytest.raises(ShapeMismatch):
            full_token_drift(*(np.ones(3),) * 4)
        with pytest.raises(ShapeMismatch):
            mean_pool_drift(*(np.ones((2, 3)),) * 3, np.ones(3))
        with pytest.raises(ShapeMismatch):
            mean_pool_drift(*(np.array(1.0),) * 4)

    def test_batch_axes_match_per_pair_calls(self, rng):
        # Leading (2, 5) axes: every entry is bitwise the call on that pair alone.
        tokens = [rng.standard_normal((2, 5, 9, 6)) for _ in range(4)]
        means = [rng.standard_normal((2, 5, 6)) for _ in range(4)]
        full = full_token_drift(*tokens)
        pooled = mean_pool_drift(*means)
        assert full.shape == pooled.shape == (2, 5)
        for index in np.ndindex(2, 5):
            single_full = full_token_drift(*(x[index] for x in tokens))
            single_pooled = mean_pool_drift(*(x[index] for x in means))
            assert type(single_full) is float and type(single_pooled) is float
            assert float(full[index]).hex() == single_full.hex()
            assert float(pooled[index]).hex() == single_pooled.hex()


def list_gate(flags, lo, hi):
    """The list rule ``layer_gate`` replaced, kept as a reference."""
    fraction = sum(flags) / len(flags)
    if fraction < lo:
        return [False] * len(flags)
    if fraction > hi:
        return [True] * len(flags)
    return list(flags)


def gate(flags, lo, hi):
    """``layer_gate`` on a bool array of ``flags``, checked to return one, as a list."""
    out = layer_gate(np.array(flags, dtype=bool), lo, hi)
    assert isinstance(out, np.ndarray) and out.dtype == bool and out.shape == (len(flags),)
    return out.tolist()


@st.composite
def gate_bounds(draw, flags):
    """A gate bound: an exact fraction k/n, k/len(flags) among them, or a random float."""
    n = draw(st.sampled_from([len(flags), draw(st.integers(1, 64))]))
    return draw(st.one_of(st.integers(0, n).map(lambda k: k / n),
                          st.floats(-0.5, 1.5, allow_nan=False)))


class TestLayerGate:
    def test_all_false_stays(self):
        assert gate([False] * 4, 0.2, 0.8) == [False] * 4

    def test_majority_forces_full_refresh(self):
        flags = [True, True, True, True, True, False]
        assert gate(flags, 0.2, 0.7) == [True] * 6

    def test_minority_forces_full_reuse(self):
        flags = [True, False, False, False, False, False, False, False, False, False]
        assert gate(flags, 0.2, 0.8) == [False] * 10

    def test_middle_band_unchanged(self):
        flags = [True, True, True, False, False, False]
        assert gate(flags, 0.2, 0.8) == flags

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            layer_gate(np.array([True]), 0.9, 0.1)
        with pytest.raises(DomainError):
            layer_gate(np.array([], dtype=bool), 0.1, 0.9)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), flags=st.lists(st.booleans(), min_size=1, max_size=64))
    def test_matches_the_list_rule(self, data, flags):
        lo, hi = sorted((data.draw(gate_bounds(flags)), data.draw(gate_bounds(flags))))
        assert gate(flags, lo, hi) == list_gate(flags, lo, hi)


class TestCacheFootprint:
    def test_reference_configuration(self):
        kwargs = dict(layers=30, heads=12, tokens=32760, head_dim=128,
                      bytes_per_scalar=2, branches=2)
        assert cache_footprint(**kwargs) == {"full_token_bytes": 12_079_595_520,
                                             "mean_pooled_bytes": 368_640}

    def test_single_branch_halves(self):
        kwargs = dict(layers=30, heads=12, tokens=32760, head_dim=128, bytes_per_scalar=2)
        double = cache_footprint(branches=2, **kwargs)
        single = cache_footprint(branches=1, **kwargs)
        assert double.keys() == single.keys() == {"full_token_bytes", "mean_pooled_bytes"}
        for key in double:
            assert double[key] == 2 * single[key]

    def test_alignment_pads_token_count(self):
        aligned = cache_footprint(1, 1, 100, 4, 2, 1, block_align=128)["full_token_bytes"]
        assert aligned == 1 * 1 * 128 * 4 * 2 * 2 * 1
        exact = cache_footprint(1, 1, 100, 4, 2, 1, block_align=1)["full_token_bytes"]
        assert exact == 1 * 1 * 100 * 4 * 2 * 2 * 1

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            cache_footprint(0, 1, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            cache_footprint(1, 1, 1, 1, 1, 0)
        with pytest.raises(DomainError):
            cache_footprint(1, 1, 1, 1, 1, 1, block_align=0)


@pytest.fixture(scope="module")
def sim_pipeline():
    return ForwardPipeline(generate_trace(TraceConfig(steps=12)))


class TestSimulate:
    def test_zero_delta_never_reuses(self, sim_pipeline):
        cfg = sim_pipeline.trace.config
        taus = np.full((cfg.layers, cfg.heads), 0.9)
        result = simulate(sim_pipeline, taus, 0.0)
        assert result.reuse_rate == 0.0
        assert result.predictions == cfg.steps * cfg.layers * cfg.heads

    def test_infinite_delta_reuses_after_cold_start(self, sim_pipeline):
        cfg = sim_pipeline.trace.config
        taus = np.full((cfg.layers, cfg.heads), 0.9)
        result = simulate(sim_pipeline, taus, math.inf)
        assert result.reuse_rate == pytest.approx((cfg.steps - 1) / cfg.steps)

    def test_frozen_trace_reuses_every_later_step(self):
        cfg = TraceConfig(kappa_range=(1.0, 1.0), steps=10)
        pipe = ForwardPipeline(generate_trace(cfg))
        taus = np.full((cfg.layers, cfg.heads), 0.9)
        result = simulate(pipe, taus, 0.5)
        assert result.reuse_rate == pytest.approx((cfg.steps - 1) / cfg.steps)
        # Zero drift also means a fresh mask would be identical: every
        # refreshed-vs-cached comparison would flip nothing.
        for record in result.records:
            if record.decision == REUSE:
                assert record.changed_ratio == 0.0

    def test_gate_disabled_matches_per_head_decisions(self, sim_pipeline):
        # The band (0, 1) never forces: each head refreshes exactly when it
        # is cold or its own drift exceeds delta.
        cfg = sim_pipeline.trace.config
        taus = np.full((cfg.layers, cfg.heads), 0.9)
        delta = 3.0
        result = simulate(sim_pipeline, taus, delta, gate=(0.0, 1.0))
        assert result.gate_forced == 0
        assert {r.decision for r in result.records} == {COLD_START, REFRESH, REUSE}
        for record in result.records:
            proposed = record.drift is None or record.drift > delta
            assert proposed == (record.decision != REUSE)

    def test_reuse_rate_monotone_in_delta(self, sim_pipeline):
        cfg = sim_pipeline.trace.config
        taus = np.full((cfg.layers, cfg.heads), 0.9)
        rates = [
            simulate(sim_pipeline, taus, d).reuse_rate
            for d in (0.0, 5.0, 10.0, 30.0, 100.0)
        ]
        assert all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))

    def test_velocity_error_reported(self, sim_pipeline):
        cfg = sim_pipeline.trace.config
        taus = np.full((cfg.layers, cfg.heads), 0.85)
        result = simulate(sim_pipeline, taus, 0.0)
        assert result.mean_velocity_rel_l2 > 0.0
        assert np.isfinite(result.mean_velocity_rel_l2)

    def test_one_softmax_per_head_chunk_per_step(self, sim_pipeline, monkeypatch):
        # The sparse forward computes each step's dense state together with
        # its masked heads, and the dense forward reads the held state.
        cfg = sim_pipeline.trace.config
        monkeypatch.setattr(surrogate, "PROB_CHUNK_ELEMENTS", 5 * cfg.tokens ** 2)
        chunks = len(surrogate.prob_chunks(cfg.layers * cfg.heads, cfg.tokens))
        assert chunks == 5
        original = surrogate.attention_probs
        calls = []

        def spy(q, k, allow=None):
            calls.append((q.shape[0], allow))
            return original(q, k, allow)

        monkeypatch.setattr(surrogate, "attention_probs", spy)
        pipe = ForwardPipeline(sim_pipeline.trace, sim_pipeline.model)
        result = simulate(pipe, np.full((cfg.layers, cfg.heads), 0.9), 0.5)
        assert 0 < result.reuse_rate < 1
        assert len(calls) == cfg.steps * chunks
        assert all(allow is None for _, allow in calls)
        assert sum(heads for heads, _ in calls) == cfg.steps * cfg.layers * cfg.heads

    def test_taus_shape_checked(self, sim_pipeline):
        with pytest.raises(ShapeMismatch):
            simulate(sim_pipeline, np.full((2, 2), 0.9), 1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
    def test_invalid_tau_rejected(self, sim_pipeline, bad):
        cfg = sim_pipeline.trace.config
        taus = np.full((cfg.layers, cfg.heads), 0.9)
        taus[cfg.layers - 1, cfg.heads - 1] = bad
        with pytest.raises(DomainError):
            simulate(sim_pipeline, taus, 1.0)

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_invalid_delta_rejected(self, sim_pipeline, delta):
        cfg = sim_pipeline.trace.config
        with pytest.raises(DomainError):
            simulate(sim_pipeline, np.full((cfg.layers, cfg.heads), 0.9), delta)

    @pytest.mark.parametrize("gate", [(0.9, 0.1), (-0.1, 0.5), (0.5, 1.5)])
    def test_invalid_gate_rejected(self, sim_pipeline, gate):
        cfg = sim_pipeline.trace.config
        with pytest.raises(DomainError):
            simulate(sim_pipeline, np.full((cfg.layers, cfg.heads), 0.9), 1.0, gate=gate)


def reference_simulate(pipeline, taus, delta, gate=DEFAULT_GATE):
    """The per-(layer, head) simulation loop: pool, score and select one head at a time.

    Anchors live in a plain dict, (layer, head) -> (step, q_mean, k_mean, mask).
    Returns the fields of a RunResult plus the count of gate-overridden proposals.
    """
    cfg = pipeline.trace.config
    cache = {}
    last_used = {}
    records = []
    predictions = reuse_count = forced = 0
    velocity_errors = []
    for step in range(cfg.steps):
        step_masks = {}
        for layer in range(cfg.layers):
            pooled = {}
            proposals = []
            for head in range(cfg.heads):
                q_mean, k_mean = pipeline.pooled(step, layer, head)
                pooled[head] = (q_mean, k_mean)
                entry = cache.get((layer, head))
                if entry is None:
                    proposals.append((True, None))
                else:
                    _, anchor_q, anchor_k, _ = entry
                    drift = mean_pool_drift(anchor_q, q_mean, anchor_k, k_mean)
                    proposals.append((drift > delta, drift))
            flags = [want for want, _ in proposals]
            gated = layer_gate(flags, gate[0], gate[1])
            forced += sum(a != b for a, b in zip(flags, gated))
            flags = gated
            for head in range(cfg.heads):
                refresh, drift = flags[head], proposals[head][1]
                entry = cache.get((layer, head))
                if entry is None and not refresh:
                    raise StateError(f"gate forced reuse on cold head ({layer}, {head})")
                if refresh:
                    mask = top_p_select(
                        pipeline.scores(step, layer, head), float(taus[layer, head])
                    )
                    q_mean, k_mean = pooled[head]
                    cache[(layer, head)] = (step, q_mean, k_mean, mask)
                    predictions += 1
                    decision = COLD_START if entry is None else REFRESH
                else:
                    mask = entry[3]
                    reuse_count += 1
                    decision = REUSE
                previous = last_used.get((layer, head))
                changed = (
                    changed_block_ratio(previous.retained, mask.retained)
                    if previous is not None else None
                )
                last_used[(layer, head)] = mask
                step_masks[(layer, head)] = mask
                records.append(StepRecord(
                    step=step, layer=layer, head=head, decision=decision,
                    drift=drift, sparsity=1.0 - mask.count / mask.size, changed_ratio=changed,
                ))
        dense = pipeline.dense_forward(step)
        sparse = pipeline.sparse_forward(step, step_masks)
        denom = float(np.linalg.norm(dense))
        err = float(np.linalg.norm(sparse - dense))
        velocity_errors.append(err / denom if denom > 0 else err)
    total = cfg.steps * cfg.layers * cfg.heads
    return dict(
        records=records, predictions=predictions, reuse_rate=reuse_count / total,
        mean_sparsity=float(np.mean([r.sparsity for r in records])),
        mean_velocity_rel_l2=float(np.mean(velocity_errors)),
        cache=cache, gate_forced=forced,
    )


# Eight heads per layer so a layer can hold a mixed set of proposals.
ORACLE_CONFIG = TraceConfig(layers=3, heads=8, tokens=16, head_dim=4, steps=12, block_size=4,
                            kappa_range=(0.5, 0.999), velocity_shape=(4, 2, 2), seed=5)


@pytest.fixture(scope="module")
def oracle_pipeline():
    return ForwardPipeline(generate_trace(ORACLE_CONFIG))


def mixed_taus():
    return np.array([0.6, 0.75, 0.9, 1.0, 0.85, 0.95, 0.7, 0.99] * ORACLE_CONFIG.layers).reshape(
        ORACLE_CONFIG.layers, ORACLE_CONFIG.heads)


class TestSimulateOracle:
    # "none" is the band (0, 1), which never forces a decision.  The bands
    # (1, 1) and (0, 0) force every layer that is not unanimous; the
    # reference raises if either forces reuse on a cold head.
    @pytest.mark.parametrize("gate", [(0.0, 1.0), DEFAULT_GATE, (0.3, 0.6), (1.0, 1.0), (0.0, 0.0)],
                             ids=["none", "default", "forcing", "all-or-reuse", "any-or-refresh"])
    @pytest.mark.parametrize("delta", [0.0, 2.5, math.inf], ids=["zero", "finite", "inf"])
    @pytest.mark.parametrize("taus", ["shared", "mixed"])
    def test_matches_per_head_loop(self, oracle_pipeline, gate, delta, taus):
        cfg = ORACLE_CONFIG
        grid = mixed_taus() if taus == "mixed" else np.full((cfg.layers, cfg.heads), 0.9)
        result = simulate(oracle_pipeline, grid, delta, gate=gate)
        expected = reference_simulate(oracle_pipeline, grid, delta, gate=gate)
        assert result.records == expected["records"]
        for name in ("predictions", "reuse_rate", "mean_sparsity", "mean_velocity_rel_l2",
                     "gate_forced"):
            assert getattr(result, name) == expected[name], name
        assert (result.anchor_step.shape, result.anchor_pooled.shape, result.anchor_keep.shape) == (
            (cfg.layers, cfg.heads), (cfg.layers, cfg.heads, 2, cfg.head_dim),
            (cfg.layers, cfg.heads, cfg.grid.total_blocks))
        assert sorted(expected["cache"]) == [
            (layer, head) for layer in range(cfg.layers) for head in range(cfg.heads)]
        for (layer, head), (step, q_mean, k_mean, mask) in expected["cache"].items():
            assert result.anchor_step[layer, head] == step
            np.testing.assert_array_equal(result.anchor_pooled[layer, head, 0], q_mean)
            np.testing.assert_array_equal(result.anchor_pooled[layer, head, 1], k_mean)
            np.testing.assert_array_equal(result.anchor_keep[layer, head], mask.retained)

    def test_cases_exercise_reuse_refresh_and_forcing(self, oracle_pipeline):
        cfg = ORACLE_CONFIG
        taus = mixed_taus()
        ungated = simulate(oracle_pipeline, taus, 2.5, gate=(0.0, 1.0))
        assert {r.decision for r in ungated.records} == {COLD_START, REFRESH, REUSE}
        forced = simulate(oracle_pipeline, taus, 2.5, gate=(0.3, 0.6))
        assert forced.gate_forced > 0
        assert ungated.gate_forced == 0
        assert 0 < forced.predictions < cfg.steps * cfg.layers * cfg.heads


class TestGateForced:
    def test_counts_overridden_proposals(self, oracle_pipeline):
        # Replay each decision: the proposal is a refresh when the head is
        # cold or its drift exceeds delta; the gate forced it when the
        # final decision disagrees.
        delta = 2.5
        result = simulate(oracle_pipeline, mixed_taus(), delta, gate=(0.3, 0.6))
        by_hand = 0
        for record in result.records:
            proposed = record.drift is None or record.drift > delta
            by_hand += proposed != (record.decision != REUSE)
        assert by_hand > 0
        assert result.gate_forced == by_hand

    def test_no_gate_forces_nothing(self, oracle_pipeline):
        result = simulate(oracle_pipeline, mixed_taus(), 2.5, gate=(0.0, 1.0))
        assert result.gate_forced == 0
