import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satool.errors import ConfigError, DomainError, ShapeMismatch, TraceFormatError
from satool.surrogate import ForwardPipeline, SurrogateModel, masked_attention
from satool.trace import (
    _HEADER,
    MAX_PROJECTION_ELEMENTS,
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceConfig,
    generate_trace,
    head_parameters,
    read_trace,
    write_trace,
)
from satool.blocksparse import full_mask, top_p_select


def mean_adjacent_l1(trace):
    diffs = np.abs(np.diff(trace.data.astype(np.float64), axis=0))
    return float(diffs.mean())


class TestConfig:
    def test_projection_size_cap(self):
        small = dict(layers=1, heads=1, tokens=1, head_dim=1, block_size=1)
        at_cap = TraceConfig(**small, velocity_shape=(2 ** 10, 2 ** 9, 2 ** 9))
        assert math.prod(at_cap.velocity_shape) * at_cap.feature_count == MAX_PROJECTION_ELEMENTS
        with pytest.raises(ConfigError, match="surrogate projection"):
            TraceConfig(**small, velocity_shape=(2 ** 10, 2 ** 9, 2 ** 9 + 1))
        with pytest.raises(ConfigError, match="surrogate projection"):
            TraceConfig(layers=1, heads=2 ** 16, tokens=2 ** 16, head_dim=1, block_size=1,
                        velocity_shape=(1, 1, 1))

    def test_rejects_indivisible_tokens(self):
        with pytest.raises(ConfigError):
            TraceConfig(tokens=30, block_size=7)

    def test_rejects_zero_dims(self):
        with pytest.raises(ConfigError):
            TraceConfig(layers=0)

    def test_rejects_bad_kappa_range(self):
        with pytest.raises(ConfigError):
            TraceConfig(kappa_range=(0.9, 0.2))
        with pytest.raises(ConfigError):
            TraceConfig(kappa_range=(-0.1, 0.5))

    def test_heads_draw_heterogeneous_kappa(self):
        kappa, scale = head_parameters(TraceConfig())
        assert kappa.shape == (4, 6)
        assert kappa.std() > 0
        assert scale.std() > 0


class TestGenerateTrace:
    def test_frozen_heads_have_constant_features(self):
        trace = generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=5))
        for t in range(1, 5):
            np.testing.assert_array_equal(trace.data[t], trace.data[0])

    def test_determinism(self):
        cfg = TraceConfig(steps=4)
        a = generate_trace(cfg)
        b = generate_trace(cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_trace(self):
        a = generate_trace(TraceConfig(steps=4, seed=0))
        b = generate_trace(TraceConfig(steps=4, seed=1))
        assert not np.array_equal(a.data, b.data)

    def test_adjacent_distance_smaller_for_smoother_heads(self):
        smooth = generate_trace(TraceConfig(kappa_range=(0.99, 0.99), steps=10))
        rough = generate_trace(TraceConfig(kappa_range=(0.5, 0.5), steps=10))
        assert mean_adjacent_l1(smooth) < mean_adjacent_l1(rough)

    def test_drift_monotone_in_kappa_sweep(self):
        from satool.reuse import full_token_drift

        def mean_drift(kappa):
            trace = generate_trace(TraceConfig(kappa_range=(kappa, kappa), steps=12))
            cfg = trace.config
            values = [
                full_token_drift(
                    trace.q(t, l, h), trace.q(t + 1, l, h),
                    trace.k(t, l, h), trace.k(t + 1, l, h),
                )
                for l in range(cfg.layers) for h in range(cfg.heads)
                for t in range(cfg.steps - 1)
            ]
            return float(np.mean(values))

        drifts = [mean_drift(k) for k in (0.5, 0.9, 0.99, 1.0)]
        assert all(drifts[i + 1] <= drifts[i] for i in range(len(drifts) - 1))
        assert drifts[-1] == 0.0

    def test_entries_finite(self, default_trace):
        assert np.isfinite(default_trace.data).all()


class TestAccessors:
    def test_index_arrays_gather_per_head_copies(self, default_trace):
        cfg = default_trace.config
        layers = np.array([3, 0, 0, 2, 3])
        heads = np.array([5, 0, 4, 1, 5])
        for name in ("q", "k", "v"):
            accessor = getattr(default_trace, name)
            gathered = accessor(7, layers, heads)
            assert gathered.dtype == np.float64
            assert gathered.shape == (5, cfg.tokens, cfg.head_dim)
            expected = np.stack([accessor(7, l, h) for l, h in zip(layers, heads)])
            np.testing.assert_array_equal(gathered, expected)
            grid = accessor(7, np.arange(cfg.layers)[:, None], np.arange(cfg.heads))
            assert grid.shape == (cfg.layers, cfg.heads, cfg.tokens, cfg.head_dim)
            np.testing.assert_array_equal(grid[2, 3], accessor(7, 2, 3))


class TestTraceFile:
    def test_round_trip(self, tmp_path, small_trace):
        path = tmp_path / "trace.satr"
        write_trace(small_trace, path)
        back = read_trace(path)
        assert back.config == small_trace.config
        np.testing.assert_array_equal(back.data, small_trace.data)

    def test_magic_bytes(self, tmp_path, small_trace):
        path = tmp_path / "trace.satr"
        write_trace(small_trace, path)
        assert path.read_bytes()[:4] == TRACE_MAGIC

    def test_byte_identical_rewrites(self, tmp_path, small_config):
        p1 = tmp_path / "a.satr"
        p2 = tmp_path / "b.satr"
        write_trace(generate_trace(small_config), p1)
        write_trace(generate_trace(small_config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.satr"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_rejects_truncated_payload(self, tmp_path, small_trace):
        path = tmp_path / "trace.satr"
        write_trace(small_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_rejects_payload_size_that_overflows_int64(self, tmp_path):
        # 2**16 layers, heads, tokens and steps: an int64 product of the
        # payload size wraps to 0 and would accept a header-only file.
        big = 2 ** 16
        path = tmp_path / "huge.satr"
        path.write_bytes(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, big, big, big, 1, big, 1,
                                      1, 1, 1, 0.2, 0.9, 0.8, 2.0, 0))
        with pytest.raises(TraceFormatError, match="expected"):
            read_trace(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(counts=st.lists(st.one_of(st.integers(0, 4), st.sampled_from([2 ** 16, 2 ** 32 - 1]),
                                     st.integers(0, 2 ** 32 - 1)), min_size=9, max_size=9),
           ranges=st.lists(st.floats(width=32), min_size=4, max_size=4),
           payload=st.binary(max_size=64))
    def test_fuzzed_header_reads_or_fails_cleanly(self, tmp_path, counts, ranges, payload):
        path = tmp_path / "fuzz.satr"
        path.write_bytes(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, *counts, *ranges, 7) + payload)
        try:
            trace = read_trace(path)
        except TraceFormatError:
            return
        layers, heads, tokens, head_dim, steps = counts[:5]
        assert trace.data.shape == (steps, layers, heads, 3, tokens, head_dim)


class TestSurrogateModel:
    def test_deterministic_given_seed(self, default_config):
        a = SurrogateModel.from_config(default_config)
        b = SurrogateModel.from_config(default_config)
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_lipschitz_bound_matches_spectral_norm(self, small_config):
        model = SurrogateModel.from_config(small_config)
        exact = float(np.linalg.svd(model.weight, compute_uv=False)[0])
        assert model.lipschitz_bound() == pytest.approx(exact, rel=1e-6)

    def test_output_displacement_within_lipschitz_bound(self, small_config, rng):
        model = SurrogateModel.from_config(small_config)
        bound = model.lipschitz_bound()
        cfg = small_config
        for _ in range(20):
            a = rng.standard_normal((cfg.tokens, cfg.heads * cfg.head_dim))
            b = rng.standard_normal((cfg.tokens, cfg.heads * cfg.head_dim))
            lhs = np.linalg.norm(model.project(a) - model.project(b))
            rhs = bound * np.linalg.norm(a - b)
            assert lhs <= rhs + 1e-12


class TestDenseForward:
    def test_zero_values_give_bias_field(self, small_config):
        trace = generate_trace(small_config)
        trace.data[:, :, :, 2, :, :] = 0.0
        pipe = ForwardPipeline(trace)
        np.testing.assert_array_equal(pipe.dense_forward(0), pipe.model.bias_field)

    def test_cache_hit_flag_and_identity(self, small_trace):
        pipe = ForwardPipeline(small_trace)
        first = pipe.dense_forward(1)
        assert pipe.last_dense_cached is False
        second = pipe.dense_forward(1)
        assert pipe.last_dense_cached is True
        np.testing.assert_array_equal(first, second)

    def test_pure_across_pipeline_instances(self, small_trace):
        a = ForwardPipeline(small_trace).dense_forward(2)
        b = ForwardPipeline(small_trace).dense_forward(2)
        np.testing.assert_array_equal(a, b)

    def test_step_out_of_range(self, small_trace):
        pipe = ForwardPipeline(small_trace)
        with pytest.raises(DomainError):
            pipe.dense_forward(small_trace.config.steps)

    def test_two_token_hand_propagation(self):
        # Single head, two tokens: propagate softmax attention and the seeded
        # projection by hand, independent of the pipeline code path.
        cfg = TraceConfig(layers=1, heads=1, tokens=2, head_dim=2, steps=1,
                          block_size=1, velocity_shape=(2, 2, 2), seed=3)
        trace = generate_trace(cfg)
        q, k, v = trace.q(0, 0, 0), trace.k(0, 0, 0), trace.v(0, 0, 0)
        expected_out = np.zeros((2, 2))
        for i in range(2):
            logits = [float(q[i] @ k[j]) / math.sqrt(2.0) for j in range(2)]
            m = max(logits)
            weights = [math.exp(x - m) for x in logits]
            total = sum(weights)
            for j in range(2):
                expected_out[i] += (weights[j] / total) * v[j]
        model = SurrogateModel.from_config(cfg)
        flat = expected_out.reshape(-1)
        expected_field = np.tanh(model.weight @ flat + model.bias).reshape((2, 2, 2))
        pipe = ForwardPipeline(trace, model)
        np.testing.assert_allclose(pipe.dense_forward(0), expected_field, rtol=1e-12)


class TestSparseForward:
    def test_full_masks_equal_dense_bitwise(self, default_pipeline):
        pipe = default_pipeline
        cfg = pipe.trace.config
        masks = {
            (l, h): full_mask(cfg.grid)
            for l in range(cfg.layers) for h in range(cfg.heads)
        }
        dense = pipe.dense_forward(2)
        sparse = pipe.sparse_forward(2, masks)
        np.testing.assert_array_equal(sparse, dense)

    def test_top_p_tau_one_equals_dense_bitwise(self, default_pipeline):
        pipe = default_pipeline
        cfg = pipe.trace.config
        masks = {}
        for l in range(cfg.layers):
            for h in range(cfg.heads):
                masks[(l, h)] = top_p_select(pipe.scores(3, l, h), 1.0)
                assert masks[(l, h)].count == cfg.grid.total_blocks
        np.testing.assert_array_equal(pipe.sparse_forward(3, masks), pipe.dense_forward(3))

    def test_diagonal_only_mask_perturbs_output(self, default_pipeline):
        pipe = default_pipeline
        grid = pipe.trace.config.grid
        retained = np.zeros(grid.total_blocks, dtype=bool)
        for i in range(grid.blocks_per_side):
            retained[grid.block_index(i, i)] = True
        from satool.blocksparse import BlockMask

        sparse = pipe.sparse_forward(0, {(0, 0): BlockMask(retained)})
        dense = pipe.dense_forward(0)
        assert float(np.abs(sparse - dense).max()) > 0

    def test_dense_marker_is_noop(self, default_pipeline):
        sparse = default_pipeline.sparse_forward(1, {(0, 0): None})
        np.testing.assert_array_equal(sparse, default_pipeline.dense_forward(1))

    def test_grid_mismatch_rejected(self, default_pipeline):
        from satool.blocksparse import BlockMask

        with pytest.raises(ShapeMismatch):
            default_pipeline.sparse_forward(0, {(0, 0): BlockMask(np.ones(5, bool))})


class TestMaskedAttention:
    def test_fully_blocked_rows_emit_zeros(self, rng):
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        allow = np.ones((4, 4), dtype=bool)
        allow[2, :] = False
        out = masked_attention(q, k, v, allow)
        np.testing.assert_array_equal(out[2], np.zeros(3))
        assert np.abs(out[[0, 1, 3]]).min() >= 0.0

    def test_matches_explicit_softmax(self, rng):
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        allow = rng.random((5, 5)) < 0.7
        allow[:, 0] = True
        out = masked_attention(q, k, v, allow)
        for i in range(5):
            logits = np.array([
                float(q[i] @ k[j]) / math.sqrt(4.0) if allow[i, j] else -np.inf
                for j in range(5)
            ])
            weights = np.exp(logits - logits[np.isfinite(logits)].max())
            weights[~np.isfinite(logits)] = 0.0
            probs = weights / weights.sum()
            np.testing.assert_allclose(out[i], probs @ v, rtol=1e-10, atol=1e-12)
