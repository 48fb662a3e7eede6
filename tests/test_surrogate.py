"""Batched masked attention, the head-major surrogate weight and the incremental
sparse/perturbed forwards.

The references below are the full-projection forwards: rebuild the dense
token-major features from the per-head outputs, add each masked head's output
change (or perturbation) in its columns, and project through the token-major
weight recovered from the head-major layout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satool import surrogate
from satool.blocksparse import BlockMask, full_mask
from satool.errors import ShapeMismatch
from satool.surrogate import (
    PROB_CHUNK_ELEMENTS,
    ForwardPipeline,
    SurrogateModel,
    expand_block_mask,
    masked_attention,
)
from satool.trace import _MODEL_STREAM, TraceConfig, generate_trace

# Three layers share every head index; 4x4 = 16 blocks per mask.
CONFIG = TraceConfig(layers=3, heads=3, tokens=8, head_dim=2, steps=4, block_size=2,
                     velocity_shape=(4, 2, 2), seed=21)
BLOCKS = CONFIG.grid.total_blocks

# tanh fields lie in (-1, 1); reassociating the fan-in sums moves them by a
# few ulps of the O(1) pre-activation, so entries near zero need an atol.
RTOL, ATOL = 1e-12, 1e-14


@pytest.fixture(scope="module")
def pipeline():
    return ForwardPipeline(generate_trace(CONFIG))


def token_major_weight(model: SurrogateModel, config: TraceConfig) -> np.ndarray:
    out = model.weight.shape[0]
    return (model.weight.reshape(out, config.heads, config.tokens, config.head_dim)
            .transpose(0, 2, 1, 3).reshape(out, -1))


def reference_from_features(pipe: ForwardPipeline, step: int, edit) -> np.ndarray:
    c = pipe.trace.config
    features = np.zeros((c.tokens, c.heads * c.head_dim))
    for layer in range(c.layers):
        for head in range(c.heads):
            features[:, head * c.head_dim:(head + 1) * c.head_dim] += (
                pipe.dense_head_output(step, layer, head)
            )
    edit(features)
    weight = token_major_weight(pipe.model, c)
    return np.tanh(weight @ features.reshape(-1) + pipe.model.bias).reshape(c.velocity_shape)


def reference_sparse(pipe: ForwardPipeline, step: int, masks) -> np.ndarray:
    c = pipe.trace.config

    def edit(features):
        for (layer, head), mask in masks.items():
            if mask is None:
                continue
            out = masked_attention(
                pipe.trace.q(step, layer, head), pipe.trace.k(step, layer, head),
                pipe.trace.v(step, layer, head), allow=expand_block_mask(mask, pipe.grid),
            )
            cols = slice(head * c.head_dim, (head + 1) * c.head_dim)
            features[:, cols] += out - pipe.dense_head_output(step, layer, head)

    return reference_from_features(pipe, step, edit)


def reference_perturbed(pipe: ForwardPipeline, step: int, deltas) -> np.ndarray:
    c = pipe.trace.config

    def edit(features):
        for (layer, head), delta in deltas.items():
            features[:, head * c.head_dim:(head + 1) * c.head_dim] += delta

    return reference_from_features(pipe, step, edit)


class TestHeadMajorWeight:
    @pytest.mark.parametrize("config", [
        CONFIG,
        TraceConfig(layers=1, heads=5, tokens=6, head_dim=3, steps=1, block_size=3,
                    velocity_shape=(3, 2, 2), seed=2 ** 40 + 9),
    ])
    def test_weight_is_the_token_major_draw_permuted(self, config):
        model = SurrogateModel.from_config(config)
        fan_in = config.feature_count
        out = math.prod(config.velocity_shape)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MODEL_STREAM]))
        drawn = rng.standard_normal((out, fan_in)) / math.sqrt(fan_in)
        bias = rng.standard_normal(out)
        head_major = (drawn.reshape(out, config.tokens, config.heads, config.head_dim)
                      .transpose(0, 2, 1, 3).reshape(out, fan_in))
        np.testing.assert_array_equal(model.weight, head_major)
        np.testing.assert_array_equal(model.bias, bias)
        assert model.weight.flags.c_contiguous

    def test_head_columns_are_a_view_of_those_heads(self, pipeline):
        model = pipeline.model
        width = CONFIG.tokens * CONFIG.head_dim
        block = model.head_columns(1, 3)
        assert block.shape == (model.weight.shape[0], 2 * width)
        assert np.shares_memory(block, model.weight)
        np.testing.assert_array_equal(block, model.weight[:, width:3 * width])

    def test_project_matches_token_major_weight(self, pipeline, rng):
        model = pipeline.model
        weight = token_major_weight(model, CONFIG)
        features = rng.standard_normal((CONFIG.tokens, CONFIG.heads * CONFIG.head_dim))
        expected = np.tanh(weight @ features.reshape(-1) + model.bias)
        pre = np.empty_like(model.bias)
        field = model.project(features, preactivation=pre)
        np.testing.assert_allclose(field.reshape(-1), expected, rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(np.tanh(pre).reshape(CONFIG.velocity_shape), field)

    def test_project_rejects_wrong_feature_shape(self, pipeline):
        with pytest.raises(ShapeMismatch):
            pipeline.model.project(np.zeros(CONFIG.feature_count))
        with pytest.raises(ShapeMismatch):
            pipeline.model.project(np.zeros((CONFIG.tokens, CONFIG.heads * CONFIG.head_dim + 1)))

    def test_pipeline_rejects_model_with_other_head_split(self):
        trace = generate_trace(CONFIG)
        model = SurrogateModel.from_config(CONFIG)
        other = SurrogateModel(model.weight, model.bias, CONFIG.velocity_shape, heads=1)
        with pytest.raises(ShapeMismatch):
            ForwardPipeline(trace, other)


def mask_strategy():
    bits = st.lists(st.booleans(), min_size=BLOCKS, max_size=BLOCKS).map(
        lambda b: BlockMask(np.array(b, dtype=bool))
    )
    return st.one_of(
        st.just("absent"), st.none(), bits,
        st.just(BlockMask(np.ones(BLOCKS, dtype=bool))),
        st.just(BlockMask(np.zeros(BLOCKS, dtype=bool))),
    )


HEADS = [(layer, head) for layer in range(CONFIG.layers) for head in range(CONFIG.heads)]


class TestIncrementalForward:
    @settings(max_examples=60, deadline=None)
    @given(step=st.integers(0, CONFIG.steps - 1),
           choices=st.lists(mask_strategy(), min_size=len(HEADS), max_size=len(HEADS)))
    def test_sparse_matches_full_projection(self, pipeline, step, choices):
        masks = {key: mask for key, mask in zip(HEADS, choices) if not isinstance(mask, str)}
        np.testing.assert_allclose(pipeline.sparse_forward(step, masks),
                                   reference_sparse(pipeline, step, masks),
                                   rtol=RTOL, atol=ATOL)

    @settings(max_examples=60, deadline=None)
    @given(step=st.integers(0, CONFIG.steps - 1),
           keys=st.lists(st.sampled_from(HEADS), unique=True, max_size=len(HEADS)),
           seed=st.integers(0, 2 ** 32 - 1),
           amplitude=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_perturbed_matches_full_projection(self, pipeline, step, keys, seed, amplitude):
        rng = np.random.default_rng(seed)
        deltas = {key: amplitude * rng.standard_normal((CONFIG.tokens, CONFIG.head_dim))
                  for key in keys}
        before = {key: delta.copy() for key, delta in deltas.items()}
        np.testing.assert_allclose(pipeline.perturbed_forward(step, deltas),
                                   reference_perturbed(pipeline, step, deltas),
                                   rtol=RTOL, atol=ATOL)
        for key in keys:
            np.testing.assert_array_equal(deltas[key], before[key])

    def test_full_none_and_absent_masks_equal_dense_bitwise(self, pipeline):
        masks = {key: (full_mask(CONFIG.grid) if i % 2 else None)
                 for i, key in enumerate(HEADS[:-2])}
        for step in range(CONFIG.steps):
            field = pipeline.sparse_forward(step, masks)
            np.testing.assert_array_equal(field, pipeline.dense_forward(step))
            assert field is not pipeline.dense_forward(step)

    def test_empty_mask_changes_field(self, pipeline):
        empty = BlockMask(np.zeros(BLOCKS, dtype=bool))
        field = pipeline.sparse_forward(1, {(0, 1): empty, (2, 1): empty})
        assert float(np.abs(field - pipeline.dense_forward(1)).max()) > 0

    def test_full_mask_of_wrong_size_rejected(self, pipeline):
        with pytest.raises(ShapeMismatch):
            pipeline.sparse_forward(0, {(0, 0): BlockMask(np.ones(BLOCKS + 1, dtype=bool))})

    def test_dense_uses_one_float64_copy_per_step(self, pipeline):
        # Dense head outputs equal attention on the per-head float64 copies.
        for layer, head in HEADS:
            expected = masked_attention(pipeline.trace.q(2, layer, head),
                                        pipeline.trace.k(2, layer, head),
                                        pipeline.trace.v(2, layer, head))
            np.testing.assert_array_equal(pipeline.dense_head_output(2, layer, head), expected)


class TestSingleHeadResiduals:
    @settings(max_examples=60, deadline=None)
    @given(step=st.integers(0, CONFIG.steps - 1),
           rows=st.lists(st.tuples(st.sampled_from(HEADS), mask_strategy()), min_size=1,
                         max_size=12))
    def test_each_row_matches_its_one_head_sparse_forward(self, pipeline, step, rows):
        rows = [(key, mask) for key, mask in rows if isinstance(mask, BlockMask)]
        if not rows:
            return
        layers, heads = np.array([key for key, _ in rows]).T
        retained = np.array([mask.retained for _, mask in rows])
        residuals = pipeline.single_head_residuals(step, layers, heads, retained)
        dense = pipeline.dense_forward(step)
        assert residuals.shape == (len(rows),) + CONFIG.velocity_shape
        for residual, (key, mask) in zip(residuals, rows):
            expected = pipeline.sparse_forward(step, {key: mask}) - dense
            np.testing.assert_allclose(residual, expected, rtol=RTOL, atol=ATOL)
            if mask.retained.all():
                assert not residual.any()

    def test_rejects_bad_rows(self, pipeline):
        keep = np.zeros((1, BLOCKS), dtype=bool)
        with pytest.raises(ShapeMismatch):
            pipeline.single_head_residuals(0, [0], [0], np.zeros((1, BLOCKS + 1), dtype=bool))
        with pytest.raises(ShapeMismatch):
            pipeline.single_head_residuals(0, [0, 1], [0, 1], keep)
        for layers, heads in (([CONFIG.layers], [0]), ([0], [-1])):
            with pytest.raises(ShapeMismatch):
                pipeline.single_head_residuals(0, layers, heads, keep)


def live_rows_reference(q, k, v, allow):
    """One head's masked attention with the softmax and product over live rows only."""
    logits = np.where(allow, (q @ k.T) / math.sqrt(q.shape[1]), -np.inf)
    alive = allow.any(axis=1)
    out = np.zeros((q.shape[0], v.shape[1]))
    if alive.any():
        sub = logits[alive]
        sub -= sub.max(axis=1, keepdims=True)
        e = np.exp(sub)
        out[alive] = (e / e.sum(axis=1, keepdims=True)) @ v
    return out


@st.composite
def attention_batches(draw):
    """Q, K, V of shape (*lead, tokens, D) and block masks blown up to token level."""
    lead = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    blocks_per_side, block = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dim = draw(st.integers(1, 5))
    tokens = blocks_per_side * block
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, k, v = (rng.normal(scale=3.0, size=lead + (tokens, dim)) for _ in range(3))
    kind = draw(st.sampled_from(["random", "empty rows", "all empty", "full"]))
    tiles = rng.random(lead + (blocks_per_side, blocks_per_side)) < rng.random()
    if kind == "empty rows":
        tiles[..., rng.random(blocks_per_side) < 0.5, :] = False
    elif kind == "all empty":
        tiles[...] = False
    elif kind == "full":
        tiles[...] = True
    allow = np.repeat(np.repeat(tiles, block, axis=-2), block, axis=-1)
    return q, k, v, allow


class TestBatchedAttention:
    @settings(max_examples=150, deadline=None)
    @given(batch=attention_batches())
    def test_batched_equals_per_head_loop_bitwise(self, batch):
        q, k, v, allow = batch
        masked, dense = masked_attention(q, k, v, allow), masked_attention(q, k, v)
        for index in np.ndindex(q.shape[:-2]):
            head = (q[index], k[index], v[index])
            np.testing.assert_array_equal(masked[index], masked_attention(*head, allow[index]))
            np.testing.assert_array_equal(dense[index], masked_attention(*head))
            np.testing.assert_allclose(masked[index], live_rows_reference(*head, allow[index]),
                                       rtol=1e-13, atol=1e-15)
        dead = ~allow.any(axis=-1)
        assert not masked[dead].any()
        full = allow.all(axis=(-2, -1))
        np.testing.assert_array_equal(masked[full], dense[full])

    def test_batch_larger_than_chunk_cap(self, rng):
        tokens, dim = 64, 4
        heads = PROB_CHUNK_ELEMENTS // (tokens * tokens) + 3
        q, k, v = (rng.standard_normal((heads, tokens, dim)) for _ in range(3))
        allow = np.repeat(np.repeat(rng.random((heads, 8, 8)) < 0.4, 8, axis=1), 8, axis=2)
        out = masked_attention(q, k, v, allow)
        for i in range(heads):
            np.testing.assert_array_equal(out[i], masked_attention(q[i], k[i], v[i], allow[i]))

    def test_mask_shape_checked(self, rng):
        q = rng.standard_normal((2, 4, 3))
        with pytest.raises(ShapeMismatch):
            masked_attention(q, q, q, np.ones((2, 4, 5), dtype=bool))

    @pytest.mark.parametrize("heads_per_call", [1, 2, 4])
    def test_forwards_do_not_depend_on_the_chunk_cap(self, pipeline, monkeypatch,
                                                     heads_per_call):
        # Nine heads per step in chunks of 1, 2 (partial last chunk) and 4.
        steps = range(CONFIG.steps)
        rng = np.random.default_rng(heads_per_call)
        masks = {key: BlockMask(rng.random(BLOCKS) < 0.5) for key in HEADS}
        expected = [(pipeline.dense_forward(s), pipeline.sparse_forward(s, masks)) for s in steps]
        cap = heads_per_call * CONFIG.tokens ** 2 + CONFIG.tokens
        monkeypatch.setattr(surrogate, "PROB_CHUNK_ELEMENTS", cap)
        chunked = ForwardPipeline(pipeline.trace, pipeline.model)
        for step, (dense, sparse) in zip(steps, expected):
            np.testing.assert_array_equal(chunked.dense_forward(step), dense)
            np.testing.assert_array_equal(chunked.sparse_forward(step, masks), sparse)
            for layer, head in HEADS:
                np.testing.assert_array_equal(chunked.dense_head_output(step, layer, head),
                                              pipeline.dense_head_output(step, layer, head))
