"""Batched masked attention, the head-major surrogate weight, the incremental
sparse forward and the pre-activation changes behind calibration.

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
from satool.blocksparse import BlockMask
from satool.errors import ShapeMismatch
from satool.surrogate import (
    PROB_CHUNK_ELEMENTS,
    ForwardPipeline,
    SurrogateModel,
    attention_probs,
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


def dense_attention(pipe: ForwardPipeline, step: int, layer: int, head: int) -> np.ndarray:
    trace = pipe.trace
    probs = attention_probs(trace.q(step, layer, head), trace.k(step, layer, head))
    return probs @ trace.v(step, layer, head)


def dense_preactivation(pipe: ForwardPipeline, step: int) -> np.ndarray:
    """The projection of every head's ``dense_attention``, summed over layers in layer order."""
    c = pipe.trace.config
    features = np.zeros((c.heads, c.tokens, c.head_dim))
    for layer in range(c.layers):
        features += [dense_attention(pipe, step, layer, head) for head in range(c.heads)]
    return pipe.model.project(features)


def reference_from_features(pipe: ForwardPipeline, step: int, edit) -> np.ndarray:
    c = pipe.trace.config
    features = np.zeros((c.tokens, c.heads * c.head_dim))
    for layer in range(c.layers):
        for head in range(c.heads):
            features[:, head * c.head_dim:(head + 1) * c.head_dim] += (
                dense_attention(pipe, step, layer, head)
            )
    edit(features)
    weight = token_major_weight(pipe.model, c)
    return np.tanh(weight @ features.reshape(-1) + pipe.model.bias).reshape(c.velocity_shape)


def reference_sparse(pipe: ForwardPipeline, step: int, masks) -> np.ndarray:
    c = pipe.trace.config

    def edit(features):
        for (layer, head), mask in masks.items():
            out = masked_attention(
                pipe.trace.q(step, layer, head), pipe.trace.k(step, layer, head),
                pipe.trace.v(step, layer, head), expand_block_mask(mask, pipe.grid)[None], [0],
            )[0]
            cols = slice(head * c.head_dim, (head + 1) * c.head_dim)
            features[:, cols] += out - dense_attention(pipe, step, layer, head)

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
        pre = model.project(
            features.reshape(CONFIG.tokens, CONFIG.heads, CONFIG.head_dim).swapaxes(0, 1))
        field = model.field(pre)
        np.testing.assert_allclose(field.reshape(-1), expected, rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(np.tanh(pre).reshape(CONFIG.velocity_shape), field)

    def test_project_rejects_wrong_feature_shape(self, pipeline):
        with pytest.raises(ShapeMismatch):
            pipeline.model.project(np.zeros(CONFIG.feature_count))
        with pytest.raises(ShapeMismatch):
            pipeline.model.project(np.zeros((CONFIG.tokens, CONFIG.heads * CONFIG.head_dim)))
        with pytest.raises(ShapeMismatch):
            pipeline.model.project(np.zeros((CONFIG.tokens, CONFIG.heads, CONFIG.head_dim)))
        with pytest.raises(ShapeMismatch):
            pipeline.model.project(np.zeros((CONFIG.heads, CONFIG.tokens, CONFIG.head_dim + 1)))

    @settings(max_examples=100, deadline=None)
    @given(heads=st.integers(1, 4), width=st.sampled_from([1, 6, 33, 128]),
           values=st.sampled_from([1, 7, 64, 300]), data=st.data())
    def test_head_changes_rows_are_lone_projections(self, heads, width, values, data):
        # Repeated heads in any order: each row has the bits of a lone
        # matrix-vector product through its head's columns.
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        model = SurrogateModel(rng.standard_normal((values, heads * width)),
                               rng.standard_normal(values), (values, 1, 1), heads=heads)
        rows = data.draw(st.lists(st.integers(0, heads - 1), max_size=10))
        outputs = rng.standard_normal((len(rows), width, 1))
        changes = model.head_changes(rows, outputs)
        assert changes.shape == (len(rows), values)
        for change, head, output in zip(changes, rows, outputs):
            np.testing.assert_array_equal(change,
                                          model.head_columns(head, head + 1) @ output.reshape(-1))

    def test_head_changes_reject_bad_rows(self, pipeline):
        model, width = pipeline.model, pipeline.model.head_width
        for heads, outputs in (([CONFIG.heads], np.zeros((1, width))), ([-1], np.zeros((1, width))),
                               ([0, 1], np.zeros((1, width))), ([0], np.zeros((1, width + 1)))):
            with pytest.raises(ShapeMismatch):
                model.head_changes(heads, outputs)

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
        st.just("absent"), bits,
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
        # Output perturbations enter as pre-activation changes: each head's
        # delta projected through that head's weight columns, summed.
        rng = np.random.default_rng(seed)
        deltas = {key: amplitude * rng.standard_normal((CONFIG.tokens, CONFIG.head_dim))
                  for key in keys}
        change = np.zeros(pipeline.model.bias.size)
        for (_, head), delta in deltas.items():
            change += pipeline.model.head_columns(head, head + 1) @ delta.reshape(-1)
        np.testing.assert_allclose(pipeline.field_after(step, change),
                                   reference_perturbed(pipeline, step, deltas),
                                   rtol=RTOL, atol=ATOL)

    def test_field_after_batches_and_checks_the_value_axis(self, pipeline, rng):
        values = pipeline.model.bias.size
        changes = rng.standard_normal((2, 3, values))
        fields = pipeline.field_after(1, changes)
        assert fields.shape == (2, 3) + CONFIG.velocity_shape
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(fields[index], pipeline.field_after(1, changes[index]))
        np.testing.assert_array_equal(pipeline.field_after(1, np.zeros(values)),
                                      pipeline.dense_forward(1))
        for bad in (np.zeros(values + 1), np.zeros((values, 1)), np.float64(0.0)):
            with pytest.raises(ShapeMismatch):
                pipeline.field_after(1, bad)

    def test_full_and_absent_masks_equal_dense_bitwise(self, pipeline):
        masks = {key: BlockMask(np.ones(BLOCKS, dtype=bool))
                 for i, key in enumerate(HEADS[:-2]) if i % 2}
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

    def test_dense_head_outputs_are_per_head_attention(self, pipeline):
        # The held pre-activation projects attention on the per-head float64
        # copies, and an all-true mask changes nothing, exactly.
        np.testing.assert_array_equal(pipeline._preactivation(2),
                                      dense_preactivation(pipeline, 2))
        layers, heads = np.array(HEADS).T
        full = np.ones((len(HEADS), BLOCKS), dtype=bool)
        assert not pipeline.preactivation_changes(2, layers, heads, full).any()


class TestHeldStep:
    """The pipeline holds one step's dense state; another step is computed with the same bits."""

    def test_returning_to_a_step_recomputes_it_bitwise(self, pipeline):
        pipe = ForwardPipeline(pipeline.trace, pipeline.model)
        first = pipe.dense_forward(1)
        assert pipe.last_dense_cached is False
        pipe.dense_forward(2)
        again = pipe.dense_forward(1)
        assert pipe.last_dense_cached is False
        np.testing.assert_array_equal(again, first)
        pipe.dense_forward(1)
        assert pipe.last_dense_cached is True

    def test_earlier_step_matches_a_fresh_pipeline(self, pipeline, rng):
        layers, heads = np.array(HEADS).T
        retained = rng.random((len(HEADS), BLOCKS)) < 0.5
        moved = ForwardPipeline(pipeline.trace, pipeline.model)
        moved.dense_forward(1)
        moved.dense_forward(2)
        fresh = ForwardPipeline(pipeline.trace, pipeline.model)
        np.testing.assert_array_equal(moved._preactivation(1), fresh._preactivation(1))
        moved.dense_forward(2)
        np.testing.assert_array_equal(moved.preactivation_changes(1, layers, heads, retained),
                                      fresh.preactivation_changes(1, layers, heads, retained))
        # Rows asked for on the held step itself: it is computed again, with the same bits.
        held = moved._preactivation(1).copy()
        np.testing.assert_array_equal(moved.preactivation_changes(1, layers, heads, retained),
                                      fresh.preactivation_changes(1, layers, heads, retained))
        np.testing.assert_array_equal(moved._preactivation(1), held)


class TestSingleHeadResiduals:
    """``field_after`` of ``preactivation_changes`` rows against sparse forwards, bit for bit."""

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
        changes = pipeline.preactivation_changes(step, layers, heads, retained)
        assert changes.shape == (len(rows), pipeline.model.bias.size)
        fields = pipeline.field_after(step, changes)
        assert fields.shape == (len(rows),) + CONFIG.velocity_shape
        for change, field, (key, mask) in zip(changes, fields, rows):
            np.testing.assert_array_equal(field, pipeline.sparse_forward(step, {key: mask}))
            if mask.retained.all():
                assert not change.any()

    @settings(max_examples=60, deadline=None)
    @given(step=st.integers(0, CONFIG.steps - 1),
           choices=st.lists(mask_strategy(), min_size=len(HEADS), max_size=len(HEADS)))
    def test_summed_rows_match_the_multi_head_sparse_forward(self, pipeline, step, choices):
        # With no mask drawn there are no rows, and the sum is the dense field.
        masks = {key: mask for key, mask in zip(HEADS, choices) if isinstance(mask, BlockMask)}
        layers, heads = np.array(list(masks), dtype=int).reshape(-1, 2).T
        retained = np.array([mask.retained for mask in masks.values()]).reshape(-1, BLOCKS)
        changes = pipeline.preactivation_changes(step, layers, heads, retained)
        assert changes.shape == (len(masks), pipeline.model.bias.size)
        np.testing.assert_array_equal(pipeline.field_after(step, changes.sum(axis=0)),
                                      pipeline.sparse_forward(step, masks))

    def test_rejects_bad_rows(self, pipeline):
        keep = np.zeros((1, BLOCKS), dtype=bool)
        with pytest.raises(ShapeMismatch):
            pipeline.preactivation_changes(0, [0], [0], np.zeros((1, BLOCKS + 1), dtype=bool))
        with pytest.raises(ShapeMismatch):
            pipeline.preactivation_changes(0, [0, 1], [0, 1], keep)
        for layers, heads in (([CONFIG.layers], [0]), ([0], [-1])):
            with pytest.raises(ShapeMismatch):
                pipeline.preactivation_changes(0, layers, heads, keep)


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
        lead, tokens = q.shape[:-2], q.shape[-2]
        masked = masked_attention(q, k, v, allow.reshape(-1, tokens, tokens),
                                  np.arange(math.prod(lead))).reshape(v.shape)
        dense = attention_probs(q, k) @ v
        for index in np.ndindex(lead):
            head = (q[index], k[index], v[index])
            np.testing.assert_array_equal(masked[index],
                                          masked_attention(*head, allow[index][None], [0])[0])
            np.testing.assert_array_equal(dense[index], attention_probs(*head[:2]) @ head[2])
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
        out = masked_attention(q, k, v, allow, np.arange(heads))
        for i in range(heads):
            np.testing.assert_array_equal(
                out[i], masked_attention(q[i], k[i], v[i], allow[i][None], [0])[0])

    def test_mask_shape_checked(self, rng):
        q = rng.standard_normal((2, 4, 3))
        with pytest.raises(ShapeMismatch):
            masked_attention(q, q, q, np.ones((2, 4, 5), dtype=bool), [0, 1])

    def test_masks_without_heads_rejected(self, rng):
        q = rng.standard_normal((2, 4, 3))
        for allow in (np.ones((2, 4, 4), dtype=bool), np.ones((4, 4), dtype=bool)):
            with pytest.raises(TypeError):
                masked_attention(q, q, q, allow)

    def test_zero_masks_fill_the_dense_output(self, rng):
        q, k, v = (rng.standard_normal((2, 3, 8, 2)) for _ in range(3))
        filled = np.empty_like(v)
        out = masked_attention(q, k, v, np.ones((0, 4, 4), dtype=bool), np.empty(0, int),
                               dense_out=filled)
        assert out.shape == (0, 8, 2)
        np.testing.assert_array_equal(filled, attention_probs(q, k) @ v)

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
            np.testing.assert_array_equal(chunked._preactivation(step),
                                          dense_preactivation(pipeline, step))



def per_row_reference(q, k, v, tiles):
    """One head's tile-masked attention, row by row: a softmax over each row's kept keys.

    The logits are the one (tokens x tokens) product ``attention_probs``
    makes, so the comparison sees the reweighting, not logits rounding.
    """
    tokens, dim = q.shape
    width = tokens // tiles.shape[0]
    logits = q @ k.T / math.sqrt(dim)
    allow = np.repeat(np.repeat(tiles, width, axis=0), width, axis=1)
    out = np.zeros((tokens, v.shape[1]))
    for t in np.flatnonzero(allow.any(axis=1)):
        weights = np.exp(logits[t, allow[t]] - logits[t, allow[t]].max())
        out[t] = (weights / weights.sum()) @ v[allow[t]]
    return out


@st.composite
def tile_mask_calls(draw):
    """Q, K, V of 1-4 heads and 1-6 tile masks naming a head each.

    Tiles are 1-5 tokens wide and D is 1-6.  At a Q/K scale of 1e3 the
    logits span millions, so some kept blocks hold no dense mass at all.
    """
    heads, width, side = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    tokens, dim = side * width, draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 10.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, k = (scale * rng.standard_normal((heads, tokens, dim)) for _ in range(2))
    v = rng.standard_normal((heads, tokens, dim))
    masks = draw(st.integers(1, 6))
    owner = rng.integers(0, heads, masks)
    tiles = rng.random((masks, side, side)) < rng.random(masks)[:, None, None]
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["random", "empty rows", "full"]),
                                           min_size=masks, max_size=masks))):
        if kind == "empty rows":
            tiles[i, rng.random(side) < 0.5] = False
        elif kind == "full":
            tiles[i] = True
    return q, k, v, tiles, owner


class TestTileMaskKernel:
    """``masked_attention`` with a head per mask: the dense softmax, reweighted per mask."""

    @settings(max_examples=200, deadline=None)
    @given(call=tile_mask_calls())
    def test_matches_per_row_softmax(self, call):
        q, k, v, tiles, owner = call
        recomputed = []
        original = surrogate.attention_probs

        def spy(q, k, allow=None):
            if allow is not None:
                recomputed.append(allow)
            return original(q, k, allow)

        filled = np.empty_like(v)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surrogate, "attention_probs", spy)
            out = masked_attention(q, k, v, tiles, owner, dense_out=filled)
        assert out.shape == (len(owner),) + v.shape[1:] and np.isfinite(out).all()
        probs = surrogate.attention_probs(q, k)
        dense = probs @ v
        np.testing.assert_array_equal(filled, dense)
        width = q.shape[1] // tiles.shape[1]
        underflow = False
        for i, head in enumerate(owner.tolist()):
            keep = np.repeat(tiles[i], width, axis=0)
            reference = per_row_reference(q[head], k[head], v[head], tiles[i])
            np.testing.assert_allclose(out[i], reference,
                                       rtol=1e-12, atol=1e-12 * np.abs(v[head]).max())
            full, empty = keep.all(axis=1), ~keep.any(axis=1)
            np.testing.assert_array_equal(out[i, full], dense[head, full])
            assert not out[i, empty].any()
            # A row's bits are its own: the mask alone on its head gives them.
            np.testing.assert_array_equal(
                out[i], masked_attention(q[head], k[head], v[head], tiles[i][None], [0])[0])
            mass = (probs[head] * np.repeat(keep, width, axis=1)).sum(axis=1)
            underflow |= bool((mass[~full & ~empty] < surrogate.KEPT_MASS_FLOOR).any())
        assert bool(recomputed) == underflow

    def test_a_block_with_no_dense_mass_is_recomputed(self):
        # Key 1's logit is 1800 below key 0's, so its dense probability is 0;
        # a mask keeping only key 1 must still attend to it fully.
        q, k = np.array([[[30.0], [-30.0]]]), np.array([[[30.0], [-30.0]]])
        v = np.array([[[1.0], [2.0]]])
        tiles = np.array([[[False, True], [True, False]]])
        assert surrogate.attention_probs(q, k)[0, 0, 1] == 0.0
        out = masked_attention(q, k, v, tiles, np.array([0]))
        np.testing.assert_array_equal(out, [[[2.0], [1.0]]])

    def test_masks_share_one_softmax_per_head(self, rng, monkeypatch):
        calls = []
        original = surrogate.attention_probs

        def spy(q, k, allow=None):
            calls.append(q.shape)
            return original(q, k, allow)

        monkeypatch.setattr(surrogate, "attention_probs", spy)
        q, k, v = (rng.standard_normal((3, 8, 2)) for _ in range(3))
        tiles = rng.random((7, 4, 4)) < 0.5
        masked_attention(q, k, v, tiles, np.array([0, 2, 2, 1, 0, 2, 1]))
        assert calls == [(3, 8, 2)]

    @pytest.mark.parametrize("tiles, heads", [
        (np.ones((2, 3, 3), dtype=bool), [0, 1]),   # 3 does not divide 8 tokens
        (np.ones((2, 4, 2), dtype=bool), [0, 1]),   # not square
        (np.ones((2, 4, 4), dtype=bool), [0]),      # one head per mask
        (np.ones((2, 4, 4), dtype=bool), [0, 2]),   # head out of range
    ])
    def test_bad_tiles_rejected(self, rng, tiles, heads):
        q = rng.standard_normal((2, 8, 3))
        with pytest.raises(ShapeMismatch):
            masked_attention(q, q, q, tiles, np.array(heads))
