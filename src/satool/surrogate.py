"""Fixed seeded surrogate mapping attention outputs to a denoising-velocity field.

The surrogate stands in for the rest of a denoising network: per-layer head
outputs are concatenated along the feature axis, summed over layers, and pushed
through a single seeded linear projection followed by tanh.  Weights are scaled
by 1/sqrt(fan-in).  tanh is 1-Lipschitz, so the map's Lipschitz constant is
at most the projection's spectral norm, ``np.linalg.norm(weight, 2)``.

The weight is stored head-major: each head's (tokens x head_dim) features own
one contiguous block of columns.  The map is linear before the tanh, so a
head's effect is one pre-activation change, ``W[:, head columns] @ (new -
dense)``, and the field after any set of changes is the tanh of the held
dense pre-activation plus their sum; changing one head reads 1/heads of the
weight.  ``SurrogateModel.head_changes`` is the one projection of such
changes, so sparse forwards and calibration sum the same bits.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .blocksparse import BlockGrid, BlockMask, BlockScores, block_scores
from .errors import ShapeMismatch
from .trace import DenoiseTrace, TraceConfig, _MODEL_STREAM


def attention_probs(q: np.ndarray, k: np.ndarray, allow: np.ndarray | None = None) -> np.ndarray:
    """Row-softmax of scaled dot products over the allowed keys, with max subtraction.

    Q and K are (..., tokens, D) and ``allow`` is (..., tokens, tokens);
    leading axes are independent batches, each computed bit for bit as it
    would be alone.  Disallowed keys get probability 0.  A row whose allowed
    set is empty has its logits cleared, so it comes out uniform.  The
    softmax updates one logits-sized array in place, so a chunk's
    temporaries stay at one PROB_CHUNK_ELEMENTS buffer.
    """
    logits = q @ np.swapaxes(k, -1, -2)
    logits /= math.sqrt(q.shape[-1])
    if allow is not None:
        if allow.shape != logits.shape:
            raise ShapeMismatch(f"mask shape {allow.shape} does not match scores {logits.shape}")
        np.copyto(logits, -np.inf, where=~allow)
        logits[~allow.any(axis=-1)] = 0.0
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


# Cap on the float64 (tokens x tokens) logits one attention call handles:
# batched callers split their heads into chunks of at most this many
# elements (at least one head each), so temporaries stay flat as the head
# count grows.  ``analysis`` chunks its token masks' steps the same way.
PROB_CHUNK_ELEMENTS = 1 << 17


def prob_chunks(count: int, tokens: int) -> list[slice]:
    """Slices over ``count`` (tokens x tokens) logit arrays, each within PROB_CHUNK_ELEMENTS."""
    size = max(1, PROB_CHUNK_ELEMENTS // (tokens * tokens))
    return [slice(start, start + size) for start in range(0, count, size)]


# A masked row whose kept dense probability mass is below this may have lost
# bits to underflow (probabilities under 2**-1022 are subnormal, and 2**-969
# is 53 bits above that), or be 0/0.  Such rows are recomputed from their own
# kept maximum.
KEPT_MASS_FLOOR = 2.0 ** -969


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     allow: np.ndarray | None = None, heads: np.ndarray | None = None,
                     dense_out: np.ndarray | None = None) -> np.ndarray:
    """Attention output under tile masks, from one dense softmax per head.

    Q, K and V are (..., tokens, D); without ``allow`` this is
    ``attention_probs(q, k) @ v``.  ``allow`` holds (M, side, side) tile
    masks, side dividing tokens: tile (r, c) lets the r-th run of tokens /
    side query rows see the c-th run of keys, so a token mask is side =
    tokens.  Mask ``i`` applies to head ``heads[i]`` of Q's flattened
    leading axes, and the result is (M, tokens, D).  ``dense_out``, shaped
    like V, receives the dense output ``p @ v`` of every head as well.

    A mask changes which logits count, not their values.  So with ``p`` the
    dense probabilities and ``l[t, c]`` the mass of row t in key block c, a
    masked row is ``(p * keep) @ v / (keep . l)``: no exp and no max per
    mask, and all masks of a head share its ``p``.  A row that keeps every
    block has the bits of ``p @ v``, so a full mask gives the dense output;
    a row that keeps none is zero.  A row whose kept mass is under
    KEPT_MASS_FLOOR is recomputed by ``attention_probs`` over its kept keys.
    Each row's bits depend only on its own head and mask.
    """
    if allow is None:
        return np.matmul(attention_probs(q, k), v, out=dense_out)
    tokens, side = q.shape[-2], allow.shape[-1]
    if allow.ndim != 3 or allow.shape[1] != side or side == 0 or tokens % side:
        raise ShapeMismatch(f"tile masks of shape {allow.shape} do not tile {tokens} tokens")
    n = math.prod(q.shape[:-2])
    if heads is None:
        raise ShapeMismatch(f"{allow.shape} masks need the head of each mask")
    heads = np.asarray(heads, dtype=int)
    if heads.shape != allow.shape[:1] or (heads.size and not 0 <= heads.min() <= heads.max() < n):
        raise ShapeMismatch(f"{allow.shape} masks need one head in [0, {n}) each")
    p = attention_probs(q, k)
    p3, v3 = p.reshape(n, tokens, tokens), v.reshape(n, tokens, -1)
    if dense_out is not None:
        np.matmul(p, v, out=dense_out)
    width = tokens // side
    keep = np.repeat(allow, width, axis=1)  # (masks, tokens, side): each row's blocks
    # Each query block's kept keys, as factors that zero the dropped blocks.
    keys = np.repeat(allow, width, axis=2).astype(p.dtype)[:, :, None]
    mass = np.einsum("htcw->htc", p3.reshape(n, tokens, side, width))  # l
    kept = (mass[heads] * keep).sum(axis=-1)
    full, empty = keep.all(axis=-1), ~keep.any(axis=-1)
    kept[full | empty] = 1.0
    low = kept < KEPT_MASS_FLOOR
    kept[low] = 1.0  # recomputed below; dividing by 1 raises no warning
    out = np.empty((heads.size,) + v3.shape[1:])
    # Masks are reweighted in a buffer of a quarter chunk (one mask at
    # least), so the softmax and the products stay near one chunk.
    size = max(1, PROB_CHUNK_ELEMENTS // (4 * tokens * tokens))
    buf = np.empty((min(size, heads.size), side, width, tokens))
    p4 = p3.reshape(n, side, width, tokens)
    for start in range(0, heads.size, size):
        stop = min(start + size, heads.size)
        for i in range(start, stop):
            np.multiply(p4[heads[i]], keys[i], out=buf[i - start])
        rows = out[start:stop]
        np.matmul(buf[:stop - start].reshape(-1, tokens, tokens), v3[heads[start:stop]], out=rows)
        rows /= kept[start:stop, :, None]
        rows[empty[start:stop]] = 0.0
    # The recompute takes the head's whole logits matrix, so a row gets the
    # logits bits of the dense softmax, not of a smaller product.
    q3, k3 = q.reshape(n, tokens, -1), k.reshape(n, tokens, -1)
    for i in np.flatnonzero(low.any(axis=-1)).tolist():
        rows = np.flatnonzero(low[i])
        probs = attention_probs(q3[heads[i]], k3[heads[i]], np.repeat(keep[i], width, axis=-1))
        out[i, rows] = probs[rows] @ v3[heads[i]]
    return out


def _check_mask_size(mask: BlockMask, grid: BlockGrid) -> None:
    if mask.size != grid.total_blocks:
        raise ShapeMismatch(
            f"mask has {mask.size} blocks but grid expects {grid.total_blocks}"
        )


def expand_block_mask(mask: BlockMask, grid: BlockGrid) -> np.ndarray:
    """Blow a block bitset up to a token-level (tokens x tokens) boolean mask."""
    _check_mask_size(mask, grid)
    tiles = mask.retained.reshape(grid.blocks_per_side, grid.blocks_per_side)
    return np.repeat(np.repeat(tiles, grid.block_size, axis=0), grid.block_size, axis=1)


class SurrogateModel:
    """Seeded linear-then-tanh projection to a 3-D velocity field.

    ``weight`` is (velocity values, fan-in) with head-major columns: column
    ``h * tokens * head_dim + t * head_dim + d`` multiplies feature
    ``(t, h * head_dim + d)`` of the token-major features ``project`` takes.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 velocity_shape: tuple[int, int, int], heads: int = 1):
        self.weight = weight
        self.bias = bias
        self.velocity_shape = tuple(velocity_shape)
        self.heads = int(heads)
        if weight.shape[0] != bias.shape[0] or weight.shape[0] != int(np.prod(velocity_shape)):
            raise ShapeMismatch("projection rows must match the velocity field size")
        if self.heads <= 0 or weight.shape[1] % self.heads:
            raise ShapeMismatch(f"fan-in {weight.shape[1]} does not split into {heads} heads")
        self.head_width = weight.shape[1] // self.heads

    @classmethod
    def from_config(cls, config: TraceConfig) -> "SurrogateModel":
        """Draw the token-major seeded weight and store it head-major.

        The stream is drawn one row at a time, which is bitwise the one-shot
        ``standard_normal((out, fan_in))`` draw.  Each row is drawn into its
        final place, divided by sqrt(fan-in) into a row buffer and copied
        back permuted while it is still in cache, so only one weight-sized
        array is ever allocated.
        """
        tokens, heads, head_dim = config.tokens, config.heads, config.head_dim
        fan_in = config.feature_count
        out = int(np.prod(config.velocity_shape))
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MODEL_STREAM]))
        scale = math.sqrt(fan_in)
        weight = np.empty((out, fan_in))
        row = np.empty(fan_in)
        row_head_major = row.reshape(tokens, heads, head_dim).swapaxes(0, 1)
        for dest in weight:
            rng.standard_normal(out=dest)
            np.divide(dest, scale, out=row)
            dest.reshape(heads, tokens, head_dim)[...] = row_head_major
        bias = rng.standard_normal(out)
        return cls(weight=weight, bias=bias, velocity_shape=config.velocity_shape, heads=heads)

    @property
    def fan_in(self) -> int:
        return int(self.weight.shape[1])

    def head_columns(self, start: int, stop: int) -> np.ndarray:
        """Weight columns of heads ``start .. stop - 1``: a view, contiguous per row."""
        return self.weight[:, start * self.head_width:stop * self.head_width]

    def head_changes(self, heads, outputs: np.ndarray) -> np.ndarray:
        """Pre-activation change of each row's head output change, as (rows, V).

        Row ``i`` projects ``outputs[i]``, a (tokens, head_dim) change of
        head ``heads[i]``, through that head's weight columns.  The rows of a
        head share one stacked matmul, and each row has the bits of
        ``head_columns(h, h + 1) @ outputs[i].reshape(-1)``.
        """
        heads = np.asarray(heads, dtype=int).reshape(-1)
        if np.size(outputs) != heads.size * self.head_width or (
                heads.size and not 0 <= heads.min() <= heads.max() < self.heads):
            raise ShapeMismatch(f"outputs of shape {np.shape(outputs)} do not give one "
                                f"{self.head_width}-value change per head in [0, {self.heads})")
        flat = np.asarray(outputs, dtype=np.float64).reshape(heads.size, self.head_width, 1)
        changes = np.empty((heads.size, self.bias.size))
        for head in sorted(set(heads.tolist())):
            rows = np.flatnonzero(heads == head)
            changes[rows] = np.matmul(self.head_columns(head, head + 1), flat[rows])[..., 0]
        return changes

    def field(self, preactivation: np.ndarray) -> np.ndarray:
        """The velocity field for a pre-activation ``W f + b``; leading axes are batches."""
        return np.tanh(preactivation).reshape(*preactivation.shape[:-1], *self.velocity_shape)

    def project(self, features: np.ndarray) -> np.ndarray:
        """The pre-activation ``W f + b`` of summed head features (tokens, heads*head_dim)."""
        if features.ndim != 2 or features.size != self.fan_in or features.shape[1] % self.heads:
            raise ShapeMismatch(
                f"features of shape {features.shape} do not fit a projection of fan-in "
                f"{self.fan_in} over {self.heads} heads"
            )
        head_major = features.reshape(features.shape[0], self.heads, -1).swapaxes(0, 1)
        pre = self.weight @ head_major.reshape(-1)
        pre += self.bias
        return pre


class ForwardPipeline:
    """Dense/sparse forwards of a trace through the surrogate, holding one dense step.

    The pipeline holds the dense state of the latest step asked for: its
    pre-activation ``W f + b`` and every head's attention output.  Asked
    for another step, it computes that step's in its place, with the same
    bits.  Every attention call goes through ``_changes``, in batched
    chunks of at most PROB_CHUNK_ELEMENTS logits, and each chunk computes
    one softmax per head: masked rows asked for with a step that is not
    held share it with the step's dense outputs.  Every other field is
    ``field_after`` a pre-activation change on the held step:
    ``preactivation_changes`` gives one per masked head, and a sparse
    forward is ``field_after`` the sum of its heads' changes.  Heads whose
    mask keeps every block are skipped, so an all-full forward returns the
    dense field bit for bit.
    """

    def __init__(self, trace: DenoiseTrace, model: SurrogateModel | None = None):
        self.trace = trace
        self.model = model if model is not None else SurrogateModel.from_config(trace.config)
        c = trace.config
        if self.model.fan_in != c.feature_count or self.model.heads != c.heads:
            raise ShapeMismatch("surrogate fan-in or head count does not match the trace config")
        self.grid = c.grid
        self.last_dense_cached = False
        self._dense: tuple[int, np.ndarray, np.ndarray] | None = None

    def check_head(self, layer: int, head: int) -> None:
        c = self.trace.config
        if not (0 <= layer < c.layers and 0 <= head < c.heads):
            raise ShapeMismatch(f"head ({layer}, {head}) outside {c.layers}x{c.heads}")

    def _changes(self, step: int, flat: np.ndarray, tiles: np.ndarray) -> np.ndarray:
        """Pre-activation change of each row's one-head forward at ``step``, as (rows, V).

        Row ``i`` masks head ``flat[i]`` (``layer * heads + head``) with the
        tile mask ``tiles[i]``, one tile per block; its masked attention
        output minus the dense one is projected by
        ``SurrogateModel.head_changes``.  Heads go through
        ``masked_attention`` in chunks, each gathering its heads' Q, K and V
        from the trace once and projecting its own rows.  If ``step`` is
        not held, every head's dense output is computed in the same calls
        and the step is held, so a head's dense and masked rows share one
        softmax.
        """
        c = self.trace.config
        held = self._held(step)
        if held:
            dense = self._dense[2].reshape(-1, c.tokens, c.head_dim)
            distinct = np.unique(flat)
        else:
            self._dense = None  # drop the old step before the new one is computed
            dense = np.empty((c.layers * c.heads, c.tokens, c.head_dim))
            distinct = np.arange(c.layers * c.heads)
        owner = np.searchsorted(distinct, flat)
        changes = np.empty((flat.size, self.model.bias.size))
        for window in prob_chunks(distinct.size, c.tokens):
            at = np.divmod(distinct[window], c.heads)
            qkv = (self.trace.q(step, *at), self.trace.k(step, *at), self.trace.v(step, *at))
            rows = np.flatnonzero((owner >= window.start) & (owner < window.stop))
            if not rows.size:
                dense[window] = masked_attention(*qkv)
                continue
            masked = masked_attention(*qkv, tiles[rows], owner[rows] - window.start,
                                      dense_out=None if held else dense[window])
            masked -= dense[flat[rows]]
            changes[rows] = self.model.head_changes(flat[rows] % c.heads, masked)
        if not held:
            # The head outputs' sum over layers goes through one projection.
            out = dense.reshape(c.layers, c.heads, c.tokens, c.head_dim)
            features = np.zeros((c.tokens, c.heads * c.head_dim), dtype=np.float64)
            by_head = features.reshape(c.tokens, c.heads, c.head_dim)
            for layer_out in out:
                by_head += layer_out.swapaxes(0, 1)
            self._dense = (step, self.model.project(features), out)
        return changes

    def _held(self, step: int) -> bool:
        return self._dense is not None and self._dense[0] == step

    def _state(self, step: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The held ``(step, pre-activation, head outputs)``, computed if ``step`` is another.

        Head outputs are (layers, heads, tokens, head_dim).
        """
        if not self._held(step):
            side = self.grid.blocks_per_side
            self._changes(step, np.empty(0, dtype=int), np.empty((0, side, side), dtype=bool))
        return self._dense

    def dense_forward(self, step: int) -> np.ndarray:
        self.trace.check_step(step)
        self.last_dense_cached = self._held(step)
        return self.model.field(self._state(step)[1])

    def sparse_forward(self, step: int, masks: Mapping[tuple[int, int], BlockMask]) -> np.ndarray:
        """Forward with the listed heads masked; heads left out stay dense.

        The field after the sum, in ``masks`` order, of the
        ``preactivation_changes`` rows of every head whose mask is not full.
        """
        self.trace.check_step(step)
        for (layer, head), mask in masks.items():
            self.check_head(layer, head)
            _check_mask_size(mask, self.grid)
        retained = np.array([mask.retained for mask in masks.values()],
                            dtype=bool).reshape(len(masks), self.grid.total_blocks)
        partial = ~retained.all(axis=-1)
        layers, heads = np.array(list(masks), dtype=int).reshape(-1, 2)[partial].T
        changes = self.preactivation_changes(step, layers, heads, retained[partial])
        return self.field_after(step, changes.sum(axis=0))

    def preactivation_changes(self, step: int, layers: np.ndarray, heads: np.ndarray,
                              retained: np.ndarray) -> np.ndarray:
        """Pre-activation change of each row's one-head forward, as (rows, V).

        Row ``i`` masks only head ``(layers[i], heads[i])`` with the block
        bitset ``retained[i]``.  Its masked attention minus the held dense
        output is projected by ``SurrogateModel.head_changes``, so each row
        has the bits of asking for it alone.  A full mask gives an exactly
        zero change, so callers save its attention by leaving it out.  When
        ``step`` is not held, the rows and the step's dense state are
        computed in one pass.
        """
        self.trace.check_step(step)
        layers, heads = np.asarray(layers, dtype=int), np.asarray(heads, dtype=int)
        for layer, head in set(zip(layers.tolist(), heads.tolist())):
            self.check_head(layer, head)
        retained = np.asarray(retained, dtype=bool)
        if retained.shape != (len(heads), self.grid.total_blocks):
            raise ShapeMismatch(
                f"masks of shape {retained.shape} do not give one "
                f"{self.grid.total_blocks}-block mask per row"
            )
        c, side = self.trace.config, self.grid.blocks_per_side
        return self._changes(step, layers * c.heads + heads, retained.reshape(-1, side, side))

    def field_after(self, step: int, changes: np.ndarray) -> np.ndarray:
        """The field of the dense pre-activation at ``step`` plus ``changes``.

        ``changes`` is (..., V) for V velocity values; leading axes are
        batches, one field each.  Zero changes give the dense field.
        """
        changes = np.asarray(changes)
        if changes.shape[-1:] != self.model.bias.shape:
            raise ShapeMismatch(
                f"pre-activation changes of shape {changes.shape} do not end in "
                f"the {self.model.bias.size} velocity values"
            )
        return self.model.field(self._state(step)[1] + changes)

    def scores(self, step: int, layer: int, head: int) -> BlockScores:
        self.trace.check_step(step)
        self.check_head(layer, head)
        return block_scores(
            self.trace.q(step, layer, head), self.trace.k(step, layer, head), self.grid
        )

    def pooled(self, step: int, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
        """Token-averaged query and key features for one head at one step."""
        self.trace.check_step(step)
        self.check_head(layer, head)
        return (
            self.trace.q(step, layer, head).mean(axis=0),
            self.trace.k(step, layer, head).mean(axis=0),
        )
