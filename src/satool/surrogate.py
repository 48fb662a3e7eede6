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


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     allow: np.ndarray | None = None) -> np.ndarray:
    """Attention output with disallowed key positions excluded before softmax.

    ``attention_probs(q, k, allow) @ v``, with V (..., tokens, D).  Rows
    whose allowed set is empty produce a zero output row.  With an all-true
    (or absent) mask this reduces bit for bit to dense attention.
    """
    out = attention_probs(q, k, allow) @ v
    if allow is not None:
        out[~allow.any(axis=-1)] = 0.0
    return out


def _check_mask_size(mask: BlockMask, grid: BlockGrid) -> None:
    if mask.size != grid.total_blocks:
        raise ShapeMismatch(
            f"mask has {mask.size} blocks but grid expects {grid.total_blocks}"
        )


def _token_masks(retained: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Blow (..., M) block bitsets up to token-level (..., tokens, tokens) masks."""
    nb, bs = grid.blocks_per_side, grid.block_size
    tiles = retained.reshape(*retained.shape[:-1], nb, nb)
    return np.repeat(np.repeat(tiles, bs, axis=-2), bs, axis=-1)


def expand_block_mask(mask: BlockMask, grid: BlockGrid) -> np.ndarray:
    """Blow a block bitset up to a token-level (tokens x tokens) boolean mask."""
    _check_mask_size(mask, grid)
    return _token_masks(mask.retained, grid)


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

    def project(self, features: np.ndarray,
                preactivation: np.ndarray | None = None) -> np.ndarray:
        """Map summed per-layer head features (tokens, heads*head_dim) to a field.

        When ``preactivation`` is given, ``W f + b`` is also written into it.
        """
        if features.ndim != 2 or features.size != self.fan_in or features.shape[1] % self.heads:
            raise ShapeMismatch(
                f"features of shape {features.shape} do not fit a projection of fan-in "
                f"{self.fan_in} over {self.heads} heads"
            )
        head_major = features.reshape(features.shape[0], self.heads, -1).swapaxes(0, 1)
        pre = np.matmul(self.weight, head_major.reshape(-1), out=preactivation)
        pre += self.bias
        return self.field(pre)


class ForwardPipeline:
    """Dense/sparse forwards of a trace through the surrogate, holding one dense step.

    The pipeline holds the dense state of the latest step asked for: its
    pre-activation ``W f + b`` and every head's attention output.  Asked
    for another step, it computes that step's in its place, with the same
    bits.  Every attention call goes through ``_attention``, in batched
    chunks of at most PROB_CHUNK_ELEMENTS logits.  Every other field is
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

    def _attention(self, step: int, layers: np.ndarray, heads: np.ndarray,
                   retained: np.ndarray | None = None) -> np.ndarray:
        """Attention output of each (layer, head) row at ``step``, (rows, tokens, head_dim).

        Row ``i`` is masked by the block bitset ``retained[i]``, or dense
        without ``retained``.  Rows go through ``masked_attention`` in
        chunks; each chunk gathers its rows' Q, K and V from the trace.
        """
        c = self.trace.config
        out = np.empty((len(heads), c.tokens, c.head_dim))
        for window in prob_chunks(len(heads), c.tokens):
            at = (layers[window], heads[window])
            allow = None if retained is None else _token_masks(retained[window], self.grid)
            out[window] = masked_attention(self.trace.q(step, *at), self.trace.k(step, *at),
                                           self.trace.v(step, *at), allow)
        return out

    def _state(self, step: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The held ``(step, pre-activation, head outputs)``, computed if ``step`` is another.

        Head outputs are (layers, heads, tokens, head_dim); their sum over
        layers goes through one projection.
        """
        if self._dense is None or self._dense[0] != step:
            c = self.trace.config
            self._dense = None  # drop the old step before the new one is computed
            layers, heads = np.divmod(np.arange(c.layers * c.heads), c.heads)
            out = self._attention(step, layers, heads).reshape(
                c.layers, c.heads, c.tokens, c.head_dim)
            features = np.zeros((c.tokens, c.heads * c.head_dim), dtype=np.float64)
            by_head = features.reshape(c.tokens, c.heads, c.head_dim)
            for layer_out in out:
                by_head += layer_out.swapaxes(0, 1)
            pre = np.empty_like(self.model.bias)
            self.model.project(features, preactivation=pre)
            self._dense = (step, pre, out)
        return self._dense

    def dense_forward(self, step: int) -> np.ndarray:
        self.trace.check_step(step)
        self.last_dense_cached = self._dense is not None and self._dense[0] == step
        return self.model.field(self._state(step)[1])

    def sparse_forward(self, step: int, masks: Mapping[tuple[int, int], BlockMask | None]) -> np.ndarray:
        """Forward with the listed heads masked; heads absent (or None) stay dense.

        The field after the sum, in ``masks`` order, of the
        ``preactivation_changes`` rows of every head whose mask is not full.
        """
        self.trace.check_step(step)
        keys: list[tuple[int, int]] = []
        given: list[np.ndarray] = []
        for (layer, head), mask in masks.items():
            self.check_head(layer, head)
            if mask is not None:
                _check_mask_size(mask, self.grid)
                keys.append((layer, head))
                given.append(mask.retained)
        retained = np.array(given, dtype=bool).reshape(len(given), self.grid.total_blocks)
        partial = ~retained.all(axis=-1)
        layers, heads = np.array(keys, dtype=int).reshape(-1, 2)[partial].T
        changes = self.preactivation_changes(step, layers, heads, retained[partial])
        return self.field_after(step, changes.sum(axis=0))

    def preactivation_changes(self, step: int, layers: np.ndarray, heads: np.ndarray,
                              retained: np.ndarray) -> np.ndarray:
        """Pre-activation change of each row's one-head forward, as (rows, V).

        Row ``i`` masks only head ``(layers[i], heads[i])`` with the block
        bitset ``retained[i]``.  Its masked attention minus the held dense
        output is projected by ``SurrogateModel.head_changes``, so each row
        has the bits of asking for it alone.  A full mask gives an exactly
        zero change, so callers save its attention by leaving it out.
        """
        self.dense_forward(step)
        layers, heads = np.asarray(layers), np.asarray(heads)
        for layer, head in set(zip(layers.tolist(), heads.tolist())):
            self.check_head(layer, head)
        retained = np.asarray(retained, dtype=bool)
        if retained.shape != (len(heads), self.grid.total_blocks):
            raise ShapeMismatch(
                f"masks of shape {retained.shape} do not give one "
                f"{self.grid.total_blocks}-block mask per row"
            )
        out = self._attention(step, layers, heads, retained)
        out -= self._state(step)[2][layers, heads]
        return self.model.head_changes(heads, out)

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
