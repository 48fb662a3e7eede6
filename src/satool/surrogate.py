"""Fixed seeded surrogate mapping attention outputs to a denoising-velocity field.

The surrogate stands in for the rest of a denoising network: per-layer head
outputs are concatenated along the feature axis, summed over layers, and pushed
through a single seeded linear projection followed by tanh.  Weights are scaled
by 1/sqrt(fan-in), so the map is Lipschitz with an explicitly computable bound
(spectral norm of the projection; tanh is 1-Lipschitz).

The weight is stored head-major: each head's (tokens x head_dim) features own
one contiguous block of columns.  The map is linear before the tanh, so a
forward that changes a few heads adds ``W[:, head columns] @ (new - dense)``
to the cached dense pre-activation; changing one head reads 1/heads of the
weight.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .blocksparse import BlockGrid, BlockMask, BlockScores, block_scores
from .errors import ShapeMismatch
from .trace import DenoiseTrace, TraceConfig, _MODEL_STREAM


def attention_probs(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-softmax of scaled dot products, with max subtraction for stability.

    Q and K are (..., tokens, D); leading axes are independent batches.
    """
    logits = (q @ np.swapaxes(k, -1, -2)) / math.sqrt(q.shape[-1])
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


# Cap on the float64 (tokens x tokens) logits one attention call handles:
# batched callers split their heads into chunks of at most this many
# elements (at least one head each), so temporaries stay flat as the head
# count grows.  ``analysis`` uses the same cap for its token masks.
PROB_CHUNK_ELEMENTS = 1 << 17


def _head_chunks(count: int, tokens: int) -> list[slice]:
    """Slices over ``count`` heads of ``tokens`` tokens, each within PROB_CHUNK_ELEMENTS."""
    size = max(1, PROB_CHUNK_ELEMENTS // (tokens * tokens))
    return [slice(start, start + size) for start in range(0, count, size)]


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     allow: np.ndarray | None = None) -> np.ndarray:
    """Attention output with disallowed key positions excluded before softmax.

    Q, K and V are (..., tokens, D) and ``allow`` is (..., tokens, tokens);
    leading axes are independent heads, each computed bit for bit as it
    would be alone.  Rows whose allowed set is empty produce a zero output
    row: their logits are cleared before the softmax and their outputs
    zeroed after it.  With an all-true (or absent) mask this reduces bit for
    bit to dense attention.
    """
    # One logits-sized array, updated in place: a chunk's temporaries stay
    # at one PROB_CHUNK_ELEMENTS buffer.
    logits = q @ np.swapaxes(k, -1, -2)
    logits /= math.sqrt(q.shape[-1])
    if allow is not None:
        if allow.shape != logits.shape:
            raise ShapeMismatch(f"mask shape {allow.shape} does not match scores {logits.shape}")
        np.copyto(logits, -np.inf, where=~allow)
        dead = ~allow.any(axis=-1)
        logits[dead] = 0.0
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    out = logits @ v
    if allow is not None:
        out[dead] = 0.0
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

    @property
    def bias_field(self) -> np.ndarray:
        """Output produced by an all-zero attention feature (V = 0 everywhere)."""
        return self.field(self.bias)

    def head_columns(self, start: int, stop: int) -> np.ndarray:
        """Weight columns of heads ``start .. stop - 1``: a view, contiguous per row."""
        return self.weight[:, start * self.head_width:stop * self.head_width]

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

    def lipschitz_bound(self, iterations: int = 60) -> float:
        """Upper bound on the map's Lipschitz constant: ||W||_2 (tanh is 1-Lipschitz)."""
        v = np.full(self.fan_in, 1.0 / math.sqrt(self.fan_in))
        for _ in range(iterations):
            w = self.weight.T @ (self.weight @ v)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            v = w / norm
        return float(np.linalg.norm(self.weight @ v))


class ForwardPipeline:
    """Dense/sparse forwards of a trace through the surrogate, with a dense cache.

    Dense results are cached per step: the field, the pre-activation
    ``W f + b`` and every head's attention output.  All heads of a step go
    through batched attention calls of at most PROB_CHUNK_ELEMENTS logits
    each.  Sparse and perturbed forwards are exact increments on that cache:
    each changed head's output differences are summed over layers and
    projected through the weight columns of the changed heads only, then
    tanh is applied once.  Heads whose mask keeps every block are skipped,
    so an all-full forward returns the dense field bit for bit.
    """

    def __init__(self, trace: DenoiseTrace, model: SurrogateModel | None = None):
        self.trace = trace
        self.model = model if model is not None else SurrogateModel.from_config(trace.config)
        c = trace.config
        if self.model.fan_in != c.feature_count or self.model.heads != c.heads:
            raise ShapeMismatch("surrogate fan-in or head count does not match the trace config")
        self.grid = c.grid
        self.last_dense_cached = False
        self._fields: dict[int, np.ndarray] = {}
        self._pre: dict[int, np.ndarray] = {}
        self._head_out: dict[int, np.ndarray] = {}

    def check_head(self, layer: int, head: int) -> None:
        c = self.trace.config
        if not (0 <= layer < c.layers and 0 <= head < c.heads):
            raise ShapeMismatch(f"head ({layer}, {head}) outside {c.layers}x{c.heads}")

    def _compute_dense(self, step: int) -> None:
        """Attention for all layers x heads of a step, in chunks, then one projection."""
        c = self.trace.config
        qkv = self.trace.data[step].astype(np.float64)
        q, k, v = (qkv[:, :, i].reshape(-1, c.tokens, c.head_dim) for i in range(3))
        out = np.empty((c.layers * c.heads, c.tokens, c.head_dim))
        for window in _head_chunks(len(out), c.tokens):
            out[window] = masked_attention(q[window], k[window], v[window], None)
        out = out.reshape(c.layers, c.heads, c.tokens, c.head_dim)
        self._head_out[step] = out
        features = np.zeros((c.tokens, c.heads * c.head_dim), dtype=np.float64)
        by_head = features.reshape(c.tokens, c.heads, c.head_dim)
        for layer_out in out:
            by_head += layer_out.swapaxes(0, 1)
        pre = np.empty_like(self.model.bias)
        self._fields[step] = self.model.project(features, preactivation=pre)
        self._pre[step] = pre

    def _incremental_field(self, step: int, change: np.ndarray, heads: set[int]) -> np.ndarray:
        """Dense pre-activation plus the output change of ``heads``, through tanh.

        ``change`` is (heads, tokens, head_dim): each head's output change
        summed over layers.  Only the weight columns spanning the changed
        heads are read; with none changed this is the dense field bitwise.
        """
        pre = self._pre[step].copy()
        if heads:
            start, stop = min(heads), max(heads) + 1
            pre += self.model.head_columns(start, stop) @ change[start:stop].reshape(-1)
        return self.model.field(pre)

    def _output_changes(self, step: int, layers: np.ndarray, heads: np.ndarray,
                        retained: np.ndarray) -> np.ndarray:
        """Masked minus dense attention output of each (layer, head, mask) row.

        Rows go through ``masked_attention`` in chunks; each chunk gathers
        its rows' Q, K and V from the trace.
        """
        c = self.trace.config
        out = np.empty((len(heads), c.tokens, c.head_dim))
        for window in _head_chunks(len(heads), c.tokens):
            at = (layers[window], heads[window])
            allow = _token_masks(retained[window], self.grid)
            out[window] = masked_attention(self.trace.q(step, *at), self.trace.k(step, *at),
                                           self.trace.v(step, *at), allow)
            out[window] -= self._head_out[step][at]
        return out

    def _head_changes(self) -> np.ndarray:
        c = self.trace.config
        return np.zeros((c.heads, c.tokens, c.head_dim))

    def dense_forward(self, step: int) -> np.ndarray:
        self.trace.check_step(step)
        if step in self._fields:
            self.last_dense_cached = True
        else:
            self.last_dense_cached = False
            self._compute_dense(step)
        return self._fields[step]

    def precompute_dense(self, steps) -> None:
        for step in steps:
            self.dense_forward(step)

    def dense_head_output(self, step: int, layer: int, head: int) -> np.ndarray:
        self.check_head(layer, head)
        if step not in self._head_out:
            self.dense_forward(step)
        return self._head_out[step][layer, head]

    def sparse_forward(self, step: int, masks: Mapping[tuple[int, int], BlockMask | None]) -> np.ndarray:
        """Forward with the listed heads masked; heads absent (or None) stay dense.

        Every head with a non-full mask runs through one batched attention
        call per chunk; output changes are summed per head in ``masks`` order.
        """
        self.trace.check_step(step)
        self.dense_forward(step)
        keys: list[tuple[int, int]] = []
        given: list[np.ndarray] = []
        for (layer, head), mask in masks.items():
            self.check_head(layer, head)
            if mask is not None:
                _check_mask_size(mask, self.grid)
                keys.append((layer, head))
                given.append(mask.retained)
        change = self._head_changes()
        retained = np.array(given, dtype=bool).reshape(len(given), self.grid.total_blocks)
        partial = ~retained.all(axis=-1)
        if not partial.any():
            return self._incremental_field(step, change, set())
        layers, heads = np.array(keys)[partial].T
        out = self._output_changes(step, layers, heads, retained[partial])
        for row, head in enumerate(heads.tolist()):
            change[head] += out[row]
        return self._incremental_field(step, change, set(heads.tolist()))

    def single_head_residuals(self, step: int, layers: np.ndarray, heads: np.ndarray,
                              retained: np.ndarray) -> np.ndarray:
        """Sparse minus dense field of each row's one-head forward, as (rows, T, H, W).

        Row ``i`` masks only head ``(layers[i], heads[i])`` with the block
        bitset ``retained[i]``.  All rows share the chunked attention of
        ``sparse_forward``; a full mask gives an exactly zero residual, so
        callers save its attention by leaving it out.  Each head's rows are
        projected with one matmul through that head's weight columns, added
        to the cached dense pre-activation, and passed through tanh.  The
        matmul may order its sums unlike ``sparse_forward``'s matrix-vector
        product, so a residual can differ from it in the last bits.
        """
        self.trace.check_step(step)
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
        change = self._output_changes(step, layers, heads, retained).reshape(len(heads), -1)
        pre = np.empty((len(heads), self.model.bias.size))
        for head in np.unique(heads).tolist():
            rows = np.flatnonzero(heads == head)
            pre[rows] = change[rows] @ self.model.head_columns(head, head + 1).T
        pre += self._pre[step]
        return self.model.field(pre) - self._fields[step]

    def perturbed_forward(self, step: int,
                          deltas: Mapping[tuple[int, int], np.ndarray]) -> np.ndarray:
        """Forward with additive perturbations injected on head attention outputs."""
        self.trace.check_step(step)
        self.dense_forward(step)
        c = self.trace.config
        change = self._head_changes()
        for (layer, head), delta in deltas.items():
            self.check_head(layer, head)
            if delta.shape != (c.tokens, c.head_dim):
                raise ShapeMismatch(
                    f"perturbation for head ({layer}, {head}) must be "
                    f"({c.tokens}, {c.head_dim}), got {delta.shape}"
                )
            change[head] += delta
        return self._incremental_field(step, change, {head for _, head in deltas})

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
