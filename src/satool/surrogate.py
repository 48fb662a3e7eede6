"""Fixed seeded surrogate mapping attention outputs to a denoising-velocity field.

The surrogate stands in for the rest of a denoising network: per-layer head
outputs are concatenated along the feature axis, summed over layers, and pushed
through a single seeded linear projection followed by tanh.  Weights are scaled
by 1/sqrt(fan-in), so the map is Lipschitz with an explicitly computable bound
(spectral norm of the projection; tanh is 1-Lipschitz).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .blocksparse import BlockGrid, BlockMask, BlockScores, block_scores
from .errors import ShapeMismatch, StateError
from .trace import DenoiseTrace, TraceConfig, _MODEL_STREAM


def attention_probs(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-softmax of scaled dot products, with max subtraction for stability.

    Q and K are (..., tokens, D); leading axes are independent batches.
    """
    logits = (q @ np.swapaxes(k, -1, -2)) / math.sqrt(q.shape[-1])
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     allow: np.ndarray | None = None) -> np.ndarray:
    """Attention output with disallowed key positions excluded before softmax.

    Rows whose allowed set is empty produce a zero output row.  With an
    all-true (or absent) mask this reduces bit-for-bit to dense attention.
    """
    logits = (q @ k.T) / math.sqrt(q.shape[1])
    if allow is None:
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return (e / e.sum(axis=1, keepdims=True)) @ v
    if allow.shape != logits.shape:
        raise ShapeMismatch(f"mask shape {allow.shape} does not match scores {logits.shape}")
    logits = np.where(allow, logits, -np.inf)
    alive = allow.any(axis=1)
    out = np.zeros((q.shape[0], v.shape[1]), dtype=np.float64)
    if alive.any():
        sub = logits[alive]
        sub -= sub.max(axis=1, keepdims=True)
        e = np.exp(sub)
        out[alive] = (e / e.sum(axis=1, keepdims=True)) @ v
    return out


def expand_block_mask(mask: BlockMask, grid: BlockGrid) -> np.ndarray:
    """Blow a block bitset up to a token-level (tokens x tokens) boolean mask."""
    if mask.size != grid.total_blocks:
        raise ShapeMismatch(
            f"mask has {mask.size} blocks but grid expects {grid.total_blocks}"
        )
    nb, bs = grid.blocks_per_side, grid.block_size
    tiles = mask.retained.reshape(nb, nb)
    return np.repeat(np.repeat(tiles, bs, axis=0), bs, axis=1)


class SurrogateModel:
    """Seeded linear-then-tanh projection to a 3-D velocity field."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 velocity_shape: tuple[int, int, int]):
        self.weight = weight
        self.bias = bias
        self.velocity_shape = tuple(velocity_shape)
        if weight.shape[0] != bias.shape[0] or weight.shape[0] != int(np.prod(velocity_shape)):
            raise ShapeMismatch("projection rows must match the velocity field size")

    @classmethod
    def from_config(cls, config: TraceConfig) -> "SurrogateModel":
        fan_in = config.feature_count
        out = int(np.prod(config.velocity_shape))
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MODEL_STREAM]))
        weight = rng.standard_normal((out, fan_in)) / math.sqrt(fan_in)
        bias = rng.standard_normal(out)
        return cls(weight=weight, bias=bias, velocity_shape=config.velocity_shape)

    @property
    def fan_in(self) -> int:
        return int(self.weight.shape[1])

    @property
    def bias_field(self) -> np.ndarray:
        """Output produced by an all-zero attention feature (V = 0 everywhere)."""
        return np.tanh(self.bias).reshape(self.velocity_shape)

    def project(self, features: np.ndarray) -> np.ndarray:
        """Map summed per-layer head features (tokens, heads*head_dim) to a field."""
        flat = features.reshape(-1)
        if flat.shape[0] != self.fan_in:
            raise ShapeMismatch(
                f"feature vector has {flat.shape[0]} entries, projection expects {self.fan_in}"
            )
        return np.tanh(self.weight @ flat + self.bias).reshape(self.velocity_shape)

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

    Dense results are cached per step (write-once per key; concurrent writers
    recompute identical values).  Sparse forwards start from the cached dense
    features and replace only the sparsified heads, so sparsifying a single
    head costs one masked attention plus the projection.
    """

    def __init__(self, trace: DenoiseTrace, model: SurrogateModel | None = None):
        self.trace = trace
        self.model = model if model is not None else SurrogateModel.from_config(trace.config)
        if self.model.fan_in != trace.config.feature_count:
            raise ShapeMismatch("surrogate fan-in does not match the trace config")
        self.grid = trace.config.grid
        self.last_dense_cached = False
        self._fields: dict[int, np.ndarray] = {}
        self._features: dict[int, np.ndarray] = {}
        self._head_out: dict[tuple[int, int, int], np.ndarray] = {}

    def _check_head(self, layer: int, head: int) -> None:
        c = self.trace.config
        if not (0 <= layer < c.layers and 0 <= head < c.heads):
            raise ShapeMismatch(f"head ({layer}, {head}) outside {c.layers}x{c.heads}")

    def _compute_dense(self, step: int) -> None:
        c = self.trace.config
        features = np.zeros((c.tokens, c.heads * c.head_dim), dtype=np.float64)
        for layer in range(c.layers):
            for head in range(c.heads):
                out = masked_attention(
                    self.trace.q(step, layer, head),
                    self.trace.k(step, layer, head),
                    self.trace.v(step, layer, head),
                )
                self._head_out[(step, layer, head)] = out
                features[:, head * c.head_dim:(head + 1) * c.head_dim] += out
        self._features[step] = features
        self._fields[step] = self.model.project(features)

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

    def has_dense(self, step: int) -> bool:
        return step in self._fields

    def dense_head_output(self, step: int, layer: int, head: int) -> np.ndarray:
        if (step, layer, head) not in self._head_out:
            self.dense_forward(step)
        return self._head_out[(step, layer, head)]

    def sparse_forward(self, step: int, masks: Mapping[tuple[int, int], BlockMask | None]) -> np.ndarray:
        """Forward with the listed heads masked; heads absent (or None) stay dense."""
        self.trace.check_step(step)
        self.dense_forward(step)
        c = self.trace.config
        features = self._features[step].copy()
        for (layer, head), mask in masks.items():
            self._check_head(layer, head)
            if mask is None:
                continue
            allow = expand_block_mask(mask, self.grid)
            out = masked_attention(
                self.trace.q(step, layer, head),
                self.trace.k(step, layer, head),
                self.trace.v(step, layer, head),
                allow=allow,
            )
            cols = slice(head * c.head_dim, (head + 1) * c.head_dim)
            features[:, cols] += out - self._head_out[(step, layer, head)]
        return self.model.project(features)

    def perturbed_forward(self, step: int,
                          deltas: Mapping[tuple[int, int], np.ndarray]) -> np.ndarray:
        """Forward with additive perturbations injected on head attention outputs."""
        self.trace.check_step(step)
        self.dense_forward(step)
        c = self.trace.config
        features = self._features[step].copy()
        for (layer, head), delta in deltas.items():
            self._check_head(layer, head)
            if delta.shape != (c.tokens, c.head_dim):
                raise ShapeMismatch(
                    f"perturbation for head ({layer}, {head}) must be "
                    f"({c.tokens}, {c.head_dim}), got {delta.shape}"
                )
            cols = slice(head * c.head_dim, (head + 1) * c.head_dim)
            features[:, cols] += delta
        return self.model.project(features)

    def scores(self, step: int, layer: int, head: int) -> BlockScores:
        self.trace.check_step(step)
        self._check_head(layer, head)
        return block_scores(
            self.trace.q(step, layer, head), self.trace.k(step, layer, head), self.grid
        )

    def pooled(self, step: int, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
        """Token-averaged query and key features for one head at one step."""
        self.trace.check_step(step)
        self._check_head(layer, head)
        return (
            self.trace.q(step, layer, head).mean(axis=0),
            self.trace.k(step, layer, head).mean(axis=0),
        )

    def require_dense(self, steps) -> None:
        missing = [s for s in steps if not self.has_dense(s)]
        if missing:
            raise StateError(
                f"dense outputs not cached for steps {missing}; run precompute_dense first"
            )
