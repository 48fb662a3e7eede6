"""Block grids, importance scoring, cumulative-mass mask selection, and mask similarity.

Blocks tile the attention matrix: a grid over ``tokens x tokens`` with square
blocks of ``block_size`` tokens per side.  Block index ``m`` maps to
``(query-block row, key-block col) = divmod(m, blocks_per_side)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeMismatch

SCORE_SUM_TOL = 1e-9
ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class BlockGrid:
    tokens: int
    block_size: int

    def __post_init__(self):
        if self.tokens <= 0 or self.block_size <= 0:
            raise ConfigError(
                f"grid dimensions must be positive, got tokens={self.tokens} "
                f"block_size={self.block_size}"
            )
        if self.tokens % self.block_size != 0:
            raise ConfigError(
                f"tokens ({self.tokens}) must be divisible by block size ({self.block_size})"
            )

    @property
    def blocks_per_side(self) -> int:
        return self.tokens // self.block_size

    @property
    def total_blocks(self) -> int:
        return self.blocks_per_side ** 2

    def block_coords(self, index: int) -> tuple[int, int]:
        return divmod(index, self.blocks_per_side)

    def block_index(self, row: int, col: int) -> int:
        return row * self.blocks_per_side + col


@dataclass
class BlockScores:
    """Nonnegative per-block importance; ``normalized`` means they sum to one."""

    values: np.ndarray
    normalized: bool = True

    def validate(self) -> None:
        if self.values.ndim != 1:
            raise ShapeMismatch("block scores must be a flat vector")
        if np.any(self.values < 0):
            raise DomainError("block scores must be nonnegative")
        if self.normalized and abs(float(self.values.sum()) - 1.0) > SCORE_SUM_TOL:
            raise DomainError("scores flagged normalized but do not sum to 1")


@dataclass
class BlockMask:
    """Retained-block set over a grid, as a boolean bitset of length M."""

    retained: np.ndarray

    @property
    def size(self) -> int:
        return int(self.retained.size)

    @property
    def count(self) -> int:
        return int(self.retained.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.retained)

    def to_hex(self) -> str:
        return np.packbits(self.retained.astype(np.uint8)).tobytes().hex()


def mask_from_hex(text: str, size: int) -> BlockMask:
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))
    if bits.size < size:
        raise ShapeMismatch(f"hex bitset too short for {size} blocks")
    return BlockMask(retained=bits[:size].astype(bool))


def full_mask(grid: BlockGrid) -> BlockMask:
    return BlockMask(np.ones(grid.total_blocks, dtype=bool))


def block_score_values(q: np.ndarray, k: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Normalized block scores for Q/K of shape (..., tokens, D); returns (..., M).

    Leading axes are independent batches (steps, heads); each batch entry gets
    exactly the values ``block_scores`` would give it alone.
    """
    if q.shape != k.shape or q.ndim < 2 or q.shape[-2] != grid.tokens:
        raise ShapeMismatch(
            f"expected Q and K of shape (..., {grid.tokens}, D), got {q.shape} and {k.shape}"
        )
    nb, bs = grid.blocks_per_side, grid.block_size
    *lead, _, dim = q.shape
    u = q.reshape(*lead, nb, bs, dim).mean(axis=-2)
    v = k.reshape(*lead, nb, bs, dim).mean(axis=-2)
    logits = (u @ np.swapaxes(v, -1, -2)) / math.sqrt(dim)
    flat = logits.reshape(*lead, nb * nb)
    flat = flat - flat.max(axis=-1, keepdims=True)
    e = np.exp(flat)
    return e / e.sum(axis=-1, keepdims=True)


def block_scores(q: np.ndarray, k: np.ndarray, grid: BlockGrid) -> BlockScores:
    """Score each block from mean-pooled query/key summaries.

    Queries pooled per block row and keys per block column give summaries
    ``u(B)`` and ``v(B)``; the score of block (i, j) is the softmax over all
    M blocks of ``u_i . v_j / sqrt(D)``.
    """
    if q.ndim != 2:
        raise ShapeMismatch(
            f"expected Q and K of shape ({grid.tokens}, D), got {q.shape} and {k.shape}"
        )
    return BlockScores(values=block_score_values(q, k, grid), normalized=True)


def cumulative_prefix_mask(values: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    """Boolean mask of the minimal descending-value prefix with mass >= threshold.

    An entry is kept iff the cumulative mass strictly before it (in descending
    order, ties broken by ascending index) is below the threshold.  Rows along
    the last axis are selected independently; leading axes are batch axes.
    ``threshold`` is a scalar or an array broadcast against the leading axes
    (one threshold per row).  Values must be finite and nonnegative
    (probabilities or scores).

    The descending value sequence does not depend on how ties are ordered, so
    a plain sort gives the same cumulative sums as an index-stable argsort.
    Mass before an entry never decreases along that sequence, so each row
    keeps a prefix of ``count`` entries: every value above the cut value at
    ``count`` plus, among the values equal to it, the lowest indices.
    """
    arr = np.asarray(values, dtype=np.float64)
    limit = np.asarray(threshold, dtype=np.float64)[..., None]
    # The mass before the first entry is exactly 0, so only a threshold
    # <= 0 (or NaN) keeps nothing.
    if arr.size == 0 or not (limit > 0).any():
        return np.zeros(np.broadcast_shapes(arr.shape, limit.shape), dtype=bool)
    desc = np.sort(arr, axis=-1)[..., ::-1]
    before = np.cumsum(desc, axis=-1)
    before -= desc
    count = (before < limit).sum(axis=-1, keepdims=True)
    # A row with count 0 cuts at its largest value; the tie pass below then
    # has no room for it and keeps nothing.
    cut = np.take_along_axis(desc, np.maximum(count - 1, 0), axis=-1)
    keep = arr >= cut
    over = (keep.sum(axis=-1, keepdims=True) > count)[..., 0]
    if over.any():
        # More entries tie at the cut than the prefix holds: keep the lowest indices.
        sub, sub_cut = arr[over], cut[over]
        above = sub > sub_cut
        tied = sub == sub_cut
        room = count[over] - above.sum(axis=-1, keepdims=True)
        keep[over] = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    return keep


def check_tau(tau: float) -> None:
    """Reject a top-p threshold outside (0, 1]."""
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must lie in (0, 1], got {tau}")


def top_p_select(scores: BlockScores, tau: float) -> BlockMask:
    """Retain the minimal set of highest-scored blocks whose mass reaches tau."""
    check_tau(tau)
    scores.validate()
    if not scores.normalized:
        raise DomainError("top-p selection requires normalized scores")
    keep = cumulative_prefix_mask(scores.values, tau)
    return BlockMask(retained=keep)


def realized_sparsity(mask: BlockMask, grid: BlockGrid | None = None) -> float:
    """Fraction of candidate blocks skipped: 1 - |S| / M."""
    if grid is not None and mask.size != grid.total_blocks:
        raise ShapeMismatch(
            f"mask has {mask.size} blocks but grid expects {grid.total_blocks}"
        )
    return 1.0 - mask.count / mask.size


def token_mask(attention_row: np.ndarray, p: float = 0.95) -> np.ndarray:
    """Minimal key set (boolean over keys) whose cumulative probability reaches p."""
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    row = np.asarray(attention_row, dtype=np.float64)
    if row.ndim != 1:
        raise ShapeMismatch("attention row must be one-dimensional")
    if abs(float(row.sum()) - 1.0) > ROW_SUM_TOL:
        raise DomainError(f"attention row must sum to 1 +- {ROW_SUM_TOL}")
    return cumulative_prefix_mask(row, p)


def mask_iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Intersection over union of two boolean masks; 1.0 when both are empty."""
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask universes differ: {a.shape} vs {b.shape}")
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(a, b).sum()) / union


def changed_block_ratio(retained_a: np.ndarray, retained_b: np.ndarray) -> float:
    """Fraction of block decisions flipped between two masks: |A symdiff B| / M."""
    a = np.asarray(retained_a, dtype=bool)
    b = np.asarray(retained_b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask universes differ: {a.shape} vs {b.shape}")
    return int(np.logical_xor(a, b).sum()) / a.size
