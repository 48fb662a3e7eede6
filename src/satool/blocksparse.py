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
    """Nonnegative per-block importance; ``normalized`` means they sum to one.

    ``values`` is (..., M): leading axes are independent heads, each checked
    on its own.
    """

    values: np.ndarray
    normalized: bool = True

    def validate(self) -> None:
        if self.values.ndim < 1:
            raise ShapeMismatch("block scores need a block axis")
        if np.any(self.values < 0):
            raise DomainError("block scores must be nonnegative")
        if self.normalized and np.any(np.abs(self.values.sum(axis=-1) - 1.0) > SCORE_SUM_TOL):
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


def check_tau(tau: float, name: str = "tau") -> None:
    """Reject a cumulative-mass threshold (top-p ``tau``, token ``p``) outside (0, 1]."""
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"{name} must lie in (0, 1], got {tau}")


def scalar_if_unbatched(values: np.ndarray) -> float | np.ndarray:
    """A pair statistic's result: a float for one pair, the array for batched pairs."""
    return float(values) if np.ndim(values) == 0 else values


def top_p_mask(values: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    """Top-p selection of each row of normalized scores; ``tau >= 1`` keeps every positive score.

    ``tau`` is a scalar or one threshold per row, as in
    ``cumulative_prefix_mask``.  At ``tau = 1`` exact arithmetic keeps every
    positive score, but the rounded mass before a tiny score can already
    reach 1; those rows keep their positive scores explicitly, so a row of
    softmax scores keeps every block and ``tau = 1`` gives the dense result.
    """
    keep = cumulative_prefix_mask(values, tau)
    full = np.asarray(tau) >= 1.0
    return keep | (full[..., None] & (values > 0)) if full.any() else keep


def top_p_select(scores: BlockScores, tau: float) -> BlockMask:
    """Retain the minimal set of highest-scored blocks whose mass reaches tau."""
    check_tau(tau)
    scores.validate()
    if not scores.normalized:
        raise DomainError("top-p selection requires normalized scores")
    return BlockMask(retained=top_p_mask(scores.values, tau))


def realized_sparsity(mask: BlockMask, grid: BlockGrid | None = None) -> float:
    """Fraction of candidate blocks skipped: 1 - |S| / M."""
    if grid is not None and mask.size != grid.total_blocks:
        raise ShapeMismatch(
            f"mask has {mask.size} blocks but grid expects {grid.total_blocks}"
        )
    return 1.0 - mask.count / mask.size


def token_mask(attention_row: np.ndarray, p: float = 0.95) -> np.ndarray:
    """Minimal key set (boolean over keys) whose cumulative probability reaches p."""
    check_tau(p, "p")
    row = np.asarray(attention_row, dtype=np.float64)
    if row.ndim != 1:
        raise ShapeMismatch("attention row must be one-dimensional")
    if abs(float(row.sum()) - 1.0) > ROW_SUM_TOL:
        raise DomainError(f"attention row must sum to 1 +- {ROW_SUM_TOL}")
    return cumulative_prefix_mask(row, p)


def _mask_pair(mask_a: np.ndarray, mask_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask universes differ: {a.shape} vs {b.shape}")
    if a.ndim < 1:
        raise ShapeMismatch("masks need a block axis")
    return a, b


def mask_iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float | np.ndarray:
    """Intersection over union of two boolean masks; 1.0 when both are empty.

    Masks lie along the last axis; leading axes are batch axes and give an
    array of IoUs, masks without them a float.  Each IoU is the correctly
    rounded quotient of two exact counts, as Python's ``int / int`` gives it.
    """
    a, b = _mask_pair(mask_a, mask_b)
    union = np.logical_or(a, b).sum(axis=-1)
    inter = np.logical_and(a, b).sum(axis=-1)
    return scalar_if_unbatched(np.where(union == 0, 1.0, inter / np.maximum(union, 1)))


def changed_block_ratio(retained_a: np.ndarray, retained_b: np.ndarray) -> float | np.ndarray:
    """Fraction of block decisions flipped between two masks: |A symdiff B| / M.

    Batch axes as in ``mask_iou``.
    """
    a, b = _mask_pair(retained_a, retained_b)
    return scalar_if_unbatched(np.logical_xor(a, b).sum(axis=-1) / a.shape[-1])
