"""Online temporal mask reuse: drift statistics, per-head reuse decisions, layer gating.

Each head keeps an anchor: the step at which its mask was last freshly
predicted, together with the mean-pooled query/key features and the mask from
that step.  At a later step the head reuses the anchor mask when the pooled
query-key drift against the anchor stays within the reuse threshold, and
refreshes (predicts a new mask, resetting the anchor) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocksparse import (
    BlockMask,
    block_score_values,
    changed_block_ratio,
    check_tau,
    scalar_if_unbatched,
    top_p_mask,
    top_p_select,  # noqa: F401  -- re-exported; perfbench's smoke test rebinds it here
)
from .errors import DomainError, ShapeMismatch, StateError

COLD_START = "cold_start"
REFRESH = "refresh"
REUSE = "reuse"

DEFAULT_GATE = (0.1, 0.9)
DEFAULT_BLOCK_ALIGN = 128


def full_token_drift(q_a: np.ndarray, q_b: np.ndarray,
                     k_a: np.ndarray, k_b: np.ndarray) -> float | np.ndarray:
    """Token-averaged L1 drift of queries plus keys between two steps.

    Inputs are (..., tokens, dim); leading axes are batch axes (step pairs)
    and give an array of drifts, each bitwise the drift of that pair alone.
    Inputs without them give a float.
    """
    if not (q_a.shape == q_b.shape == k_a.shape == k_b.shape) or q_a.ndim < 2:
        raise ShapeMismatch("drift inputs must share one (..., tokens, dim) shape")
    return scalar_if_unbatched(_mean_token_l1(q_a, q_b) + _mean_token_l1(k_a, k_b))


def _mean_token_l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # |a - b| is taken in place: with all step pairs of a 384-token head in
    # one batch, a second full-size temporary made the call about 3x slower.
    diff = a - b
    np.abs(diff, out=diff)
    return diff.sum(axis=-1).mean(axis=-1)


def mean_pool_drift(qbar_a: np.ndarray, qbar_b: np.ndarray,
                    kbar_a: np.ndarray, kbar_b: np.ndarray) -> float | np.ndarray:
    """L1 drift of the token-averaged query and key features.

    Inputs are (..., dim), with batch axes as in ``full_token_drift``.
    """
    if not (qbar_a.shape == qbar_b.shape == kbar_a.shape == kbar_b.shape) or qbar_a.ndim < 1:
        raise ShapeMismatch("pooled drift inputs must share one (..., dim) shape")
    return scalar_if_unbatched(
        np.abs(qbar_a - qbar_b).sum(axis=-1) + np.abs(kbar_a - kbar_b).sum(axis=-1)
    )


def layer_gate(refresh_flags: Sequence[bool], gate_lo: float, gate_hi: float) -> list[bool]:
    """Force whole-layer reuse/refresh when the refreshing fraction leaves [lo, hi]."""
    if gate_lo > gate_hi:
        raise DomainError(f"gate_lo ({gate_lo}) must not exceed gate_hi ({gate_hi})")
    flags = list(bool(f) for f in refresh_flags)
    if not flags:
        raise DomainError("layer gate needs at least one head flag")
    fraction = sum(flags) / len(flags)
    if fraction < gate_lo:
        return [False] * len(flags)
    if fraction > gate_hi:
        return [True] * len(flags)
    return flags


def cache_footprint(layers: int, heads: int, tokens: int, head_dim: int,
                    bytes_per_scalar: int, branches: int, mode: str,
                    block_align: int = DEFAULT_BLOCK_ALIGN) -> int:
    """Bytes needed to cache query/key reuse state for every head and branch.

    ``full_token`` keeps the full (tokens x head_dim) Q and K per head, with the
    token count padded up to ``block_align`` (cached features are laid out in
    kernel-block multiples); ``mean_pooled`` keeps one pooled Q and K vector per
    head and is independent of the token count.
    """
    values = {"layers": layers, "heads": heads, "tokens": tokens, "head_dim": head_dim,
              "bytes_per_scalar": bytes_per_scalar, "block_align": block_align}
    for name, value in values.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value}")
    if branches < 1:
        raise DomainError(f"branches must be >= 1, got {branches}")
    per_entry = layers * heads * head_dim * 2 * bytes_per_scalar * branches
    if mode == "mean_pooled":
        return per_entry
    if mode == "full_token":
        padded = ((tokens + block_align - 1) // block_align) * block_align
        return per_entry * padded
    raise DomainError(f"mode must be 'full_token' or 'mean_pooled', got {mode!r}")


@dataclass
class StepRecord:
    step: int
    layer: int
    head: int
    decision: str
    drift: float | None
    sparsity: float
    changed_ratio: float | None


@dataclass
class RunResult:
    records: list[StepRecord]
    predictions: int
    reuse_rate: float
    mean_sparsity: float
    mean_velocity_rel_l2: float
    taus: np.ndarray
    gate_forced: int
    # Final anchor per head: refresh step (L, H), pooled Q/K (L, H, 2, D)
    # and retained blocks (L, H, M).
    anchor_step: np.ndarray
    anchor_pooled: np.ndarray
    anchor_keep: np.ndarray


def simulate(pipeline, taus: np.ndarray, delta: float,
             gate: tuple[float, float] = DEFAULT_GATE,
             velocity_error: bool = True) -> RunResult:
    """Full-trajectory reuse simulation with per-head thresholds.

    The layer gate acts as a barrier: all head drift flags in a (layer, step)
    are collected before any mask prediction runs, then the gate may force the
    whole layer to reuse or refresh.  The band ``(0, 1)`` never forces.

    Each step makes one float64 copy of every head's Q and K; each layer then
    takes one pass over its heads as arrays: pooled drift against the
    anchors, one gate call, and block scores plus top-p selection for the
    refreshing heads together.  Decisions, masks and drifts are bitwise those
    of scoring and selecting each head on its own.
    """
    cfg = pipeline.trace.config
    taus = np.asarray(taus, dtype=np.float64)
    if taus.shape != (cfg.layers, cfg.heads):
        raise ShapeMismatch(
            f"per-head thresholds must have shape ({cfg.layers}, {cfg.heads}), got {taus.shape}"
        )
    for tau in taus.flat:
        check_tau(float(tau))
    if not delta >= 0:
        raise DomainError(f"reuse threshold must be >= 0, got {delta}")
    if not (0.0 <= gate[0] <= gate[1] <= 1.0):
        raise DomainError(f"gate bounds must satisfy 0 <= lo <= hi <= 1, got {gate}")
    grid = cfg.grid
    blocks = grid.total_blocks
    shape = (cfg.layers, cfg.heads)
    # Anchor state per head: step (-1 while cold), pooled Q/K, retained blocks.
    anchor_step = np.full(shape, -1)
    anchor_pooled = np.zeros(shape + (2, cfg.head_dim))
    anchor_keep = np.zeros(shape + (blocks,), dtype=bool)
    records: list[StepRecord] = []
    predictions = 0
    gate_forced = 0
    velocity_errors: list[float] = []
    for step in range(cfg.steps):
        qk = pipeline.trace.data[step, :, :, :2].astype(np.float64)
        pooled = qk.mean(axis=-2)
        for layer in range(cfg.layers):
            cold = anchor_step[layer] < 0
            drift = mean_pool_drift(anchor_pooled[layer, :, 0], pooled[layer, :, 0],
                                    anchor_pooled[layer, :, 1], pooled[layer, :, 1])
            proposed = cold | (drift > delta)
            refresh = np.array(layer_gate(proposed, gate[0], gate[1]))
            gate_forced += int((refresh != proposed).sum())
            forced_cold = np.flatnonzero(cold & ~refresh)
            if forced_cold.size:
                raise StateError(f"gate forced reuse on cold head ({layer}, {forced_cold[0]})")
            fresh = np.flatnonzero(refresh)
            changed = np.zeros(cfg.heads)
            if fresh.size:
                scores = block_score_values(qk[layer, fresh, 0], qk[layer, fresh, 1], grid)
                keep = top_p_mask(scores, taus[layer, fresh])
                changed[fresh] = changed_block_ratio(anchor_keep[layer, fresh], keep)
                anchor_keep[layer, fresh] = keep
                anchor_pooled[layer, fresh] = pooled[layer, fresh]
                anchor_step[layer, fresh] = step
                predictions += fresh.size
            sparsity = 1.0 - anchor_keep[layer].sum(axis=-1) / blocks
            for head, (is_cold, is_fresh, d, s, c) in enumerate(zip(
                    cold.tolist(), refresh.tolist(), drift.tolist(), sparsity.tolist(),
                    changed.tolist())):
                records.append(StepRecord(
                    step=step, layer=layer, head=head,
                    decision=COLD_START if is_cold else REFRESH if is_fresh else REUSE,
                    drift=None if is_cold else d, sparsity=s,
                    changed_ratio=None if step == 0 else c,
                ))
        del qk  # the forward below makes its own float64 copies
        if velocity_error:
            step_masks = {(layer, head): BlockMask(anchor_keep[layer, head])
                          for layer in range(cfg.layers) for head in range(cfg.heads)}
            dense = pipeline.dense_forward(step)
            sparse = pipeline.sparse_forward(step, step_masks)
            denom = float(np.linalg.norm(dense))
            err = float(np.linalg.norm(sparse - dense))
            velocity_errors.append(err / denom if denom > 0 else err)
    total = cfg.steps * cfg.layers * cfg.heads
    return RunResult(
        records=records,
        predictions=predictions,
        reuse_rate=(total - predictions) / total,
        mean_sparsity=float(np.mean([r.sparsity for r in records])),
        mean_velocity_rel_l2=float(np.mean(velocity_errors)) if velocity_errors else math.nan,
        taus=taus,
        gate_forced=gate_forced,
        anchor_step=anchor_step,
        anchor_pooled=anchor_pooled,
        anchor_keep=anchor_keep,
    )
