"""Stability statistics over a trace: adjacent-step mask similarity and drift.

Each head compares every pair of consecutive denoising steps at once: token
masks (per attention row, minimal 0.95-mass key sets) give a row-averaged
token IoU, freshly predicted block masks give block IoU and the changed-block
ratio, and the query/key features give full-token, mean-pooled, and
block-score drift.  The pair helpers take the head's steps ``x[:-1]`` against
``x[1:]`` as a batch axis, one call per head; every sample is bitwise the
value the helper gives that pair alone.  These samples feed the
multi-granularity stability report, the drift-similarity scatter, and the
stability-bound fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocksparse import (
    block_score_values,
    changed_block_ratio,
    check_tau,
    mask_iou,
    scalar_if_unbatched,
    top_p_mask,
    top_p_select,  # noqa: F401  -- re-exported; perfbench's smoke test rebinds it here
)
from .errors import DomainError
from .reuse import full_token_drift, mean_pool_drift
from .surrogate import attention_probs, prob_chunks
from .trace import DenoiseTrace


@dataclass
class PairSample:
    """Adjacent-step comparison for one head: (step, step+1) statistics."""

    step: int
    layer: int
    head: int
    full_drift: float
    pool_drift: float
    score_drift: float
    token_iou: float
    block_iou: float
    changed_ratio: float


def _mean_row_iou(masks_a: np.ndarray, masks_b: np.ndarray) -> float | np.ndarray:
    """Row-averaged IoU of (..., rows, keys) masks; a float without batch axes."""
    return scalar_if_unbatched(mask_iou(masks_a, masks_b).mean(axis=-1))


def _token_ious(q: np.ndarray, k: np.ndarray, p: float) -> np.ndarray:
    """Row-averaged token-mask IoU of each adjacent step pair of one head.

    Row masks come from ``top_p_mask``, so ``p = 1`` keeps every key of
    positive probability.  They are computed in the step chunks of
    ``prob_chunks`` (at least one step each), so the working set stays flat
    as the step count grows.  Each chunk's last row masks carry into the
    next chunk for the pair that straddles the boundary.
    """
    steps, tokens = q.shape[0], q.shape[1]
    ious = np.empty(steps - 1)
    prev = None
    for window in prob_chunks(steps, tokens):
        start = window.start
        rows = top_p_mask(attention_probs(q[window], k[window]), p)
        if prev is not None:
            ious[start - 1] = _mean_row_iou(prev, rows[0])
        if len(rows) > 1:
            ious[start:start + len(rows) - 1] = _mean_row_iou(rows[:-1], rows[1:])
        prev = rows[-1]
    return ious


def adjacent_pair_samples(trace: DenoiseTrace, token_p: float = 0.95,
                          tau: float = 0.95) -> list[PairSample]:
    """Per-head adjacent-step stability samples over the whole trajectory."""
    check_tau(tau)
    check_tau(token_p, "token_p")
    cfg = trace.config
    grid = cfg.grid
    samples: list[PairSample] = []
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            q, k = trace.head_qk(layer, head)
            q_mean, k_mean = q.mean(axis=1), k.mean(axis=1)
            scores = block_score_values(q, k, grid)
            masks = top_p_mask(scores, tau)
            columns = zip(
                full_token_drift(q[:-1], q[1:], k[:-1], k[1:]).tolist(),
                mean_pool_drift(q_mean[:-1], q_mean[1:], k_mean[:-1], k_mean[1:]).tolist(),
                np.abs(scores[:-1] - scores[1:]).mean(axis=-1).tolist(),
                _token_ious(q, k, token_p).tolist(),
                mask_iou(masks[:-1], masks[1:]).tolist(),
                changed_block_ratio(masks[:-1], masks[1:]).tolist(),
            )
            samples.extend(PairSample(step, layer, head, *values)
                           for step, values in enumerate(columns))
    return samples


def stability_rows(samples: list[PairSample], layers: int, heads: int, steps: int) -> list[dict]:
    """Aggregate pair samples to prompt-, layer-, and head-level report rows."""
    by_key = {(s.layer, s.head, s.step): s for s in samples}
    rows: list[dict] = []
    for step in range(steps - 1):
        level = [by_key[(l, h, step)] for l in range(layers) for h in range(heads)]
        rows.append({
            "granularity": "prompt", "step": step, "layer": "", "head": "",
            "token_iou": float(np.mean([s.token_iou for s in level])),
            "block_iou": float(np.mean([s.block_iou for s in level])),
        })
    for layer in range(layers):
        for step in range(steps - 1):
            level = [by_key[(layer, h, step)] for h in range(heads)]
            rows.append({
                "granularity": "layer", "step": step, "layer": layer, "head": "",
                "token_iou": float(np.mean([s.token_iou for s in level])),
                "block_iou": float(np.mean([s.block_iou for s in level])),
            })
    for layer in range(layers):
        for head in range(heads):
            for step in range(steps - 1):
                s = by_key[(layer, head, step)]
                rows.append({
                    "granularity": "head", "step": step, "layer": layer, "head": head,
                    "token_iou": s.token_iou, "block_iou": s.block_iou,
                })
    return rows


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their rank span)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1), ends - starts)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DomainError("spearman expects two equal-length vectors")
    if xv.size < 2:
        raise DomainError("spearman needs at least two samples")
    rx, ry = _ranks(xv), _ranks(yv)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def split_samples(samples: list[PairSample], fraction: float = 0.5,
                  seed: int = 0) -> tuple[list[PairSample], list[PairSample]]:
    """Seeded shuffle split into (calibration, held-out) halves."""
    if not (0.0 < fraction < 1.0):
        raise DomainError(f"split fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 707]))
    order = rng.permutation(len(samples))
    cut = int(round(fraction * len(samples)))
    return [samples[i] for i in order[:cut]], [samples[i] for i in order[cut:]]


def two_step_bound_constants(samples: list[PairSample]) -> dict:
    """Fitted max-ratio constants for the drift -> score-drift -> mask-change chain.

    Zero-drift samples carry no ratio information; a fully frozen trace yields
    all-zero constants (consistent: zero drift forces zero mask change).
    """
    if not samples:
        raise DomainError("need at least one sample")
    drifts = np.array([s.full_drift for s in samples])
    score = np.array([s.score_drift for s in samples])
    ratios = np.array([s.changed_ratio for s in samples])
    nz = drifts > 0
    c_score = float((score[nz] / drifts[nz]).max()) if nz.any() else 0.0
    c_end = float((ratios[nz] / drifts[nz]).max()) if nz.any() else 0.0
    nz_score = score > 0
    c_mask = float((ratios[nz_score] / score[nz_score]).max()) if nz_score.any() else 0.0
    return {"score_per_drift": c_score, "mask_per_score": c_mask, "mask_per_drift": c_end}
