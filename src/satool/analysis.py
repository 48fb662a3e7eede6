"""Stability statistics over a trace: adjacent-step mask similarity and drift.

One pass per head walks the denoising steps and compares consecutive steps:
token masks (per attention row, minimal 0.95-mass key sets) give a row-averaged
token IoU, freshly predicted block masks give block IoU and the changed-block
ratio, and the query/key features give full-token, mean-pooled, and block-score
drift.  These samples feed the multi-granularity stability report, the
drift-similarity scatter, and the stability-bound fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocksparse import (
    block_score_values,
    changed_block_ratio,
    check_tau,
    cumulative_prefix_mask,
    mask_iou,
    top_p_select,  # noqa: F401  -- re-exported; perfbench's smoke test rebinds it here
)
from .errors import DomainError
from .reuse import full_token_drift, mean_pool_drift
from .surrogate import attention_probs
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


# Cap on the float64 N x N attention-probability elements handled at once:
# token-level row masks are computed for as many whole steps as fit (at
# least one), so the working set stays flat as the step count grows.
PROB_CHUNK_ELEMENTS = 1 << 17


def _mean_row_iou(masks_a: np.ndarray, masks_b: np.ndarray) -> float:
    inter = np.logical_and(masks_a, masks_b).sum(axis=1)
    union = np.logical_or(masks_a, masks_b).sum(axis=1)
    ious = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(ious.mean())


def _token_ious(q: np.ndarray, k: np.ndarray, p: float) -> list[float]:
    """Row-averaged token-mask IoU of each adjacent step pair of one head."""
    chunk = max(1, PROB_CHUNK_ELEMENTS // (q.shape[1] * q.shape[1]))
    ious: list[float] = []
    prev = None
    for start in range(0, q.shape[0], chunk):
        window = slice(start, start + chunk)
        rows = cumulative_prefix_mask(attention_probs(q[window], k[window]), p)
        for cur in rows:
            if prev is not None:
                ious.append(_mean_row_iou(prev, cur))
            prev = cur
    return ious


def adjacent_pair_samples(trace: DenoiseTrace, token_p: float = 0.95,
                          tau: float = 0.95) -> list[PairSample]:
    """Per-head adjacent-step stability samples over the whole trajectory."""
    check_tau(tau)
    cfg = trace.config
    grid = cfg.grid
    samples: list[PairSample] = []
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            q, k = trace.head_qk(layer, head)
            q_mean, k_mean = q.mean(axis=1), k.mean(axis=1)
            scores = block_score_values(q, k, grid)
            masks = cumulative_prefix_mask(scores, tau)
            token_ious = _token_ious(q, k, token_p)
            for step in range(cfg.steps - 1):
                nxt = step + 1
                samples.append(PairSample(
                    step=step, layer=layer, head=head,
                    full_drift=full_token_drift(q[step], q[nxt], k[step], k[nxt]),
                    pool_drift=mean_pool_drift(
                        q_mean[step], q_mean[nxt], k_mean[step], k_mean[nxt]
                    ),
                    score_drift=float(np.abs(scores[step] - scores[nxt]).mean()),
                    token_iou=token_ious[step],
                    block_iou=mask_iou(masks[step], masks[nxt]),
                    changed_ratio=changed_block_ratio(masks[step], masks[nxt]),
                ))
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
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j)
        i = j + 1
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
