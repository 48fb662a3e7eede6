"""Stability statistics over a trace: adjacent-step mask similarity and drift.

Each head compares every pair of consecutive denoising steps at once: token
masks (per attention row, minimal 0.95-mass key sets) give a row-averaged
token IoU, freshly predicted block masks give block IoU and the changed-block
ratio, and the query/key features give full-token, mean-pooled, and
block-score drift.  The pair helpers take the head's steps ``x[:-1]`` against
``x[1:]`` as a batch axis, one call per head, and write that head's slice of
six (layers, heads, steps - 1) arrays; every entry is bitwise the value the
helper gives that pair alone.  These arrays feed the multi-granularity
stability report, the drift-similarity scatter, and the stability-bound fits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .blocksparse import (
    block_score_values,
    changed_block_ratio,
    check_tau,
    mask_iou,
    top_p_mask,
    top_p_select,  # noqa: F401  -- re-exported; perfbench's smoke test rebinds it here
)
from .errors import DomainError
from .reuse import full_token_drift, mean_pool_drift
from .surrogate import attention_probs, prob_chunks
from .trace import DenoiseTrace


class PairStats(NamedTuple):
    """Adjacent-step statistics of every head, each of shape (layers, heads, steps - 1).

    Entry ``[l, h, s]`` compares step ``s`` of head ``(l, h)`` with step
    ``s + 1``.  The fields are in the column order of ``drift_iou.csv``.
    """

    full_drift: np.ndarray
    pool_drift: np.ndarray
    score_drift: np.ndarray
    token_iou: np.ndarray
    block_iou: np.ndarray
    changed_ratio: np.ndarray


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
            ious[start - 1] = mask_iou(prev, rows[0]).mean(axis=-1)
        if len(rows) > 1:
            ious[start:start + len(rows) - 1] = mask_iou(rows[:-1], rows[1:]).mean(axis=-1)
        prev = rows[-1]
    return ious


def adjacent_pair_samples(trace: DenoiseTrace, token_p: float = 0.95,
                          tau: float = 0.95) -> PairStats:
    """Adjacent-step stability statistics of every head over the whole trajectory."""
    check_tau(tau)
    check_tau(token_p, "token_p")
    cfg = trace.config
    grid = cfg.grid
    stats = np.empty((len(PairStats._fields), cfg.layers, cfg.heads, cfg.steps - 1))
    for layer, head in np.ndindex(cfg.layers, cfg.heads):
        q, k = trace.head_qk(layer, head)
        q_mean, k_mean = q.mean(axis=1), k.mean(axis=1)
        scores = block_score_values(q, k, grid)
        masks = top_p_mask(scores, tau)
        stats[:, layer, head] = (
            full_token_drift(q[:-1], q[1:], k[:-1], k[1:]),
            mean_pool_drift(q_mean[:-1], q_mean[1:], k_mean[:-1], k_mean[1:]),
            np.abs(scores[:-1] - scores[1:]).mean(axis=-1),
            _token_ious(q, k, token_p),
            mask_iou(masks[:-1], masks[1:]),
            changed_block_ratio(masks[:-1], masks[1:]),
        )
    return PairStats(*stats)


def stability_rows(samples: PairStats) -> list[list]:
    """Prompt-, layer- and head-level rows of the stability report.

    Each row is ``[granularity, step, layer, head, token_iou, block_iou]``.
    A prompt row averages every head of its step and a layer row the heads
    of its layer, both in (layer, head) order.
    """
    layers, heads, pairs = samples.token_iou.shape
    labels = ([("prompt", "", "")] + [("layer", layer, "") for layer in range(layers)]
              + [("head", layer, head) for layer, head in np.ndindex(layers, heads)])

    def levels(values):
        # Each mean over heads sums one contiguous run in (layer, head) order,
        # so it has the bits of ``float(np.mean(list))`` over that list.
        means = [np.ascontiguousarray(v.swapaxes(1, 2)).mean(axis=-1)
                 for v in (values.reshape(1, layers * heads, pairs), values)]
        return np.concatenate([*means, values.reshape(-1, pairs)]).tolist()

    rows = []
    for (granularity, layer, head), token, block in zip(
            labels, levels(samples.token_iou), levels(samples.block_iou)):
        rows.extend([granularity, step, layer, head, t, b]
                    for step, (t, b) in enumerate(zip(token, block)))
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


def two_step_bound_constants(full_drift: np.ndarray, score_drift: np.ndarray,
                             changed_ratio: np.ndarray) -> dict:
    """Fitted max-ratio constants for the drift -> score-drift -> mask-change chain.

    The three arguments are equal-shape arrays of pair statistics.  Zero-drift
    samples carry no ratio information; a fully frozen trace yields all-zero
    constants (consistent: zero drift forces zero mask change).
    """
    drifts = np.ravel(full_drift)
    score = np.ravel(score_drift)
    ratios = np.ravel(changed_ratio)
    if not drifts.size:
        raise DomainError("need at least one sample")
    nz = drifts > 0
    c_score = float((score[nz] / drifts[nz]).max()) if nz.any() else 0.0
    c_end = float((ratios[nz] / drifts[nz]).max()) if nz.any() else 0.0
    nz_score = score > 0
    c_mask = float((ratios[nz_score] / score[nz_score]).max()) if nz_score.any() else 0.0
    return {"score_per_drift": c_score, "mask_per_score": c_mask, "mask_per_drift": c_end}
