"""Offline budgeted calibration of per-head top-p thresholds.

Each head is measured at K candidate thresholds: sparsify only that head at a
few sampled steps, compare the resulting velocity field against the cached
dense reference, and average error and realized sparsity into one operating
point per candidate.  Selecting one operating point per head to minimize total
error subject to a global average-sparsity floor is a multiple-choice knapsack.
It is solved by dominance pruning and depth-first branch and bound, with one
dynamic-programming bound over integer sparsity units: skipped-block counts
for measured problems, sparsity rounded up onto a fixed grid otherwise.  The
bound table keeps every ceil(sqrt(n))-th row and rebuilds the others on
demand, so it stays under a fixed cell cap.  A search that reaches its work
limit reports ``optimal`` false and the proven gap.  A brute-force oracle
cross-checks small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .blocksparse import BlockScores, block_score_values, check_tau, top_p_mask
from .blocksparse import (
    top_p_select,  # noqa: F401  -- re-exported; perfbench's smoke test rebinds it here
)
from .errors import ConfigError, DomainError, InfeasibleBudget, ShapeMismatch
from .spectral import BandWeights, band_energy_ratios, band_partition, weighted_error
from .surrogate import ForwardPipeline

_PROBE_STREAM = 505

# Pruning margin: bounds accumulate floats in search order while incumbents are
# recomputed canonically, so equality comparisons need slack well above fp noise.
_BOUND_SLACK = 1e-9


def sample_timesteps(total_steps: int, intervals: int, seed: int) -> list[int]:
    """One seeded uniform draw from each of ``intervals`` equal step ranges, ascending."""
    if intervals <= 0:
        raise DomainError(f"interval count must be positive, got {intervals}")
    if intervals > total_steps:
        raise DomainError(
            f"cannot sample {intervals} intervals from {total_steps} steps"
        )
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 606]))
    picks = []
    for j in range(intervals):
        lo = (j * total_steps) // intervals
        hi = ((j + 1) * total_steps) // intervals
        picks.append(int(rng.integers(lo, hi)))
    return picks


@dataclass(frozen=True)
class OperatingPoint:
    """One candidate threshold: mean sparsity, mean error, kept blocks summed over steps."""

    tau: float
    sparsity: float
    error: float
    kept_blocks: int


# Measured sparsity is 1 - kept / denominator, up to the rounding of a mean.
_COUNT_TOL = 1e-12

# Thresholds at most this far apart are one candidate: ``shared:<tau>`` and
# ``shared_threshold_baseline`` match a threshold with this tolerance.
TAU_MATCH_TOL = 1e-12


@dataclass
class CalibrationProblem:
    """Measured operating points of every (layer, head, candidate).

    ``kept_blocks`` holds the integer kept-block counts behind ``sparsity``,
    summed over the sampled steps, and ``block_denominator`` is blocks per
    head times sampled steps; both are None for problems not measured.
    """

    taus: np.ndarray          # (K,)
    sparsity: np.ndarray      # (layers, heads, K)
    error: np.ndarray         # (layers, heads, K)
    budget: float
    kept_blocks: np.ndarray | None = None     # (layers, heads, K) integers
    block_denominator: int | None = None

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=np.float64)
        self.sparsity = np.asarray(self.sparsity, dtype=np.float64)
        self.error = np.asarray(self.error, dtype=np.float64)
        if self.taus.ndim != 1 or self.taus.size < 1:
            raise ConfigError("need at least one candidate threshold")
        if self.sparsity.shape != self.error.shape or self.sparsity.ndim != 3:
            raise ShapeMismatch("sparsity and error tensors must share (L, H, K) shape")
        if self.sparsity.shape[2] != self.taus.size:
            raise ShapeMismatch("candidate axis must match the threshold list")
        if not (np.isfinite(self.sparsity).all() and np.isfinite(self.error).all()):
            raise DomainError("measured tensors must be finite")
        if np.any((self.sparsity < 0) | (self.sparsity > 1)):
            raise DomainError("measured sparsity must lie in [0, 1]")
        if (self.kept_blocks is None) != (self.block_denominator is None):
            raise ConfigError("kept-block counts and their denominator go together")
        if self.kept_blocks is not None:
            self._check_counts()

    def _check_counts(self) -> None:
        kept, denom = np.asarray(self.kept_blocks), self.block_denominator
        if kept.shape != self.sparsity.shape:
            raise ShapeMismatch("kept-block counts must share the (L, H, K) shape")
        if not np.issubdtype(kept.dtype, np.integer):
            raise DomainError("kept-block counts must be integers")
        if not isinstance(denom, Integral) or isinstance(denom, bool) or denom <= 0:
            raise DomainError(f"block denominator must be a positive integer, got {denom!r}")
        if kept.min() < 0 or kept.max() > denom:
            raise DomainError(f"kept-block counts must lie in [0, {denom}]")
        if np.abs(1.0 - kept / denom - self.sparsity).max() > _COUNT_TOL:
            raise DomainError("kept-block counts disagree with the measured sparsity")
        self.kept_blocks = kept

    @property
    def layers(self) -> int:
        return self.sparsity.shape[0]

    @property
    def heads(self) -> int:
        return self.sparsity.shape[1]

    @property
    def head_count(self) -> int:
        return self.layers * self.heads

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(head_count, K) views in (layer, head) row-major order."""
        k = self.taus.size
        return self.error.reshape(-1, k), self.sparsity.reshape(-1, k)

    def max_achievable(self) -> float:
        return float(self.sparsity.max(axis=2).sum() / self.head_count)


@dataclass
class HeadSelection:
    layer: int
    head: int
    index: int
    tau: float
    sparsity: float
    error: float


@dataclass
class CalibrationTable:
    selections: list[HeadSelection]
    objective: float
    achieved_sparsity: float
    budget: float
    solver: str
    optimal: bool
    # Kept blocks of the selected thresholds over all heads and sampled
    # steps, and the blocks those steps offer; None for unmeasured problems.
    blocks_kept: int | None = None
    blocks_total: int | None = None
    # The search record: the proven gap (0.0 when optimal), nodes expanded and
    # nodes pruned by the bound; None for tables no search produced.
    gap: float | None = None
    nodes: int | None = None
    pruned: int | None = None

    def selection_indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.selections)

    def tau_grid(self, layers: int, heads: int) -> np.ndarray:
        """Per-head thresholds as a (layers, heads) array.

        The selections must name every (layer, head) of that shape exactly
        once; anything else raises ShapeMismatch.
        """
        grid = np.empty((layers, heads))
        seen = np.zeros((layers, heads), dtype=bool)
        for s in self.selections:
            if not (0 <= s.layer < layers and 0 <= s.head < heads):
                raise ShapeMismatch(f"table head ({s.layer}, {s.head}) outside {layers}x{heads}")
            if seen[s.layer, s.head]:
                raise ShapeMismatch(f"table lists head ({s.layer}, {s.head}) more than once")
            seen[s.layer, s.head] = True
            grid[s.layer, s.head] = s.tau
        if not seen.all():
            layer, head = np.argwhere(~seen)[0].tolist()
            raise ShapeMismatch(f"table has no entry for head ({layer}, {head})")
        return grid

    def to_json_dict(self) -> dict:
        payload = {
            "budget": self.budget,
            "objective": self.objective,
            "achieved_sparsity": self.achieved_sparsity,
            "solver": self.solver,
            "optimal": self.optimal,
            "heads": [
                {"layer": s.layer, "head": s.head, "tau": s.tau, "S": s.sparsity, "E": s.error}
                for s in self.selections
            ],
        }
        if self.blocks_kept is not None:
            payload["blocks_kept"] = self.blocks_kept
            payload["blocks_total"] = self.blocks_total
        if self.gap is not None:
            payload.update(gap=self.gap, nodes=self.nodes, pruned=self.pruned)
        return payload


def _field(record: dict, key: str, kind: type):
    """``record[key]`` if it is a ``kind``; a bool counts only as a bool."""
    value = record[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise DomainError(f"calibration field {key!r} has invalid value {value!r}")
    return value


def table_from_json_dict(payload: dict) -> CalibrationTable:
    """Rebuild a ``to_json_dict`` table; a mistyped field raises DomainError, nothing is coerced.

    The block totals and the search record describe how the table was made;
    ``run`` does not need them, so they are not read back.
    """
    selections = [
        HeadSelection(layer=int(_field(h, "layer", Integral)),
                      head=int(_field(h, "head", Integral)), index=-1,
                      tau=float(_field(h, "tau", Real)), sparsity=float(_field(h, "S", Real)),
                      error=float(_field(h, "E", Real)))
        for h in _field(payload, "heads", list)
    ]
    return CalibrationTable(
        selections=selections,
        objective=float(_field(payload, "objective", Real)),
        achieved_sparsity=float(_field(payload, "achieved_sparsity", Real)),
        budget=float(_field(payload, "budget", Real)),
        solver=_field(payload, "solver", str),
        optimal=_field(payload, "optimal", bool),
    )


def _field_errors(pipeline: ForwardPipeline, step: int, changes: np.ndarray,
                  weights: BandWeights | None, objective: str) -> float | np.ndarray:
    """Error of the field after each pre-activation change (..., V) against the dense field.

    ``fft`` is the weighted four-band error, ``mse`` the mean squared
    difference.  One change gives a float; leading axes give an array.
    """
    dense = pipeline.dense_forward(step)
    residual = pipeline.field_after(step, changes) - dense
    if objective == "fft":
        partition = band_partition(pipeline.trace.config.velocity_shape)
        return weighted_error(band_energy_ratios(residual, dense, partition), weights)
    return np.mean((residual ** 2).reshape(*residual.shape[:-3], -1), axis=-1)


def _measure_step(pipeline: ForwardPipeline, step: int, layers: np.ndarray, heads: np.ndarray,
                  taus: np.ndarray, weights: BandWeights | None,
                  objective: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kept-block counts, errors, masks and pre-activation changes of each head and tau at a step.

    ``layers`` and ``heads`` list n heads; ``taus`` is (K,) or one row per
    head, (n, K).  Counts and errors are (n, K), masks (n, K, M) and
    changes (n, K, V).  One scoring call covers every head and one
    ``top_p_mask`` call selects every (head, threshold) row.  A row that
    keeps every block has change 0 and error exactly 0; the others share
    one batched change pass and one error pass.
    """
    trace, grid = pipeline.trace, pipeline.grid
    trace.check_step(step)
    # Sorted like np.unique (NaN last), which would import numpy.ma.
    for tau in np.sort(taus, axis=None).tolist():
        check_tau(tau)
    n, k, blocks = len(heads), taus.shape[-1], grid.total_blocks
    scores = BlockScores(block_score_values(trace.q(step, layers, heads),
                                            trace.k(step, layers, heads), grid))
    scores.validate()
    masks = top_p_mask(np.broadcast_to(scores.values[:, None], (n, k, blocks)), taus)
    keep = masks.reshape(n * k, blocks)
    kept = keep.sum(axis=-1)
    error = np.zeros(n * k)
    changes = np.zeros((n * k, pipeline.model.bias.size))
    rows = np.flatnonzero(kept < blocks)
    if rows.size:
        at = rows // k
        partial = pipeline.preactivation_changes(step, layers[at], heads[at], keep[rows])
        changes[rows] = partial
        error[rows] = _field_errors(pipeline, step, partial, weights, objective)
    return kept.reshape(n, k), error.reshape(n, k), masks, changes.reshape(n, k, -1)


def _measure(pipeline: ForwardPipeline, layers, heads, taus, steps, weights: BandWeights | None,
             objective: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean sparsity, mean error and summed kept blocks of the listed heads, each (n, K)."""
    taus = np.array([float(t) for t in taus])
    steps = list(steps)
    if not taus.size:
        raise DomainError("need at least one candidate threshold")
    if objective not in ("fft", "mse"):
        raise DomainError(f"objective must be 'fft' or 'mse', got {objective!r}")
    if not steps:
        raise DomainError("need at least one sampled step")
    layers, heads = np.asarray(layers), np.asarray(heads)
    per_step = [_measure_step(pipeline, step, layers, heads, taus, weights, objective)[:2]
                for step in steps]
    kept = np.stack([counts for counts, _ in per_step], axis=-1)
    error = np.stack([errors for _, errors in per_step], axis=-1)
    sparsity = np.mean(1.0 - kept / pipeline.grid.total_blocks, axis=-1)
    return sparsity, np.mean(error, axis=-1), kept.sum(axis=-1)


def measure_head(pipeline: ForwardPipeline, layer: int, head: int, taus,
                 steps, weights: BandWeights | None = None,
                 objective: str = "fft") -> list[OperatingPoint]:
    """Measure one head at each candidate threshold over the sampled steps.

    This is the one-head case of the step-batched measurement
    ``build_problem`` makes: each step scores the head once and selects
    every threshold from those scores.  Returns one operating point per
    threshold, in ``taus`` order; a threshold listed twice gives two equal
    points.  An empty list raises DomainError.
    """
    pipeline.check_head(layer, head)
    sparsity, error, kept = _measure(pipeline, [layer], [head], taus, steps, weights, objective)
    return [
        OperatingPoint(tau=float(tau), sparsity=float(s), error=float(e), kept_blocks=int(b))
        for tau, s, e, b in zip(taus, sparsity[0], error[0], kept[0])
    ]


def check_candidates(taus) -> list[float]:
    """Calibration's candidate thresholds as floats, checked before anything is measured.

    There must be at least one, each in (0, 1], and no two within
    TAU_MATCH_TOL of each other, which would be one threshold to
    ``shared_threshold_baseline``.
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise DomainError("need at least one candidate threshold")
    for tau in taus:
        check_tau(tau, "candidate threshold")
    ordered = sorted(taus)
    for low, high in zip(ordered, ordered[1:]):
        if high - low <= TAU_MATCH_TOL:
            raise DomainError(f"candidate thresholds {low!r} and {high!r} must differ "
                              f"by more than {TAU_MATCH_TOL:g}")
    return taus


def build_problem(pipeline: ForwardPipeline, taus, intervals: int, budget: float,
                  weights: BandWeights | None = None, seed: int = 0,
                  objective: str = "fft") -> CalibrationProblem:
    """Measure every (layer, head, candidate) and assemble the assignment problem.

    Each sampled step measures all heads at every candidate together; its
    dense forward runs on demand.
    """
    taus = check_candidates(taus)
    cfg = pipeline.trace.config
    steps = sample_timesteps(cfg.steps, intervals, seed)
    shape = (cfg.layers, cfg.heads, len(taus))
    layers, heads = np.divmod(np.arange(cfg.layers * cfg.heads), cfg.heads)
    sparsity, error, kept = (
        values.reshape(shape)
        for values in _measure(pipeline, layers, heads, taus, steps, weights, objective)
    )
    return CalibrationProblem(taus=np.array(taus), sparsity=sparsity, error=error,
                              budget=float(budget), kept_blocks=kept,
                              block_denominator=pipeline.grid.total_blocks * len(steps))


def _assignment_stats(problem: CalibrationProblem, selection) -> tuple[float, float]:
    """Canonical objective and achieved average sparsity of one assignment."""
    err, spar = problem.flat()
    idx = np.asarray(selection, dtype=np.intp)
    rows = np.arange(problem.head_count)
    objective = float(np.sum(err[rows, idx]))
    achieved = float(np.sum(spar[rows, idx])) / problem.head_count
    return objective, achieved


def _make_table(problem: CalibrationProblem, selection, solver: str, optimal: bool) -> CalibrationTable:
    objective, achieved = _assignment_stats(problem, selection)
    selections = []
    for row, k in enumerate(selection):
        layer, head = divmod(row, problem.heads)
        selections.append(HeadSelection(
            layer=layer, head=head, index=int(k), tau=float(problem.taus[k]),
            sparsity=float(problem.sparsity[layer, head, k]),
            error=float(problem.error[layer, head, k]),
        ))
    blocks_kept = blocks_total = None
    if problem.kept_blocks is not None:
        rows = np.arange(problem.head_count)
        blocks_kept = int(problem.kept_blocks.reshape(problem.head_count, -1)[rows, selection].sum())
        blocks_total = problem.block_denominator * problem.head_count
    return CalibrationTable(
        selections=selections, objective=objective, achieved_sparsity=achieved,
        budget=problem.budget, solver=solver, optimal=optimal,
        blocks_kept=blocks_kept, blocks_total=blocks_total,
    )


def _check_feasible(problem: CalibrationProblem) -> None:
    if not math.isfinite(problem.budget):
        raise DomainError(f"budget must be a finite number, got {problem.budget}")
    best = problem.max_achievable()
    if best < problem.budget:
        raise InfeasibleBudget(
            f"budget {problem.budget:.6g} exceeds the maximum achievable "
            f"average sparsity {best:.6g}",
            max_achievable=best,
        )


def _solution_key(problem: CalibrationProblem, selection) -> tuple:
    objective, achieved = _assignment_stats(problem, selection)
    return (objective, -achieved, tuple(selection))


# Assignments the brute-force oracle enumerates at once.
_BRUTE_FORCE_CHUNK = 2 ** 16


def brute_force_assignment(problem: CalibrationProblem, limit: int = 10_000_000) -> CalibrationTable:
    """Exhaustive oracle with the same tie-breaks as the exact solver.

    Assignments are enumerated in chunks of flat indices, head 0 the most
    significant digit; each chunk's best is carried under the same key.
    """
    k, n = problem.taus.size, problem.head_count
    if k ** n > limit:
        raise DomainError(f"instance too large for brute force: {k}^{n} assignments")
    _check_feasible(problem)
    err, spar = problem.flat()
    rows = np.arange(n)
    place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_key: tuple | None = None
    for start in range(0, k ** n, _BRUTE_FORCE_CHUNK):
        flat = np.arange(start, min(start + _BRUTE_FORCE_CHUNK, k ** n), dtype=np.int64)
        choices = flat[:, None] // place % k
        objectives = err[rows, choices].sum(axis=1)
        achieved = spar[rows, choices].sum(axis=1) / n
        cand = np.flatnonzero(achieved >= problem.budget)
        if not cand.size:
            continue
        keys = [choices[cand, col] for col in range(n - 1, -1, -1)]
        keys.append(-achieved[cand])
        keys.append(objectives[cand])
        top = cand[np.lexsort(keys)[0]]
        key = (objectives[top], -achieved[top], tuple(choices[top].tolist()))
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:
        raise InfeasibleBudget("no feasible assignment", max_achievable=problem.max_achievable())
    return _make_table(problem, best_key[2], solver="brute_force", optimal=True)


def _pareto_candidates(err_row: np.ndarray, spar_row: np.ndarray) -> list[int]:
    """Indices the search branches on: every point no lower index dominates.

    A lower index with no more error and no less sparsity never raises the
    rounded objective, never lowers the rounded sparsity and wins the index
    tie-break.  A point dominated only by higher indices stays: rounding can
    absorb the difference in the totals and leave it the tie-break winner.
    """
    return [i for i in range(err_row.size)
            if not any(err_row[j] <= err_row[i] and spar_row[j] >= spar_row[i] for j in range(i))]


# Bound and search limits.  Problems without measured counts get
# _FLOAT_UNITS units per unit of sparsity.  The bound table holds at most
# _TABLE_CELLS float64 cells at once.  The search stops after _WORK_LIMIT
# units of work: one per node expanded and one per _ROW_WORK_CELLS cells of a
# rebuilt table row, which take about as long as one node.
_FLOAT_UNITS = 2 ** 10
_TABLE_CELLS = 2 ** 24
_WORK_LIMIT = 1_000_000
_ROW_WORK_CELLS = 512


class _SuffixBound:
    """``at(pos, c)``: least error of the heads at ``pos:`` that gain at least ``c`` units.

    ``choices[pos]`` lists one head's candidates as (index, unit gain, error).
    A row ends where those heads can gain no more; the entries past its end
    are infinite.  Only every ``_stride(n)``-th row (and the last) stays
    resident; a row in between is rebuilt, with the rest of its segment, from
    the kept row below it, and ``rebuilt`` counts that work.
    """

    def __init__(self, choices: list[list[tuple[int, int, float]]], need: int):
        self.choices, self.need, self.n = choices, need, len(choices)
        self.stride = stride = _stride(self.n)
        row = np.zeros(1)
        self.kept = {self.n: row}
        for pos in range(self.n - 1, -1, -1):
            row = self._extend(pos, row)
            if pos % stride == 0:
                self.kept[pos] = row
        self.segment, self.rows, self.rebuilt = -1, {}, 0

    def _extend(self, pos: int, below: np.ndarray) -> np.ndarray:
        size = min(self.need, below.size - 1 + max(gain for _, gain, _ in self.choices[pos])) + 1
        out = np.full(size, np.inf)
        for _, gain, error in self.choices[pos]:
            cut, end = min(gain, size), min(size, below.size + gain)
            np.minimum(out[:cut], below[0] + error, out=out[:cut])
            if end > cut:
                np.minimum(out[cut:end], below[:end - gain] + error, out=out[cut:end])
        return out

    def at(self, pos: int, need: int) -> float:
        """The bound for heads ``pos:`` that must gain ``need`` more units."""
        row = self._row(pos)
        return float(row[need]) if need < row.size else math.inf

    def _row(self, pos: int) -> np.ndarray:
        if pos in self.kept:
            return self.kept[pos]
        segment = pos // self.stride
        if segment != self.segment:
            top = min((segment + 1) * self.stride, self.n)
            self.rows, row = {}, self.kept[top]
            for p in range(top - 1, segment * self.stride, -1):
                row = self.rows[p] = self._extend(p, row)
            self.segment = segment
            self.rebuilt += sum(-(-row.size // _ROW_WORK_CELLS) for row in self.rows.values())
        return self.rows[pos]


def _unit_gains(problem: CalibrationProblem,
                per_head: list[list[int]]) -> tuple[list[list[int]], int]:
    """Integer sparsity units each candidate gains over its head's least, and the units needed.

    Measured problems count skipped blocks, which is exact; others round
    ``S * _FLOAT_UNITS`` up, which never undercounts.  Any assignment that
    passes the canonical float check gains at least the units needed: the
    slack covers the ``_COUNT_TOL`` each head's ``S`` may stray from its count
    plus the rounding of the sums.  Units are coarsened (rounded up again)
    only when the resident table would exceed ``_TABLE_CELLS``.
    """
    n = problem.head_count
    if problem.kept_blocks is None:
        denom = _FLOAT_UNITS
        units = np.ceil(problem.sparsity.reshape(n, -1) * denom).astype(np.int64)
    else:
        denom = problem.block_denominator
        units = denom - problem.kept_blocks.reshape(n, -1).astype(np.int64)
    gains, least = [], 0
    for row, cands in enumerate(per_head):
        base = int(units[row, cands].min())
        gains.append((units[row, cands] - base).tolist())
        least += base
    slack = (n * _COUNT_TOL + _BOUND_SLACK) * denom
    # A budget at or below 0 needs no units; clamping keeps huge negatives finite.
    need = max(0, math.ceil(max(problem.budget, 0.0) * n * denom - slack) - least)
    # Kept rows, one segment of rebuilt rows and the two rows being extended.
    stride = _stride(n)
    resident = -(-n // stride) + stride + 2
    scale = 1
    while scale < need and resident * (-(-need // scale) + 1) > _TABLE_CELLS:
        scale += 1
    if scale > 1:
        gains = [[-(-gain // scale) for gain in head] for head in gains]
    return gains, -(-need // scale)


def _stride(n: int) -> int:
    """Rows between resident bound rows: ceil(sqrt(n))."""
    return math.isqrt(max(n - 1, 0)) + 1


def solve_budgeted_assignment(problem: CalibrationProblem) -> CalibrationTable:
    """Exact minimum-error assignment meeting the average-sparsity budget.

    Multiple-choice knapsack solved by per-head dominance pruning and an
    explicit-stack depth-first branch and bound over heads in descending unit
    range, visiting children in bound order.  Each node is bounded by a
    suffix table over integer sparsity units (``_SuffixBound``).  Ties among
    optimal assignments break toward higher achieved sparsity, then the
    smallest candidate-index vector in (layer, head) order.  A search that
    reaches ``_WORK_LIMIT`` returns its incumbent with ``optimal`` false and
    ``gap``, the incumbent's objective minus the least open bound.
    """
    _check_feasible(problem)
    err, spar = problem.flat()
    n = problem.head_count
    per_head = [_pareto_candidates(err[row], spar[row]) for row in range(n)]
    gains, need = _unit_gains(problem, per_head)
    order = sorted(range(n), key=lambda row: (-max(gains[row]), row))
    choices = [list(zip(per_head[row], gains[row], err[row, per_head[row]].tolist()))
               for row in order]
    table = _SuffixBound(choices, need)

    incumbent_key: tuple | None = None
    incumbent_sel: list[int] | None = None

    def consider(selection: list[int]) -> None:
        nonlocal incumbent_key, incumbent_sel
        _, achieved = _assignment_stats(problem, selection)
        if achieved < problem.budget:
            return
        key = _solution_key(problem, selection)
        if incumbent_key is None or key < incumbent_key:
            incumbent_key, incumbent_sel = key, list(selection)

    # Warm start: the max-sparsity assignment.  Rounded sums are monotone in
    # each term, so if it fails the canonical check every assignment does.
    greedy_spar = [max(range(problem.taus.size), key=lambda i: (spar[row, i], -err[row, i], -i))
                   for row in range(n)]
    consider(greedy_spar)
    if incumbent_sel is None:
        raise InfeasibleBudget("no feasible assignment", max_achievable=problem.max_achievable())

    # Entries: (bound, depth, error so far, units still needed, candidate taken at depth - 1).
    selection = [0] * n
    stack = [(table.at(0, need), 0, 0.0, need, -1)]
    nodes = pruned = 0
    while stack:
        bound, pos, acc, rest, choice = stack.pop()
        if bound > incumbent_key[0] + _BOUND_SLACK:
            pruned += 1
            continue
        if nodes + table.rebuilt >= _WORK_LIMIT:
            stack.append((bound, pos, acc, rest, choice))
            break
        nodes += 1
        if pos:
            selection[order[pos - 1]] = choice
        if pos == n:
            consider(selection)
            continue
        children = sorted((acc + e + table.at(pos + 1, max(rest - u, 0)), i, u, e)
                          for i, u, e in choices[pos])
        for child, i, u, e in reversed(children):
            stack.append((child, pos + 1, acc + e, max(rest - u, 0), i))
    gap = max(0.0, incumbent_key[0] - min(entry[0] for entry in stack)) if stack else 0.0
    return replace(_make_table(problem, incumbent_sel, solver="branch_and_bound",
                               optimal=not stack),
                   gap=gap, nodes=nodes, pruned=pruned)


def shared_threshold_baseline(problem: CalibrationProblem, tau: float) -> dict:
    """Objective and achieved sparsity when every head uses the same threshold."""
    matches = np.flatnonzero(np.isclose(problem.taus, tau, rtol=0, atol=TAU_MATCH_TOL))
    if matches.size == 0:
        raise DomainError(f"threshold {tau} was not measured; candidates: {list(problem.taus)}")
    k = int(matches[0])
    selection = [k] * problem.head_count
    objective, achieved = _assignment_stats(problem, selection)
    return {
        "tau": float(problem.taus[k]),
        "objective": objective,
        "achieved_sparsity": achieved,
        "feasible": achieved >= problem.budget,
    }


@dataclass
class GapResult:
    joint_error: float
    single_errors: list[float]
    additive_error: float
    abs_gap: float
    rel_gap: float


def _probe_heads(pipeline: ForwardPipeline, heads) -> list[tuple[int, int]]:
    """The probed (layer, head) pairs: out of range raises ShapeMismatch, a repeat DomainError."""
    heads = [tuple(key) for key in heads]
    for layer, head in heads:
        pipeline.check_head(layer, head)
    if len(set(heads)) != len(heads):
        raise DomainError("a probe lists each head at most once")
    return heads


def additive_surrogate_gap(pipeline: ForwardPipeline, head_taus, step: int,
                           weights: BandWeights | None = None) -> GapResult:
    """Joint multi-head sparsification error versus the sum of isolated errors.

    Masks, changes and isolated errors come from one calibration measurement
    of the listed heads, each at its own threshold: each single error is the
    ``E`` calibration measures at this step.  The joint error is that of the
    field after the sum of the heads' pre-activation changes: the bits of
    ``sparse_forward`` on the same masks in the same order.  A head may be
    listed once.  With one head the gap is identically zero; interactions
    need two or more heads.
    """
    head_taus = list(head_taus)
    if not head_taus:
        raise DomainError("the additivity probe needs at least one head")
    keys = _probe_heads(pipeline, [key for key, _ in head_taus])
    taus = np.array([[float(tau)] for _, tau in head_taus])
    layers, heads = np.array(keys).T
    _, singles, _, changes = _measure_step(pipeline, step, layers, heads, taus, weights, "fft")
    joint = _field_errors(pipeline, step, changes[:, 0].sum(axis=0), weights, "fft")
    singles = singles[:, 0].tolist()
    additive = float(np.sum(singles))
    abs_gap = abs(joint - additive)
    denom = max(abs(joint), abs(additive))
    return GapResult(
        joint_error=joint,
        single_errors=singles,
        additive_error=additive,
        abs_gap=abs_gap,
        rel_gap=abs_gap / denom if denom > 0 else 0.0,
    )


def quadratic_scaling_probe(pipeline: ForwardPipeline, heads, step: int,
                            scales=(1.0, 0.5, 0.25), amplitude: float = 1e-3,
                            seed: int = 0, weights: BandWeights | None = None) -> dict:
    """Replace masks with tiny injected head perturbations and sweep their scale.

    The heads' noise is drawn as one (heads, tokens, head_dim) array,
    projected to pre-activation changes once by ``head_changes`` and then
    scaled.  Returns per-scale joint errors and per-head single errors; for
    a smooth error functional both shrink approximately fourfold per halving.
    """
    heads = _probe_heads(pipeline, heads)
    if len(heads) < 2:
        raise DomainError("the scaling probe needs at least two heads")
    cfg = pipeline.trace.config
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _PROBE_STREAM]))
    noise = rng.standard_normal((len(heads), cfg.tokens, cfg.head_dim))
    for row, (layer, head) in enumerate(heads):
        reference = pipeline.dense_head_output(step, layer, head)
        noise[row] *= amplitude * np.linalg.norm(reference) / np.linalg.norm(noise[row])
    base = pipeline.model.head_changes([head for _, head in heads], noise)

    joint = {}
    single = {key: {} for key in heads}
    for s in scales:
        scaled = s * base
        joint[s] = _field_errors(pipeline, step, scaled.sum(axis=0), weights, "fft")
        errors = _field_errors(pipeline, step, scaled, weights, "fft")
        for key, error in zip(heads, errors.tolist()):
            single[key][s] = error
    return {"joint": joint, "single": single, "scales": list(scales)}
