"""Offline budgeted calibration of per-head top-p thresholds.

Each head is measured at K candidate thresholds: sparsify only that head at a
few sampled steps, compare the resulting velocity field against the cached
dense reference, and average error and realized sparsity into one operating
point per candidate.  Selecting one operating point per head to minimize total
error subject to a global average-sparsity floor is a multiple-choice knapsack.
It is solved by dominance pruning and depth-first branch and bound, with one
dynamic-programming bound over skipped-block counts.  The bound table keeps
every ceil(sqrt(n))-th row and rebuilds the others on demand, so it stays
under a fixed cell cap.  A search that reaches its work limit reports
``optimal`` false and the proven gap.  A brute-force oracle cross-checks
small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .blocksparse import BlockScores, block_score_values, check_tau, top_p_mask
from .blocksparse import (
    top_p_select,  # noqa: F401  -- re-exported; perfbench's smoke test rebinds it here
)
from .errors import ConfigError, DomainError, InfeasibleBudget, ShapeMismatch
from .spectral import BandWeights, band_energy_ratios, band_partition, weighted_error
from .surrogate import ForwardPipeline

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


# Each S is a float mean of per-step ratios, so it may stray from its exact
# ratio of skipped blocks by rounding; the solver's unit bound allows this
# much per head.
_COUNT_TOL = 1e-12

# Thresholds at most this far apart are one candidate: ``shared:<tau>`` and
# ``shared_threshold_baseline`` match a threshold with this tolerance.
TAU_MATCH_TOL = 1e-12


@dataclass
class CalibrationProblem:
    """Measured operating points of every (layer, head, candidate).

    ``kept`` holds the kept-block count of each candidate at each sampled
    step, out of ``blocks`` blocks per step.  Each candidate's sparsity
    ``S`` is the mean over steps of ``1 - kept / blocks``.
    """

    taus: np.ndarray          # (K,)
    kept: np.ndarray          # (layers, heads, K, steps) integers
    blocks: int
    error: np.ndarray         # (layers, heads, K)
    budget: float
    sparsity: np.ndarray = field(init=False, repr=False)  # (layers, heads, K)

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=np.float64)
        self.kept = np.asarray(self.kept)
        self.error = np.asarray(self.error, dtype=np.float64)
        if self.taus.ndim != 1 or self.taus.size < 1:
            raise ConfigError("need at least one candidate threshold")
        shape = self.kept.shape[:3]
        if self.kept.ndim != 4 or self.error.shape != shape or shape[2] != self.taus.size:
            raise ShapeMismatch("kept must be (L, H, K, steps) and error (L, H, K), "
                                "with K the number of candidates")
        if self.kept.shape[3] < 1:
            raise ShapeMismatch("need at least one sampled step")
        if not np.issubdtype(self.kept.dtype, np.integer):
            raise DomainError("kept-block counts must be integers")
        blocks = self.blocks
        if not isinstance(blocks, Integral) or isinstance(blocks, bool) or blocks <= 0:
            raise DomainError(f"blocks per step must be a positive integer, got {blocks!r}")
        if np.any(self.kept < 0) or np.any(self.kept > blocks):
            raise DomainError(f"kept-block counts must lie in [0, {blocks}]")
        if not np.isfinite(self.error).all():
            raise DomainError("measured errors must be finite")
        # No assignment's objective is larger in magnitude than this sum.
        with np.errstate(over="ignore"):
            largest = np.abs(self.error).max(axis=2).sum()
        if not np.isfinite(largest):
            raise DomainError("measured errors overflow when summed over heads")
        self.sparsity = np.mean(1.0 - self.kept / blocks, axis=-1)

    @property
    def layers(self) -> int:
        return self.error.shape[0]

    @property
    def heads(self) -> int:
        return self.error.shape[1]

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
    # steps, and the blocks those steps offer; None for tables read back.
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


def _measure_step(pipeline: ForwardPipeline, step: int, layers: np.ndarray, heads: np.ndarray,
                  taus: np.ndarray, weights: BandWeights | None,
                  objective: str) -> tuple[np.ndarray, np.ndarray]:
    """Kept-block counts and errors, (n, K), of each head and tau at a step.

    ``layers`` and ``heads`` list n heads; ``taus`` is (K,).  One scoring
    call covers every head and one ``top_p_mask`` call selects every
    (head, threshold) row.  A row that keeps every block has error exactly
    0; the others share one batched ``preactivation_changes`` pass and one
    error pass against the dense field: ``fft`` is the weighted four-band
    error, ``mse`` the mean squared difference.
    """
    trace, grid = pipeline.trace, pipeline.grid
    trace.check_step(step)
    # Sorted like np.unique (NaN last), which would import numpy.ma.
    for tau in np.sort(taus).tolist():
        check_tau(tau)
    n, k, blocks = len(heads), taus.size, grid.total_blocks
    scores = BlockScores(block_score_values(trace.q(step, layers, heads),
                                            trace.k(step, layers, heads), grid))
    scores.validate()
    keep = top_p_mask(np.broadcast_to(scores.values[:, None], (n, k, blocks)),
                      taus).reshape(n * k, blocks)
    kept = keep.sum(axis=-1)
    error = np.zeros(n * k)
    rows = np.flatnonzero(kept < blocks)
    if rows.size:
        at = rows // k
        changes = pipeline.preactivation_changes(step, layers[at], heads[at], keep[rows])
        dense = pipeline.dense_forward(step)
        residual = pipeline.field_after(step, changes) - dense
        if objective == "fft":
            partition = band_partition(trace.config.velocity_shape)
            error[rows] = weighted_error(band_energy_ratios(residual, dense, partition), weights)
        else:
            error[rows] = np.mean((residual ** 2).reshape(rows.size, -1), axis=-1)
    return kept.reshape(n, k), error.reshape(n, k)


def _measure(pipeline: ForwardPipeline, layers, heads, taus, steps, weights: BandWeights | None,
             objective: str) -> tuple[np.ndarray, np.ndarray]:
    """Kept blocks at each step, (n, K, steps), and mean errors, (n, K), of the listed heads."""
    taus = np.array([float(t) for t in taus])
    steps = list(steps)
    if not taus.size:
        raise DomainError("need at least one candidate threshold")
    if objective not in ("fft", "mse"):
        raise DomainError(f"objective must be 'fft' or 'mse', got {objective!r}")
    if not steps:
        raise DomainError("need at least one sampled step")
    layers, heads = np.asarray(layers), np.asarray(heads)
    per_step = [_measure_step(pipeline, step, layers, heads, taus, weights, objective)
                for step in steps]
    kept = np.stack([counts for counts, _ in per_step], axis=-1)
    error = np.stack([errors for _, errors in per_step], axis=-1)
    # A mean whose sum overflows is inf, which CalibrationProblem rejects.
    with np.errstate(over="ignore"):
        return kept, np.mean(error, axis=-1)


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
    kept, error = _measure(pipeline, [layer], [head], taus, steps, weights, objective)
    problem = CalibrationProblem(taus=[float(t) for t in taus], kept=kept[None],
                                 blocks=pipeline.grid.total_blocks, error=error[None], budget=0.0)
    return [
        OperatingPoint(tau=float(tau), sparsity=float(s), error=float(e), kept_blocks=int(b))
        for tau, s, e, b in zip(problem.taus, problem.sparsity[0, 0], error[0],
                                kept[0].sum(axis=-1))
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
    kept, error = _measure(pipeline, layers, heads, taus, steps, weights, objective)
    return CalibrationProblem(taus=np.array(taus), kept=kept.reshape(*shape, len(steps)),
                              blocks=pipeline.grid.total_blocks, error=error.reshape(shape),
                              budget=float(budget))


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
    kept = problem.kept.reshape(problem.head_count, problem.taus.size, -1)
    return CalibrationTable(
        selections=selections, objective=objective, achieved_sparsity=achieved,
        budget=problem.budget, solver=solver, optimal=optimal,
        blocks_kept=int(kept[np.arange(problem.head_count), selection].sum()),
        blocks_total=problem.blocks * kept.shape[-1] * problem.head_count,
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


# Bound and search limits.  The bound table holds at most _TABLE_CELLS
# float64 cells at once.  The search stops after _WORK_LIMIT units of work:
# one per node expanded and one per _ROW_WORK_CELLS cells of a rebuilt table
# row, which take about as long as one node.
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
    """Skipped blocks each candidate gains over its head's least, and the blocks needed.

    A unit is one block skipped over the sampled steps.  Any assignment
    that passes the canonical float check gains at least the units needed:
    the slack covers the ``_COUNT_TOL`` each head's ``S`` may stray from its
    count plus the rounding of the sums.  Units are coarsened (rounded up
    again) only when the resident table would exceed ``_TABLE_CELLS``.
    """
    n = problem.head_count
    kept = problem.kept.reshape(n, problem.taus.size, -1).astype(np.int64)
    denom = problem.blocks * kept.shape[-1]
    units = denom - kept.sum(axis=-1)
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
