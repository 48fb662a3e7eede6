"""Offline budgeted calibration of per-head top-p thresholds.

Each head is measured at K candidate thresholds: sparsify only that head at a
few sampled steps, compare the resulting velocity field against the cached
dense reference, and average error and realized sparsity into one operating
point per candidate.  Selecting one operating point per head to minimize total
error subject to a global average-sparsity floor is a multiple-choice knapsack;
it is solved exactly with dominance pruning, a fixed-multiplier Lagrangian
bound, and depth-first branch and bound, and cross-checked by brute force.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .blocksparse import realized_sparsity, top_p_select
from .errors import ConfigError, DomainError, InfeasibleBudget, ShapeMismatch
from .spectral import BandPartition, BandWeights, band_energy_ratios, band_partition, weighted_error
from .surrogate import ForwardPipeline
from .trace import generate_trace

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
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 606]))
    picks = []
    for j in range(intervals):
        lo = (j * total_steps) // intervals
        hi = ((j + 1) * total_steps) // intervals
        picks.append(int(rng.integers(lo, hi)))
    return picks


@dataclass(frozen=True)
class OperatingPoint:
    """One candidate threshold with its measured mean sparsity and mean error."""

    tau: float
    sparsity: float
    error: float


@dataclass
class CalibrationProblem:
    taus: np.ndarray          # (K,)
    sparsity: np.ndarray      # (layers, heads, K)
    error: np.ndarray         # (layers, heads, K)
    budget: float

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
        return {
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


def _field(record: dict, key: str, kind: type):
    """``record[key]`` if it is a ``kind``; a bool counts only as a bool."""
    value = record[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise DomainError(f"calibration field {key!r} has invalid value {value!r}")
    return value


def table_from_json_dict(payload: dict) -> CalibrationTable:
    """Rebuild a ``to_json_dict`` table; a mistyped field raises DomainError, nothing is coerced."""
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


def measure_head(pipeline: ForwardPipeline, layer: int, head: int, taus,
                 steps, weights: BandWeights | None = None,
                 partition: BandPartition | None = None,
                 objective: str = "fft") -> list[OperatingPoint]:
    """Measure one head at each candidate threshold over the sampled steps.

    Requires the dense outputs for every step to be cached already.  Each
    step scores the head's blocks once; every threshold selects from those
    scores and costs one masked attention for this head plus one projection.
    Returns one operating point per threshold, in ``taus`` order.
    """
    taus = [float(t) for t in taus]
    steps = list(steps)
    pipeline.require_dense(steps)
    if objective not in ("fft", "mse"):
        raise DomainError(f"objective must be 'fft' or 'mse', got {objective!r}")
    if partition is None:
        partition = band_partition(pipeline.trace.config.velocity_shape)
    errors: list[list[float]] = [[] for _ in taus]
    sparsities: list[list[float]] = [[] for _ in taus]
    for step in steps:
        scores = pipeline.scores(step, layer, head)
        dense = pipeline.dense_forward(step)
        for j, tau in enumerate(taus):
            mask = top_p_select(scores, tau)
            residual = pipeline.sparse_forward(step, {(layer, head): mask}) - dense
            if objective == "fft":
                errors[j].append(
                    weighted_error(band_energy_ratios(residual, dense, partition), weights)
                )
            else:
                errors[j].append(float(np.mean(residual ** 2)))
            sparsities[j].append(realized_sparsity(mask))
    return [
        OperatingPoint(tau=tau, sparsity=float(np.mean(s)), error=float(np.mean(e)))
        for tau, s, e in zip(taus, sparsities, errors)
    ]


def build_problem(pipeline: ForwardPipeline, taus, intervals: int, budget: float,
                  weights: BandWeights | None = None, seed: int = 0,
                  objective: str = "fft",
                  per_head_seeds: bool = False) -> CalibrationProblem:
    """Measure every (layer, head, candidate) and assemble the assignment problem.

    With ``per_head_seeds`` each head is measured on its own reseeded trace
    (one trace per head assignment) instead of the shared one.
    """
    taus = [float(t) for t in taus]
    if len(set(taus)) != len(taus):
        raise DomainError("candidate thresholds must be distinct")
    if any(not (0.0 < t <= 1.0) for t in taus):
        raise DomainError("candidate thresholds must lie in (0, 1]")
    cfg = pipeline.trace.config
    steps = sample_timesteps(cfg.steps, intervals, seed)
    partition = band_partition(cfg.velocity_shape)
    shape = (cfg.layers, cfg.heads, len(taus))
    sparsity = np.empty(shape)
    error = np.empty(shape)
    pipeline.precompute_dense(steps)
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            if per_head_seeds:
                head_cfg = replace(cfg, seed=cfg.seed + 1 + layer * cfg.heads + head)
                head_pipe = ForwardPipeline(generate_trace(head_cfg), pipeline.model)
                head_pipe.precompute_dense(steps)
            else:
                head_pipe = pipeline
            points = measure_head(head_pipe, layer, head, taus, steps, weights,
                                  partition, objective)
            sparsity[layer, head] = [point.sparsity for point in points]
            error[layer, head] = [point.error for point in points]
    return CalibrationProblem(taus=np.array(taus), sparsity=sparsity, error=error, budget=float(budget))


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
    return CalibrationTable(
        selections=selections, objective=objective, achieved_sparsity=achieved,
        budget=problem.budget, solver=solver, optimal=optimal,
    )


def _check_feasible(problem: CalibrationProblem) -> None:
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


def brute_force_assignment(problem: CalibrationProblem, limit: int = 10_000_000) -> CalibrationTable:
    """Exhaustive oracle with the same tie-breaks as the exact solver."""
    k = problem.taus.size
    if k ** problem.head_count > limit:
        raise DomainError(
            f"instance too large for brute force: {k}^{problem.head_count} assignments"
        )
    _check_feasible(problem)
    err, spar = problem.flat()
    choices = np.array(list(itertools.product(range(k), repeat=problem.head_count)), dtype=np.intp)
    rows = np.arange(problem.head_count)
    objectives = err[rows, choices].sum(axis=1)
    achieved = spar[rows, choices].sum(axis=1) / problem.head_count
    feasible = achieved >= problem.budget
    if not feasible.any():
        raise InfeasibleBudget("no feasible assignment", max_achievable=problem.max_achievable())
    cand = np.flatnonzero(feasible)
    keys = [choices[cand, col] for col in range(problem.head_count - 1, -1, -1)]
    keys.append(-achieved[cand])
    keys.append(objectives[cand])
    best = cand[np.lexsort(keys)[0]]
    return _make_table(problem, choices[best], solver="brute_force", optimal=True)


def _pareto_candidates(err_row: np.ndarray, spar_row: np.ndarray) -> list[int]:
    """Indices the search branches on: every point no lower index dominates.

    A lower index with no more error and no less sparsity never raises the
    rounded objective, never lowers the rounded sparsity and wins the index
    tie-break.  A point dominated only by higher indices stays: rounding can
    absorb the difference in the totals and leave it the tie-break winner.
    """
    return [i for i in range(err_row.size)
            if not any(err_row[j] <= err_row[i] and spar_row[j] >= spar_row[i] for j in range(i))]


def _dual_multiplier(err: np.ndarray, spar: np.ndarray, per_head: list[list[int]],
                     budget_total: float) -> float:
    """Pick the Lagrangian multiplier maximizing the dual over frontier slopes."""
    slopes = [0.0]
    for row, kept in enumerate(per_head):
        for i, j in itertools.combinations(kept, 2):
            ds = spar[row, j] - spar[row, i]
            if abs(ds) > 1e-15:
                slopes.append(abs((err[row, j] - err[row, i]) / ds))
    best_lam, best_val = 0.0, -math.inf
    for lam in slopes:
        val = lam * budget_total
        for row, kept in enumerate(per_head):
            val += min(err[row, i] - lam * spar[row, i] for i in kept)
        if val > best_val:
            best_val, best_lam = val, lam
    return best_lam


def solve_budgeted_assignment(problem: CalibrationProblem) -> CalibrationTable:
    """Exact minimum-error assignment meeting the average-sparsity budget.

    Multiple-choice knapsack solved by per-head dominance pruning, a Lagrangian
    lower bound at a fixed dual multiplier, and depth-first branch and bound
    over heads ordered by descending sparsity range.  Ties among optimal
    assignments break toward higher achieved sparsity, then the smallest
    candidate-index vector in (layer, head) order.
    """
    _check_feasible(problem)
    err, spar = problem.flat()
    n = problem.head_count
    budget_total = problem.budget * n
    per_head = [_pareto_candidates(err[row], spar[row]) for row in range(n)]
    lam = _dual_multiplier(err, spar, per_head, budget_total)

    s_range = [
        max(spar[row, i] for i in kept) - min(spar[row, i] for i in kept)
        for row, kept in enumerate(per_head)
    ]
    search_order = sorted(range(n), key=lambda row: (-s_range[row], row))

    # Suffix aggregates over the search order for O(1) per-node bounds.
    suffix_min_err = np.zeros(n + 1)
    suffix_min_dual = np.zeros(n + 1)
    suffix_max_spar = np.zeros(n + 1)
    for pos in range(n - 1, -1, -1):
        row = search_order[pos]
        kept = per_head[row]
        suffix_min_err[pos] = suffix_min_err[pos + 1] + min(err[row, i] for i in kept)
        suffix_min_dual[pos] = suffix_min_dual[pos + 1] + min(
            err[row, i] - lam * spar[row, i] for i in kept
        )
        suffix_max_spar[pos] = suffix_max_spar[pos + 1] + max(spar[row, i] for i in kept)

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

    # Warm starts: the unconstrained minimum (if feasible) and the max-sparsity
    # assignment (feasible by the precheck).
    greedy_min = [min(per_head[row], key=lambda i: (err[row, i], -spar[row, i], i)) for row in range(n)]
    consider(greedy_min)
    greedy_spar = [max(range(problem.taus.size), key=lambda i: (spar[row, i], -err[row, i], -i))
                   for row in range(n)]
    consider(greedy_spar)

    selection = [0] * n

    def dfs(pos: int, err_acc: float, spar_acc: float) -> None:
        nonlocal incumbent_key
        if spar_acc + suffix_max_spar[pos] < budget_total - _BOUND_SLACK:
            return
        if incumbent_key is not None:
            bound = err_acc + max(
                suffix_min_err[pos],
                suffix_min_dual[pos] + lam * (budget_total - spar_acc),
            )
            if bound > incumbent_key[0] + _BOUND_SLACK:
                return
        if pos == n:
            consider(selection)
            return
        row = search_order[pos]
        for i in sorted(per_head[row], key=lambda i: (err[row, i], -spar[row, i], i)):
            selection[row] = i
            dfs(pos + 1, err_acc + err[row, i], spar_acc + spar[row, i])
        selection[row] = per_head[row][0]

    dfs(0, 0.0, 0.0)
    if incumbent_sel is None:
        raise InfeasibleBudget("no feasible assignment", max_achievable=problem.max_achievable())
    return _make_table(problem, incumbent_sel, solver="branch_and_bound", optimal=True)


def shared_threshold_baseline(problem: CalibrationProblem, tau: float) -> dict:
    """Objective and achieved sparsity when every head uses the same threshold."""
    matches = np.flatnonzero(np.isclose(problem.taus, tau, rtol=0, atol=1e-12))
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


def additive_surrogate_gap(pipeline: ForwardPipeline, head_taus, step: int,
                           weights: BandWeights | None = None,
                           partition: BandPartition | None = None) -> GapResult:
    """Joint multi-head sparsification error versus the sum of isolated errors.

    With a single listed head the joint and additive errors coincide and the
    gap is identically zero; interaction effects need two or more heads.
    """
    head_taus = list(head_taus)
    if not head_taus:
        raise DomainError("the additivity probe needs at least one head")
    if partition is None:
        partition = band_partition(pipeline.trace.config.velocity_shape)
    dense = pipeline.dense_forward(step)

    def spectral_err(field: np.ndarray) -> float:
        return weighted_error(band_energy_ratios(field - dense, dense, partition), weights)

    masks = {}
    singles = []
    for (layer, head), tau in head_taus:
        mask = top_p_select(pipeline.scores(step, layer, head), float(tau))
        masks[(layer, head)] = mask
        singles.append(spectral_err(pipeline.sparse_forward(step, {(layer, head): mask})))
    joint = spectral_err(pipeline.sparse_forward(step, masks))
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
                            seed: int = 0, weights: BandWeights | None = None,
                            partition: BandPartition | None = None) -> dict:
    """Replace masks with tiny injected head perturbations and sweep their scale.

    Returns per-scale joint errors and per-head single errors; for a smooth
    error functional both shrink approximately fourfold per halving.
    """
    heads = list(heads)
    if len(heads) < 2:
        raise DomainError("the scaling probe needs at least two heads")
    if partition is None:
        partition = band_partition(pipeline.trace.config.velocity_shape)
    cfg = pipeline.trace.config
    dense = pipeline.dense_forward(step)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _PROBE_STREAM]))
    base = {}
    for (layer, head) in heads:
        reference = pipeline.dense_head_output(step, layer, head)
        noise = rng.standard_normal((cfg.tokens, cfg.head_dim))
        noise *= amplitude * np.linalg.norm(reference) / np.linalg.norm(noise)
        base[(layer, head)] = noise

    def spectral_err(field: np.ndarray) -> float:
        return weighted_error(band_energy_ratios(field - dense, dense, partition), weights)

    joint = {}
    single = {key: {} for key in base}
    for s in scales:
        scaled = {key: s * delta for key, delta in base.items()}
        joint[s] = spectral_err(pipeline.perturbed_forward(step, scaled))
        for key, delta in scaled.items():
            single[key][s] = spectral_err(pipeline.perturbed_forward(step, {key: delta}))
    return {"joint": joint, "single": single, "scales": list(scales)}
