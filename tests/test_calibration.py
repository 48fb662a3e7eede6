import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satool import calibration, surrogate
from satool.blocksparse import block_score_values, block_scores, top_p_select
from satool.calibration import (
    CalibrationProblem,
    CalibrationTable,
    HeadSelection,
    brute_force_assignment,
    build_problem,
    measure_head,
    sample_timesteps,
    shared_threshold_baseline,
    solve_budgeted_assignment,
    table_from_json_dict,
)
from satool.errors import DomainError, InfeasibleBudget, ShapeMismatch
from satool.spectral import band_energy_ratios, band_partition, weighted_error
from satool.surrogate import ForwardPipeline, attention_probs, masked_attention
from satool.trace import TraceConfig, generate_trace


class TestSampleTimesteps:
    def test_each_interval_hit_once(self):
        picks = sample_timesteps(50, 4, seed=0)
        bounds = [(0, 12), (12, 25), (25, 37), (37, 50)]
        assert len(picks) == 4
        for pick, (lo, hi) in zip(picks, bounds):
            assert lo <= pick < hi

    def test_every_step_when_intervals_equal_steps(self):
        assert sample_timesteps(7, 7, seed=3) == list(range(7))

    def test_deterministic(self):
        assert sample_timesteps(50, 4, seed=9) == sample_timesteps(50, 4, seed=9)

    def test_too_many_intervals(self):
        with pytest.raises(DomainError):
            sample_timesteps(3, 4, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            sample_timesteps(50, 4, seed=-1)


def random_problem(rng, layers, heads, k, budget=None, blocks=64, steps=4):
    """Random kept-block counts and errors; by default a budget below the maximum achievable."""
    kept = rng.integers(0, blocks + 1, size=(layers, heads, k, steps))
    err = rng.uniform(0, 10, size=(layers, heads, k))
    problem = CalibrationProblem(taus=np.linspace(0.95, 0.85, k), kept=kept, blocks=blocks,
                                 error=err, budget=0.0)
    problem.budget = float(rng.uniform(0, problem.max_achievable())) if budget is None else budget
    return problem


def hand_problem():
    """head 1: (tau=.95, S=.5, E=1), (tau=.85, S=.8, E=3);
    head 2: (tau=.95, S=.6, E=2), (tau=.85, S=.9, E=10); budget 0.7.

    One step of 10 blocks: 5, 2, 4 and 1 kept.
    """
    return CalibrationProblem(taus=np.array([0.95, 0.85]), kept=[[[[5], [2]]], [[[4], [1]]]],
                              blocks=10, error=[[[1.0, 3.0]], [[2.0, 10.0]]], budget=0.7)


class TestSolver:
    def test_single_candidate_forced(self, rng):
        prob = random_problem(rng, 2, 2, 1, budget=0.0)
        table = solve_budgeted_assignment(prob)
        assert table.selection_indices() == (0, 0, 0, 0)
        assert brute_force_assignment(prob).selection_indices() == (0, 0, 0, 0)

    def test_two_head_hand_instance(self):
        prob = hand_problem()
        np.testing.assert_array_equal(prob.sparsity, [[[0.5, 0.8]], [[0.6, 0.9]]])
        # Brute-force by hand over the four assignments: feasible ones are
        # (.85,.95) avg .7 obj 5 and (.85,.85) avg .85 obj 13 and (.95,.85) avg .7 obj 11.
        table = solve_budgeted_assignment(prob)
        assert table.selection_indices() == (1, 0)
        assert table.objective == pytest.approx(5.0)
        oracle = brute_force_assignment(prob)
        assert oracle.selection_indices() == (1, 0)
        assert oracle.objective == table.objective

    def test_zero_budget_picks_min_error_everywhere(self, rng):
        prob = random_problem(rng, 2, 3, 3, budget=0.0)
        table = solve_budgeted_assignment(prob)
        err, _ = prob.flat()
        for row, k in enumerate(table.selection_indices()):
            assert err[row, k] == err[row].min()

    @pytest.mark.parametrize("solver", [solve_budgeted_assignment, brute_force_assignment])
    def test_non_finite_budget_rejected(self, rng, solver):
        for budget in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                solver(random_problem(rng, 2, 3, 3, budget=budget))

    @pytest.mark.parametrize("solver", [solve_budgeted_assignment, brute_force_assignment])
    def test_huge_negative_budget_matches_zero(self, rng, solver):
        prob = random_problem(rng, 2, 3, 3, budget=0.0)
        low = CalibrationProblem(taus=prob.taus, kept=prob.kept, blocks=prob.blocks,
                                 error=prob.error, budget=-1e308)
        assert solver(low).selection_indices() == solver(prob).selection_indices()

    def test_oracle_equivalence_randomized(self, rng):
        for _ in range(200):
            layers = int(rng.integers(1, 3))
            heads = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            budget = None
            prob = random_problem(rng, layers, heads, k, budget)
            try:
                exact = solve_budgeted_assignment(prob)
            except InfeasibleBudget:
                with pytest.raises(InfeasibleBudget):
                    brute_force_assignment(prob)
                continue
            oracle = brute_force_assignment(prob)
            assert exact.objective == oracle.objective
            assert exact.selection_indices() == oracle.selection_indices()
            assert exact.achieved_sparsity == oracle.achieved_sparsity

    def test_shared_budget_on_a_rounded_mean(self):
        # S = mean(1, 1/3, 1/3) rounds above its count: S * 9 is
        # 5.000000000000001, not 5 skipped blocks.  The budget the shared
        # baseline sets is that S, and the unit bound must still admit the
        # baseline itself.
        prob = CalibrationProblem(taus=np.array([0.9, 0.8]), kept=[[[[0, 2, 2], [0, 1, 0]]]],
                                  blocks=3, error=[[[0.0, 1.5]]], budget=0.0)
        prob.budget = shared_threshold_baseline(prob, 0.9)["achieved_sparsity"]
        assert solve_budgeted_assignment(prob).selection_indices() == (0,)
        assert brute_force_assignment(prob).selection_indices() == (0,)

    def test_tie_breaks_prefer_sparsity_then_lex(self):
        # Two identical-error candidates; the sparser one must win, and among
        # fully tied candidates the lower index must win.
        # S = 0.4, 0.6, 0.6: 3, 2 and 2 of 5 blocks kept.
        prob = CalibrationProblem(taus=np.array([0.95, 0.9, 0.85]), kept=[[[[3], [2], [2]]]],
                                  blocks=5, error=[[[1.0, 1.0, 1.0]]], budget=0.0)
        for solver in (solve_budgeted_assignment, brute_force_assignment):
            assert solver(prob).selection_indices() == (1,)

    def test_infeasible_reports_max_achievable(self, rng):
        prob = random_problem(rng, 2, 2, 2, budget=2.0)
        for solver in (solve_budgeted_assignment, brute_force_assignment):
            with pytest.raises(InfeasibleBudget) as excinfo:
                solver(prob)
            assert excinfo.value.max_achievable == pytest.approx(prob.max_achievable())

    def test_budget_respected(self, rng):
        for _ in range(50):
            prob = random_problem(rng, 2, 3, 3)
            table = solve_budgeted_assignment(prob)
            assert table.achieved_sparsity >= prob.budget

    def test_objective_monotone_in_budget(self, rng):
        prob = random_problem(rng, 2, 3, 3, budget=0.0)
        budgets = np.linspace(0.0, prob.max_achievable(), 8)
        values = []
        for budget in budgets:
            prob.budget = float(budget)
            values.append(solve_budgeted_assignment(prob).objective)
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_brute_force_size_guard(self, rng):
        prob = random_problem(rng, 3, 5, 3, budget=0.0)
        with pytest.raises(DomainError):
            brute_force_assignment(prob, limit=10)

    def test_solver_beats_every_feasible_shared_threshold(self, rng):
        for _ in range(30):
            prob = random_problem(rng, 2, 3, 3)
            table = solve_budgeted_assignment(prob)
            for tau in prob.taus:
                base = shared_threshold_baseline(prob, float(tau))
                if base["feasible"]:
                    assert table.objective <= base["objective"] + 1e-12

    def test_table_json_round_trip(self, rng):
        prob = random_problem(rng, 2, 2, 2)
        table = solve_budgeted_assignment(prob)
        back = table_from_json_dict(table.to_json_dict())
        assert back.objective == table.objective
        assert back.achieved_sparsity == table.achieved_sparsity
        np.testing.assert_array_equal(
            back.tau_grid(2, 2), table.tau_grid(2, 2)
        )


# Measured errors drawn from a coarse grid (many ties) or anywhere in range.
_errors = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))


@st.composite
def measured_solver_instances(draw, blocks=st.sampled_from([1, 3, 4, 5, 16])):
    """At most 6 heads x 4 candidates of kept-block counts over up to 4 steps.

    With few blocks per step, counts and errors come from small sets, so
    candidates tie often; with thousands, S lands almost anywhere in
    [0, 1].  The budget is often a shared baseline's achieved sparsity,
    the float boundary that ``shared:`` budgets put the solver on.
    """
    layers = draw(st.integers(1, 2))
    heads = draw(st.integers(1, 6 // layers))
    k, steps = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    blocks = draw(blocks)
    shape = (layers, heads, k)
    kept = draw(arrays(np.int64, shape + (steps,), elements=st.integers(0, blocks)))
    problem = CalibrationProblem(taus=np.linspace(0.95, 0.8, k), kept=kept, blocks=blocks,
                                 error=draw(arrays(np.float64, shape, elements=_errors)),
                                 budget=0.0)
    shared = shared_threshold_baseline(problem, float(problem.taus[draw(st.integers(0, k - 1))]))
    problem.budget = draw(st.sampled_from([shared["achieved_sparsity"]] * 2
                                          + [0.0, problem.max_achievable()])
                          | st.floats(0.0, 1.0).map(lambda f: f * problem.max_achievable()))
    return problem


@st.composite
def calibration_tables(draw):
    """Tables naming every (layer, head) of a small grid once, in any order."""
    layers, heads = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    reals = st.floats(allow_nan=False, allow_infinity=False)
    keys = draw(st.permutations([(l, h) for l in range(layers) for h in range(heads)]))
    selections = [
        HeadSelection(layer=l, head=h, index=-1, tau=draw(st.floats(0.0, 1.0, exclude_min=True)),
                      sparsity=draw(reals), error=draw(reals))
        for l, h in keys
    ]
    table = CalibrationTable(selections=selections, objective=draw(reals),
                             achieved_sparsity=draw(reals), budget=draw(reals),
                             solver=draw(st.text()), optimal=draw(st.booleans()))
    return table, layers, heads


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(problem=measured_solver_instances(blocks=st.integers(1, 4096)))
    def test_solver_matches_brute_force(self, problem):
        exact = solve_budgeted_assignment(problem)
        oracle = brute_force_assignment(problem)
        assert exact.optimal and exact.gap == 0.0
        assert exact.objective == oracle.objective
        assert exact.selection_indices() == oracle.selection_indices()
        assert exact.achieved_sparsity == oracle.achieved_sparsity

    @settings(max_examples=200, deadline=None)
    @given(problem=measured_solver_instances())
    def test_solver_matches_brute_force_on_measured_counts(self, problem):
        exact = solve_budgeted_assignment(problem)
        oracle = brute_force_assignment(problem)
        assert exact.optimal and exact.gap == 0.0
        assert exact.objective == oracle.objective
        assert exact.selection_indices() == oracle.selection_indices()
        assert exact.achieved_sparsity == oracle.achieved_sparsity

    @settings(max_examples=100, deadline=None)
    @given(problem=measured_solver_instances(blocks=st.integers(1, 4096)))
    def test_sparsity_and_block_totals_come_from_the_counts(self, problem):
        expected = np.mean(1 - problem.kept / problem.blocks, axis=-1)
        assert problem.sparsity.shape == expected.shape
        assert problem.sparsity.tobytes() == expected.tobytes()
        steps = problem.kept.shape[-1]
        for table in (solve_budgeted_assignment(problem), brute_force_assignment(problem)):
            chosen = [problem.kept[s.layer, s.head, s.index] for s in table.selections]
            assert table.blocks_kept == int(np.sum(chosen))
            assert table.blocks_total == problem.blocks * steps * problem.head_count
            assert [s.sparsity for s in table.selections] == \
                [problem.sparsity[s.layer, s.head, s.index] for s in table.selections]

    @settings(max_examples=200, deadline=None)
    @given(case=calibration_tables())
    def test_table_json_round_trip(self, case):
        table, layers, heads = case
        back = table_from_json_dict(json.loads(json.dumps(table.to_json_dict())))
        assert back == table
        np.testing.assert_array_equal(back.tau_grid(layers, heads), table.tau_grid(layers, heads))


def tie_problem():
    """Candidates repeat within and across heads: S = 0.25, 0.5, 0, ... of 4 blocks."""
    err = np.array([[[1.0, 1.0, 0.0], [2.0, 0.5, 0.5], [1.0, 1.0, 1.0]]])
    kept = np.array([[[3, 2, 4], [4, 2, 2], [3, 3, 3]]])[..., None]
    return CalibrationProblem(taus=np.array([0.95, 0.9, 0.85]), kept=kept, blocks=4, error=err,
                              budget=0.25)


class TestBruteForceChunks:
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_tiny_chunks_match_one_chunk(self, rng, monkeypatch, chunk):
        problems = [random_problem(rng, 2, 3, 3) for _ in range(20)] + [tie_problem()]
        whole = [brute_force_assignment(problem) for problem in problems]
        monkeypatch.setattr(calibration, "_BRUTE_FORCE_CHUNK", chunk)
        for problem, expected in zip(problems, whole):
            assert brute_force_assignment(problem) == expected
        with pytest.raises(InfeasibleBudget):
            brute_force_assignment(random_problem(rng, 2, 3, 3, budget=2.0))


class TestSearchRecord:
    def test_exact_solve_records_no_gap(self, rng):
        prob = random_problem(rng, 2, 3, 3)
        table = solve_budgeted_assignment(prob)
        assert table.optimal and table.gap == 0.0
        assert table.nodes >= prob.head_count + 1 and table.pruned >= 0
        payload = table.to_json_dict()
        assert (payload["gap"], payload["nodes"], payload["pruned"]) == \
            (0.0, table.nodes, table.pruned)
        back = table_from_json_dict(json.loads(json.dumps(payload)))
        assert (back.gap, back.nodes, back.pruned) == (None, None, None)
        assert "gap" not in brute_force_assignment(prob).to_json_dict()

    def test_table_cap_coarsens_units_and_stays_exact(self, rng, monkeypatch):
        monkeypatch.setattr(calibration, "_TABLE_CELLS", 40)
        for _ in range(100):
            prob = random_problem(rng, int(rng.integers(1, 3)), int(rng.integers(1, 5)), 3)
            exact, oracle = solve_budgeted_assignment(prob), brute_force_assignment(prob)
            assert exact.optimal
            assert exact.selection_indices() == oracle.selection_indices()

    def test_work_limit_reports_gap(self, rng, monkeypatch):
        monkeypatch.setattr(calibration, "_WORK_LIMIT", 4)
        stopped = 0
        for _ in range(100):
            prob = random_problem(rng, 2, 3, 3)
            table, oracle = solve_budgeted_assignment(prob), brute_force_assignment(prob)
            assert table.achieved_sparsity >= prob.budget
            assert 0.0 <= table.gap < math.inf
            assert oracle.objective <= table.objective
            assert oracle.objective >= table.objective - table.gap - 1e-9
            if table.optimal:
                assert table.selection_indices() == oracle.selection_indices()
            else:
                stopped += 1
                assert table.to_json_dict()["optimal"] is False
        assert stopped > 0


def paper_problem(layers, heads):
    """The measured 5-threshold problem at ``shared:0.9`` on a 32-token, 12-step trace."""
    cfg = TraceConfig(layers=layers, heads=heads, tokens=32, head_dim=8, steps=12, block_size=4,
                      velocity_shape=(4, 4, 4), seed=3)
    problem = build_problem(ForwardPipeline(generate_trace(cfg)),
                            [0.8, 0.85, 0.9, 0.95, 0.99], intervals=4, budget=0.0)
    problem.budget = shared_threshold_baseline(problem, 0.9)["achieved_sparsity"]
    return problem


def measured_form_problem(rng, heads, k=5, denom=256):
    """Random counts S = skipped / denom; higher thresholds keep more blocks and err less."""
    kept = np.sort(rng.integers(0, denom + 1, size=(1, heads, k)), axis=-1)
    err = np.sort(rng.uniform(0.0, 1.0, size=(1, heads, k)), axis=-1)[..., ::-1]
    problem = CalibrationProblem(taus=np.linspace(0.8, 0.99, k), kept=kept[..., None],
                                 blocks=denom, error=err, budget=0.0)
    problem.budget = shared_threshold_baseline(problem, float(problem.taus[k // 2]))[
        "achieved_sparsity"]
    return problem


def timed_solve(problem):
    start = time.perf_counter()
    table = solve_budgeted_assignment(problem)
    return table, time.perf_counter() - start


class TestSolverScale:
    @pytest.mark.parametrize("layers, heads", [(8, 16), (12, 30)], ids=["P128", "P360"])
    def test_paper_shapes_prove_optimality(self, layers, heads):
        problem = paper_problem(layers, heads)
        table, elapsed = timed_solve(problem)
        assert table.optimal and table.gap == 0.0
        assert elapsed < 2.0
        assert table.achieved_sparsity >= problem.budget
        assert table.objective <= shared_threshold_baseline(problem, 0.9)["objective"]
        if heads == 16:
            assert table.objective == pytest.approx(0.07265098606900422, rel=1e-9)

    @pytest.mark.parametrize("heads, megabytes", [(360, 64), (1600, 256)])
    def test_measured_form_proves_optimality_in_bounded_memory(self, heads, megabytes):
        problem = measured_form_problem(np.random.default_rng(heads), heads)
        tracemalloc.start()
        try:
            table, elapsed = timed_solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.optimal and table.gap == 0.0
        assert elapsed < 30.0
        assert peak <= megabytes * 2 ** 20

    def test_random_float_returns_with_gap(self):
        # Random float errors and unordered random counts, with none of a
        # measurement's structure, solve in bounded time; a search stopped at
        # the work limit must still return a feasible table with its gap.
        rng = np.random.default_rng(1)
        for blocks in (1024, 4096):
            problem = random_problem(rng, 1, 360, 5, blocks=blocks, steps=1)
            table, elapsed = timed_solve(problem)
            assert elapsed < 30.0
            assert table.achieved_sparsity >= problem.budget
            assert table.optimal or 0.0 <= table.gap < math.inf


class TestTauGrid:
    def table(self, entries):
        return table_from_json_dict({
            "budget": 0.0, "objective": 0.0, "achieved_sparsity": 0.0, "solver": "hand",
            "optimal": True,
            "heads": [{"layer": l, "head": h, "tau": t, "S": 0.0, "E": 0.0}
                      for l, h, t in entries],
        })

    def test_grid_in_any_order(self):
        grid = self.table([(1, 1, 0.7), (0, 0, 0.8), (1, 0, 0.9), (0, 1, 1.0)]).tau_grid(2, 2)
        np.testing.assert_array_equal(grid, [[0.8, 1.0], [0.9, 0.7]])

    @pytest.mark.parametrize("entries", [
        [(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8), (99, 1, 0.8)],
        [(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8), (-1, 1, 0.8)],
        [(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8), (1, -1, 0.8)],
        [(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8), (1, 0, 0.9)],
        [(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8)],
        [(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8), (1, 1, 0.8), (1, 1, 0.8)],
    ], ids=["layer-99", "layer-negative", "head-negative", "duplicate", "missing", "extra"])
    def test_rejects_tables_not_covering_each_head_once(self, entries):
        with pytest.raises(ShapeMismatch):
            self.table(entries).tau_grid(2, 2)


class TestSharedBaseline:
    def test_homogeneous_heads_match_solver(self):
        # S = 0.3, 0.5, 0.7: 7, 5 and 3 of 10 blocks kept.
        err = np.tile(np.array([2.0, 1.0, 3.0]), (2, 2, 1))
        kept = np.tile(np.array([[7], [5], [3]]), (2, 2, 1, 1))
        prob = CalibrationProblem(taus=np.array([0.95, 0.9, 0.85]), kept=kept, blocks=10,
                                  error=err, budget=0.5)
        table = solve_budgeted_assignment(prob)
        base = shared_threshold_baseline(prob, 0.9)
        assert table.objective == pytest.approx(base["objective"])

    def test_hand_arithmetic(self):
        prob = hand_problem()
        base = shared_threshold_baseline(prob, 0.95)
        assert base["achieved_sparsity"] == pytest.approx(0.55)
        assert base["objective"] == pytest.approx(3.0)
        assert base["feasible"] is False

    def test_unmeasured_threshold_rejected(self, rng):
        prob = random_problem(rng, 1, 2, 2)
        with pytest.raises(DomainError):
            shared_threshold_baseline(prob, 0.123)


@pytest.fixture(scope="module")
def measured_pipeline():
    cfg = TraceConfig(steps=16)
    return ForwardPipeline(generate_trace(cfg))


class TestMeasureHead:
    @pytest.mark.parametrize("objective", ["fft", "mse"])
    def test_fresh_pipeline_matches_precomputed(self, measured_pipeline, objective):
        # No dense cache is needed first: the measurement fills it on demand.
        steps, taus = [0, 5, 9], (0.85, 0.9, 1.0)
        fresh = ForwardPipeline(measured_pipeline.trace, measured_pipeline.model)
        cold = measure_head(fresh, 1, 4, taus, steps=steps, objective=objective)
        for step in steps:
            measured_pipeline.dense_forward(step)
        warm = measure_head(measured_pipeline, 1, 4, taus, steps=steps, objective=objective)
        assert [(p.sparsity, p.error, p.kept_blocks) for p in cold] == \
            [(p.sparsity, p.error, p.kept_blocks) for p in warm]

    @pytest.mark.parametrize("taus", [
        [0.9, math.nan, 1.5, -0.5], [0.9, math.nan], [1.5, 2.0, 0.5], [0.0, -0.0, 0.9],
        [-0.0, 0.0], [math.inf, -math.inf], [0.7, 1.0 + 1e-16, 1.0 + 2e-16],
    ])
    def test_first_rejected_tau_is_the_least(self, measured_pipeline, taus):
        # The order np.unique would give: ascending, NaN last.
        first = next(t for t in np.unique(taus).tolist() if not 0.0 < t <= 1.0)
        with pytest.raises(DomainError) as info:
            measure_head(measured_pipeline, 0, 0, taus, steps=[0])
        assert str(info.value) == f"tau must lie in (0, 1], got {first}"

    def test_empty_candidates_rejected_before_measuring(self, measured_pipeline, monkeypatch):
        measured = []
        monkeypatch.setattr(calibration, "_measure_step",
                            lambda *args: measured.append(args))
        with pytest.raises(DomainError, match="^need at least one candidate threshold$"):
            measure_head(measured_pipeline, 0, 0, [], steps=[0])
        assert measured == []

    def test_repeated_candidate_gives_a_point_per_listing(self, measured_pipeline):
        points = measure_head(measured_pipeline, 0, 1, [0.9, 0.85, 0.9], steps=[0, 5])
        assert [p.tau for p in points] == [0.9, 0.85, 0.9]
        assert points[0] == points[2]

    @pytest.mark.parametrize("steps", [[16], [-1], [0, 16]])
    def test_rejects_step_outside_trace(self, measured_pipeline, steps):
        with pytest.raises(DomainError):
            measure_head(measured_pipeline, 0, 0, [0.9], steps=steps)

    def test_tau_one_gives_zero_error_and_full_retention(self, measured_pipeline):
        steps = [0, 5]
        [point] = measure_head(measured_pipeline, 1, 2, [1.0], steps=steps)
        assert point.error == 0.0
        assert point.sparsity == 0.0

    def test_sparsity_grows_as_tau_drops(self, measured_pipeline):
        steps = [0, 5, 9]
        points = measure_head(measured_pipeline, 0, 1, (0.95, 0.9, 0.85), steps=steps)
        assert points[0].sparsity <= points[1].sparsity <= points[2].sparsity

    def test_taus_share_one_scoring_per_step(self, measured_pipeline, monkeypatch):
        steps = [0, 5, 9]
        taus = (0.95, 0.9, 0.85, 1.0)
        singles = [measure_head(measured_pipeline, 2, 3, [tau], steps=steps)[0] for tau in taus]
        scored = []

        def counting_scores(q, k, grid):
            scored.append(q.shape[:-2])
            return block_score_values(q, k, grid)

        monkeypatch.setattr(calibration, "block_score_values", counting_scores)
        points = measure_head(measured_pipeline, 2, 3, taus, steps=steps)
        assert scored == [(1,)] * len(steps)
        assert [(p.tau, p.sparsity, p.kept_blocks) for p in points] == \
            [(p.tau, p.sparsity, p.kept_blocks) for p in singles]
        np.testing.assert_array_equal([p.error for p in points], [p.error for p in singles])
        assert points[-1].error == 0.0 and points[-1].kept_blocks == 3 * 64

        scored.clear()
        cfg = measured_pipeline.trace.config
        build_problem(measured_pipeline, taus, intervals=3, budget=0.0, seed=1)
        assert scored == [(cfg.layers * cfg.heads,)] * 3

    def test_rejects_head_outside_trace(self, measured_pipeline):
        for layer, head in ((4, 0), (0, 6), (-1, 0)):
            with pytest.raises(ShapeMismatch):
                measure_head(measured_pipeline, layer, head, [0.9], steps=[0])

    def test_single_step_hand_pipeline(self):
        # Independent scalar recomputation of the whole measurement chain on a
        # one-layer one-head instance: scores, top-p mask, masked attention,
        # projection, spectral ratios, weighted error, sparsity.
        cfg = TraceConfig(layers=1, heads=1, tokens=4, head_dim=3, steps=1,
                          block_size=2, velocity_shape=(2, 2, 2), seed=21)
        trace = generate_trace(cfg)
        pipe = ForwardPipeline(trace)
        tau = 0.6
        [point] = measure_head(pipe, 0, 0, [tau], steps=[0])

        q, k, v = trace.q(0, 0, 0), trace.k(0, 0, 0), trace.v(0, 0, 0)
        grid = cfg.grid
        scores = block_scores(q, k, grid)
        order = sorted(range(4), key=lambda i: (-scores.values[i], i))
        kept, acc = [], 0.0
        for idx in order:
            if acc >= tau:
                break
            kept.append(idx)
            acc += scores.values[idx]
        retained = np.zeros(4, dtype=bool)
        retained[kept] = True
        expected_sparsity = 1.0 - len(kept) / 4.0

        allow = np.zeros((4, 4), dtype=bool)
        for idx in kept:
            r, c = divmod(idx, 2)
            allow[2 * r:2 * r + 2, 2 * c:2 * c + 2] = True
        out = masked_attention(q, k, v, allow[None], [0])[0]
        dense_out = attention_probs(q, k) @ v
        model = pipe.model
        y_sparse = np.tanh(model.weight @ out.reshape(-1) + model.bias).reshape((2, 2, 2))
        y_dense = np.tanh(model.weight @ dense_out.reshape(-1) + model.bias).reshape((2, 2, 2))
        part = band_partition((2, 2, 2))
        expected_error = weighted_error(band_energy_ratios(y_sparse - y_dense, y_dense, part))

        assert point.sparsity == pytest.approx(expected_sparsity)
        assert point.error == pytest.approx(expected_error, rel=1e-10)


def oracle_measure_head(pipeline, layer, head, taus, steps, weights, partition, objective):
    """The per-(head, tau) loop the step-batched measurement replaced.

    Each (step, tau) scores the head, selects a mask, runs a one-head sparse
    forward and transforms that one residual.  Returns per-tau mean
    sparsities, mean errors and kept blocks at each step.
    """
    errors = [[] for _ in taus]
    sparsities = [[] for _ in taus]
    kept = [[] for _ in taus]
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
            sparsities[j].append(1.0 - mask.count / mask.size)
            kept[j].append(mask.count)
    return ([float(np.mean(s)) for s in sparsities], [float(np.mean(e)) for e in errors], kept)


def oracle_problem(pipeline, taus, intervals, seed, objective):
    """(S, E, kept at each step) of ``build_problem`` measured one (head, tau) at a time."""
    cfg = pipeline.trace.config
    steps = sample_timesteps(cfg.steps, intervals, seed)
    partition = band_partition(cfg.velocity_shape)
    shape = (cfg.layers, cfg.heads, len(taus))
    sparsity, error = np.empty(shape), np.empty(shape)
    kept = np.empty((*shape, len(steps)), dtype=np.int64)
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            sparsity[layer, head], error[layer, head], kept[layer, head] = oracle_measure_head(
                pipeline, layer, head, taus, steps, None, partition, objective)
    return sparsity, error, kept


@st.composite
def measured_cases(draw):
    """A small trace, candidates including tau = 1, and the calibration flags."""
    block, per_side = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cfg = TraceConfig(layers=draw(st.integers(1, 2)), heads=draw(st.integers(1, 4)),
                      tokens=block * per_side, head_dim=draw(st.integers(1, 4)),
                      steps=draw(st.integers(1, 6)), block_size=block,
                      velocity_shape=draw(st.sampled_from([(2, 2, 2), (3, 2, 4), (4, 4, 4)])),
                      seed=draw(st.integers(0, 2 ** 32 - 1)))
    others = draw(st.lists(st.sampled_from([0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99]),
                           max_size=3, unique=True))
    taus = draw(st.permutations(others + [1.0]))
    return dict(
        config=cfg, taus=taus, intervals=draw(st.integers(1, cfg.steps)),
        seed=draw(st.integers(0, 1000)), objective=draw(st.sampled_from(["fft", "mse"])),
        chunk_heads=draw(st.sampled_from([None, 1, 2, 3])),
        budget_share=draw(st.floats(0.0, 1.0)),
    )


def check_against_oracle(case):
    """Batched ``build_problem`` against the per-(head, tau) oracle on one case."""
    cfg, taus = case["config"], case["taus"]
    flags = dict(seed=case["seed"], objective=case["objective"])
    pipe = ForwardPipeline(generate_trace(cfg))
    with pytest.MonkeyPatch.context() as mp:
        if case["chunk_heads"] is not None:
            mp.setattr(surrogate, "PROB_CHUNK_ELEMENTS", case["chunk_heads"] * cfg.tokens ** 2)
        batched = build_problem(pipe, taus, case["intervals"], budget=0.0, **flags)
    sparsity, error, kept = oracle_problem(ForwardPipeline(pipe.trace, pipe.model), taus,
                                           case["intervals"], **flags)
    np.testing.assert_array_equal(batched.sparsity, sparsity)
    np.testing.assert_array_equal(batched.kept, kept)
    assert batched.blocks == cfg.grid.total_blocks
    np.testing.assert_array_equal(batched.error, error)
    # A full mask leaves the field dense, and tau = 1 keeps every block.
    full = (batched.kept == batched.blocks).all(axis=-1)
    assert full[..., taus.index(1.0)].all()
    assert not batched.error[full].any() and not batched.sparsity[full].any()
    batched.budget = case["budget_share"] * batched.max_achievable()
    oracle = CalibrationProblem(taus=np.array(taus), kept=kept, blocks=cfg.grid.total_blocks,
                                error=error, budget=batched.budget)
    assert solve_budgeted_assignment(batched).selection_indices() == \
        solve_budgeted_assignment(oracle).selection_indices()


class TestBatchedMeasurementOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=measured_cases())
    def test_matches_per_head_tau_loop(self, case):
        check_against_oracle(case)

    def test_partial_last_chunk(self, monkeypatch):
        # 2 layers x 3 heads: 6 heads per step in chunks of 4, so the last
        # chunk of a step holds fewer than 4 heads.  Each chunk carries up
        # to 3 candidate rows per head.
        cfg = TraceConfig(layers=2, heads=3, tokens=8, head_dim=3, steps=5, block_size=2,
                          velocity_shape=(2, 2, 2), seed=4)
        sizes = []
        original = surrogate.masked_attention

        def spy(q, k, v, allow, heads, dense_out=None):
            if len(allow):
                sizes.append(q.shape[0])
                assert 0 < len(allow) <= 3 * q.shape[0]
                assert 0 <= heads.min() <= heads.max() < q.shape[0]
            return original(q, k, v, allow, heads, dense_out)

        for objective in ("fft", "mse"):
            check_against_oracle(dict(config=cfg, taus=[0.7, 1.0, 0.9], intervals=3, seed=2,
                                      objective=objective, chunk_heads=4, budget_share=0.5))
            # The sizes are those of the batched measurement; the oracle's
            # one-head forwards compute whole steps without the cap.
            with monkeypatch.context() as mp:
                mp.setattr(surrogate, "PROB_CHUNK_ELEMENTS", 4 * cfg.tokens ** 2)
                mp.setattr(surrogate, "masked_attention", spy)
                build_problem(ForwardPipeline(generate_trace(cfg)), [0.7, 1.0, 0.9], 3,
                              budget=0.0, seed=2, objective=objective)
        assert max(sizes) == 4 and any(0 < size < 4 for size in sizes)


class TestStepBatchedCounts:
    def test_one_pass_per_step_on_sixty_four_heads(self, monkeypatch):
        cfg = TraceConfig(layers=4, heads=16, tokens=32, head_dim=8, steps=8, block_size=4,
                          velocity_shape=(4, 4, 4), seed=7)
        pipe = ForwardPipeline(generate_trace(cfg))
        events = []

        def spy(module, name, tag):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                events.append((tag, args, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        spy(calibration, "block_score_values", "score")
        spy(calibration, "top_p_mask", "select")
        spy(calibration, "band_energy_ratios", "bands")
        spy(calibration, "top_p_select", "top_p")
        spy(surrogate, "masked_attention", "attention")
        spy(surrogate, "attention_probs", "softmax")
        taus = [0.85, 0.9, 0.95]
        build_problem(pipe, taus, intervals=4, budget=0.0)
        # Each step starts with its scoring call; its dense forward runs
        # within the step, on demand.
        assert events[0][0] == "score"
        per_step = []
        for event in events:
            if event[0] == "score":
                per_step.append([])
            per_step[-1].append(event)
        assert len(per_step) == 4
        chunk = max(1, surrogate.PROB_CHUNK_ELEMENTS // cfg.tokens ** 2)
        blocks = cfg.grid.total_blocks
        for step_events in per_step:
            tags = [tag for tag, _, _ in step_events]
            assert tags.count("score") == tags.count("select") == tags.count("bands") == 1
            assert "top_p" not in tags
            [q] = [args[0] for tag, args, _ in step_events if tag == "score"]
            assert q.shape == (64, cfg.tokens, cfg.head_dim)
            [keep] = [result for tag, _, result in step_events if tag == "select"]
            assert keep.shape == (64, len(taus), blocks)
            partial = int((keep.sum(axis=-1) < blocks).sum())
            # One attention call per chunk of heads gives its dense outputs
            # and its partial candidate rows, over one softmax.
            calls = [args for tag, args, _ in step_events if tag == "attention"]
            assert len(calls) == math.ceil(64 / chunk)
            assert sum(len(args[3]) for args in calls if len(args) > 3) == partial
            softmaxes = [args for tag, args, _ in step_events if tag == "softmax"]
            assert len(softmaxes) == math.ceil(64 / chunk)
            assert all(len(args) == 2 for args in softmaxes)


class TestBlockCounts:
    def test_measured_counts_and_table_totals(self, measured_pipeline):
        prob = build_problem(measured_pipeline, [0.85, 0.9, 1.0], intervals=3, budget=0.0,
                             seed=1)
        denom = prob.blocks * 3
        assert prob.blocks == 64
        assert prob.kept.dtype.kind == "i" and prob.kept.shape == (4, 6, 3, 3)
        assert prob.kept.min() >= 0 and (prob.kept[:, :, 2] == prob.blocks).all()
        np.testing.assert_allclose(1 - prob.kept.sum(axis=-1) / denom, prob.sparsity,
                                   rtol=0, atol=1e-12)
        prob.budget = 0.5 * prob.max_achievable()
        table = solve_budgeted_assignment(prob)
        assert table.blocks_total == 24 * denom
        assert table.blocks_kept == sum(int(prob.kept[s.layer, s.head, s.index].sum())
                                        for s in table.selections)
        payload = json.loads(json.dumps(table.to_json_dict()))
        assert (payload["blocks_kept"], payload["blocks_total"]) == \
            (table.blocks_kept, table.blocks_total)
        back = table_from_json_dict(payload)
        assert back.blocks_kept is None and back.blocks_total is None

    @pytest.mark.parametrize("kept, blocks, error", [
        ([[[[2, 3], [4, 4]]]], 4, None),
        ([[[[2.0], [4.0]]]], 4, DomainError),
        ([[[2, 4]]], 4, ShapeMismatch),
        ([[[[-1], [4]]]], 4, DomainError),
        ([[[[2], [5]]]], 4, DomainError),
        ([[[[2], [4]]]], 0, DomainError),
        ([[[[2], [4]]]], 4.0, DomainError),
        ([[[[2], [4]]]], True, DomainError),
        ([[[[2], [4], [4]]]], 4, ShapeMismatch),
        (np.zeros((1, 1, 2, 0), dtype=int), 4, ShapeMismatch),
    ], ids=["valid", "float", "shape", "negative", "above-denominator", "zero-denominator",
            "float-denominator", "bool-denominator", "candidates", "no-steps"])
    def test_counts_validated(self, kept, blocks, error):
        def make():
            return CalibrationProblem(taus=np.array([0.9, 1.0]), kept=kept, blocks=blocks,
                                      error=np.array([[[1.0, 0.0]]]), budget=0.0)

        if error is None:
            problem = make()
            assert problem.kept.tolist() == kept
            assert problem.sparsity.tolist() == [[[0.375, 0.0]]]
        else:
            with pytest.raises(error):
                make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_errors_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="measured errors must be finite"):
            CalibrationProblem(taus=[0.9], kept=[[[[2]]]], blocks=4, error=[[[bad]]], budget=0.0)

    @pytest.mark.parametrize("error", [[[[1e308, 0.0], [1e308, 0.0]]],
                                       [[[-1e308, 0.0], [0.0, -1e308]]]],
                             ids=["positive", "negative"])
    def test_errors_that_overflow_when_summed_rejected(self, error):
        # Each error is finite, but some assignment's objective would not be.
        # A warning would fail the test: the suite turns warnings into errors.
        with pytest.raises(DomainError, match="^measured errors overflow when summed over heads$"):
            CalibrationProblem(taus=[0.9, 1.0], kept=[[[[2], [4]], [[2], [4]]]], blocks=4,
                               error=error, budget=0.0)
        halved = np.array(error) / 2
        problem = CalibrationProblem(taus=[0.9, 1.0], kept=[[[[2], [4]], [[2], [4]]]], blocks=4,
                                     error=halved, budget=0.5)
        assert solve_budgeted_assignment(problem).objective == halved[..., 0].sum()


class TestBuildProblem:
    def test_shapes_and_monotone_sparsity(self, measured_pipeline):
        prob = build_problem(measured_pipeline, [0.85, 0.9, 0.95], intervals=3,
                             budget=0.0, seed=1)
        assert prob.sparsity.shape == (4, 6, 3)
        assert np.isfinite(prob.error).all()
        # Candidates ordered (0.85, 0.9, 0.95): sparsity falls as tau rises.
        assert np.all(prob.sparsity[:, :, 0] >= prob.sparsity[:, :, 1])
        assert np.all(prob.sparsity[:, :, 1] >= prob.sparsity[:, :, 2])

    def test_single_candidate(self, measured_pipeline):
        prob = build_problem(measured_pipeline, [0.9], intervals=2, budget=0.0, seed=1)
        assert prob.taus.shape == (1,)
        assert solve_budgeted_assignment(prob).selection_indices() == tuple([0] * 24)

    def test_duplicate_candidates_rejected(self, measured_pipeline):
        # Within 1e-12 is one threshold to shared_threshold_baseline.
        for taus in ([0.9, 0.9], [0.95, 0.9, 0.9 + 1e-13]):
            with pytest.raises(DomainError, match="candidate thresholds .* must differ"):
                build_problem(measured_pipeline, taus, intervals=2, budget=0.0)
        assert build_problem(measured_pipeline, [0.9, 0.9 + 1e-11], intervals=1,
                             budget=0.0).taus.size == 2

    def test_empty_candidates_rejected(self, measured_pipeline):
        with pytest.raises(DomainError, match="at least one candidate threshold"):
            build_problem(measured_pipeline, [], intervals=2, budget=0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_invalid_candidate_rejected_before_dense_forwards(self, measured_pipeline,
                                                              monkeypatch, bad):
        calls = []
        fresh = ForwardPipeline(measured_pipeline.trace, measured_pipeline.model)
        monkeypatch.setattr(fresh, "dense_forward", calls.append)
        with pytest.raises(DomainError, match="candidate threshold must lie in"):
            build_problem(fresh, [0.9, bad], intervals=2, budget=0.0)
        assert calls == []
