import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satool.blocksparse import block_scores
from satool.calibration import (
    CalibrationProblem,
    CalibrationTable,
    HeadSelection,
    additive_surrogate_gap,
    brute_force_assignment,
    build_problem,
    measure_head,
    quadratic_scaling_probe,
    sample_timesteps,
    shared_threshold_baseline,
    solve_budgeted_assignment,
    table_from_json_dict,
)
from satool.errors import DomainError, InfeasibleBudget, ShapeMismatch, StateError
from satool.spectral import band_energy_ratios, band_partition, weighted_error
from satool.surrogate import ForwardPipeline, masked_attention
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


def random_problem(rng, layers, heads, k, budget=None):
    err = rng.uniform(0, 10, size=(layers, heads, k))
    spar = rng.uniform(0, 1, size=(layers, heads, k))
    max_ach = spar.max(axis=2).sum() / (layers * heads)
    if budget is None:
        budget = float(rng.uniform(0, max_ach))
    taus = np.linspace(0.95, 0.85, k)
    return CalibrationProblem(taus=taus, sparsity=spar, error=err, budget=budget)


class TestSolver:
    def test_single_candidate_forced(self, rng):
        prob = random_problem(rng, 2, 2, 1, budget=0.0)
        table = solve_budgeted_assignment(prob)
        assert table.selection_indices() == (0, 0, 0, 0)
        assert brute_force_assignment(prob).selection_indices() == (0, 0, 0, 0)

    def test_two_head_hand_instance(self):
        # head 1: (tau=.95, S=.5, E=1), (tau=.85, S=.8, E=3)
        # head 2: (tau=.95, S=.6, E=2), (tau=.85, S=.9, E=10); budget 0.7.
        err = np.array([[[1.0, 3.0]], [[2.0, 10.0]]])
        spar = np.array([[[0.5, 0.8]], [[0.6, 0.9]]])
        prob = CalibrationProblem(taus=np.array([0.95, 0.85]), sparsity=spar,
                                  error=err, budget=0.7)
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

    def test_tie_breaks_prefer_sparsity_then_lex(self):
        # Two identical-error candidates; the sparser one must win, and among
        # fully tied candidates the lower index must win.
        err = np.array([[[1.0, 1.0, 1.0]]])
        spar = np.array([[[0.4, 0.6, 0.6]]])
        prob = CalibrationProblem(taus=np.array([0.95, 0.9, 0.85]),
                                  sparsity=spar, error=err, budget=0.0)
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


# Measured values drawn from a coarse grid (many ties) or anywhere in range.
_errors = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
_sparsities = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def solver_instances(draw):
    """At most 6 heads x 4 candidates, with a budget no larger than the maximum achievable."""
    layers = draw(st.integers(1, 2))
    heads = draw(st.integers(1, 6 // layers))
    k = draw(st.integers(1, 4))
    shape = (layers, heads, k)
    err = draw(arrays(np.float64, shape, elements=_errors))
    spar = draw(arrays(np.float64, shape, elements=_sparsities))
    problem = CalibrationProblem(taus=np.linspace(0.95, 0.8, k), sparsity=spar, error=err,
                                 budget=0.0)
    problem.budget = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * \
        problem.max_achievable()
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
    @given(problem=solver_instances())
    def test_solver_matches_brute_force(self, problem):
        exact = solve_budgeted_assignment(problem)
        oracle = brute_force_assignment(problem)
        assert exact.objective == oracle.objective
        assert exact.selection_indices() == oracle.selection_indices()
        assert exact.achieved_sparsity == oracle.achieved_sparsity

    @settings(max_examples=200, deadline=None)
    @given(case=calibration_tables())
    def test_table_json_round_trip(self, case):
        table, layers, heads = case
        back = table_from_json_dict(json.loads(json.dumps(table.to_json_dict())))
        assert back == table
        np.testing.assert_array_equal(back.tau_grid(layers, heads), table.tau_grid(layers, heads))


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
        err = np.tile(np.array([2.0, 1.0, 3.0]), (2, 2, 1))
        spar = np.tile(np.array([0.3, 0.5, 0.7]), (2, 2, 1))
        prob = CalibrationProblem(taus=np.array([0.95, 0.9, 0.85]),
                                  sparsity=spar, error=err, budget=0.5)
        table = solve_budgeted_assignment(prob)
        base = shared_threshold_baseline(prob, 0.9)
        assert table.objective == pytest.approx(base["objective"])

    def test_hand_arithmetic(self):
        err = np.array([[[1.0, 3.0]], [[2.0, 10.0]]])
        spar = np.array([[[0.5, 0.8]], [[0.6, 0.9]]])
        prob = CalibrationProblem(taus=np.array([0.95, 0.85]), sparsity=spar,
                                  error=err, budget=0.7)
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
    def test_requires_dense_cache(self, measured_pipeline):
        fresh = ForwardPipeline(measured_pipeline.trace)
        with pytest.raises(StateError):
            measure_head(fresh, 0, 0, [0.9], steps=[0, 1])

    def test_tau_one_gives_zero_error_and_full_retention(self, measured_pipeline):
        steps = [0, 5]
        measured_pipeline.precompute_dense(steps)
        [point] = measure_head(measured_pipeline, 1, 2, [1.0], steps=steps)
        assert point.error == 0.0
        assert point.sparsity == 0.0

    def test_sparsity_grows_as_tau_drops(self, measured_pipeline):
        steps = [0, 5, 9]
        measured_pipeline.precompute_dense(steps)
        points = measure_head(measured_pipeline, 0, 1, (0.95, 0.9, 0.85), steps=steps)
        assert points[0].sparsity <= points[1].sparsity <= points[2].sparsity

    def test_taus_share_one_scoring_per_step(self, measured_pipeline, monkeypatch):
        steps = [0, 5, 9]
        taus = (0.95, 0.9, 0.85, 1.0)
        measured_pipeline.precompute_dense(steps)
        singles = [measure_head(measured_pipeline, 2, 3, [tau], steps=steps)[0] for tau in taus]
        scored = []
        original = measured_pipeline.scores

        def counting_scores(step, layer, head):
            scored.append((step, layer, head))
            return original(step, layer, head)

        monkeypatch.setattr(measured_pipeline, "scores", counting_scores)
        points = measure_head(measured_pipeline, 2, 3, taus, steps=steps)
        assert points == singles
        assert scored == [(step, 2, 3) for step in steps]

    def test_single_step_hand_pipeline(self):
        # Independent scalar recomputation of the whole measurement chain on a
        # one-layer one-head instance: scores, top-p mask, masked attention,
        # projection, spectral ratios, weighted error, sparsity.
        cfg = TraceConfig(layers=1, heads=1, tokens=4, head_dim=3, steps=1,
                          block_size=2, velocity_shape=(2, 2, 2), seed=21)
        trace = generate_trace(cfg)
        pipe = ForwardPipeline(trace)
        pipe.precompute_dense([0])
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
        out = masked_attention(q, k, v, allow)
        dense_out = masked_attention(q, k, v)
        model = pipe.model
        y_sparse = np.tanh(model.weight @ out.reshape(-1) + model.bias).reshape((2, 2, 2))
        y_dense = np.tanh(model.weight @ dense_out.reshape(-1) + model.bias).reshape((2, 2, 2))
        part = band_partition((2, 2, 2))
        expected_error = weighted_error(band_energy_ratios(y_sparse - y_dense, y_dense, part))

        assert point.sparsity == pytest.approx(expected_sparsity)
        assert point.error == pytest.approx(expected_error, rel=1e-10)


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
        with pytest.raises(DomainError):
            build_problem(measured_pipeline, [0.9, 0.9], intervals=2, budget=0.0)

    def test_per_head_seeds_changes_measurements(self, measured_pipeline):
        shared = build_problem(measured_pipeline, [0.9], intervals=2, budget=0.0, seed=5)
        per_head = build_problem(measured_pipeline, [0.9], intervals=2, budget=0.0,
                                 seed=5, per_head_seeds=True)
        assert not np.array_equal(shared.error, per_head.error)


class TestAdditivityProbes:
    def test_gap_zero_at_tau_one(self, measured_pipeline):
        result = additive_surrogate_gap(
            measured_pipeline, [((0, 0), 1.0), ((1, 1), 1.0)], step=2
        )
        assert result.joint_error == 0.0
        assert result.additive_error == 0.0
        assert result.abs_gap == 0.0

    def test_single_head_gap_identically_zero(self, measured_pipeline):
        result = additive_surrogate_gap(measured_pipeline, [((0, 0), 0.9)], step=0)
        assert result.abs_gap == 0.0
        assert result.joint_error == result.additive_error

    def test_requires_at_least_one_head(self, measured_pipeline):
        with pytest.raises(DomainError):
            additive_surrogate_gap(measured_pipeline, [], step=0)

    def test_gap_reported_for_real_masks(self, measured_pipeline):
        result = additive_surrogate_gap(
            measured_pipeline, [((0, 0), 0.9), ((1, 1), 0.9), ((2, 2), 0.85)], step=2
        )
        assert result.joint_error > 0
        assert result.additive_error == pytest.approx(sum(result.single_errors))
        assert result.rel_gap >= 0

    def test_quadratic_scaling(self, measured_pipeline):
        probe = quadratic_scaling_probe(
            measured_pipeline, [(0, 0), (1, 3), (3, 5)], step=4, seed=2
        )
        joint = probe["joint"]
        for s_big, s_small in ((1.0, 0.5), (0.5, 0.25)):
            assert 3.5 <= joint[s_big] / joint[s_small] <= 4.5
        for per_scale in probe["single"].values():
            for s_big, s_small in ((1.0, 0.5), (0.5, 0.25)):
                assert 3.5 <= per_scale[s_big] / per_scale[s_small] <= 4.5
