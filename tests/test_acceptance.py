"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest -vs tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from satool.analysis import adjacent_pair_samples, spearman, two_step_bound_constants
from satool.blocksparse import BlockScores, block_score_values, top_p_mask, top_p_select
from satool.calibration import (
    CalibrationProblem,
    brute_force_assignment,
    build_problem,
    shared_threshold_baseline,
    solve_budgeted_assignment,
)
from satool.cli import main as cli_main
from satool.reuse import simulate
from satool.spectral import (
    REGIONS,
    band_energy_ratios,
    band_partition,
    band_perturbation,
    weighted_error,
)
from satool.surrogate import ForwardPipeline, attention_probs
from satool.trace import TraceConfig, generate_trace


@pytest.fixture(scope="module")
def default_trace():
    return generate_trace(TraceConfig())


@pytest.fixture(scope="module")
def default_pipeline(default_trace):
    return ForwardPipeline(default_trace)


@pytest.fixture(scope="module")
def default_samples(default_trace):
    return adjacent_pair_samples(default_trace)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_cache_footprint_reproduction():
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "footprint", "--layers", "30", "--heads", "12", "--tokens", "32760",
        "--head-dim", "128", "--bytes-per-scalar", "2", "--branches", "2",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["mean_pooled_bytes"] == 368_640
    assert payload["full_token_bytes"] == 12_079_595_520
    report(1, "footprint 368,640 B mean-pooled / 12,079,595,520 B full-token, exact")


def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(20240917)
    start = time.monotonic()
    checked = 0
    for _ in range(200):
        heads_total = int(rng.integers(1, 11))
        layers = 1 if heads_total % 2 else 2
        heads = heads_total // layers
        k = int(rng.integers(1, 4))
        blocks, steps = int(rng.integers(1, 4097)), int(rng.integers(1, 5))
        kept = rng.integers(0, blocks + 1, size=(layers, heads, k, steps))
        err = rng.uniform(0.0, 10.0, size=(layers, heads, k))
        problem = CalibrationProblem(
            taus=np.linspace(0.95, 0.85, k), kept=kept, blocks=blocks, error=err, budget=0.0,
        )
        budget = problem.budget = float(rng.uniform(0.0, problem.max_achievable()))
        exact = solve_budgeted_assignment(problem)
        oracle = brute_force_assignment(problem)
        assert exact.objective == oracle.objective
        assert exact.selection_indices() == oracle.selection_indices()
        assert exact.achieved_sparsity >= budget
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"{checked} random instances, solver == oracle exactly, {elapsed:.2f}s")


def test_criterion_3_calibration_dominance(default_pipeline):
    start = time.monotonic()
    problem = build_problem(default_pipeline, [0.85, 0.90, 0.95], intervals=4,
                            budget=0.0, seed=0)
    shared = shared_threshold_baseline(problem, 0.90)
    problem.budget = shared["achieved_sparsity"]
    table = solve_budgeted_assignment(problem)
    # Head responses must be heterogeneous on the default trace for the strict claim.
    per_head = problem.error.reshape(-1, 3)
    assert np.unique(per_head.round(12), axis=0).shape[0] > 1
    assert table.achieved_sparsity >= problem.budget
    assert table.objective <= shared["objective"]
    assert table.objective < shared["objective"]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"calibrated {table.objective:.6g} < shared-0.9 {shared['objective']:.6g} "
              f"at equal budget {problem.budget:.4g}, {elapsed:.2f}s")


def test_criterion_4_drift_bound_generalizes(default_samples):
    start = time.monotonic()
    drift, score, ratio = (x.ravel() for x in (
        default_samples.full_drift, default_samples.score_drift, default_samples.changed_ratio))
    # A seeded shuffle into calibration and held-out halves.
    order = np.random.default_rng(np.random.SeedSequence([7, 707])).permutation(drift.size)
    calibration, held_out = np.split(order, [round(0.5 * drift.size)])
    constant = two_step_bound_constants(
        drift[calibration], score[calibration], ratio[calibration])["mask_per_drift"]
    held_nonzero = held_out[drift[held_out] > 0]
    assert len(held_nonzero) >= 200
    violations = int((ratio[held_nonzero] > constant * drift[held_nonzero]).sum())
    rate = violations / len(held_nonzero)
    assert rate <= 0.05
    # Zero drift forces zero mask change, exactly, on a frozen trace.
    frozen = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=10)))
    assert (frozen.full_drift == 0.0).all()
    assert (frozen.changed_ratio == 0.0).all()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"C={constant:.4g}, {violations}/{len(held_nonzero)} held-out violations "
              f"({100 * rate:.2f}% <= 5%), zero-drift exact, {elapsed:.2f}s")


def test_criterion_5_drift_iou_negative_correlation(default_samples):
    start = time.monotonic()
    pairs = default_samples.token_iou.size
    assert pairs >= 200
    rho = spearman(default_samples.pool_drift.ravel(), default_samples.token_iou.ravel())
    assert rho <= -0.3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"Spearman rho = {rho:.3f} <= -0.3 over {pairs} samples")


def test_criterion_6_reuse_endpoints_and_monotonicity(default_pipeline):
    cfg = default_pipeline.trace.config
    taus = np.full((cfg.layers, cfg.heads), 0.9)
    zero = simulate(default_pipeline, taus, 0.0)
    assert zero.reuse_rate == 0.0

    frozen_cfg = TraceConfig(kappa_range=(1.0, 1.0))
    frozen_pipe = ForwardPipeline(generate_trace(frozen_cfg))
    frozen = simulate(frozen_pipe, taus, 5.0)
    assert frozen.reuse_rate == (frozen_cfg.steps - 1) / frozen_cfg.steps

    rates = [
        simulate(default_pipeline, taus, delta).reuse_rate
        for delta in (0.0, 5.0, 10.0, 30.0, 100.0)
    ]
    assert all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))
    report(6, "reuse 0.00% at delta=0, (T-1)/T on frozen trace, "
              f"monotone over grid {['%.3f' % r for r in rates]}")


def test_criterion_7_spectral_suite():
    rng = np.random.default_rng(55)
    partition = band_partition((8, 8, 8))
    for _ in range(10):
        x = rng.standard_normal((8, 8, 8))
        power = np.abs(np.fft.fftn(x)) ** 2
        total = power.sum()
        parts = sum(power[partition.labels == i].sum() for i in range(4))
        assert abs(parts - total) <= 1e-9 * total

    err = rng.standard_normal((8, 8, 8))
    ref = rng.standard_normal((8, 8, 8))
    base = band_energy_ratios(err, ref, partition)
    for s in (0.5, 2.0, 5.0):
        np.testing.assert_allclose(band_energy_ratios(s * err, ref, partition),
                                   s * s * base, rtol=1e-9)

    alpha = 0.1
    for region in REGIONS:
        delta = band_perturbation(ref[None], region, alpha, [8], partition)[0]
        power = np.abs(np.fft.fftn(delta)) ** 2
        leak = power[partition.labels != REGIONS.index(region)].sum()
        assert leak <= 1e-10 * power.sum()
        ratio = float(np.linalg.norm(delta) / np.linalg.norm(ref))
        assert abs(ratio - alpha) <= 1e-6
    report(7, "Parseval 1e-9, quadratic scaling 1e-9, leakage 1e-10, ratio alpha +- 1e-6")


def test_criterion_8_top_p_properties(default_pipeline):
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 32))
        raw = rng.exponential(size=n) + 1e-12
        values = raw / raw.sum()
        scores = BlockScores(values)
        t1, t2 = sorted(rng.uniform(0.02, 1.0, size=2))
        m1, m2 = top_p_select(scores, t1), top_p_select(scores, t2)
        assert not (m1.retained & ~m2.retained).any()
        for mask, tau in ((m1, t1), (m2, t2)):
            kept = values[mask.retained]
            assert kept.sum() >= tau - 1e-12
            assert kept.sum() - kept.min() < tau

    cfg = default_pipeline.trace.config
    for step in (0, cfg.steps // 2):
        masks = {
            (l, h): top_p_select(default_pipeline.scores(step, l, h), 1.0)
            for l in range(cfg.layers) for h in range(cfg.heads)
        }
        dense = default_pipeline.dense_forward(step)
        sparse = default_pipeline.sparse_forward(step, masks)
        assert np.array_equal(sparse, dense)
    report(8, "minimality + tau-monotonicity on 1000 score vectors; "
              "tau=1.0 sparse == dense bitwise")


def test_criterion_9_additive_surrogate_scaling(default_pipeline):
    pipe, step = default_pipeline, 10
    trace, cfg = pipe.trace, pipe.trace.config
    layers, heads = np.array([0, 1, 2]), np.array([0, 3, 5])
    dense = pipe.dense_forward(step)
    partition = band_partition(cfg.velocity_shape)

    def errors(changes):
        residual = pipe.field_after(step, changes) - dense
        return weighted_error(band_energy_ratios(residual, dense, partition))

    # Tiny injected head perturbations, each 1e-3 of its head's dense output
    # in norm, swept in scale: a smooth error functional shrinks fourfold
    # per halving, jointly and head by head.
    rng = np.random.default_rng(np.random.SeedSequence([0, 505]))
    noise = rng.standard_normal((len(heads), cfg.tokens, cfg.head_dim))
    for row, (layer, head) in enumerate(zip(layers.tolist(), heads.tolist())):
        probs = attention_probs(trace.q(step, layer, head), trace.k(step, layer, head))
        reference = probs @ trace.v(step, layer, head)
        noise[row] *= 1e-3 * np.linalg.norm(reference) / np.linalg.norm(noise[row])
    base = pipe.model.head_changes(heads, noise)
    scales = (1.0, 0.5, 0.25)
    joint = [errors(s * base.sum(axis=0)) for s in scales]
    single = np.array([errors(s * base) for s in scales]).T
    ratios = []
    for series in [joint, *single.tolist()]:
        for big, small in zip(series, series[1:]):
            ratio = big / small
            assert 3.5 <= ratio <= 4.5
            ratios.append(ratio)

    # The additive gap of real top-p masks: the joint error of the summed
    # changes against the sum of the single-head errors.
    taus = np.array([0.9, 0.9, 0.85])
    keep = top_p_mask(block_score_values(trace.q(step, layers, heads),
                                         trace.k(step, layers, heads), pipe.grid), taus)
    changes = pipe.preactivation_changes(step, layers, heads, keep)
    joint_error, additive = errors(changes.sum(axis=0)), errors(changes).sum()
    rel_gap = abs(joint_error - additive) / max(abs(joint_error), abs(additive))
    assert math.isfinite(rel_gap)
    report(9, f"error ratios per halving in [{min(ratios):.3f}, {max(ratios):.3f}] "
              f"subset of [3.5, 4.5]; joint-vs-sum gap reported: rel {rel_gap:.3g}")


def test_readme_library_use_runs(capsys):
    # The block runs as written, so a name it uses cannot vanish unnoticed.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "blocks kept" in capsys.readouterr().out
