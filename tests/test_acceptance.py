"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest -vs tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from satool.analysis import adjacent_pair_samples, spearman, split_samples, two_step_bound_constants
from satool.blocksparse import BlockScores, top_p_select
from satool.calibration import (
    CalibrationProblem,
    brute_force_assignment,
    build_problem,
    quadratic_scaling_probe,
    shared_threshold_baseline,
    solve_budgeted_assignment,
)
from satool.cli import main as cli_main
from satool.reuse import simulate
from satool.spectral import REGIONS, band_energy_ratios, band_partition, band_perturbation
from satool.surrogate import ForwardPipeline
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
        err = rng.uniform(0.0, 10.0, size=(layers, heads, k))
        spar = rng.uniform(0.0, 1.0, size=(layers, heads, k))
        max_ach = spar.max(axis=2).sum() / (layers * heads)
        budget = float(rng.uniform(0.0, max_ach))
        problem = CalibrationProblem(
            taus=np.linspace(0.95, 0.85, k), sparsity=spar, error=err, budget=budget,
        )
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
    calibration, held_out = split_samples(default_samples, 0.5, seed=7)
    constant = two_step_bound_constants(calibration)["mask_per_drift"]
    held_nonzero = [s for s in held_out if s.full_drift > 0]
    assert len(held_nonzero) >= 200
    violations = sum(1 for s in held_nonzero if s.changed_ratio > constant * s.full_drift)
    rate = violations / len(held_nonzero)
    assert rate <= 0.05
    # Zero drift forces zero mask change, exactly, on a frozen trace.
    frozen = adjacent_pair_samples(generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=10)))
    for sample in frozen:
        assert sample.full_drift == 0.0
        assert sample.changed_ratio == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"C={constant:.4g}, {violations}/{len(held_nonzero)} held-out violations "
              f"({100 * rate:.2f}% <= 5%), zero-drift exact, {elapsed:.2f}s")


def test_criterion_5_drift_iou_negative_correlation(default_samples):
    start = time.monotonic()
    assert len(default_samples) >= 200
    rho = spearman(
        [s.pool_drift for s in default_samples],
        [s.token_iou for s in default_samples],
    )
    assert rho <= -0.3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"Spearman rho = {rho:.3f} <= -0.3 over {len(default_samples)} samples")


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
        delta = band_perturbation(ref, region, alpha, seed=8, partition=partition)
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
        assert set(m1.indices()) <= set(m2.indices())
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
    probe = quadratic_scaling_probe(
        default_pipeline, [(0, 0), (1, 3), (2, 5)], step=10,
        scales=(1.0, 0.5, 0.25), amplitude=1e-3, seed=0,
    )
    ratios = []
    for series in [probe["joint"], *probe["single"].values()]:
        for big, small in ((1.0, 0.5), (0.5, 0.25)):
            ratio = series[big] / series[small]
            assert 3.5 <= ratio <= 4.5
            ratios.append(ratio)
    from satool.calibration import additive_surrogate_gap

    gap = additive_surrogate_gap(
        default_pipeline, [((0, 0), 0.9), ((1, 3), 0.9), ((2, 5), 0.85)], step=10
    )
    assert math.isfinite(gap.rel_gap)
    report(9, f"error ratios per halving in [{min(ratios):.3f}, {max(ratios):.3f}] "
              f"subset of [3.5, 4.5]; joint-vs-sum gap reported: rel {gap.rel_gap:.3g}")
