"""Command-line entry point: trace generation, stability analysis, calibration,
online reuse simulation, perturbation study, and the cache-footprint calculator.

Every command is deterministic given its flags: re-running with identical
arguments reproduces byte-identical outputs, byte for byte, and each output
directory receives exactly one manifest pinning inputs and produced files.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .analysis import adjacent_pair_samples, spearman, stability_rows, two_step_bound_constants
from .blocksparse import BlockMask
from .calibration import (
    TAU_MATCH_TOL,
    brute_force_assignment,
    build_problem,
    check_candidates,
    shared_threshold_baseline,
    solve_budgeted_assignment,
    table_from_json_dict,
)
from .errors import DomainError, ToolkitError
from .reuse import DEFAULT_GATE, cache_footprint, simulate
from .runio import regular_file_fd, write_csv, write_json, write_manifest
from .spectral import BandWeights, perturbation_study
from .surrogate import ForwardPipeline
from .trace import TraceConfig, read_trace, write_trace


class ToolGroup(click.Group):
    """Every failure of a command, flag conversion included, is one ``error:<code>:`` line.

    ``Group.invoke`` parses the command's flags and runs it, so a value click
    cannot convert is caught here as ``domain``, with click's message.  A
    missing or unknown option stays click's usage error, with exit 2.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.BadParameter as exc:
            if isinstance(exc, click.MissingParameter):
                raise
            code, message = "domain", exc.format_message()
        except ToolkitError as exc:
            code, message = exc.code, str(exc)
        except OSError as exc:
            code, message = "io", str(exc)
        except MemoryError as exc:
            code, message = "memory", str(exc)
        click.echo(f"error:{code}: {message}", err=True)
        sys.exit(1)


def _parse_numbers(text: str, kind: type, what: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"could not parse {what} from {text!r}") from exc


def _ensure_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _keep_temporaries_on_heap() -> None:
    """Serve numpy temporaries below 32 MiB from glibc's heap and keep freed pages.

    glibc maps every block above its mmap threshold with fresh pages. The
    threshold starts at 128 KiB and rises, up to 32 MiB, only when a larger
    mapped block is freed, with the trim threshold at twice it. No command
    frees a large block before its per-step or per-head loop (a trace is
    read a step at a time), so without this ``analyze`` faults its per-head
    temporaries in anew: about three times the minor page faults on the
    benchmark shapes. These are the values glibc's own rule reaches.
    Without glibc's ``mallopt`` nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


@click.group(cls=ToolGroup)
@click.version_option()
def main():
    """Head-wise sparse-attention control on synthetic denoising traces."""
    _keep_temporaries_on_heap()


@main.command("gen-trace")
@click.option("--out", required=True, help="Output directory for trace.satr and its manifest.")
@click.option("--layers", default=4, show_default=True, type=int)
@click.option("--heads", default=6, show_default=True, type=int)
@click.option("--tokens", default=64, show_default=True, type=int)
@click.option("--head-dim", default=16, show_default=True, type=int)
@click.option("--steps", default=50, show_default=True, type=int)
@click.option("--block-size", default=8, show_default=True, type=int)
@click.option("--kappa-min", default=0.2, show_default=True, type=float)
@click.option("--kappa-max", default=0.999, show_default=True, type=float)
@click.option("--scale-min", default=0.8, show_default=True, type=float)
@click.option("--scale-max", default=2.0, show_default=True, type=float)
@click.option("--velocity-shape", default="8,8,8", show_default=True,
              help="Velocity field dims as T,H,W.")
@click.option("--seed", default=0, show_default=True, type=int)
def cmd_gen_trace(out, layers, heads, tokens, head_dim, steps, block_size,
                  kappa_min, kappa_max, scale_min, scale_max, velocity_shape, seed):
    """Generate a seeded synthetic denoising trace."""
    dims = _parse_numbers(velocity_shape, int, "velocity shape")
    if len(dims) != 3:
        raise DomainError(f"velocity shape needs three dims, got {velocity_shape!r}")
    config = TraceConfig(
        layers=layers, heads=heads, tokens=tokens, head_dim=head_dim, steps=steps,
        block_size=block_size, kappa_range=(kappa_min, kappa_max),
        scale_range=(scale_min, scale_max), velocity_shape=tuple(dims), seed=seed,
    )
    out_dir = Path(out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.satr"
    try:
        write_trace(config, trace_path)
    except BaseException:
        # The failed write left no file; remove the directories made for it,
        # innermost first.  One that is not empty stays, and so do its parents.
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    write_manifest(out_dir, "gen-trace", dataclasses.asdict(config), inputs=[],
                   outputs=[trace_path])
    click.echo(str(trace_path))


@main.command("analyze")
@click.option("--trace", "trace_path", required=True, help="SATR trace file.")
@click.option("--out", required=True)
@click.option("--token-p", default=0.95, show_default=True, type=float,
              help="Cumulative mass for per-row token masks.")
@click.option("--tau", default=0.95, show_default=True, type=float,
              help="Top-p threshold for the block masks under comparison.")
def cmd_analyze(trace_path, out, token_p, tau):
    """Adjacent-step mask stability report at prompt/layer/head granularity."""
    with read_trace(trace_path) as trace:
        cfg = trace.config
        pairs = (cfg.steps - 1) * cfg.layers * cfg.heads
        if pairs < 2:
            raise DomainError(
                f"analyze needs at least two adjacent-step pairs; {cfg.steps} steps of "
                f"{cfg.layers}x{cfg.heads} heads give {pairs}"
            )
        samples = adjacent_pair_samples(trace, token_p=token_p, tau=tau)
    summary = {
        "drift_iou_spearman": spearman(samples.pool_drift.ravel(), samples.token_iou.ravel()),
        "bound_constants": two_step_bound_constants(
            samples.full_drift, samples.score_drift, samples.changed_ratio),
        "pairs": pairs,
    }
    out_dir = _ensure_out(out)
    stability_path = out_dir / "stability.csv"
    write_csv(stability_path,
              ["granularity", "step", "layer", "head", "token_iou", "block_iou"],
              stability_rows(samples))
    scatter_path = out_dir / "drift_iou.csv"
    write_csv(
        scatter_path,
        ["step", "layer", "head", "full_token_drift", "mean_pool_drift", "score_drift",
         "token_iou", "block_iou", "changed_block_ratio"],
        ([step, layer, head, *values] for (layer, head, step), *values in zip(
            np.ndindex(samples.token_iou.shape), *(x.ravel().tolist() for x in samples))),
    )
    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    params = {"trace": str(trace_path), "token_p": token_p, "tau": tau}
    write_manifest(out_dir, "analyze", params, inputs=[Path(trace_path)],
                   outputs=[stability_path, scatter_path, summary_path])
    click.echo(str(stability_path))


def _resolve_budget(budget_text: str, taus):
    """Budget flag: a finite float, or shared:<tau> meaning that baseline's sparsity."""
    try:
        if budget_text.startswith("shared:"):
            tau = float(budget_text.split(":", 1)[1])
            if not any(abs(tau - t) <= TAU_MATCH_TOL for t in taus):
                raise DomainError(f"shared budget threshold {tau} must be a candidate")
            return None, tau
        value = float(budget_text)
    except ValueError as exc:
        raise DomainError(f"could not parse --budget from {budget_text!r}") from exc
    if not math.isfinite(value):
        raise DomainError(f"budget must be a finite number, got {budget_text!r}")
    return value, None


@main.command("calibrate")
@click.option("--trace", "trace_path", required=True)
@click.option("--out", required=True)
@click.option("--budget", default="shared:0.9", show_default=True,
              help="Average-sparsity floor: a float, or shared:<tau> to match that baseline.")
@click.option("--taus", default="0.85,0.9,0.95", show_default=True)
@click.option("--intervals", default=4, show_default=True, type=int)
@click.option("--weights", default="1.0,0.5,0.01,0.01", show_default=True,
              help="Band weights for LL,LH,HL,HH.")
@click.option("--error", "objective", type=click.Choice(["fft", "mse"]), default="fft",
              show_default=True)
@click.option("--check-oracle", is_flag=True,
              help="Also run the brute-force oracle and verify agreement.")
@click.option("--seed", default=0, show_default=True, type=int)
def cmd_calibrate(trace_path, out, budget, taus, intervals, weights, objective,
                  check_oracle, seed):
    """Select one measured operating point per head under a sparsity budget."""
    tau_list = check_candidates(_parse_numbers(taus, float, "thresholds"))
    weight_list = _parse_numbers(weights, float, "band weights")
    if len(weight_list) != 4:
        raise DomainError(f"need four band weights, got {weights!r}")
    band_weights = BandWeights(*weight_list)
    budget_value, budget_tau = _resolve_budget(budget, tau_list)
    with read_trace(trace_path) as trace:
        problem = build_problem(ForwardPipeline(trace), tau_list, intervals, budget=0.0,
                                weights=band_weights, seed=seed, objective=objective)
    if budget_tau is not None:
        budget_value = shared_threshold_baseline(problem, budget_tau)["achieved_sparsity"]
    problem.budget = float(budget_value)
    table = solve_budgeted_assignment(problem)
    if check_oracle:
        oracle = brute_force_assignment(problem)
        if oracle.selection_indices() != table.selection_indices():
            raise DomainError("exact solver and brute-force oracle disagree")
    out_dir = _ensure_out(out)
    table_path = out_dir / "calibration.json"
    write_json(table_path, table.to_json_dict())
    baselines = [shared_threshold_baseline(problem, t) for t in tau_list]
    baseline_path = out_dir / "baselines.csv"
    write_csv(
        baseline_path,
        ["tau", "objective", "achieved_sparsity", "feasible"],
        [[b["tau"], b["objective"], b["achieved_sparsity"], b["feasible"]] for b in baselines],
    )
    params = {
        "trace": str(trace_path), "budget": budget, "resolved_budget": problem.budget,
        "taus": tau_list, "intervals": intervals, "weights": weight_list,
        "error": objective, "seed": seed,
    }
    write_manifest(out_dir, "calibrate", params, inputs=[Path(trace_path)],
                   outputs=[table_path, baseline_path])
    click.echo(str(table_path))


@main.command("run")
@click.option("--trace", "trace_path", required=True)
@click.option("--out", required=True)
@click.option("--table", "table_path", default=None,
              help="Calibration JSON with per-head thresholds; default is a shared tau.")
@click.option("--tau", default=0.9, show_default=True, type=float,
              help="Shared threshold when no calibration table is given.")
@click.option("--delta", default="0.0", show_default=True,
              help="Reuse threshold; accepts inf for the always-reuse endpoint.")
@click.option("--gate-lo", default=DEFAULT_GATE[0], show_default=True, type=float)
@click.option("--gate-hi", default=DEFAULT_GATE[1], show_default=True, type=float)
def cmd_run(trace_path, out, table_path, tau, delta, gate_lo, gate_hi):
    """Simulate the full denoising run with per-head temporal mask reuse."""
    try:
        delta_value = float(delta)
    except ValueError as exc:
        raise DomainError(f"could not parse --delta from {delta!r}") from exc
    with read_trace(trace_path) as trace:
        cfg = trace.config
        if table_path is not None:
            try:
                with open(regular_file_fd(table_path, DomainError)) as fh:
                    payload = json.load(fh)
                table = table_from_json_dict(payload)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    RecursionError) as exc:
                raise DomainError(f"invalid calibration table {table_path}: {exc}") from exc
            taus = table.tau_grid(cfg.layers, cfg.heads)
        else:
            taus = np.full((cfg.layers, cfg.heads), tau)
        result = simulate(ForwardPipeline(trace), taus, delta_value, gate=(gate_lo, gate_hi))
    out_dir = _ensure_out(out)
    run_path = out_dir / "run.csv"
    write_csv(
        run_path,
        ["step", "layer", "head", "decision", "drift", "realized_sparsity",
         "changed_block_ratio"],
        [[r.step, r.layer, r.head, r.decision, r.drift, r.sparsity, r.changed_ratio]
         for r in result.records],
    )
    summary_path = out_dir / "summary.json"
    head_rows = []
    for layer in range(cfg.layers):
        for head in range(cfg.heads):
            mask = BlockMask(result.anchor_keep[layer, head])
            head_rows.append({
                "layer": layer, "head": head, "tau": float(taus[layer, head]),
                "anchor_step": int(result.anchor_step[layer, head]),
                "anchor_mask": {"m": mask.size, "bits": mask.to_hex()},
            })
    write_json(summary_path, {
        "reuse_rate": result.reuse_rate,
        "mean_realized_sparsity": result.mean_sparsity,
        "mask_predictions": result.predictions,
        "gate_forced": result.gate_forced,
        "mean_velocity_rel_l2": result.mean_velocity_rel_l2,
        "heads": head_rows,
    })
    params = {
        "trace": str(trace_path), "table": str(table_path) if table_path else None,
        "tau": tau, "delta": delta, "gate": [gate_lo, gate_hi],
    }
    inputs = [Path(trace_path)] + ([Path(table_path)] if table_path else [])
    write_manifest(out_dir, "run", params, inputs=inputs, outputs=[run_path, summary_path])
    click.echo(str(summary_path))


@main.command("perturb")
@click.option("--trace", "trace_path", required=True)
@click.option("--out", required=True)
@click.option("--alpha", default=0.1, show_default=True, type=float)
@click.option("--seeds", default="0,1,2,3", show_default=True)
@click.option("--steps", default=None, help="Comma-separated step subset; default all.")
def cmd_perturb(trace_path, out, alpha, seeds, steps):
    """Equal-relative-magnitude in-band perturbation study over the four regions."""
    seed_list = _parse_numbers(seeds, int, "seeds")
    step_list = _parse_numbers(steps, int, "steps") if steps else None
    with read_trace(trace_path) as trace:
        rows = perturbation_study(ForwardPipeline(trace), alpha, seed_list, steps=step_list)
    out_dir = _ensure_out(out)
    csv_path = out_dir / "perturb.csv"
    write_csv(
        csv_path,
        ["region", "alpha", "seed", "psnr_db", "rel_l2", "norm_ratio"],
        [[r.region, r.alpha, r.seed, r.psnr_db, r.rel_l2, r.norm_ratio] for r in rows],
    )
    params = {"trace": str(trace_path), "alpha": alpha, "seeds": seed_list,
              "steps": step_list}
    write_manifest(out_dir, "perturb", params, inputs=[Path(trace_path)], outputs=[csv_path])
    click.echo(str(csv_path))


@main.command("footprint")
@click.option("--layers", default=30, show_default=True, type=int)
@click.option("--heads", default=12, show_default=True, type=int)
@click.option("--tokens", default=32760, show_default=True, type=int)
@click.option("--head-dim", default=128, show_default=True, type=int)
@click.option("--bytes-per-scalar", default=2, show_default=True, type=int)
@click.option("--branches", default=2, show_default=True, type=int,
              help="Guidance branch multiplier.")
@click.option("--block-align", default=128, show_default=True, type=int,
              help="Token-count alignment for full-token caches.")
@click.option("--out", default=None, help="Optional directory for footprint.json.")
def cmd_footprint(layers, heads, tokens, head_dim, bytes_per_scalar, branches,
                  block_align, out):
    """Reuse-cache memory for full-token versus mean-pooled query/key state."""
    result = cache_footprint(layers, heads, tokens, head_dim, bytes_per_scalar, branches,
                             block_align=block_align)
    text = json.dumps(result, sort_keys=True, indent=2)
    click.echo(text)
    if out:
        out_dir = _ensure_out(out)
        path = out_dir / "footprint.json"
        write_json(path, result)
        params = {"layers": layers, "heads": heads, "tokens": tokens,
                  "head_dim": head_dim, "bytes_per_scalar": bytes_per_scalar,
                  "branches": branches, "block_align": block_align}
        write_manifest(out_dir, "footprint", params, inputs=[], outputs=[path])


if __name__ == "__main__":
    main()
