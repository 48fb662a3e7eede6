"""satool benchmark: the CLI end to end on seeded workloads, plus a traced per-module run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a satool checkout; it imports nothing installed and
runs the sources under ``src/``.  Each workload makes a fixed number of
traces ("instances") whose ``--seed`` values derive from the workload name
and ``--seed``.  One closed-loop client runs the commands one after another.

``--trace 0`` (end to end): ``gen-trace``, twice per instance, is the set-up.
Then ``analyze -> calibrate -> run -> perturb`` runs as child processes on
each instance in turn, round after round, until ``--seconds`` have passed
(at least one full round).  Times are medians over all passes.  Quality
values are means over the instances.

``--trace 1`` (per module): every instance runs once as child processes,
then in-process without and with spans, for complete rounds until
``--seconds`` have passed.  The three sets of outputs must be byte-identical.

Every command's outputs are checked.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import (CheckFailed, check_analyze, check_calibrate, check_manifest,
                    check_perturb, check_run, output_digest, require, sha256_file)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170.0
SETUP_REPEATS = 2
STARTUP_SAMPLES = 4
TRACE = "trace/trace.satr"
STEPS = ("analyze", "calibrate", "run", "perturb")
COMMANDS = ("gen-trace",) + STEPS
PERTURB_SEEDS = 4  # `satool perturb` default: --seeds 0,1,2,3


@dataclass(frozen=True)
class Workload:
    instances: int
    gen: tuple[str, ...]
    calibrate: tuple[str, ...]
    run: tuple[str, ...]


WORKLOADS = {
    # Fan-in 32768 into a 512-value field: the dense projection dominates
    # calibrate and run.  Every head refreshes and little is skipped, so
    # reuse and block-gather changes should not move it.
    "wide-proj": Workload(
        instances=4,
        gen=("--layers", "2", "--heads", "8", "--tokens", "128", "--head-dim", "32",
             "--steps", "8", "--block-size", "16", "--scale-min", "1.2", "--scale-max", "1.6"),
        calibrate=("--taus", "0.8,0.9,0.99", "--budget", "shared:0.9", "--intervals", "1"),
        run=("--delta", "0"),
    ),
    # 512 tokens in few heads: token-level analysis and masked attention
    # dominate, the projection is small, and most masks are reused.
    "long-attn": Workload(
        instances=4,
        gen=("--layers", "2", "--heads", "4", "--tokens", "384", "--head-dim", "32",
             "--steps", "12", "--block-size", "32", "--kappa-min", "0.95",
             "--kappa-max", "0.999", "--scale-min", "3", "--scale-max", "6",
             "--velocity-shape", "4,4,4"),
        calibrate=("--taus", "0.7,0.8,0.9", "--budget", "shared:0.8"),
        run=("--delta", "5"),
    ),
    # 64 tiny heads: the knapsack solve and the per-(layer, head) Python
    # loops dominate; every numpy kernel is small.  16 heads per layer let
    # the layer gate (band 0.1-0.9) force decisions; about 70% are reuses.
    "many-heads": Workload(
        instances=6,
        gen=("--layers", "4", "--heads", "16", "--tokens", "32", "--head-dim", "8",
             "--steps", "40", "--block-size", "4", "--velocity-shape", "4,4,4"),
        calibrate=("--taus", "0.85,0.9,0.95", "--budget", "shared:0.9"),
        run=("--delta", "4"),
    ),
}

class CommandFailed(Exception):
    pass


def instance_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def command_args(workload: Workload, command: str, trace_seed: int) -> list[str]:
    if command == "gen-trace":
        return ["gen-trace", "--out", "trace", *workload.gen, "--seed", str(trace_seed)]
    args = [command, "--trace", TRACE, "--out", command]
    if command == "calibrate":
        args += workload.calibrate
    elif command == "run":
        args += ["--table", "calibrate/calibration.json", *workload.run]
    return args


def output_dir(command: str) -> str:
    return "trace" if command == "gen-trace" else command


@dataclass
class Instance:
    """One trace and the reference digests of every command's outputs on it."""

    index: int
    trace_seed: int
    shape: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


class Bench:
    """Runs and checks commands; counts attempts and failures."""

    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.peak_rss_mb = 0.0
        self._input_digests: dict[tuple, str] = {}
        self.env = dict(os.environ)
        self.env.pop("SATOOL_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def child(self, argv: list[str], cwd: Path) -> tuple[float, float]:
        """Run ``python -m satool.cli argv``; returns (wall seconds, max RSS MB)."""
        return self._spawn([sys.executable, "-m", "satool.cli", *argv], cwd)

    def _spawn(self, cmd: list[str], cwd: Path) -> tuple[float, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise CommandFailed("run time limit reached")
        cwd.mkdir(parents=True, exist_ok=True)
        with open(cwd / "stderr.log", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                proc.wait()
                raise CommandFailed(f"{cmd[3:5]} killed at the run time limit") from None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (cwd / "stderr.log").read_text(errors="replace")[-2000:]
            raise CommandFailed(f"{' '.join(cmd[3:5])} exited {proc.returncode}: {tail}")
        return wall, usage.ru_maxrss / 1024.0

    def startup(self, cwd: Path, samples: int) -> float:
        """Median wall time of processes that only import satool.cli, after a
        first one that compiles the bytecode and warms the page cache."""
        walls = [self._spawn([sys.executable, "-c", "import satool.cli"], cwd)[0]
                 for _ in range(samples + 1)]
        return statistics.median(walls[1:])

    def timed(self, inst: Instance, command: str, cwd: Path) -> float:
        """One checked child-process command; the wall time is recorded."""
        self.attempted += 1
        try:
            wall, rss = self.child(command_args(self.workload, command, inst.trace_seed), cwd)
            self.check(inst, command, cwd)
        except (CommandFailed, CheckFailed):
            self.failed += 1
            raise
        self.walls[command].append(wall)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return wall

    def input_digest(self, path: Path) -> str:
        """SHA-256 of an input file, hashed again only when the file changed."""
        stat = path.stat()
        key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns)
        if key not in self._input_digests:
            self._input_digests[key] = sha256_file(path)
        return self._input_digests[key]

    def check(self, inst: Instance, command: str, cwd: Path) -> None:
        """Manifest hashes, per-command invariants, and byte-identity across repeats."""
        out = cwd / output_dir(command)
        digest = output_digest(out)
        manifest = check_manifest(cwd, out, digest, self.input_digest)
        if command == "gen-trace":
            inst.shape = manifest["config"]
        elif command == "analyze":
            check_analyze(out, inst.shape)
        elif command == "calibrate":
            inst.quality["calib_objective"] = check_calibrate(out, inst.shape)["objective"]
        elif command == "run":
            inst.quality["run_velocity_rel_l2"] = check_run(out, inst.shape)["mean_velocity_rel_l2"]
        else:
            check_perturb(out, PERTURB_SEEDS)
        reference = inst.digests.setdefault(command, digest)
        require(reference == digest, f"{command}: outputs differ from the first run on this trace")


def timed_run(bench: Bench, insts: list[Instance], seconds: float) -> dict:
    for _ in range(SETUP_REPEATS):
        for inst in insts:
            bench.timed(inst, "gen-trace", bench.work / f"i{inst.index}")
    start = time.perf_counter()
    passes = 0
    while passes < len(insts) or time.perf_counter() - start < seconds:
        inst = insts[passes % len(insts)]
        for command in STEPS:
            bench.timed(inst, command, bench.work / f"i{inst.index}")
        passes += 1
    metrics = {"setup_s": statistics.median(bench.walls["gen-trace"])}
    for command in STEPS:
        metrics[f"{command}_s"] = statistics.median(bench.walls[command])
    metrics["peak_rss_mb"] = bench.peak_rss_mb
    metrics["run_velocity_rel_l2"] = statistics.fmean(
        inst.quality["run_velocity_rel_l2"] for inst in insts)
    return metrics


def in_process(bench: Bench, cli_main, inst: Instance, command: str, cwd: Path,
               tracer=None) -> float:
    """One checked command through ``satool.cli.main`` in this process."""
    import click

    argv = command_args(bench.workload, command, inst.trace_seed)
    span = tracer.span(f"cli.{command}") if tracer is not None else contextlib.nullcontext()
    bench.attempted += 1
    cwd.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            try:
                with span:
                    cli_main.main(argv, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            except click.ClickException as exc:
                code = f"usage error: {exc.format_message()}"
            except Exception:  # a crash in one command must not hide the result
                code = traceback.format_exc()
            wall = time.perf_counter() - start
        if code != 0:
            raise CommandFailed(f"in-process {command} failed ({code}): {err.getvalue()[-2000:]}")
        bench.check(inst, command, cwd)
    except (CommandFailed, CheckFailed):
        bench.failed += 1
        raise
    finally:
        os.chdir(previous)
    return wall


def import_satool():
    sys.path.insert(0, str(SRC))
    import satool
    import satool.cli

    location = Path(satool.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise CommandFailed(f"satool imported from {location}, not from {SRC}")
    return satool.cli.main


def traced_run(bench: Bench, insts: list[Instance], seconds: float, spans_path: Path) -> dict:
    from spans import LAYERS, Tracer, instrument

    os.environ.pop("SATOOL_THREADS", None)
    startup = bench.startup(bench.work / "startup", STARTUP_SAMPLES)
    cli_main = import_satool()
    tracer = Tracer()
    child = {c: [] for c in COMMANDS}
    plain_total = traced_total = 0.0
    rounds = 0
    start = time.perf_counter()
    round_s = 0.0
    while rounds == 0 or time.perf_counter() - start + round_s < seconds:
        round_start = time.perf_counter()
        for inst in insts:
            base = bench.work / f"i{inst.index}"
            if rounds == 0:
                for command in COMMANDS:
                    child[command].append(bench.timed(inst, command, base / "child"))
            for command in COMMANDS:
                plain_total += in_process(bench, cli_main, inst, command, base / "plain")
            restore = instrument(tracer)
            try:
                for command in COMMANDS:
                    traced_total += in_process(bench, cli_main, inst, command, base / "traced",
                                               tracer)
            finally:
                restore()
        rounds += 1
        round_s = time.perf_counter() - round_start
    passes = rounds * len(insts)
    summary = tracer.summary()
    with gzip.open(spans_path, "wt") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    metrics = layer_metrics(summary, tracer.counts, passes)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"] / passes
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    for command in COMMANDS:
        traced_s = summary[f"cli.{command}"]["total_s"] / passes
        metrics[f"cli.{command}.traced_s"] = traced_s
        metrics[f"cli.{command}.remainder_s"] = statistics.fmean(child[command]) - startup - traced_s
    accounted = sum(metrics[f"cli.{c}.traced_s"] for c in COMMANDS)
    require(abs(sum(layer_self.values()) - accounted) < 1e-6 * max(1.0, accounted),
            "layer self times do not add up to the traced command times")
    metrics["cli.startup_s"] = startup
    metrics["tracing.overhead_ratio"] = traced_total / plain_total - 1.0
    metrics["calibration.objective"] = statistics.fmean(i.quality["calib_objective"] for i in insts)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict, passes: int) -> dict:
    """Per-pass layer figures; *_mb values are computed from shapes and file sizes."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0) / passes

    def self_time(name):
        return summary.get(name, {}).get("self_s", 0.0) / passes

    def count(key):
        return counts.get(key, 0.0) / passes

    def mb(key):
        return count(key) / 1e6

    return {
        "surrogate.project_calls": count("surrogate.project_calls"),
        "surrogate.project_s": total("surrogate.SurrogateModel.project"),
        "surrogate.project_mb": mb("surrogate.project_bytes"),
        "surrogate.model_init_s": total("surrogate.SurrogateModel.from_config"),
        "surrogate.attention_calls": count("surrogate.attention_calls"),
        "surrogate.masked_attention_calls": count("surrogate.masked_attention_calls"),
        "surrogate.attention_s": total("surrogate.masked_attention"),
        "surrogate.sparse_blocks_total": count("surrogate.sparse_blocks_total"),
        "surrogate.sparse_blocks_kept": count("surrogate.sparse_blocks_kept"),
        "surrogate.dense_forward_calls": count("surrogate.dense_forward_calls"),
        "surrogate.dense_cache_hit_ratio": _ratio(counts.get("surrogate.dense_cache_hits", 0.0),
                                                  counts.get("surrogate.dense_forward_calls", 0.0)),
        "surrogate.sparse_forward_self_s": self_time("surrogate.ForwardPipeline.sparse_forward"),
        "surrogate.pooled_calls": count("surrogate.pooled_calls"),
        "surrogate.pooled_s": total("surrogate.ForwardPipeline.pooled"),
        "surrogate.attention_probs_s": total("surrogate.attention_probs"),
        "blocksparse.block_scores_calls": count("blocksparse.block_scores_calls"),
        "blocksparse.block_scores_s": total("blocksparse.block_scores"),
        "blocksparse.top_p_select_calls": count("blocksparse.top_p_select_calls"),
        "blocksparse.top_p_select_s": total("blocksparse.top_p_select"),
        "blocksparse.kept_block_ratio": _ratio(counts.get("blocksparse.selected_blocks_kept", 0.0),
                                               counts.get("blocksparse.selected_blocks_total", 0.0)),
        "blocksparse.prefix_mask_s": total("blocksparse.cumulative_prefix_mask"),
        "reuse.mask_predictions": count("reuse.mask_predictions"),
        "reuse.reuse_rate": _ratio(counts.get("reuse.reused", 0.0), counts.get("reuse.decisions", 0.0)),
        "reuse.layer_gate_calls": count("reuse.layer_gate_calls"),
        "reuse.gate_forced": count("reuse.gate_forced"),
        "reuse.simulate_self_s": self_time("reuse.simulate"),
        "analysis.adjacent_pair_samples_self_s": self_time("analysis.adjacent_pair_samples"),
        "analysis.stability_rows_s": total("analysis.stability_rows"),
        "calibration.build_problem_self_s": self_time("calibration.build_problem"),
        "calibration.measure_head_calls": count("calibration.measure_head_calls"),
        "calibration.measure_head_s": total("calibration.measure_head"),
        "calibration.solve_s": total("calibration.solve_budgeted_assignment"),
        "calibration.solve_heads": count("calibration.solve_heads"),
        "spectral.band_energy_ratios_calls": count("spectral.band_energy_ratios_calls"),
        "spectral.band_energy_ratios_s": total("spectral.band_energy_ratios"),
        "spectral.band_perturbation_s": total("spectral.band_perturbation"),
        "trace.generate_s": total("trace.generate_trace"),
        "trace.write_s": total("trace.write_trace"),
        "trace.read_s": total("trace.read_trace"),
        "trace.read_mb": mb("trace.read_bytes"),
        "trace.qkv_copies": count("trace.qkv_copies"),
        "trace.qkv_copy_mb": mb("trace.qkv_copy_bytes"),
        "runio.write_s": total("runio.atomic_write_bytes"),
        "runio.write_mb": mb("runio.write_bytes"),
        "runio.sha256_s": total("runio.sha256_path"),
        "runio.sha256_mb": mb("runio.sha256_bytes"),
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "SATOOL_THREADS": os.environ.get("SATOOL_THREADS", "unset") + " (unset for the runs)",
    }


def _on_alarm(signum, frame):
    raise TimeoutError


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run_benchmark(name: str, workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the result fields plus every raw wall time."""
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{name}-{seed}-{trace}-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, work, deadline)
    insts = [Instance(i, instance_seed(name, seed, i)) for i in range(workload.instances)]
    metrics: dict = {}
    try:
        if trace:
            metrics = traced_run(bench, insts, seconds, OUT / f"{name}-seed{seed}-spans.jsonl.gz")
        else:
            bench.startup(work / "startup", 1)
            metrics = timed_run(bench, insts, seconds)
    except (CommandFailed, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if bench.failed == 0:
            bench.failed = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.signal(signal.SIGALRM, previous_handler)
    return {
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
        "walls": bench.walls,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "satool" / "cli.py").is_file():
        print(f"error: no satool sources at {SRC}; run from the root of a satool checkout",
              file=sys.stderr)
        return 2
    env = environment()
    result = run_benchmark(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                           args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "instances": WORKLOADS[args.workload].instances,
              **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB" if name == "peak_rss_mb" else "computed_MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    if name in ("calibration.objective", "run_velocity_rel_l2"):
        return "error"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
