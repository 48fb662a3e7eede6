"""In-process spans and counters around satool's public functions.

``instrument`` replaces every module global and class attribute bound to an
instrumented function with a wrapper that records a span (name, start, end,
parent).  ``from .x import y`` copies a function into the importing module,
so every binding in every satool module is replaced, not only the defining
one.  Counters the program does not keep itself (gate-forced decisions,
dense-cache hits, kept blocks, bytes handled) are derived in hooks from the
wrapped calls' arguments and results.  Byte figures are computed from array
shapes and file sizes; nothing here measures I/O.

Spans assume one thread: the benchmark leaves ``SATOOL_THREADS`` unset, so
the calibration fan-out runs serially.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("trace", "blocksparse", "surrogate", "reuse", "calibration",
          "spectral", "analysis", "runio", "cli")

# Functions that get a span, per defining module; methods as "Class.method".
SPANNED = {
    "trace": ["generate_trace", "write_trace", "read_trace"],
    "blocksparse": ["block_scores", "top_p_select", "cumulative_prefix_mask"],
    "surrogate": ["attention_probs", "masked_attention", "expand_block_mask",
                  "SurrogateModel.from_config", "SurrogateModel.project",
                  "ForwardPipeline.dense_forward", "ForwardPipeline.sparse_forward",
                  "ForwardPipeline.pooled", "ForwardPipeline.scores"],
    "reuse": ["simulate", "layer_gate", "mean_pool_drift", "full_token_drift"],
    "calibration": ["build_problem", "measure_head", "solve_budgeted_assignment",
                    "shared_threshold_baseline"],
    "spectral": ["band_partition", "band_energy_ratios", "band_perturbation",
                 "perturbation_study"],
    "analysis": ["adjacent_pair_samples", "stability_rows", "spearman",
                 "two_step_bound_constants"],
    "runio": ["write_csv", "write_json", "write_manifest", "sha256_path",
              "atomic_write_bytes"],
}

# Called too often for a span to be cheap; they only feed counters.
COUNTED = {"trace": ["DenoiseTrace.q", "DenoiseTrace.k", "DenoiseTrace.v"]}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _masked_attention(c, args, kwargs, result):
    c["surrogate.attention_calls"] += 1
    allow = args[3] if len(args) > 3 else kwargs.get("allow")
    if allow is not None:
        c["surrogate.masked_attention_calls"] += 1


def _project(c, args, kwargs, result):
    c["surrogate.project_calls"] += 1
    c["surrogate.project_bytes"] += args[0].weight.nbytes


def _dense_forward(c, args, kwargs, result):
    c["surrogate.dense_forward_calls"] += 1
    c["surrogate.dense_cache_hits"] += bool(args[0].last_dense_cached)


def _sparse_forward(c, args, kwargs, result):
    for mask in _arg(args, kwargs, 2, "masks").values():
        if mask is not None:
            c["surrogate.sparse_blocks_total"] += mask.size
            c["surrogate.sparse_blocks_kept"] += mask.count


def _top_p_select(c, args, kwargs, result):
    c["blocksparse.top_p_select_calls"] += 1
    c["blocksparse.selected_blocks_total"] += result.size
    c["blocksparse.selected_blocks_kept"] += result.count


def _layer_gate(c, args, kwargs, result):
    proposed = [bool(f) for f in _arg(args, kwargs, 0, "refresh_flags")]
    c["reuse.layer_gate_calls"] += 1
    c["reuse.gate_forced"] += sum(a != b for a, b in zip(proposed, result))


def _simulate(c, args, kwargs, result):
    c["reuse.mask_predictions"] += result.predictions
    c["reuse.decisions"] += len(result.records)
    c["reuse.reused"] += sum(r.decision == "reuse" for r in result.records)


def _solve(c, args, kwargs, result):
    c["calibration.solve_heads"] += _arg(args, kwargs, 0, "problem").head_count


def _file_bytes(key, index, name):
    def hook(c, args, kwargs, result):
        c[key] += os.path.getsize(_arg(args, kwargs, index, name))
    return hook


def _atomic_write(c, args, kwargs, result):
    c["runio.write_bytes"] += len(_arg(args, kwargs, 1, "data"))


def _qkv_copy(c, args, kwargs, result):
    c["trace.qkv_copies"] += 1
    c["trace.qkv_copy_bytes"] += result.nbytes


def _calls(key):
    def hook(c, args, kwargs, result):
        c[key] += 1
    return hook


HOOKS = {
    "surrogate.masked_attention": _masked_attention,
    "surrogate.SurrogateModel.project": _project,
    "surrogate.ForwardPipeline.dense_forward": _dense_forward,
    "surrogate.ForwardPipeline.sparse_forward": _sparse_forward,
    "surrogate.ForwardPipeline.pooled": _calls("surrogate.pooled_calls"),
    "blocksparse.block_scores": _calls("blocksparse.block_scores_calls"),
    "blocksparse.top_p_select": _top_p_select,
    "reuse.layer_gate": _layer_gate,
    "reuse.simulate": _simulate,
    "calibration.measure_head": _calls("calibration.measure_head_calls"),
    "calibration.solve_budgeted_assignment": _solve,
    "spectral.band_energy_ratios": _calls("spectral.band_energy_ratios_calls"),
    "trace.read_trace": _file_bytes("trace.read_bytes", 0, "path"),
    "runio.sha256_path": _file_bytes("runio.sha256_bytes", 0, "path"),
    "runio.atomic_write_bytes": _atomic_write,
    "trace.DenoiseTrace.q": _qkv_copy,
    "trace.DenoiseTrace.k": _qkv_copy,
    "trace.DenoiseTrace.v": _qkv_copy,
}


class Tracer:
    """Spans as (name, start, end, parent index) plus named counters, in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def spanned(self, name: str, fn, hook=None):
        clock, open_, close, counts = time.perf_counter, self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            index = open_(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index, start, clock())
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (minus child spans)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[index]
        return out


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def instrument(tracer: Tracer):
    """Wrap every instrumented satool function; returns a callable that undoes it."""
    modules = {name: importlib.import_module(f"satool.{name}") for name in LAYERS}
    patches = []
    replacements = {}
    plan = [(layer, path, True) for layer, paths in SPANNED.items() for path in paths]
    plan += [(layer, path, False) for layer, paths in COUNTED.items() for path in paths]
    for layer, path, with_span in plan:
        owner, attr = _resolve(modules[layer], path)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        key = f"{layer}.{path}"
        if with_span:
            wrapped = tracer.spanned(key, fn, HOOKS.get(key))
        else:
            wrapped = tracer.counted(fn, HOOKS[key])
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        if owner is modules[layer]:
            replacements[id(raw)] = (raw, wrapped)
        else:
            patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
    satool_modules = [m for name, m in sys.modules.items()
                      if m is not None and (name == "satool" or name.startswith("satool."))]
    for module in satool_modules:
        for name, value in list(vars(module).items()):
            raw, wrapped = replacements.get(id(value), (None, None))
            if raw is value:
                patches.append((module, name, value))
                setattr(module, name, wrapped)

    def restore():
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)

    return restore
