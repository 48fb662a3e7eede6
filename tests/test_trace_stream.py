"""A trace reads its SATR stream a step at a time: a generated trace (in memory) and the
same trace read from a file give equal results, and a file trace holds one step and reads
each byte it needs once."""

import io
import os
import tracemalloc

import numpy as np
import pytest

from satool import trace as trace_module
from satool.analysis import adjacent_pair_samples
from satool.calibration import build_problem, sample_timesteps
from satool.errors import ToolkitError, TraceFormatError
from satool.reuse import simulate
from satool.spectral import perturbation_study
from satool.surrogate import ForwardPipeline, SurrogateModel
from satool.trace import _HEADER, TraceConfig, generate_trace, read_trace, write_trace

SHAPE = dict(layers=2, heads=3, tokens=16, head_dim=4, block_size=4,
             velocity_shape=(4, 4, 4), seed=9)
TAUS = [0.8, 0.9]
INTERVALS = 2


def run_simulate(pipeline):
    cfg = pipeline.trace.config
    return simulate(pipeline, np.full((cfg.layers, cfg.heads), 0.9), 0.5)


def run_study(pipeline):
    return perturbation_study(pipeline, 0.1, seeds=[0, 1])


def run_problem(pipeline):
    return build_problem(pipeline, TAUS, INTERVALS, budget=0.0)


def run_pairs(pipeline):
    return adjacent_pair_samples(pipeline.trace)


COMMANDS = {"simulate": run_simulate, "perturbation_study": run_study,
            "build_problem": run_problem, "adjacent_pair_samples": run_pairs}


def comparable(result):
    """Results as plain values that ``==`` compares field by field."""
    if hasattr(result, "records"):
        return (result.records, result.predictions, result.reuse_rate, result.mean_sparsity,
                result.mean_velocity_rel_l2, result.gate_forced, result.anchor_step.tolist(),
                result.anchor_pooled.tolist(), result.anchor_keep.tolist())
    if hasattr(result, "kept_blocks"):
        return (result.sparsity.tolist(), result.error.tolist(), result.kept_blocks.tolist(),
                result.block_denominator)
    return result


@pytest.fixture(scope="module")
def generated():
    return generate_trace(TraceConfig(steps=7, **SHAPE))


@pytest.fixture(scope="module")
def model(generated):
    return SurrogateModel.from_config(generated.config)


@pytest.fixture()
def trace_path(generated, tmp_path):
    path = tmp_path / "trace.satr"
    write_trace(generated.config, path)
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_read_back_trace_gives_equal_results(generated, model, trace_path, name):
    expected = comparable(COMMANDS[name](ForwardPipeline(generated, model)))
    with read_trace(trace_path) as trace:
        assert comparable(COMMANDS[name](ForwardPipeline(trace, model))) == expected


class SpiedFile(io.FileIO):
    """An unbuffered file that logs the (offset, length) of every ``readinto``."""

    def readinto(self, buffer):
        start = self.tell()
        count = super().readinto(buffer)
        self.log.append((start, count))
        return count


@pytest.fixture()
def read_log(monkeypatch):
    log = []

    def spied_open(path, mode, buffering=-1):
        assert mode == "rb" and buffering == 0
        fh = SpiedFile(path, "rb")
        fh.log = log
        return fh

    monkeypatch.setattr(trace_module, "open", spied_open, raising=False)
    return log


def payload_reads(log, config):
    """How often each payload byte was read, as (steps, layers, heads, 3, tokens, head_dim)."""
    c = config
    counts = np.zeros(_HEADER.size + c.steps * c.layers * c.heads * 3 * c.tokens * c.head_dim * 4,
                      dtype=np.int64)
    for start, length in log:
        counts[start:start + length] += 1
    per_value = counts[_HEADER.size:].reshape(-1, 4)
    assert (per_value == per_value[:, :1]).all()
    return per_value[:, 0].reshape(c.steps, c.layers, c.heads, 3, c.tokens, c.head_dim)


@pytest.mark.parametrize("name", ["simulate", "perturbation_study"])
def test_whole_trajectory_commands_read_every_byte_once(model, trace_path, read_log, name):
    with read_trace(trace_path) as trace:
        COMMANDS[name](ForwardPipeline(trace, model))
        assert (payload_reads(read_log, trace.config) == 1).all()


def test_pair_samples_read_each_query_and_key_byte_once(model, trace_path, read_log):
    with read_trace(trace_path) as trace:
        run_pairs(ForwardPipeline(trace, model))
        reads = payload_reads(read_log, trace.config)
    assert (reads[:, :, :, :2] == 1).all()
    assert not reads[:, :, :, 2].any()


def test_calibration_reads_only_its_sampled_steps(model, trace_path, read_log):
    with read_trace(trace_path) as trace:
        run_problem(ForwardPipeline(trace, model))
        reads = payload_reads(read_log, trace.config)
        sampled = sample_timesteps(trace.config.steps, INTERVALS, 0)
    assert sorted(set(sampled)) == sampled
    expected = np.zeros(len(reads), dtype=np.int64)
    expected[sampled] = 1
    np.testing.assert_array_equal(reads.reshape(len(reads), -1).max(axis=1), expected)
    np.testing.assert_array_equal(reads.reshape(len(reads), -1).min(axis=1), expected)


class TestPeakMemory:
    """Peaks of a read-back run do not grow with the step count (tracemalloc).

    Between 8 and 32 steps of one shape, a command's peak may grow by one
    step's payload, one step of dense head outputs and the per-step
    records: 24 extra steps of cached fields and, for ``simulate``, of
    ``StepRecord``s.  Holding every step of either would add 24 times the
    first two.
    """

    SHAPE = dict(layers=2, heads=2, tokens=64, head_dim=16, block_size=8,
                 velocity_shape=(2, 2, 2), seed=5)
    STEP_PAYLOAD = 2 * 2 * 3 * 64 * 16 * 4
    STEP_HEAD_OUTPUTS = 2 * 2 * 64 * 16 * 8
    # Per step: one record per head of at most 1 KiB, and 2 KiB for the
    # cached field, pre-activation and error of the step.
    STEP_RECORDS = 2 * 2 * 1024 + 2048

    @staticmethod
    def peak(command, path, model):
        def run():
            with read_trace(path) as trace:
                return command(ForwardPipeline(trace, model))

        run()  # one-time costs, such as lazy imports, stay out of the peak
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["simulate", "perturbation_study", "build_problem"])
    def test_peak_grows_by_less_than_one_step(self, tmp_path, name):
        model = SurrogateModel.from_config(TraceConfig(steps=1, **self.SHAPE))
        peaks = []
        for steps in (8, 32):
            path = tmp_path / f"t{steps}.satr"
            write_trace(TraceConfig(steps=steps, **self.SHAPE), path)
            peaks.append(self.peak(COMMANDS[name], path, model))
        bound = self.STEP_PAYLOAD + self.STEP_HEAD_OUTPUTS + 24 * self.STEP_RECORDS
        assert peaks[1] - peaks[0] < bound


class TestFileLifetime:
    def test_truncated_file_fails_the_next_read_naming_the_sizes(self, generated, trace_path):
        c = generated.config
        step_bytes = c.layers * c.heads * 3 * c.tokens * c.head_dim * 4
        payload = step_bytes * c.steps
        with read_trace(trace_path) as trace:
            trace.step(0)
            os.truncate(trace_path, _HEADER.size + step_bytes + 5)
            np.testing.assert_array_equal(trace.step(0), generated.step(0))
            for read in (lambda: trace.step(c.steps - 1), lambda: trace.q(1, 0, 0),
                         lambda: trace.head_qk(0, 0)):
                with pytest.raises(TraceFormatError) as info:
                    read()
                assert str(info.value) == (
                    f"{trace_path}: payload is {step_bytes + 5} bytes, expected {payload}")

    def test_reads_after_close_raise_a_toolkit_error(self, trace_path):
        trace = read_trace(trace_path)
        trace.step(0)
        trace.close()
        for read in (lambda: trace.step(0), lambda: trace.step(1), lambda: trace.v(2, 1, 1),
                     lambda: trace.head_qk(1, 2)):
            with pytest.raises(ToolkitError, match="closed"):
                read()
        trace.close()

    def test_a_closed_generated_trace_raises_a_toolkit_error(self):
        trace = generate_trace(TraceConfig(steps=3, **SHAPE))
        trace.step(0)
        trace.close()
        for read in (lambda: trace.step(1), lambda: trace.q(0, 0, 0),
                     lambda: trace.head_qk(1, 2)):
            with pytest.raises(ToolkitError, match="closed"):
                read()

    def test_with_block_closes_the_file(self, trace_path):
        with read_trace(trace_path) as trace:
            trace.step(3)
        with pytest.raises(ToolkitError, match="closed"):
            trace.step(3)

    def test_failed_header_check_closes_the_file(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(path, mode, buffering=-1):
            opened.append(io.FileIO(path, mode))
            return opened[-1]

        monkeypatch.setattr(trace_module, "open", recording_open, raising=False)
        path = tmp_path / "junk.satr"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace(path)
        assert len(opened) == 1 and opened[0].closed
