import builtins
import dataclasses
import hashlib
import io
import math
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satool import runio
from satool.errors import ConfigError, DomainError, ShapeMismatch, TraceFormatError
from satool.surrogate import ForwardPipeline, SurrogateModel, masked_attention
from satool.trace import (
    _HEADER,
    _NOISE_STREAM,
    MAX_COUNT,
    MAX_PROJECTION_ELEMENTS,
    TRACE_MAGIC,
    TRACE_VERSION,
    DenoiseTrace,
    TraceConfig,
    generate_trace,
    head_parameters,
    read_trace,
    write_trace,
)
from satool.blocksparse import BlockMask, top_p_select


def one_shot_payload(config):
    """Reference generator: every step's float64 noise and features at once, then one cast."""
    kappa, scale = head_parameters(config)
    c = config
    rng = np.random.default_rng(np.random.SeedSequence([c.seed, _NOISE_STREAM]))
    noise = rng.standard_normal((c.steps, c.layers, c.heads, 3, c.tokens, c.head_dim))
    feats = np.empty_like(noise)
    feats[0] = noise[0]
    blend = kappa[:, :, None, None, None]
    fresh = np.sqrt(1.0 - blend ** 2)
    for t in range(1, c.steps):
        feats[t] = blend * feats[t - 1] + fresh * noise[t]
    feats *= scale[None, :, :, None, None, None]
    return feats.astype(np.float32)


def traced_peak(fn, *args):
    """Peak bytes traced during a second ``fn`` call, above what was allocated before it.

    The first, untraced call takes the one-time costs, such as lazy imports.
    """
    fn(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def payload(trace):
    """Every step of a trace, (steps, layers, heads, 3, tokens, head_dim) float32."""
    return np.stack([trace.step(t) for t in range(trace.config.steps)])


def zero_values_satr(config, tmp_path):
    """The SATR bytes of ``config``'s trace with every V entry set to zero."""
    path = tmp_path / "zero_v.satr"
    write_trace(config, path)
    raw = bytearray(path.read_bytes())
    c = config
    steps = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    steps.reshape(c.steps, c.layers, c.heads, 3, c.tokens, c.head_dim)[:, :, :, 2] = 0.0
    return bytes(raw)


def mean_adjacent_l1(trace):
    diffs = np.abs(np.diff(payload(trace).astype(np.float64), axis=0))
    return float(diffs.mean())


class TestConfig:
    def test_projection_size_cap(self):
        small = dict(layers=1, heads=1, tokens=1, head_dim=1, block_size=1)
        at_cap = TraceConfig(**small, velocity_shape=(2 ** 10, 2 ** 9, 2 ** 9))
        assert math.prod(at_cap.velocity_shape) * at_cap.feature_count == MAX_PROJECTION_ELEMENTS
        with pytest.raises(ConfigError, match="surrogate projection"):
            TraceConfig(**small, velocity_shape=(2 ** 10, 2 ** 9, 2 ** 9 + 1))
        with pytest.raises(ConfigError, match="surrogate projection"):
            TraceConfig(layers=1, heads=2 ** 16, tokens=2 ** 16, head_dim=1, block_size=1,
                        velocity_shape=(1, 1, 1))

    def test_rejects_indivisible_tokens(self):
        with pytest.raises(ConfigError):
            TraceConfig(tokens=30, block_size=7)

    def test_rejects_zero_dims(self):
        with pytest.raises(ConfigError):
            TraceConfig(layers=0)

    @pytest.mark.parametrize("field", ["layers", "heads", "tokens", "head_dim", "steps",
                                       "block_size"])
    def test_counts_must_fit_u32(self, field):
        # Every count is a u32 in the SATR header; larger ones fail before
        # anything is drawn (2**32 layers would ask head_parameters for 32 GiB).
        small = dict(layers=1, heads=1, tokens=1, head_dim=1, steps=1, block_size=1,
                     velocity_shape=(1, 1, 1))
        for value in (MAX_COUNT + 1, 10 ** 10, 2 ** 64):
            with pytest.raises(ConfigError, match=f"^{field} must be at most {MAX_COUNT}"):
                TraceConfig(**{**small, field: value})

    def test_largest_u32_count_accepted(self):
        small = dict(heads=1, tokens=1, head_dim=1, block_size=1, velocity_shape=(1, 1, 1))
        assert TraceConfig(**small, layers=MAX_COUNT, steps=MAX_COUNT).steps == 2 ** 32 - 1

    @pytest.mark.parametrize("shape", [(2 ** 32, 1, 1), (1, 1, 2 ** 32), (1, 10 ** 10, 1)])
    def test_velocity_counts_must_fit_u32(self, shape):
        small = dict(layers=1, heads=1, tokens=1, head_dim=1, steps=1, block_size=1)
        with pytest.raises(ConfigError, match="^velocity shape counts must be at most"):
            TraceConfig(**small, velocity_shape=shape)

    def test_rejects_bad_kappa_range(self):
        with pytest.raises(ConfigError):
            TraceConfig(kappa_range=(0.9, 0.2))
        with pytest.raises(ConfigError):
            TraceConfig(kappa_range=(-0.1, 0.5))

    def test_heads_draw_heterogeneous_kappa(self):
        kappa, scale = head_parameters(TraceConfig())
        assert kappa.shape == (4, 6)
        assert kappa.std() > 0
        assert scale.std() > 0


class TestGenerateTrace:
    def test_frozen_heads_have_constant_features(self):
        trace = generate_trace(TraceConfig(kappa_range=(1.0, 1.0), steps=5))
        for t in range(1, 5):
            np.testing.assert_array_equal(trace.step(t), trace.step(0))

    def test_determinism(self):
        cfg = TraceConfig(steps=4)
        a = generate_trace(cfg)
        b = generate_trace(cfg)
        np.testing.assert_array_equal(payload(a), payload(b))

    def test_seed_changes_trace(self):
        a = generate_trace(TraceConfig(steps=4, seed=0))
        b = generate_trace(TraceConfig(steps=4, seed=1))
        assert not np.array_equal(payload(a), payload(b))

    def test_adjacent_distance_smaller_for_smoother_heads(self):
        smooth = generate_trace(TraceConfig(kappa_range=(0.99, 0.99), steps=10))
        rough = generate_trace(TraceConfig(kappa_range=(0.5, 0.5), steps=10))
        assert mean_adjacent_l1(smooth) < mean_adjacent_l1(rough)

    def test_drift_monotone_in_kappa_sweep(self):
        from satool.reuse import full_token_drift

        def mean_drift(kappa):
            trace = generate_trace(TraceConfig(kappa_range=(kappa, kappa), steps=12))
            cfg = trace.config
            values = [
                full_token_drift(
                    trace.q(t, l, h), trace.q(t + 1, l, h),
                    trace.k(t, l, h), trace.k(t + 1, l, h),
                )
                for l in range(cfg.layers) for h in range(cfg.heads)
                for t in range(cfg.steps - 1)
            ]
            return float(np.mean(values))

        drifts = [mean_drift(k) for k in (0.5, 0.9, 0.99, 1.0)]
        assert all(drifts[i + 1] <= drifts[i] for i in range(len(drifts) - 1))
        assert drifts[-1] == 0.0

    def test_entries_finite(self, default_trace):
        assert np.isfinite(payload(default_trace)).all()

    @settings(max_examples=80, deadline=None)
    @given(steps=st.integers(1, 7), layers=st.integers(1, 3), heads=st.integers(1, 3),
           block_size=st.integers(1, 4), blocks=st.integers(1, 3), head_dim=st.integers(1, 5),
           kappa=st.one_of(st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.2, 0.999)]),
                           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted)),
           scale=st.one_of(st.sampled_from([(0.8, 2.0), (1.0, 1.0), (3.0, 6.0), (1e-3, 1e4)]),
                           st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2).map(sorted)),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_step_by_step_equals_one_shot_bitwise(self, steps, layers, heads, block_size,
                                                  blocks, head_dim, kappa, scale, seed):
        cfg = TraceConfig(layers=layers, heads=heads, tokens=block_size * blocks,
                          head_dim=head_dim, steps=steps, block_size=block_size,
                          kappa_range=tuple(kappa), scale_range=tuple(scale),
                          velocity_shape=(1, 1, 1), seed=seed)
        data = payload(generate_trace(cfg))
        assert data.dtype == np.float32
        assert data.tobytes() == one_shot_payload(cfg).tobytes()


class TestAccessors:
    def test_index_arrays_gather_per_head_copies(self, default_trace):
        cfg = default_trace.config
        layers = np.array([3, 0, 0, 2, 3])
        heads = np.array([5, 0, 4, 1, 5])
        for name in ("q", "k", "v"):
            accessor = getattr(default_trace, name)
            gathered = accessor(7, layers, heads)
            assert gathered.dtype == np.float64
            assert gathered.shape == (5, cfg.tokens, cfg.head_dim)
            expected = np.stack([accessor(7, l, h) for l, h in zip(layers, heads)])
            np.testing.assert_array_equal(gathered, expected)
            grid = accessor(7, np.arange(cfg.layers)[:, None], np.arange(cfg.heads))
            assert grid.shape == (cfg.layers, cfg.heads, cfg.tokens, cfg.head_dim)
            np.testing.assert_array_equal(grid[2, 3], accessor(7, 2, 3))


class TestTraceMemory:
    """Writing holds one float32 step beside the float64 AR(1) state and noise;
    reading holds one step (tracemalloc sees numpy's buffers)."""

    CONFIG = TraceConfig(layers=2, heads=4, tokens=32, head_dim=8, steps=40, block_size=4,
                         velocity_shape=(2, 2, 2), seed=3)
    STEP = 2 * 4 * 3 * 32 * 8 * 4  # bytes of one float32 step
    SLACK = 64 * 1024

    def test_write_holds_one_step(self, tmp_path):
        peaks = []
        for steps in (8, 32):
            path = tmp_path / f"t{steps}.satr"
            _, peak = traced_peak(write_trace, dataclasses.replace(self.CONFIG, steps=steps), path)
            assert path.stat().st_size == _HEADER.size + steps * self.STEP
            # One float32 step, the float64 state and noise (two steps each),
            # and numpy's buffer of 8192 float64 for the cast into the step.
            assert peak <= 5 * self.STEP + 8192 * 8 + self.SLACK
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < self.STEP

    def test_read_holds_one_step(self, tmp_path):
        path = tmp_path / "t.satr"
        write_trace(self.CONFIG, path)

        def read_every_step(path):
            with read_trace(path) as trace:
                return [trace.step(t).nbytes for t in range(trace.config.steps)]

        sizes, peak = traced_peak(read_every_step, path)
        assert sizes == [self.STEP] * self.CONFIG.steps
        assert peak <= self.STEP + self.SLACK


class TestPinnedBytes:
    """SATR bytes recorded before the generator wrote each step as it drew it.

    Repeats within one version cannot see a generator change that moves
    every trace; these hashes can.
    """

    QUICKSTART = TraceConfig(layers=2, heads=3, tokens=16, steps=6, block_size=4)
    MANY_HEADS = TraceConfig(layers=4, heads=16, tokens=32, head_dim=8, steps=40, block_size=4,
                             velocity_shape=(4, 4, 4), seed=3)

    @pytest.mark.parametrize("config, sha256", [
        (QUICKSTART, "0af5b4887100f9b0d05af61efe174296178ca0b26cdbc6f183f18fcd2e840c44"),
        (MANY_HEADS, "73616e153247026b121419e276d9a5d94539bbcf5da461d0889627d0d0f247a0"),
    ], ids=["quickstart", "many-heads-seed-3"])
    def test_bytes_match_the_recorded_hash(self, tmp_path, config, sha256):
        path = tmp_path / "trace.satr"
        write_trace(config, path)
        raw = path.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == sha256
        assert payload(generate_trace(config)).tobytes() == raw[_HEADER.size:]


class FailingWriter:
    """An open temp file whose writes fail, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(28, "No space left on device")


class TestAtomicWrites:
    @pytest.fixture()
    def failing_open(self, monkeypatch):
        monkeypatch.setattr(runio, "open", lambda path, mode: FailingWriter(builtins.open(path, mode)),
                            raising=False)

    def test_failed_trace_write_leaves_no_files(self, tmp_path, small_config, failing_open):
        with pytest.raises(OSError, match="No space left"):
            write_trace(small_config, tmp_path / "trace.satr")
        assert os.listdir(tmp_path) == []

    def test_failed_byte_write_keeps_old_file(self, tmp_path, failing_open):
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        with pytest.raises(OSError, match="No space left"):
            runio.atomic_write_bytes(path, b"new")
        assert os.listdir(tmp_path) == ["out.json"]
        assert path.read_bytes() == b"old"

    def test_failed_rename_removes_temp_file(self, tmp_path, small_config, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(runio.os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_trace(small_config, tmp_path / "trace.satr")
        with pytest.raises(PermissionError):
            runio.atomic_write_bytes(tmp_path / "out.json", b"{}")
        assert os.listdir(tmp_path) == []


class TestTraceFile:
    def test_round_trip(self, tmp_path, small_trace):
        path = tmp_path / "trace.satr"
        write_trace(small_trace.config, path)
        with read_trace(path) as back:
            assert back.config == small_trace.config
            for t in range(back.config.steps):
                np.testing.assert_array_equal(back.step(t), small_trace.step(t))

    def test_magic_bytes(self, tmp_path, small_config):
        path = tmp_path / "trace.satr"
        write_trace(small_config, path)
        assert path.read_bytes()[:4] == TRACE_MAGIC

    def test_byte_identical_rewrites(self, tmp_path, small_config):
        p1 = tmp_path / "a.satr"
        p2 = tmp_path / "b.satr"
        write_trace(small_config, p1)
        write_trace(small_config, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.satr"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_rejects_truncated_payload(self, tmp_path, small_config):
        path = tmp_path / "trace.satr"
        write_trace(small_config, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    @pytest.mark.parametrize("cut, message", [
        (lambda raw: raw + b"\0" * 4, "payload is {n_plus_4} bytes, expected {n}"),
        (lambda raw: raw[:-1], "payload is {n_minus_1} bytes, expected {n}"),
        (lambda raw: raw[:_HEADER.size], "payload is 0 bytes, expected {n}"),
        (lambda raw: raw[:_HEADER.size - 1], "truncated header"),
        (lambda raw: b"", "truncated header"),
    ], ids=["trailing-bytes", "short-payload", "header-only", "short-header", "empty"])
    def test_size_errors_name_the_sizes(self, tmp_path, small_trace, cut, message):
        path = tmp_path / "trace.satr"
        write_trace(small_trace.config, path)
        n = payload(small_trace).nbytes
        path.write_bytes(cut(path.read_bytes()))
        expected = message.format(n=n, n_plus_4=n + 4, n_minus_1=n - 1)
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(info.value) == f"{path}: {expected}"

    def test_rejects_a_file_that_is_not_regular(self):
        with pytest.raises(TraceFormatError, match="not a regular file"):
            read_trace(os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_rejects_a_fifo_without_waiting_for_a_writer(self, tmp_path):
        path = tmp_path / "trace.satr"
        os.mkfifo(path)

        def hung(signum, frame):
            raise AssertionError("read_trace waited for a writer")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(TraceFormatError, match="not a regular file"):
                read_trace(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_read_array_is_writable(self, tmp_path, small_trace):
        path = tmp_path / "trace.satr"
        write_trace(small_trace.config, path)
        with read_trace(path) as back:
            for t in range(back.config.steps):
                step = back.step(t)
                assert step.flags.writeable and step.flags.c_contiguous
                assert step.dtype == np.dtype("<f4")
                step[:, :, 2] = 0.0
                assert not back.v(t, 0, 0).any()
                np.testing.assert_array_equal(step[:, :, :2], small_trace.step(t)[:, :, :2])
        # Writing to a step changes nothing on disk.
        with read_trace(path) as again:
            np.testing.assert_array_equal(again.step(0), small_trace.step(0))

    def test_rejects_payload_size_that_overflows_int64(self, tmp_path):
        # 2**16 layers, heads, tokens and steps: an int64 product of the
        # payload size wraps to 0 and would accept a header-only file.
        big = 2 ** 16
        path = tmp_path / "huge.satr"
        path.write_bytes(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, big, big, big, 1, big, 1,
                                      1, 1, 1, 0.2, 0.9, 0.8, 2.0, 0))
        with pytest.raises(TraceFormatError, match="expected"):
            read_trace(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(counts=st.lists(st.one_of(st.integers(0, 4), st.sampled_from([2 ** 16, 2 ** 32 - 1]),
                                     st.integers(0, 2 ** 32 - 1)), min_size=9, max_size=9),
           ranges=st.lists(st.floats(width=32), min_size=4, max_size=4),
           payload=st.binary(max_size=64))
    def test_fuzzed_header_reads_or_fails_cleanly(self, tmp_path, counts, ranges, payload):
        path = tmp_path / "fuzz.satr"
        path.write_bytes(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, *counts, *ranges, 7) + payload)
        try:
            trace = read_trace(path)
        except TraceFormatError:
            return
        layers, heads, tokens, head_dim, steps = counts[:5]
        with trace:
            assert trace.config.steps == steps
            assert trace.step(steps - 1).shape == (layers, heads, 3, tokens, head_dim)


NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])
POISON_CONFIG = TraceConfig(layers=2, heads=3, tokens=4, head_dim=2, steps=3, block_size=2,
                            velocity_shape=(2, 2, 2), seed=8)


def poisoned_trace(tmp_path, index, value):
    """POISON_CONFIG's SATR file with one payload float, at flat ``index``, set to ``value``."""
    path = tmp_path / "poisoned.satr"
    write_trace(POISON_CONFIG, path)
    raw = bytearray(path.read_bytes())
    np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)[index] = value
    path.write_bytes(bytes(raw))
    return path


class TestNonFinitePayload:
    """A read that meets a NaN or inf payload value raises TraceFormatError naming the trace."""

    @NON_FINITE
    @pytest.mark.parametrize("index, step, layer, head", [(0, 0, 0, 0), (-1, 2, 1, 2)],
                             ids=["first", "last"])
    def test_step_and_accessors_fail(self, tmp_path, value, index, step, layer, head):
        path = poisoned_trace(tmp_path, index, value)
        clean = generate_trace(POISON_CONFIG)
        with read_trace(path) as trace:
            # A failed read keeps nothing, so asking again fails again.
            for read in (trace.step, trace.step, lambda t: trace.q(t, layer, head),
                         lambda t: trace.k(t, layer, head), lambda t: trace.v(t, layer, head)):
                with pytest.raises(TraceFormatError) as info:
                    read(step)
                assert str(info.value) == f"{path}: step {step} holds a value that is not finite"
            other = 2 - step
            np.testing.assert_array_equal(trace.step(other), clean.step(other))

    @NON_FINITE
    @pytest.mark.parametrize("index, layer, head", [
        (0, 0, 0),
        # The last K value of the last head at the last step; V follows it.
        (-POISON_CONFIG.tokens * POISON_CONFIG.head_dim - 1, 1, 2),
    ], ids=["first", "last-key"])
    def test_head_qk_fails(self, tmp_path, value, index, layer, head):
        path = poisoned_trace(tmp_path, index, value)
        clean = generate_trace(POISON_CONFIG)
        with read_trace(path) as trace:
            with pytest.raises(TraceFormatError) as info:
                trace.head_qk(layer, head)
            assert str(info.value) == \
                f"{path}: head ({layer}, {head}) holds a value that is not finite"
            for got, expected in zip(trace.head_qk(1 - layer, head),
                                     clean.head_qk(1 - layer, head)):
                np.testing.assert_array_equal(got, expected)


class TestSurrogateModel:
    def test_deterministic_given_seed(self, default_config):
        a = SurrogateModel.from_config(default_config)
        b = SurrogateModel.from_config(default_config)
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_output_displacement_within_lipschitz_bound(self, small_config, rng):
        # tanh is 1-Lipschitz, so the projection's spectral norm bounds the map.
        model = SurrogateModel.from_config(small_config)
        bound = np.linalg.norm(model.weight, 2)
        cfg = small_config
        for _ in range(20):
            a = rng.standard_normal((cfg.heads, cfg.tokens, cfg.head_dim))
            b = rng.standard_normal((cfg.heads, cfg.tokens, cfg.head_dim))
            lhs = np.linalg.norm(model.field(model.project(a)) - model.field(model.project(b)))
            rhs = bound * np.linalg.norm(a - b)
            assert lhs <= rhs + 1e-12


class TestDenseForward:
    def test_zero_values_give_bias_field(self, small_config, tmp_path):
        trace = DenoiseTrace(io.BytesIO(zero_values_satr(small_config, tmp_path)), "zero V")
        pipe = ForwardPipeline(trace)
        np.testing.assert_array_equal(pipe.dense_forward(0), pipe.model.field(pipe.model.bias))

    def test_zero_values_of_a_read_trace_give_bias_field(self, small_config, tmp_path):
        (tmp_path / "trace.satr").write_bytes(zero_values_satr(small_config, tmp_path))
        with read_trace(tmp_path / "trace.satr") as trace:
            pipe = ForwardPipeline(trace)
            for t in range(small_config.steps):
                np.testing.assert_array_equal(pipe.dense_forward(t),
                                              pipe.model.field(pipe.model.bias))

    def test_cache_hit_flag_and_identity(self, small_trace):
        pipe = ForwardPipeline(small_trace)
        first = pipe.dense_forward(1)
        assert pipe.last_dense_cached is False
        second = pipe.dense_forward(1)
        assert pipe.last_dense_cached is True
        np.testing.assert_array_equal(first, second)

    def test_pure_across_pipeline_instances(self, small_trace):
        a = ForwardPipeline(small_trace).dense_forward(2)
        b = ForwardPipeline(small_trace).dense_forward(2)
        np.testing.assert_array_equal(a, b)

    def test_step_out_of_range(self, small_trace):
        pipe = ForwardPipeline(small_trace)
        with pytest.raises(DomainError):
            pipe.dense_forward(small_trace.config.steps)

    def test_two_token_hand_propagation(self):
        # Single head, two tokens: propagate softmax attention and the seeded
        # projection by hand, independent of the pipeline code path.
        cfg = TraceConfig(layers=1, heads=1, tokens=2, head_dim=2, steps=1,
                          block_size=1, velocity_shape=(2, 2, 2), seed=3)
        trace = generate_trace(cfg)
        q, k, v = trace.q(0, 0, 0), trace.k(0, 0, 0), trace.v(0, 0, 0)
        expected_out = np.zeros((2, 2))
        for i in range(2):
            logits = [float(q[i] @ k[j]) / math.sqrt(2.0) for j in range(2)]
            m = max(logits)
            weights = [math.exp(x - m) for x in logits]
            total = sum(weights)
            for j in range(2):
                expected_out[i] += (weights[j] / total) * v[j]
        model = SurrogateModel.from_config(cfg)
        flat = expected_out.reshape(-1)
        expected_field = np.tanh(model.weight @ flat + model.bias).reshape((2, 2, 2))
        pipe = ForwardPipeline(trace, model)
        np.testing.assert_allclose(pipe.dense_forward(0), expected_field, rtol=1e-12)


class TestSparseForward:
    def test_full_masks_equal_dense_bitwise(self, default_pipeline):
        pipe = default_pipeline
        cfg = pipe.trace.config
        masks = {
            (l, h): BlockMask(np.ones(cfg.grid.total_blocks, dtype=bool))
            for l in range(cfg.layers) for h in range(cfg.heads)
        }
        dense = pipe.dense_forward(2)
        sparse = pipe.sparse_forward(2, masks)
        np.testing.assert_array_equal(sparse, dense)

    def test_top_p_tau_one_equals_dense_bitwise(self, default_pipeline):
        pipe = default_pipeline
        cfg = pipe.trace.config
        masks = {}
        for l in range(cfg.layers):
            for h in range(cfg.heads):
                masks[(l, h)] = top_p_select(pipe.scores(3, l, h), 1.0)
                assert masks[(l, h)].count == cfg.grid.total_blocks
        np.testing.assert_array_equal(pipe.sparse_forward(3, masks), pipe.dense_forward(3))

    def test_diagonal_only_mask_perturbs_output(self, default_pipeline):
        pipe = default_pipeline
        grid = pipe.trace.config.grid
        retained = np.zeros(grid.total_blocks, dtype=bool)
        for i in range(grid.blocks_per_side):
            retained[i * grid.blocks_per_side + i] = True
        sparse = pipe.sparse_forward(0, {(0, 0): BlockMask(retained)})
        dense = pipe.dense_forward(0)
        assert float(np.abs(sparse - dense).max()) > 0

    def test_absent_heads_stay_dense(self, default_pipeline):
        sparse = default_pipeline.sparse_forward(1, {})
        np.testing.assert_array_equal(sparse, default_pipeline.dense_forward(1))

    def test_grid_mismatch_rejected(self, default_pipeline):
        with pytest.raises(ShapeMismatch):
            default_pipeline.sparse_forward(0, {(0, 0): BlockMask(np.ones(5, bool))})


class TestMaskedAttention:
    def test_fully_blocked_rows_emit_zeros(self, rng):
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        allow = np.ones((4, 4), dtype=bool)
        allow[2, :] = False
        out = masked_attention(q, k, v, allow[None], [0])[0]
        np.testing.assert_array_equal(out[2], np.zeros(3))
        assert np.abs(out[[0, 1, 3]]).min() >= 0.0

    def test_matches_explicit_softmax(self, rng):
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        allow = rng.random((5, 5)) < 0.7
        allow[:, 0] = True
        out = masked_attention(q, k, v, allow[None], [0])[0]
        for i in range(5):
            logits = np.array([
                float(q[i] @ k[j]) / math.sqrt(4.0) if allow[i, j] else -np.inf
                for j in range(5)
            ])
            weights = np.exp(logits - logits[np.isfinite(logits)].max())
            weights[~np.isfinite(logits)] = 0.0
            probs = weights / weights.sum()
            np.testing.assert_allclose(out[i], probs @ v, rtol=1e-10, atol=1e-12)
