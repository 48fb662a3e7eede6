"""Synthetic denoising trajectories with controllable per-head temporal stability.

A trace holds query/key/value matrices for every (step, layer, head).  Features
follow a unit-variance AR(1) blend ``X_t = kappa * X_{t-1} + sqrt(1 - kappa^2) * xi_t``
so that per-head smoothness is tunable: ``kappa = 1`` freezes a head across steps,
``kappa = 0`` redraws it independently at every step.  Each head draws its own
smoothness ``kappa`` and feature scale from seeded config ranges, which makes
temporal stability and score peakedness heterogeneous across heads.

A generated trace holds its whole payload in memory; a trace read from a
SATR file leaves the payload on disk and reads it a step at a time.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .blocksparse import BlockGrid
from .errors import ConfigError, DomainError, ShapeMismatch, StateError, TraceFormatError
from .runio import atomic_open

TRACE_MAGIC = b"SATR"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sI9I4fQ")

# Independent seed streams derived from the config seed.
_HEAD_STREAM = 101
_NOISE_STREAM = 202
_MODEL_STREAM = 303

# Largest surrogate projection (velocity values x fan-in) a config may name:
# 2**28 float64 weights is 2 GiB.  Checked before anything is allocated, so a
# header naming a huge field fails cleanly instead of exhausting memory.
MAX_PROJECTION_ELEMENTS = 2 ** 28

# Every count is stored as a u32 in the SATR header.
MAX_COUNT = 2 ** 32 - 1


def _f32(x: float) -> float:
    # Range floats round-trip through the f32 header fields; normalize up front
    # so a written-and-reloaded config is bit-identical to the original.
    return float(np.float32(x))


@dataclass(frozen=True)
class TraceConfig:
    layers: int = 4
    heads: int = 6
    tokens: int = 64
    head_dim: int = 16
    steps: int = 50
    block_size: int = 8
    kappa_range: tuple[float, float] = (0.2, 0.999)
    scale_range: tuple[float, float] = (0.8, 2.0)
    velocity_shape: tuple[int, int, int] = (8, 8, 8)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kappa_range", tuple(_f32(v) for v in self.kappa_range))
        object.__setattr__(self, "scale_range", tuple(_f32(v) for v in self.scale_range))
        object.__setattr__(self, "velocity_shape", tuple(int(v) for v in self.velocity_shape))
        self.validate()

    def validate(self) -> None:
        for name in ("layers", "heads", "tokens", "head_dim", "steps", "block_size"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
            if value > MAX_COUNT:
                raise ConfigError(f"{name} must be at most {MAX_COUNT} (u32), got {value}")
        if self.tokens % self.block_size != 0:
            raise ConfigError(
                f"tokens ({self.tokens}) must be divisible by block size ({self.block_size})"
            )
        lo, hi = self.kappa_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(f"kappa range must satisfy 0 <= lo <= hi <= 1, got {self.kappa_range}")
        slo, shi = self.scale_range
        if not (0.0 < slo <= shi):
            raise ConfigError(f"scale range must satisfy 0 < lo <= hi, got {self.scale_range}")
        if len(self.velocity_shape) != 3 or any(v <= 0 for v in self.velocity_shape):
            raise ConfigError(f"velocity shape must be three positive counts, got {self.velocity_shape}")
        if any(v > MAX_COUNT for v in self.velocity_shape):
            raise ConfigError(
                f"velocity shape counts must be at most {MAX_COUNT} (u32), got {self.velocity_shape}"
            )
        weights = math.prod(self.velocity_shape) * self.feature_count
        if weights > MAX_PROJECTION_ELEMENTS:
            raise ConfigError(
                f"surrogate projection needs {weights} weights "
                f"(velocity values x tokens x heads x head_dim); the limit is "
                f"{MAX_PROJECTION_ELEMENTS}"
            )
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    @property
    def grid(self) -> BlockGrid:
        return BlockGrid(tokens=self.tokens, block_size=self.block_size)

    @property
    def feature_count(self) -> int:
        """Fan-in of the velocity projection: tokens * heads * head_dim."""
        return self.tokens * self.heads * self.head_dim


def head_parameters(config: TraceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-head (kappa, scale) arrays of shape (layers, heads), seeded by config."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _HEAD_STREAM]))
    shape = (config.layers, config.heads)
    kappa = rng.uniform(config.kappa_range[0], config.kappa_range[1], size=shape)
    scale = rng.uniform(config.scale_range[0], config.scale_range[1], size=shape)
    return kappa, scale


class DenoiseTrace:
    """Per-(step, layer, head) Q/K/V features, stored float32 and served a step at a time.

    ``step(t)`` is step t's float32 ``(layers, heads, 3, tokens, head_dim)``
    array, with the tensor axis ordered Q, K, V.  Accessors return float64
    copies so downstream arithmetic runs in double precision.  ``q``, ``k``
    and ``v`` also take index arrays for ``layer`` and ``head``, broadcast
    together: they gather those heads into one (..., tokens, head_dim) copy,
    whose entries equal the per-head calls bitwise.  A trace is a context
    manager; ``close()`` releases what it holds open.
    """

    config: TraceConfig

    def step(self, t: int) -> np.ndarray:
        """Step t's float32 (layers, heads, 3, tokens, head_dim) array."""
        raise NotImplementedError

    def _head_slabs(self, layer: int, head: int) -> np.ndarray:
        """One head's float32 Q and K over all steps, (steps, 2, tokens, head_dim)."""
        raise NotImplementedError

    def q(self, step: int, layer: int, head: int) -> np.ndarray:
        return self.step(step)[layer, head, 0].astype(np.float64)

    def k(self, step: int, layer: int, head: int) -> np.ndarray:
        return self.step(step)[layer, head, 1].astype(np.float64)

    def v(self, step: int, layer: int, head: int) -> np.ndarray:
        return self.step(step)[layer, head, 2].astype(np.float64)

    def head_qk(self, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
        """One head's Q and K over all steps, each (steps, tokens, head_dim) float64.

        Both come from a single float64 copy; ``q[step]`` equals ``self.q(step, ...)``.
        """
        c = self.config
        if not (0 <= layer < c.layers and 0 <= head < c.heads):
            raise ShapeMismatch(f"head ({layer}, {head}) outside {c.layers}x{c.heads}")
        qk = self._head_slabs(layer, head).astype(np.float64)
        return qk[:, 0], qk[:, 1]

    def check_step(self, step: int) -> None:
        if not (0 <= step < self.config.steps):
            raise DomainError(f"step {step} out of range [0, {self.config.steps})")

    def close(self) -> None:
        pass

    def __enter__(self) -> DenoiseTrace:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InMemoryTrace(DenoiseTrace):
    """A trace whose whole payload is one array: ``data[t]`` is ``step(t)``.

    ``data`` has shape (steps, layers, heads, 3, tokens, head_dim).
    """

    def __init__(self, config: TraceConfig, data: np.ndarray):
        self.config = config
        self.data = data

    def step(self, t: int) -> np.ndarray:
        self.check_step(t)
        return self.data[t]

    def _head_slabs(self, layer: int, head: int) -> np.ndarray:
        return self.data[:, layer, head, :2]


class TraceFile(DenoiseTrace):
    """A trace over an open SATR file that holds only the step read last.

    ``step(t)`` reads step t with one seek and ``readinto`` into a fresh
    array and drops the step before it; asking for the same step again
    reads nothing.  ``head_qk`` reads only that head's Q/K slab of each
    step.  A read that finds the file shorter than its header says raises
    TraceFormatError naming both sizes; any read after ``close()`` raises
    StateError.
    """

    def __init__(self, config: TraceConfig, file: BinaryIO, path: str | os.PathLike):
        self.config = config
        self.path = path
        self._file = file
        c = config
        self._step_shape = (c.layers, c.heads, 3, c.tokens, c.head_dim)
        self._step_bytes = math.prod(self._step_shape) * 4
        self._current: tuple[int, np.ndarray] | None = None

    def _read_into(self, offset: int, out: np.ndarray) -> None:
        """Fill ``out`` from the payload bytes that start ``offset`` bytes in."""
        if self._file.closed:
            raise StateError(f"{self.path}: the trace file is closed")
        view = memoryview(out).cast("B")
        self._file.seek(_HEADER.size + offset)
        got = 0
        while got < len(view):
            count = self._file.readinto(view[got:])
            if not count:
                size = os.fstat(self._file.fileno()).st_size - _HEADER.size
                expected = self._step_bytes * self.config.steps
                raise TraceFormatError(
                    f"{self.path}: payload is {size} bytes, expected {expected}")
            got += count

    def step(self, t: int) -> np.ndarray:
        self.check_step(t)
        if self._current is None or self._current[0] != t:
            self._current = None  # drop the old step before the new one is allocated
            data = np.empty(self._step_shape, dtype="<f4")
            self._read_into(t * self._step_bytes, data)
            self._current = (t, data)
        return self._current[1]

    def _head_slabs(self, layer: int, head: int) -> np.ndarray:
        c = self.config
        slabs = np.empty((c.steps, 2, c.tokens, c.head_dim), dtype="<f4")
        start = (layer * c.heads + head) * 3 * c.tokens * c.head_dim * 4
        for t in range(c.steps):
            self._read_into(t * self._step_bytes + start, slabs[t])
        return slabs

    def close(self) -> None:
        self._current = None
        self._file.close()


def generate_trace(config: TraceConfig) -> InMemoryTrace:
    """Deterministically generate a trace; same (config, seed) gives identical bytes.

    The float32 payload is allocated once and filled step by step from one
    float64 AR(1) state and one float64 noise buffer.  Each step's noise is
    the next slice of the seeded stream, so the bytes equal drawing every
    step's noise at once.
    """
    config.validate()
    kappa, scale = head_parameters(config)
    c = config
    rng = np.random.default_rng(np.random.SeedSequence([c.seed, _NOISE_STREAM]))
    data = np.empty((c.steps, c.layers, c.heads, 3, c.tokens, c.head_dim), dtype=np.float32)
    blend = kappa[:, :, None, None, None]
    fresh = np.sqrt(1.0 - blend ** 2)
    scale = scale[:, :, None, None, None]
    state = rng.standard_normal(data.shape[1:])
    noise = np.empty_like(state)
    np.multiply(state, scale, out=noise)
    data[0] = noise
    for t in range(1, c.steps):
        rng.standard_normal(out=noise)
        state *= blend
        noise *= fresh
        state += noise
        np.multiply(state, scale, out=noise)
        data[t] = noise
    return InMemoryTrace(config, data)


def write_trace(trace: DenoiseTrace, path: str | os.PathLike) -> None:
    """Write the little-endian SATR container (header + f32 payload), atomically.

    The payload is written one step at a time, from either kind of trace.
    """
    c = trace.config
    header = _HEADER.pack(
        TRACE_MAGIC,
        TRACE_VERSION,
        c.layers,
        c.heads,
        c.tokens,
        c.head_dim,
        c.steps,
        c.block_size,
        c.velocity_shape[0],
        c.velocity_shape[1],
        c.velocity_shape[2],
        c.kappa_range[0],
        c.kappa_range[1],
        c.scale_range[0],
        c.scale_range[1],
        c.seed,
    )
    with atomic_open(path) as fh:
        fh.write(header)
        for t in range(c.steps):
            payload = np.ascontiguousarray(trace.step(t), dtype="<f4")
            fh.write(memoryview(payload).cast("B"))


def read_trace(path: str | os.PathLike) -> TraceFile:
    """Open a SATR file as a trace that reads its payload a step at a time.

    The header and the payload size, taken from the file size, are checked
    before the trace is returned; the payload stays on disk.  ``path`` must
    name a regular file.  Use the trace in a ``with`` block, or ``close()``
    it, to close the file.
    """
    fh = open(path, "rb", buffering=0)
    try:
        return TraceFile(_read_header(fh, path), fh, path)
    except BaseException:
        fh.close()
        raise


def _read_header(fh: BinaryIO, path: str | os.PathLike) -> TraceConfig:
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        raise TraceFormatError(f"{path}: not a regular file")
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    fields = _HEADER.unpack(head)
    magic, version = fields[0], fields[1]
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    layers, heads, tokens, head_dim, steps, block_size, vt, vh, vw = fields[2:11]
    kmin, kmax, smin, smax = fields[11:15]
    seed = fields[15]
    shape = (steps, layers, heads, 3, tokens, head_dim)
    # Python ints: a numpy product of header counts wraps at 2**64.
    expected = math.prod(shape) * 4
    size = info.st_size - _HEADER.size
    if size != expected:
        raise TraceFormatError(f"{path}: payload is {size} bytes, expected {expected}")
    try:
        return TraceConfig(
            layers=layers,
            heads=heads,
            tokens=tokens,
            head_dim=head_dim,
            steps=steps,
            block_size=block_size,
            kappa_range=(kmin, kmax),
            scale_range=(smin, smax),
            velocity_shape=(vt, vh, vw),
            seed=seed,
        )
    except ConfigError as exc:
        raise TraceFormatError(f"{path}: invalid header config: {exc}") from exc
