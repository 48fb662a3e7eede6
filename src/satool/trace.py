"""Synthetic denoising trajectories with controllable per-head temporal stability.

A trace holds query/key/value matrices for every (step, layer, head).  Features
follow a unit-variance AR(1) blend ``X_t = kappa * X_{t-1} + sqrt(1 - kappa^2) * xi_t``
so that per-head smoothness is tunable: ``kappa = 1`` freezes a head across steps,
``kappa = 0`` redraws it independently at every step.  Each head draws its own
smoothness ``kappa`` and feature scale from seeded config ranges, which makes
temporal stability and score peakedness heterogeneous across heads.

Every trace is SATR bytes in a seekable stream, read a step at a time:
``read_trace`` opens a file, and ``generate_trace`` draws into memory.
``write_trace`` draws straight into a file, one step at a time.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .blocksparse import BlockGrid
from .errors import ConfigError, DomainError, ShapeMismatch, StateError, TraceFormatError
from .runio import atomic_open, regular_file_fd

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

# Largest feature scale.  Features are the scale times a unit-variance AR(1)
# state, stored as float32, whose largest finite value is about 2**128.  Up
# to 2**64 a feature overflows only for a state beyond 2**64, which no normal
# draw comes near, and a product of two features (an attention logit) stays
# far inside float64.  One inf feature would turn every later output NaN.
MAX_SCALE = 2.0 ** 64


def _f32(x: float) -> float:
    # Range floats round-trip through the f32 header fields; normalize up front
    # so a written-and-reloaded config is bit-identical to the original.  A
    # value beyond float32's range becomes inf, which validate rejects.
    with np.errstate(over="ignore"):
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
        if not (0.0 < slo <= shi <= MAX_SCALE):
            raise ConfigError(
                f"scale range must satisfy 0 < lo <= hi <= 2**64, got {self.scale_range}")
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
    """Per-(step, layer, head) Q/K/V features over a seekable stream of SATR bytes.

    The header and the payload size, taken from the stream's end, are
    checked before any payload is read.  ``step(t)`` reads step t's float32
    ``(layers, heads, 3, tokens, head_dim)`` array, tensor axis ordered Q,
    K, V, with one seek and ``readinto`` into a fresh array, and drops the
    step before it; asking for the same step again reads nothing.
    ``head_qk`` reads only that head's Q/K slab of each step.  Accessors
    return float64 copies so downstream arithmetic runs in double
    precision.  ``q``, ``k`` and ``v`` also take index arrays for ``layer``
    and ``head``, broadcast together: they gather those heads into one
    (..., tokens, head_dim) copy, whose entries equal the per-head calls
    bitwise.  A read that finds the stream shorter than its header says
    raises TraceFormatError naming both sizes.  A step, or a head's slabs
    of every step, holding a NaN or inf value raises TraceFormatError when
    read; any read after ``close()`` raises StateError.  A trace is a
    context manager; ``close()`` closes the stream.
    """

    def __init__(self, stream: BinaryIO, name: str | os.PathLike):
        self.name = name
        self._stream = stream
        self.config = _read_header(stream, name)
        c = self.config
        self._step_shape = (c.layers, c.heads, 3, c.tokens, c.head_dim)
        self._step_bytes = math.prod(self._step_shape) * 4
        self._current: tuple[int, np.ndarray] | None = None

    def _read_into(self, offset: int, out: np.ndarray) -> None:
        """Fill ``out`` from the payload bytes that start ``offset`` bytes in."""
        if self._stream.closed:
            raise StateError(f"{self.name}: the trace is closed")
        view = memoryview(out).cast("B")
        self._stream.seek(_HEADER.size + offset)
        got = 0
        while got < len(view):
            count = self._stream.readinto(view[got:])
            if not count:
                size = self._stream.seek(0, io.SEEK_END) - _HEADER.size
                expected = self._step_bytes * self.config.steps
                raise TraceFormatError(
                    f"{self.name}: payload is {size} bytes, expected {expected}")
            got += count

    def _check_finite(self, data: np.ndarray, what: str) -> None:
        if not np.isfinite(data).all():
            raise TraceFormatError(f"{self.name}: {what} holds a value that is not finite")

    def step(self, t: int) -> np.ndarray:
        """Step t's float32 (layers, heads, 3, tokens, head_dim) array."""
        self.check_step(t)
        if self._current is None or self._current[0] != t:
            self._current = None  # drop the old step before the new one is allocated
            data = np.empty(self._step_shape, dtype="<f4")
            self._read_into(t * self._step_bytes, data)
            self._check_finite(data, f"step {t}")
            self._current = (t, data)
        return self._current[1]

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
        slabs = np.empty((c.steps, 2, c.tokens, c.head_dim), dtype="<f4")
        start = (layer * c.heads + head) * 3 * c.tokens * c.head_dim * 4
        for t in range(c.steps):
            self._read_into(t * self._step_bytes + start, slabs[t])
        self._check_finite(slabs, f"head ({layer}, {head})")
        qk = slabs.astype(np.float64)
        return qk[:, 0], qk[:, 1]

    def check_step(self, step: int) -> None:
        if not (0 <= step < self.config.steps):
            raise DomainError(f"step {step} out of range [0, {self.config.steps})")

    def close(self) -> None:
        self._current = None
        self._stream.close()

    def __enter__(self) -> DenoiseTrace:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _draw(config: TraceConfig, out: BinaryIO) -> None:
    """Write the SATR header, then each float32 step as soon as it is drawn.

    One float64 AR(1) state and one float64 noise buffer carry the
    trajectory, and one float32 step is written at a time.  Each step's
    noise is the next slice of the seeded stream, so the bytes equal drawing
    every step's noise at once.
    """
    config.validate()
    c = config
    kappa, scale = head_parameters(c)
    rng = np.random.default_rng(np.random.SeedSequence([c.seed, _NOISE_STREAM]))
    blend = kappa[:, :, None, None, None]
    fresh = np.sqrt(1.0 - blend ** 2)
    scale = scale[:, :, None, None, None]
    out.write(_HEADER.pack(
        TRACE_MAGIC, TRACE_VERSION, c.layers, c.heads, c.tokens, c.head_dim, c.steps,
        c.block_size, *c.velocity_shape, *c.kappa_range, *c.scale_range, c.seed))
    step = np.empty((c.layers, c.heads, 3, c.tokens, c.head_dim), dtype="<f4")
    state = rng.standard_normal(step.shape)
    noise = np.empty_like(state)
    for t in range(c.steps):
        if t:
            rng.standard_normal(out=noise)
            state *= blend
            noise *= fresh
            state += noise
        np.multiply(state, scale, out=step)
        out.write(memoryview(step).cast("B"))


def generate_trace(config: TraceConfig) -> DenoiseTrace:
    """Deterministically generate a trace in memory; same (config, seed) gives identical bytes.

    The SATR bytes ``write_trace`` would write go into an ``io.BytesIO``,
    and the trace reads them as ``read_trace`` reads a file.
    """
    stream = io.BytesIO()
    _draw(config, stream)
    return DenoiseTrace(stream, "<generated trace>")


def write_trace(config: TraceConfig, path: str | os.PathLike) -> None:
    """Generate the trace of ``config`` into a little-endian SATR file, atomically.

    Each step is written as soon as it is drawn, so writing holds one step.
    """
    with atomic_open(path) as fh:
        _draw(config, fh)


def read_trace(path: str | os.PathLike) -> DenoiseTrace:
    """Open a SATR file as a trace that reads its payload a step at a time.

    ``path`` must name a regular file.  Use the trace in a ``with`` block,
    or ``close()`` it, to close the file.
    """
    fh = open(regular_file_fd(path, TraceFormatError), "rb", buffering=0)
    try:
        return DenoiseTrace(fh, path)
    except BaseException:
        fh.close()
        raise


def _read_header(stream: BinaryIO, name: str | os.PathLike) -> TraceConfig:
    stream.seek(0)
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise TraceFormatError(f"{name}: truncated header")
    fields = _HEADER.unpack(head)
    magic, version = fields[0], fields[1]
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"{name}: bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise TraceFormatError(f"{name}: unsupported version {version}")
    layers, heads, tokens, head_dim, steps, block_size, vt, vh, vw = fields[2:11]
    kmin, kmax, smin, smax = fields[11:15]
    seed = fields[15]
    shape = (steps, layers, heads, 3, tokens, head_dim)
    # Python ints: a numpy product of header counts wraps at 2**64.
    expected = math.prod(shape) * 4
    size = stream.seek(0, io.SEEK_END) - _HEADER.size
    if size != expected:
        raise TraceFormatError(f"{name}: payload is {size} bytes, expected {expected}")
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
        raise TraceFormatError(f"{name}: invalid header config: {exc}") from exc
