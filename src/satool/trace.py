"""Synthetic denoising trajectories with controllable per-head temporal stability.

A trace holds query/key/value matrices for every (step, layer, head).  Features
follow a unit-variance AR(1) blend ``X_t = kappa * X_{t-1} + sqrt(1 - kappa^2) * xi_t``
so that per-head smoothness is tunable: ``kappa = 1`` freezes a head across steps,
``kappa = 0`` redraws it independently at every step.  Each head draws its own
smoothness ``kappa`` and feature scale from seeded config ranges, which makes
temporal stability and score peakedness heterogeneous across heads.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .blocksparse import BlockGrid
from .errors import ConfigError, DomainError, TraceFormatError
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


@dataclass
class DenoiseTrace:
    """Per-(step, layer, head) Q/K/V features, stored float32.

    ``data`` has shape (steps, layers, heads, 3, tokens, head_dim) with the
    tensor axis ordered Q, K, V.  Accessors return float64 copies so downstream
    arithmetic runs in double precision.  ``q``, ``k`` and ``v`` also take
    index arrays for ``layer`` and ``head``, broadcast together: they gather
    those heads into one (..., tokens, head_dim) copy, whose entries equal
    the per-head calls bitwise.
    """

    config: TraceConfig
    data: np.ndarray

    def q(self, step: int, layer: int, head: int) -> np.ndarray:
        return self.data[step, layer, head, 0].astype(np.float64)

    def k(self, step: int, layer: int, head: int) -> np.ndarray:
        return self.data[step, layer, head, 1].astype(np.float64)

    def v(self, step: int, layer: int, head: int) -> np.ndarray:
        return self.data[step, layer, head, 2].astype(np.float64)

    def head_qk(self, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
        """One head's Q and K over all steps, each (steps, tokens, head_dim) float64.

        Both come from a single float64 copy; ``q[step]`` equals ``self.q(step, ...)``.
        """
        qk = self.data[:, layer, head, :2].astype(np.float64)
        return qk[:, 0], qk[:, 1]

    def check_step(self, step: int) -> None:
        if not (0 <= step < self.config.steps):
            raise DomainError(f"step {step} out of range [0, {self.config.steps})")


def generate_trace(config: TraceConfig) -> DenoiseTrace:
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
    return DenoiseTrace(config=config, data=data)


def write_trace(trace: DenoiseTrace, path: str | os.PathLike) -> None:
    """Write the little-endian SATR container (header + f32 payload), atomically."""
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
    payload = np.ascontiguousarray(trace.data, dtype="<f4")
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def read_trace(path: str | os.PathLike) -> DenoiseTrace:
    """Read a SATR file into one writable float32 array, copying the payload once.

    The header and the payload size, taken from the file size, are checked
    before anything is allocated; the payload is then read straight into
    the array.  ``path`` must name a regular file.
    """
    with open(path, "rb") as fh:
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
            config = TraceConfig(
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
        data = np.empty(shape, dtype="<f4")
        size = fh.readinto(memoryview(data).cast("B"))
    if size != expected:
        raise TraceFormatError(f"{path}: payload is {size} bytes, expected {expected}")
    return DenoiseTrace(config=config, data=data)
