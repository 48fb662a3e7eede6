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
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .blocksparse import BlockGrid
from .errors import ConfigError, DomainError, TraceFormatError

TRACE_MAGIC = b"SATR"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sI9I4fQ")

# Independent seed streams derived from the config seed.
_HEAD_STREAM = 101
_NOISE_STREAM = 202
_MODEL_STREAM = 303


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
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
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
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    @property
    def grid(self) -> BlockGrid:
        return BlockGrid(tokens=self.tokens, block_size=self.block_size)

    @property
    def feature_count(self) -> int:
        """Fan-in of the velocity projection: tokens * heads * head_dim."""
        return self.tokens * self.heads * self.head_dim

    def with_kappa(self, kappa: float) -> "TraceConfig":
        return replace(self, kappa_range=(kappa, kappa))


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
    arithmetic runs in double precision.
    """

    config: TraceConfig
    data: np.ndarray
    kappa: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)

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
    """Deterministically generate a trace; same (config, seed) gives identical bytes."""
    config.validate()
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
    return DenoiseTrace(config=config, data=feats.astype(np.float32), kappa=kappa, scale=scale)


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
    payload = np.ascontiguousarray(trace.data, dtype="<f4").tobytes()
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)


def read_trace(path: str | os.PathLike) -> DenoiseTrace:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    fields = _HEADER.unpack_from(raw)
    magic, version = fields[0], fields[1]
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    layers, heads, tokens, head_dim, steps, block_size, vt, vh, vw = fields[2:11]
    kmin, kmax, smin, smax = fields[11:15]
    seed = fields[15]
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
    shape = (steps, layers, heads, 3, tokens, head_dim)
    # Python ints: a numpy product of header counts wraps at 2**64.
    expected = math.prod(shape) * 4
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise TraceFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    kappa, scale = head_parameters(config)
    return DenoiseTrace(config=config, data=data, kappa=kappa, scale=scale)
