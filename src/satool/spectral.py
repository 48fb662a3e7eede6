"""Four-band 3D-FFT decomposition of velocity-field error and controlled in-band perturbations.

The shifted spectrum of a (T, H, W) field is split into four regions by a
temporal cut and a spatial max-norm box: LL, LH, HL, HH, where the first letter
is the temporal band and the second the spatial band.  Region labels depend
only on |frequency| per axis, so they are symmetric under frequency negation
and masking a real field's spectrum by one region preserves conjugate symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch

REGIONS = ("LL", "LH", "HL", "HH")
DEFAULT_STABILIZER = 1e-8

_PERTURB_STREAM = 404

# Largest norm ratio the perturbation study takes; past about 1e150 its squared errors overflow.
MAX_ALPHA = 1e6


@dataclass(frozen=True)
class BandWeights:
    ll: float = 1.0
    lh: float = 0.5
    hl: float = 0.01
    hh: float = 0.01

    def __post_init__(self):
        w = self.as_array()
        if not (np.isfinite(w).all() and (w >= 0).all()):
            raise DomainError(f"band weights must be finite and nonnegative, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.ll, self.lh, self.hl, self.hh], dtype=np.float64)


@dataclass(frozen=True)
class BandPartition:
    """Per-frequency-bin region labels (0..3 in REGIONS order), natural FFT layout."""

    shape: tuple[int, int, int]
    temporal_frac: float
    spatial_frac: float
    labels: np.ndarray

    def mask(self, region: str) -> np.ndarray:
        return self.labels == REGIONS.index(region)

    def counts(self) -> dict[str, int]:
        return {r: int((self.labels == i).sum()) for i, r in enumerate(REGIONS)}


def band_partition(shape, temporal_frac: float = 0.5, spatial_frac: float = 0.5) -> BandPartition:
    """Label every FFT bin of a (T, H, W) field as LL/LH/HL/HH.

    A bin is temporally low iff |f_t| <= temporal_frac * (T/2); spatially low
    iff max(|f_h| / (H/2), |f_w| / (W/2)) <= spatial_frac.
    """
    shape = tuple(int(v) for v in shape)
    if len(shape) != 3 or any(v <= 0 for v in shape):
        raise DomainError(f"expected three positive dimensions, got {shape}")
    if not (0.0 < temporal_frac <= 1.0) or not (0.0 < spatial_frac <= 1.0):
        raise DomainError("band cut fractions must lie in (0, 1]")
    nt, nh, nw = shape
    ft = np.abs(np.fft.fftfreq(nt) * nt)
    fh = np.abs(np.fft.fftfreq(nh) * nh)
    fw = np.abs(np.fft.fftfreq(nw) * nw)
    t_low = ft <= temporal_frac * (nt / 2.0)
    s_low = (
        np.maximum(fh[:, None] / (nh / 2.0), fw[None, :] / (nw / 2.0)) <= spatial_frac
    )
    labels = (
        2 * (~t_low[:, None, None]).astype(np.uint8)
        + (~s_low[None, :, :]).astype(np.uint8)
    )
    return BandPartition(
        shape=shape, temporal_frac=float(temporal_frac), spatial_frac=float(spatial_frac),
        labels=labels,
    )


def band_energy_ratios(error: np.ndarray, reference: np.ndarray,
                       partition: BandPartition,
                       stabilizer: float = DEFAULT_STABILIZER) -> np.ndarray:
    """Band-wise spectral error energy normalized by total reference spectral energy.

    Returns the four ratios in REGIONS order:
    r_q = sum_{bins in region q} |FFT(error)|^2 / (sum |FFT(reference)|^2 + stabilizer).
    Both fields are (..., T, H, W); leading axes are independent fields and
    broadcast against each other, and the result is (..., 4).  Each field's
    ratios are those of transforming it alone, and a reference without
    leading axes is transformed once for every error field.
    """
    error = np.asarray(error)
    reference = np.asarray(reference)
    if error.shape[-3:] != partition.shape or reference.shape[-3:] != partition.shape:
        raise ShapeMismatch(
            f"fields must end in partition shape {partition.shape}, "
            f"got {error.shape} and {reference.shape}"
        )
    try:
        np.broadcast_shapes(error.shape[:-3], reference.shape[:-3])
    except ValueError as exc:
        raise ShapeMismatch(f"field batches {error.shape} and {reference.shape} differ") from exc
    axes = (-3, -2, -1)
    err_power = (np.abs(np.fft.fftn(error, axes=axes)) ** 2).reshape(*error.shape[:-3], -1)
    ref_power = (np.abs(np.fft.fftn(reference, axes=axes)) ** 2).reshape(*reference.shape[:-3], -1)
    denom = ref_power.sum(axis=-1) + stabilizer
    labels = partition.labels.reshape(-1)
    # ``take`` keeps each field's bins contiguous, so every band sums in the
    # order of a lone field's.
    bands = np.stack([np.take(err_power, np.flatnonzero(labels == i), axis=-1).sum(axis=-1)
                      for i in range(4)], axis=-1)
    return bands / denom[..., None]


def weighted_error(ratios, weights: BandWeights | None = None):
    """Weighted sum of the four band energy ratios.

    ``ratios`` is (..., 4); one set of ratios gives a float, leading axes
    give an array of that shape.
    """
    if weights is None:
        weights = BandWeights()
    elif not isinstance(weights, BandWeights):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (4,):
            raise ShapeMismatch(f"expected four band weights, got shape {w.shape}")
        weights = BandWeights(*w.tolist())
    w = weights.as_array()
    r = np.asarray(ratios, dtype=np.float64)
    if r.shape[-1:] != (4,):
        raise ShapeMismatch(f"expected four band ratios, got shape {r.shape}")
    total = r @ w
    return float(total) if r.ndim == 1 else total


def band_perturbation(reference: np.ndarray, region: str, alpha: float, seed: int,
                      partition: BandPartition | None = None) -> np.ndarray:
    """Seeded real-valued perturbation confined to one frequency region.

    Built by restricting the spectrum of seeded white noise to the region and
    inverse-transforming; the result is rescaled so its L2 norm is exactly
    alpha times the reference norm.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if partition is None:
        partition = band_partition(reference.shape)
    if reference.shape != partition.shape:
        raise ShapeMismatch(
            f"reference shape {reference.shape} does not match partition {partition.shape}"
        )
    if region not in REGIONS:
        raise DomainError(f"region must be one of {REGIONS}, got {region!r}")
    if alpha == 0.0:
        return np.zeros(partition.shape)
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise DomainError("relative perturbation is undefined for an all-zero reference")
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), _PERTURB_STREAM, REGIONS.index(region)])
    )
    noise = rng.standard_normal(partition.shape)
    # Region masks are symmetric under frequency negation, so the masked
    # spectrum stays Hermitian and the inverse transform is real up to fp.
    spectrum = np.fft.fftn(noise) * partition.mask(region)
    delta = np.fft.ifftn(spectrum).real
    norm = float(np.linalg.norm(delta))
    if norm == 0.0:
        raise DomainError(f"region {region} produced a degenerate perturbation")
    return delta * (alpha * ref_norm / norm)


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the fields are identical."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if peak <= 0:
        raise DomainError(f"peak must be positive, got {peak}")
    mse = float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


@dataclass
class StudyRow:
    region: str
    alpha: float
    seed: int
    norm_ratio: float
    psnr_db: float
    rel_l2: float


def perturbation_study(pipeline, alpha: float, seeds, steps=None,
                       partition: BandPartition | None = None) -> list[StudyRow]:
    """Equal-relative-magnitude in-band perturbations of the dense velocities.

    For each region and seed, every measured step's dense velocity receives an
    independent in-band perturbation with norm ratio alpha.  Degradation is
    reported on the step-integrated output (the sum of per-step velocities,
    i.e. the accumulated trajectory), as PSNR and relative L2 against the
    unperturbed integral; norm_ratio echoes the per-step input-side ratio.
    """
    if not (0.0 <= alpha <= MAX_ALPHA):
        raise DomainError(f"alpha must lie in [0, {MAX_ALPHA:g}], got {alpha}")
    seeds = list(seeds)
    if not seeds or min(seeds) < 0:
        raise DomainError(f"need at least one seed and no negative seed, got {seeds}")
    cfg = pipeline.trace.config
    if steps is None:
        steps = range(cfg.steps)
    steps = list(steps)
    if not steps:
        raise DomainError("the perturbation study needs at least one step")
    if partition is None:
        partition = band_partition(cfg.velocity_shape)
    dense = [pipeline.dense_forward(t) for t in steps]
    reference = np.sum(dense, axis=0)
    peak = float(np.abs(reference).max())
    rows: list[StudyRow] = []
    for region in REGIONS:
        for seed in seeds:
            total_delta = np.zeros(partition.shape)
            ratios = []
            for idx, t in enumerate(steps):
                if alpha == 0.0:
                    ratios.append(0.0)
                    continue
                delta = band_perturbation(
                    dense[idx], region, alpha,
                    seed=int(seed) * 1_000_003 + t, partition=partition,
                )
                ratios.append(float(np.linalg.norm(delta) / np.linalg.norm(dense[idx])))
                total_delta += delta
            rows.append(StudyRow(
                region=region,
                alpha=float(alpha),
                seed=int(seed),
                norm_ratio=float(np.mean(ratios)) if ratios else 0.0,
                psnr_db=psnr(reference + total_delta, reference, peak=peak if peak > 0 else 1.0),
                rel_l2=float(np.linalg.norm(total_delta) / np.linalg.norm(reference)),
            ))
    return rows
