"""Four-band 3D-FFT decomposition of velocity-field error and controlled in-band perturbations.

The shifted spectrum of a (T, H, W) field is split into four regions by a
temporal cut and a spatial max-norm box, both at half the Nyquist frequency:
LL, LH, HL, HH, where the first letter is the temporal band and the second
the spatial band.  Region labels depend only on |frequency| per axis, so they
are symmetric under frequency negation and masking a real field's spectrum by
one region preserves conjugate symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch

REGIONS = ("LL", "LH", "HL", "HH")
# Band cut, as a fraction of the Nyquist frequency, on the temporal axis and
# on the spatial max-norm.
BAND_CUT = 0.5
# Added to the reference energy so an all-zero reference gives finite ratios.
STABILIZER = 1e-8

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
    labels: np.ndarray

    def mask(self, region: str) -> np.ndarray:
        return self.labels == REGIONS.index(region)


def band_partition(shape) -> BandPartition:
    """Label every FFT bin of a (T, H, W) field as LL/LH/HL/HH.

    A bin is temporally low iff |f_t| <= BAND_CUT * (T/2); spatially low
    iff max(|f_h| / (H/2), |f_w| / (W/2)) <= BAND_CUT.
    """
    shape = tuple(int(v) for v in shape)
    if len(shape) != 3 or any(v <= 0 for v in shape):
        raise DomainError(f"expected three positive dimensions, got {shape}")
    nt, nh, nw = shape
    ft = np.abs(np.fft.fftfreq(nt) * nt)
    fh = np.abs(np.fft.fftfreq(nh) * nh)
    fw = np.abs(np.fft.fftfreq(nw) * nw)
    t_low = ft <= BAND_CUT * (nt / 2.0)
    s_low = np.maximum(fh[:, None] / (nh / 2.0), fw[None, :] / (nw / 2.0)) <= BAND_CUT
    labels = (
        2 * (~t_low[:, None, None]).astype(np.uint8)
        + (~s_low[None, :, :]).astype(np.uint8)
    )
    return BandPartition(shape=shape, labels=labels)


def band_energy_ratios(error: np.ndarray, reference: np.ndarray,
                       partition: BandPartition) -> np.ndarray:
    """Band-wise spectral error energy normalized by total reference spectral energy.

    Returns the four ratios in REGIONS order:
    r_q = sum_{bins in region q} |FFT(error)|^2 / (sum |FFT(reference)|^2 + STABILIZER).
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
    denom = ref_power.sum(axis=-1) + STABILIZER
    labels = partition.labels.reshape(-1)
    # ``take`` keeps each field's bins contiguous, so every band sums in the
    # order of a lone field's.
    bands = np.stack([np.take(err_power, np.flatnonzero(labels == i), axis=-1).sum(axis=-1)
                      for i in range(4)], axis=-1)
    return bands / denom[..., None]


def weighted_error(ratios, weights: BandWeights | None = None):
    """Weighted sum of the four band energy ratios.

    ``ratios`` is (..., 4); one set of ratios gives a float, leading axes
    give an array of that shape, each entry the bits of its ratios alone.
    """
    if weights is None:
        weights = BandWeights()
    w = weights.as_array()
    r = np.asarray(ratios, dtype=np.float64)
    if r.shape[-1:] != (4,):
        raise ShapeMismatch(f"expected four band ratios, got shape {r.shape}")
    # A sum that overflows is inf, which CalibrationProblem rejects.
    with np.errstate(over="ignore"):
        total = (r * w).sum(axis=-1)
    return float(total) if r.ndim == 1 else total


def band_perturbation(reference: np.ndarray, region: str, alpha: float, seeds,
                      partition: BandPartition | None = None) -> np.ndarray:
    """Seeded real-valued perturbations confined to one frequency region.

    ``reference`` is a stack (n, T, H, W) of fields with one seed per field.
    Each field's seeded white noise is restricted to the region by one
    batched transform, each field's bits those of transforming it alone, and
    rescaled so its L2 norm is exactly alpha times its reference's norm.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    reference = np.asarray(reference)
    if partition is None:
        partition = band_partition(reference.shape[-3:])
    if reference.ndim != 4 or reference.shape[1:] != partition.shape:
        raise ShapeMismatch(
            f"reference shape {reference.shape} does not match partition {partition.shape}"
        )
    seeds = list(seeds)
    if len(seeds) != len(reference):
        raise ShapeMismatch(f"{len(reference)} reference fields need as many seeds, got {seeds}")
    if region not in REGIONS:
        raise DomainError(f"region must be one of {REGIONS}, got {region!r}")
    if alpha == 0.0:
        return np.zeros(reference.shape)
    ref_norms = [float(np.linalg.norm(field)) for field in reference]
    if 0.0 in ref_norms:
        raise DomainError("relative perturbation is undefined for an all-zero reference")
    noise = np.empty(reference.shape)
    for row, field_seed in zip(noise, seeds):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(field_seed), _PERTURB_STREAM, REGIONS.index(region)]))
        rng.standard_normal(out=row)
    # Region masks are symmetric under frequency negation, so the masked
    # spectrum stays Hermitian and the inverse transform is real up to fp.
    axes = (-3, -2, -1)
    spectrum = np.fft.fftn(noise, axes=axes) * partition.mask(region)
    delta = np.fft.ifftn(spectrum, axes=axes).real
    for row, ref_norm in zip(delta, ref_norms):
        norm = float(np.linalg.norm(row))
        if norm == 0.0:
            raise DomainError(f"region {region} produced a degenerate perturbation")
        row *= alpha * ref_norm / norm
    return delta


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


def perturbation_study(pipeline, alpha: float, seeds, steps=None) -> list[StudyRow]:
    """Equal-relative-magnitude in-band perturbations of the dense velocities.

    For each region and seed, every measured step's dense velocity receives an
    independent in-band perturbation with norm ratio alpha.  Degradation is
    reported on the step-integrated output (the sum of per-step velocities,
    i.e. the accumulated trajectory), as PSNR and relative L2 against the
    unperturbed integral; norm_ratio echoes the per-step input-side ratio.
    Each step may be listed once, and the summed reference must not be all
    zero, whatever ``alpha``.  Each (region, seed) is one
    ``band_perturbation`` call on the stack of step fields, step ``t``
    seeded ``seed * 1_000_003 + t``.
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
    if len(set(steps)) != len(steps):
        raise DomainError(f"the perturbation study lists each step at most once, got {steps}")
    partition = band_partition(cfg.velocity_shape)
    dense = np.array([pipeline.dense_forward(t) for t in steps])
    reference = dense.sum(axis=0)
    reference_norm = np.linalg.norm(reference)
    if reference_norm == 0.0:
        raise DomainError("relative L2 is undefined for an all-zero step-integrated reference")
    peak = float(np.abs(reference).max())
    ref_norms = [float(np.linalg.norm(field)) for field in dense]
    rows: list[StudyRow] = []
    for region in REGIONS:
        for seed in seeds:
            deltas = band_perturbation(dense, region, alpha,
                                       [seed * 1_000_003 + t for t in steps], partition)
            # At alpha 0 every delta is zero, and a step's reference may be too.
            ratios = [float(np.linalg.norm(delta) / ref_norm) if alpha else 0.0
                      for delta, ref_norm in zip(deltas, ref_norms)]
            total_delta = deltas.sum(axis=0)
            rows.append(StudyRow(
                region=region,
                alpha=float(alpha),
                seed=int(seed),
                norm_ratio=float(np.mean(ratios)),
                psnr_db=psnr(reference + total_delta, reference, peak=peak),
                rel_l2=float(np.linalg.norm(total_delta) / reference_norm),
            ))
    return rows
