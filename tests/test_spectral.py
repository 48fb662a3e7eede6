import math

import numpy as np
import pytest

from satool.errors import DomainError, ShapeMismatch
from satool.spectral import (
    REGIONS,
    BandWeights,
    band_energy_ratios,
    band_partition,
    band_perturbation,
    perturbation_study,
    psnr,
    weighted_error,
)


@pytest.fixture(scope="module")
def partition():
    return band_partition((8, 8, 8))


class TestBandPartition:
    def test_dc_bin_is_ll(self):
        for fracs in ((0.5, 0.5), (0.25, 0.9), (1.0, 1.0)):
            part = band_partition((8, 8, 8), *fracs)
            assert part.labels[0, 0, 0] == REGIONS.index("LL")

    def test_temporal_nyquist_is_high(self, partition):
        # Natural layout: the bin at index T/2 carries |f_t| = T/2 > T/4.
        assert partition.labels[4, 0, 0] in (REGIONS.index("HL"), REGIONS.index("HH"))
        assert partition.labels[4, 0, 0] == REGIONS.index("HL")

    def test_labels_cover_grid_and_regions_nonempty(self, partition):
        counts = partition.counts()
        assert sum(counts.values()) == 512
        assert all(v > 0 for v in counts.values())

    def test_label_counts_match_enumeration(self, partition):
        # Independent oracle: classify every bin by looping over frequencies.
        expected = {r: 0 for r in REGIONS}
        for it in range(8):
            for ih in range(8):
                for iw in range(8):
                    ft = it if it <= 4 else it - 8
                    fh = ih if ih <= 4 else ih - 8
                    fw = iw if iw <= 4 else iw - 8
                    t_low = abs(ft) <= 0.5 * 4
                    s_low = max(abs(fh) / 4, abs(fw) / 4) <= 0.5
                    name = ("L" if t_low else "H") + ("L" if s_low else "H")
                    expected[name] += 1
        assert partition.counts() == expected

    def test_labels_symmetric_under_negation(self, partition):
        # Negating a frequency f -> -f maps array index i -> (-i) mod n.
        labels = partition.labels
        neg = labels[np.ix_(*(np.mod(-np.arange(n), n) for n in labels.shape))]
        np.testing.assert_array_equal(neg, labels)

    def test_rejects_bad_fracs(self):
        with pytest.raises(DomainError):
            band_partition((8, 8, 8), temporal_frac=0.0)
        with pytest.raises(DomainError):
            band_partition((8, 8, 8), spatial_frac=1.5)


class TestBandEnergyRatios:
    def test_zero_error_gives_zero_ratios(self, partition, rng):
        ref = rng.standard_normal((8, 8, 8))
        np.testing.assert_array_equal(
            band_energy_ratios(np.zeros((8, 8, 8)), ref, partition), np.zeros(4)
        )

    def test_error_equal_reference_sums_to_one(self, partition, rng):
        ref = rng.standard_normal((8, 8, 8))
        ratios = band_energy_ratios(ref, ref, partition)
        assert ratios.sum() == pytest.approx(1.0, abs=1e-6)

    def test_low_frequency_cosine_lands_in_ll(self, partition, rng):
        # Synthesize a cosine at a known low bin in every axis.
        t, h, w = np.meshgrid(np.arange(8), np.arange(8), np.arange(8), indexing="ij")
        err = np.cos(2 * np.pi * (t + h + w) / 8.0)
        ratios = band_energy_ratios(err, rng.standard_normal((8, 8, 8)), partition)
        assert ratios[REGIONS.index("LL")] / ratios.sum() > 0.999

    def test_parseval_partition_identity(self, partition, rng):
        for _ in range(20):
            x = rng.standard_normal((8, 8, 8))
            power = np.abs(np.fft.fftn(x)) ** 2
            total = power.sum()
            parts = sum(power[partition.labels == i].sum() for i in range(4))
            assert abs(parts - total) <= 1e-9 * total

    def test_quadratic_scaling(self, partition, rng):
        err = rng.standard_normal((8, 8, 8))
        ref = rng.standard_normal((8, 8, 8))
        base = band_energy_ratios(err, ref, partition)
        for s in (0.5, 2.0, 7.0):
            scaled = band_energy_ratios(s * err, ref, partition)
            np.testing.assert_allclose(scaled, s * s * base, rtol=1e-9)

    def test_shape_mismatch(self, partition):
        with pytest.raises(ShapeMismatch):
            band_energy_ratios(np.zeros((4, 4, 4)), np.zeros((8, 8, 8)), partition)

    @pytest.mark.parametrize("error_shape, reference_shape", [
        ((3, 8, 8, 4), (8, 8, 8)),
        ((3, 8, 8, 8), (8, 8, 4)),
        ((8, 8), (8, 8, 8)),
        ((3, 8, 8, 8), (2, 8, 8, 8)),
    ], ids=["error-trailing", "reference-trailing", "too-few-axes", "batches-differ"])
    def test_batched_shape_mismatch(self, partition, error_shape, reference_shape):
        with pytest.raises(ShapeMismatch):
            band_energy_ratios(np.zeros(error_shape), np.zeros(reference_shape), partition)

    @pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
    @pytest.mark.parametrize("shape", [(8, 8, 8), (3, 2, 4)])
    def test_batched_equals_per_field_calls(self, rng, lead, shape):
        part = band_partition(shape)
        errors = rng.standard_normal(lead + shape)
        references = rng.standard_normal(lead + shape)
        weights = BandWeights(0.7, 0.2, 0.05, 0.3)
        shared = band_energy_ratios(errors, references[(0,) * len(lead)], part)
        own = band_energy_ratios(errors, references, part)
        assert shared.shape == own.shape == lead + (4,)
        batched_error = weighted_error(own, weights)
        assert batched_error.shape == lead
        for index in np.ndindex(*lead):
            single = band_energy_ratios(errors[index], references[index], part)
            np.testing.assert_array_equal(own[index], single)
            np.testing.assert_array_equal(
                shared[index],
                band_energy_ratios(errors[index], references[(0,) * len(lead)], part))
            np.testing.assert_allclose(batched_error[index], weighted_error(single, weights),
                                       rtol=1e-15, atol=0)


class TestWeightedError:
    def test_zero_ratios(self):
        assert weighted_error(np.zeros(4)) == 0.0

    def test_unit_weights_sum(self, rng):
        ratios = rng.random(4)
        assert weighted_error(ratios, np.ones(4)) == pytest.approx(ratios.sum())

    def test_hand_dot_product(self):
        value = weighted_error(np.array([0.4, 0.2, 0.1, 0.1]), BandWeights())
        assert value == pytest.approx(0.502)

    def test_linear_in_weights_monotone_in_ratios(self, rng):
        ratios = rng.random(4)
        w1, w2 = rng.random(4), rng.random(4)
        lhs = weighted_error(ratios, 2.0 * w1 + w2)
        rhs = 2.0 * weighted_error(ratios, w1) + weighted_error(ratios, w2)
        assert lhs == pytest.approx(rhs)
        bumped = ratios.copy()
        bumped[2] += 0.1
        assert weighted_error(bumped, w1) >= weighted_error(ratios, w1)

    def test_ratios_need_four_bands_on_the_last_axis(self):
        for shape in [(3,), (4, 3), ()]:
            with pytest.raises(ShapeMismatch):
                weighted_error(np.zeros(shape))
        assert isinstance(weighted_error(np.zeros(4)), float)
        assert weighted_error(np.zeros((2, 4))).shape == (2,)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            weighted_error(np.zeros(4), np.array([1.0, -0.1, 0.0, 0.0]))
        with pytest.raises(DomainError):
            BandWeights(ll=-1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(DomainError, match="band weights must be finite"):
            BandWeights(hl=bad)
        with pytest.raises(DomainError, match="band weights must be finite"):
            weighted_error(np.zeros(4), np.array([1.0, bad, 0.0, 0.0]))


class TestBandPerturbation:
    def test_alpha_zero_is_zero_field(self, partition, rng):
        ref = rng.standard_normal((8, 8, 8))
        np.testing.assert_array_equal(
            band_perturbation(ref, "LL", 0.0, seed=0, partition=partition),
            np.zeros((8, 8, 8)),
        )

    def test_norm_ratio_and_confinement(self, partition, rng):
        ref = rng.standard_normal((8, 8, 8))
        for region in REGIONS:
            delta = band_perturbation(ref, region, 0.1, seed=3, partition=partition)
            ratio = np.linalg.norm(delta) / np.linalg.norm(ref)
            assert ratio == pytest.approx(0.1, abs=1e-6)
            power = np.abs(np.fft.fftn(delta)) ** 2
            leak = power[partition.labels != REGIONS.index(region)].sum()
            assert leak <= 1e-10 * power.sum()

    def test_hermitian_construction_real_inverse(self, partition, rng):
        # Rebuild the masked spectrum and check the raw inverse transform is
        # real before the .real projection the library applies.
        gen = np.random.default_rng(np.random.SeedSequence([9, 404, REGIONS.index("LH")]))
        noise = gen.standard_normal((8, 8, 8))
        spectrum = np.fft.fftn(noise) * partition.mask("LH")
        raw = np.fft.ifftn(spectrum)
        assert np.abs(raw.imag).max() <= 1e-10 * max(np.abs(raw.real).max(), 1e-300)

    def test_distinct_regions_orthogonal(self, partition, rng):
        # Disjoint spectral supports make cross-region inner products exactly
        # zero up to fp; the per-seed bound implies the mean-over-seeds claim.
        ref = rng.standard_normal((8, 8, 8))
        for seed in range(32):
            deltas = {
                r: band_perturbation(ref, r, 0.2, seed=seed, partition=partition)
                for r in REGIONS
            }
            for i, ra in enumerate(REGIONS):
                for rb in REGIONS[i + 1:]:
                    ip = float(np.sum(deltas[ra] * deltas[rb]))
                    bound = 1e-10 * np.linalg.norm(deltas[ra]) * np.linalg.norm(deltas[rb])
                    assert abs(ip) <= bound

    def test_zero_reference_rejected(self, partition):
        with pytest.raises(DomainError):
            band_perturbation(np.zeros((8, 8, 8)), "LL", 0.1, seed=0, partition=partition)


class TestPsnr:
    def test_identical_fields_are_infinite(self, rng):
        x = rng.standard_normal((4, 4, 4))
        assert psnr(x, x, peak=1.0) == math.inf

    def test_zero_db_when_mse_equals_peak_squared(self):
        a = np.zeros((2, 2, 2))
        b = np.full((2, 2, 2), 3.0)
        assert psnr(a, b, peak=3.0) == pytest.approx(0.0)

    def test_closed_form(self):
        a = np.zeros(1000)
        b = np.full(1000, math.sqrt(1e-3))
        assert psnr(a, b, peak=1.0) == pytest.approx(30.0)

    def test_invalid_peak(self):
        with pytest.raises(DomainError):
            psnr(np.zeros(3), np.zeros(3), peak=0.0)


class TestPerturbationStudy:
    def test_alpha_zero_reports_no_degradation(self, default_pipeline):
        rows = perturbation_study(default_pipeline, 0.0, seeds=[0], steps=range(3))
        assert len(rows) == 4
        for row in rows:
            assert row.rel_l2 == 0.0
            assert row.psnr_db == math.inf
            assert row.norm_ratio == 0.0

    def test_row_layout_and_ratio_column(self, default_pipeline):
        rows = perturbation_study(default_pipeline, 0.05, seeds=[0, 1], steps=range(4))
        assert len(rows) == 8
        per_region = {r: 0 for r in REGIONS}
        for row in rows:
            per_region[row.region] += 1
            assert row.norm_ratio == pytest.approx(0.05, abs=1e-6)
            assert row.rel_l2 > 0.0
            assert np.isfinite(row.psnr_db)
        assert all(v == 2 for v in per_region.values())
