"""Periodized Meyer basis: Fourier-domain closed forms, frequency sets,
orthonormality, and analysis/synthesis round trips."""

import math

import numpy as np
import pytest

from lrdeconv.errors import ConfigError, MissingFrequencyError
from lrdeconv.fourier import FourierSeries, coeffs_to_grid
from lrdeconv.meyer import (
    SUPPORT_TOL,
    MeyerSpec,
    WaveletCoefficients,
    _level_cache,
    _level_window,
    analyze,
    frequency_set,
    meyer_aux,
    needed_band,
    periodized_coeff,
    scaling_ft,
    synthesize_series,
    wavelet_ft,
)

SPEC = MeyerSpec(3, 7)

# frozen oracle: cos(pi/2 * nu(3 * 2.5/(2 pi) - 1)) at 50-digit precision
PHI_HAT_2_5 = 0.9989018305856063933183046
# frozen oracle: sin(pi/2 * nu(3 * 3.0/(2 pi) - 1))
PSI_ABS_3_0 = 0.5288951949178606221938121

# frozen oracle: time-domain quadrature <cos(2 pi 5 t), basis_{j,k}> computed
# from psi*/phi* tables built by numeric inversion of their continuous Fourier
# transforms (1/8192-step lattice over [-700, 700], 2^16-point periodic
# trapezoid); fully independent of the package's Fourier-domain path.
QUADRATURE_COS5 = {
    ("b", 3, 0): -0.135292527897,
    ("b", 3, 2): 0.326625055736,
    ("b", 3, 5): 0.135292527897,
    ("b", 4, 1): 0.0,
    ("a", 3, 0): 0.003464803092,
    ("a", 3, 4): -0.003464803092,
}


def hermitian_series(band, rng, top=None):
    values = np.zeros(2 * band + 1, dtype=complex)
    top = band if top is None else top
    for m in range(1, top + 1):
        c = rng.normal() + 1j * rng.normal()
        values[band + m] = c
        values[band - m] = np.conj(c)
    values[band] = rng.normal()
    return FourierSeries(band, values)


class TestAuxiliary:
    def test_boundary_values(self):
        assert meyer_aux(-0.5) == 0.0
        assert meyer_aux(1.2) == 1.0

    @pytest.mark.parametrize("aux", ["poly7", "poly3"])
    def test_partition_identity(self, aux):
        x = np.linspace(0, 1, 501)
        assert meyer_aux(x, aux) + meyer_aux(1 - x, aux) == pytest.approx(
            np.ones_like(x), abs=1e-12
        )

    def test_unknown_aux(self):
        with pytest.raises(ConfigError):
            meyer_aux(0.5, "poly9")


class TestClosedForms:
    def test_scaling_normalization(self):
        assert scaling_ft(SPEC, 0.0) == 1.0

    def test_scaling_outside_support(self):
        assert scaling_ft(SPEC, 3 * math.pi) == 0.0
        assert scaling_ft(SPEC, -9.0) == 0.0

    def test_scaling_frozen_value(self):
        assert scaling_ft(SPEC, 2.5) == pytest.approx(PHI_HAT_2_5, abs=1e-12)

    def test_wavelet_support(self):
        assert wavelet_ft(SPEC, math.pi / 4) == 0.0
        assert wavelet_ft(SPEC, 4 * math.pi) == 0.0

    def test_wavelet_frozen_value(self):
        assert abs(wavelet_ft(SPEC, 3.0)) == pytest.approx(PSI_ABS_3_0, abs=1e-12)

    def test_partition_of_unity(self):
        # |phi_hat(w)|^2 + sum_{j>=0} |psi_hat(2^-j w)|^2 = 1
        omega = np.linspace(0.05, 8 * math.pi, 500)
        total = scaling_ft(SPEC, omega) ** 2
        for j in range(0, 14):
            total = total + np.abs(wavelet_ft(SPEC, omega / 2 ** j)) ** 2
        assert total == pytest.approx(np.ones_like(omega), abs=1e-10)

    def test_two_scale_identity(self):
        omega = np.linspace(0.0, 8 * math.pi / 3, 400)
        lhs = scaling_ft(SPEC, omega) ** 2 + np.abs(wavelet_ft(SPEC, omega)) ** 2
        assert lhs == pytest.approx(scaling_ft(SPEC, omega / 2) ** 2, abs=1e-12)


class TestFrequencySets:
    def test_level0_window(self):
        members = frequency_set(SPEC, 0).members
        assert set(members) <= set(range(-4, 5))
        assert 0 not in members

    @pytest.mark.parametrize("j", range(0, 9))
    def test_cardinality_bound(self, j):
        assert len(frequency_set(SPEC, j)) <= math.ceil(4 * math.pi * 2 ** j) + 2

    @pytest.mark.parametrize("j", range(0, 9))
    def test_angular_window(self, j):
        m = frequency_set(SPEC, j).members
        assert np.all((2 ** j < 3 * np.abs(m)) & (3 * np.abs(m) < 2 ** (j + 2)))

    @pytest.mark.parametrize("j", range(0, 7))
    def test_brute_force_scan(self, j):
        scan = [m for m in range(-2 ** (j + 3), 2 ** (j + 3) + 1)
                if abs(periodized_coeff(SPEC, j, 0, m)) > 1e-14]
        assert list(frequency_set(SPEC, j).members) == scan

    def test_needed_band_is_the_widest_member(self):
        # largest |m| with a window above SUPPORT_TOL, scanned level by level
        def widest(j, window):
            m = np.arange(0, 2 ** (j + 2) + 1)
            return int(m[np.abs(window(SPEC, 2 * np.pi * m / 2 ** j)) > SUPPORT_TOL].max())

        scaling = [widest(j, scaling_ft) for j in range(15)]
        detail = [widest(j, wavelet_ft) for j in range(15)]
        for J in range(15):
            for j0 in range(J + 1):
                expected = max([scaling[j0]] + detail[j0:J])
                assert needed_band(MeyerSpec(j0, J)) == expected, (j0, J)

    def test_only_adjacent_levels_overlap(self):
        sets = {j: set(frequency_set(SPEC, j).members.tolist()) for j in range(0, 9)}
        for j in range(0, 9):
            for jp in range(j + 2, 9):
                assert not sets[j] & sets[jp]
        assert sets[3] & sets[4]


class TestLevelCache:
    """One window evaluation per level gives the same bits as scanning the
    window for its support and evaluating it again on the members."""

    @pytest.mark.parametrize("aux_poly", ["poly7", "poly3"])
    @pytest.mark.parametrize("kind", ["scaling", "wavelet"])
    @pytest.mark.parametrize("j", range(0, 21))
    def test_matches_scan_then_evaluate(self, j, kind, aux_poly):
        spec = MeyerSpec(0, 0, aux_poly)
        scan = np.arange(-2 ** (j + 1), 2 ** (j + 1) + 1)  # wider than 2^(j+2)/3
        members = scan[np.abs(_level_window(spec, j, scan, kind)) > SUPPORT_TOL]
        window = _level_window(spec, j, members, kind)
        got = _level_cache(aux_poly, j, kind)
        want = (members, np.mod(members, 2 ** j), np.conj(window),
                2.0 ** (-j / 2.0) * window)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestPeriodizedCoefficients:
    def test_outside_support_zero(self):
        members = set(frequency_set(SPEC, 3).members.tolist())
        for m in range(-20, 21):
            if m not in members:
                assert periodized_coeff(SPEC, 3, 1, m) == 0.0

    def test_shift_only_changes_phase(self):
        m = frequency_set(SPEC, 4).members
        base = np.abs(periodized_coeff(SPEC, 4, 0, m))
        for k in (1, 7, 15):
            assert np.abs(periodized_coeff(SPEC, 4, k, m)) == pytest.approx(base, rel=1e-13)

    def test_unit_norm(self):
        m = frequency_set(SPEC, 3).members
        total = np.sum(np.abs(periodized_coeff(SPEC, 3, 0, m)) ** 2)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("j", range(0, 9))
    def test_magnitude_bound(self, j):
        m = frequency_set(SPEC, j).members
        for k in {0, 2 ** j // 3, 2 ** j - 1}:
            vals = np.abs(periodized_coeff(SPEC, j, k, m))
            assert np.all(vals <= 2.0 ** (-j / 2) + 1e-15)

    def test_invalid_shift(self):
        with pytest.raises(ConfigError):
            periodized_coeff(SPEC, 3, 8, 5)


def gram_matrix(spec, band):
    rows = [periodized_coeff(spec, spec.j0, k, np.arange(-band, band + 1), "scaling")
            for k in range(2 ** spec.j0)]
    for j in spec.detail_levels:
        rows.extend(periodized_coeff(spec, j, k, np.arange(-band, band + 1))
                    for k in range(2 ** j))
    V = np.asarray(rows)
    return V @ V.conj().T


class TestAnalysisSynthesis:
    def test_zero_in_zero_out(self):
        f = FourierSeries.zeros(90)
        coeffs = analyze(f, SPEC)
        assert coeffs.energy() == 0.0
        assert np.all(coeffs_to_grid(synthesize_series(coeffs, SPEC), 256) == 0.0)

    def test_orthonormality_small_gram(self):
        spec = MeyerSpec(2, 5)
        G = gram_matrix(spec, 25)
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-8

    def test_basis_element_reproduces_itself(self):
        band = 90
        j, k = 4, 5
        values = periodized_coeff(SPEC, j, k, np.arange(-band, band + 1))
        coeffs = analyze(FourierSeries(band, values), SPEC)
        assert coeffs.detail[j][k] == pytest.approx(1.0, abs=1e-9)
        coeffs.detail[j][k] -= 1.0
        assert coeffs.energy() < 1e-18

    def test_quadrature_oracle_cos5(self):
        band = 50
        values = np.zeros(2 * band + 1, dtype=complex)
        values[band + 5] = 0.5
        values[band - 5] = 0.5
        coeffs = analyze(FourierSeries(band, values), MeyerSpec(3, 5))
        for (kind, j, k), expect in QUADRATURE_COS5.items():
            got = coeffs.scaling[k] if kind == "a" else coeffs.detail[j][k]
            assert got.real == pytest.approx(expect, abs=1e-6)
            assert abs(got.imag) < 1e-9

    def test_real_function_real_coefficients(self, rng):
        f = hermitian_series(90, rng)
        assert analyze(f, SPEC).imag_residue() < 1e-9

    def test_round_trip_band_limited(self, rng):
        # covered band of (j0, J) = (3, 7) is |m| <= 2^7 / 3 = 42
        f = hermitian_series(90, rng, top=42)
        coeffs = analyze(f, SPEC)
        back = synthesize_series(coeffs, SPEC)
        m = np.arange(-42, 43)
        assert back.get(m) == pytest.approx(f.get(m), abs=1e-8)
        grid = coeffs_to_grid(back, 512).real
        assert grid == pytest.approx(coeffs_to_grid(f, 512).real, abs=1e-8)

    def test_coefficient_space_round_trip(self, rng):
        coeffs = WaveletCoefficients.zeros(3, 7)
        coeffs.scaling[:] = rng.normal(size=8)
        for j in range(3, 7):
            coeffs.detail[j][:] = rng.normal(size=2 ** j)
        again = analyze(synthesize_series(coeffs, SPEC), SPEC)
        assert again.scaling == pytest.approx(coeffs.scaling, abs=1e-9)
        for j in range(3, 7):
            assert again.detail[j] == pytest.approx(coeffs.detail[j], abs=1e-9)

    def test_parseval(self, rng):
        f = hermitian_series(90, rng, top=42)
        coeffs = analyze(f, SPEC)
        grid = coeffs_to_grid(synthesize_series(coeffs, SPEC), 1024).real
        assert np.sum(grid ** 2) / 1024 == pytest.approx(coeffs.energy(), abs=1e-8)

    def test_missing_frequency_error(self, rng):
        f = hermitian_series(10, rng)
        with pytest.raises(MissingFrequencyError):
            analyze(f, SPEC)


class TestFourierHelpers:
    def test_grid_round_trip(self, rng):
        f = hermitian_series(31, rng)
        grid = coeffs_to_grid(f, 128)
        assert np.abs(grid.imag).max() < 1e-12
        back = np.fft.fft(grid.real) / 128
        assert back[np.mod(f.m, 128)] == pytest.approx(f.values, abs=1e-12)

    def test_hermitian_defect(self, rng):
        f = hermitian_series(8, rng)
        assert f.hermitian_defect() < 1e-15
