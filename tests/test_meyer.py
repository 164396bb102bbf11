"""Periodized Meyer basis: Fourier-domain closed forms, frequency sets,
orthonormality, and analysis/synthesis round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrdeconv.errors import ConfigError, NumericError
from lrdeconv.estimator import EstimatorConfig, block_threshold
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
    scaling_frequency_set,
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

    def test_partition_identity(self):
        x = np.linspace(0, 1, 501)
        assert meyer_aux(x) + meyer_aux(1 - x) == pytest.approx(
            np.ones_like(x), abs=1e-12
        )

    @pytest.mark.parametrize("make", [lambda aux: MeyerSpec(0, 0, aux),
                                      lambda aux: EstimatorConfig(aux_poly=aux)],
                             ids=["MeyerSpec", "EstimatorConfig"])
    def test_other_auxiliary_names_raise(self, make):
        make("poly7")
        for aux in ("poly3", "poly9", ""):
            with pytest.raises(ConfigError, match=r"^unknown auxiliary function"):
                make(aux)

    def test_one_basis_per_level_range(self):
        assert MeyerSpec(3, 7, "poly7") == MeyerSpec(3, 7)


class TestClosedForms:
    def test_scaling_normalization(self):
        assert scaling_ft(0.0) == 1.0

    def test_scaling_outside_support(self):
        assert scaling_ft(3 * math.pi) == 0.0
        assert scaling_ft(-9.0) == 0.0

    def test_scaling_frozen_value(self):
        assert scaling_ft(2.5) == pytest.approx(PHI_HAT_2_5, abs=1e-12)

    def test_wavelet_support(self):
        assert wavelet_ft(math.pi / 4) == 0.0
        assert wavelet_ft(4 * math.pi) == 0.0

    def test_wavelet_frozen_value(self):
        assert abs(wavelet_ft(3.0)) == pytest.approx(PSI_ABS_3_0, abs=1e-12)

    def test_partition_of_unity(self):
        # |phi_hat(w)|^2 + sum_{j>=0} |psi_hat(2^-j w)|^2 = 1
        omega = np.linspace(0.05, 8 * math.pi, 500)
        total = scaling_ft(omega) ** 2
        for j in range(0, 14):
            total = total + np.abs(wavelet_ft(omega / 2 ** j)) ** 2
        assert total == pytest.approx(np.ones_like(omega), abs=1e-10)

    def test_two_scale_identity(self):
        omega = np.linspace(0.0, 8 * math.pi / 3, 400)
        lhs = scaling_ft(omega) ** 2 + np.abs(wavelet_ft(omega)) ** 2
        assert lhs == pytest.approx(scaling_ft(omega / 2) ** 2, abs=1e-12)


class TestFrequencySets:
    def test_level0_window(self):
        members = frequency_set(SPEC, 0).members
        assert set(members) <= set(range(-4, 5))
        assert 0 not in members

    @pytest.mark.parametrize("j", range(0, 9))
    def test_cardinality_bound(self, j):
        assert len(frequency_set(SPEC, j).members) <= math.ceil(4 * math.pi * 2 ** j) + 2

    @pytest.mark.parametrize("j", range(0, 9))
    def test_angular_window(self, j):
        m = frequency_set(SPEC, j).members
        assert np.all((2 ** j < 3 * np.abs(m)) & (3 * np.abs(m) < 2 ** (j + 2)))

    @pytest.mark.parametrize("j", range(0, 7))
    def test_brute_force_scan(self, j):
        scan = [m for m in range(-2 ** (j + 3), 2 ** (j + 3) + 1)
                if abs(periodized_coeff(j, 0, m)) > 1e-14]
        assert list(frequency_set(SPEC, j).members) == scan

    def test_needed_band_is_the_widest_member(self):
        # largest |m| with a window above SUPPORT_TOL, scanned level by level
        def widest(j, window):
            m = np.arange(0, 2 ** (j + 2) + 1)
            return int(m[np.abs(window(2 * np.pi * m / 2 ** j)) > SUPPORT_TOL].max())

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
    window for its support and evaluating it again on the members, and each
    level's cached windows keep the basis' symmetry, band and two-scale identity."""

    @pytest.mark.parametrize("kind", ["scaling", "wavelet"])
    @pytest.mark.parametrize("j", range(0, 21))
    def test_matches_scan_then_evaluate(self, j, kind):
        scan = np.arange(-2 ** (j + 1), 2 ** (j + 1) + 1)  # wider than 2^(j+2)/3
        members = scan[np.abs(_level_window(j, scan, kind)) > SUPPORT_TOL]
        window = _level_window(j, members, kind)
        got = _level_cache(j, kind)
        want = (members, np.mod(members, 2 ** j), np.conj(window),
                2.0 ** (-j / 2.0) * window)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["scaling", "wavelet"])
    @pytest.mark.parametrize("j", range(0, 21))
    def test_level_is_real_and_inside_its_band(self, j, kind):
        # members are symmetric about 0 and lie in the documented band; the
        # synthesis window is Hermitian (real basis elements) and bounded by 2^(-j/2)
        members, _, _, scaled_window = _level_cache(j, kind)
        assert np.array_equal(members, -members[::-1])
        three_m = 3 * np.abs(members)
        if kind == "scaling":
            assert np.all(three_m < 2 ** (j + 1))
        else:
            assert np.all((2 ** j < three_m) & (three_m < 2 ** (j + 2)))
        np.testing.assert_allclose(scaled_window[::-1], np.conj(scaled_window),
                                   rtol=0, atol=1e-15)
        assert np.all(np.abs(scaled_window) <= 2.0 ** (-j / 2.0) * (1 + 1e-15))

    @pytest.mark.parametrize("j", range(0, 21))
    def test_two_scale_identity(self, j):
        # V_{j+1} = V_j + W_j frequency by frequency:
        # |phi_hat(w/2)|^2 = |phi_hat(w)|^2 + |psi_hat(w)|^2 at w = 2 pi m / 2^j
        band = int(_level_cache(j + 1, "scaling")[0][-1])
        power = {}
        for level, kind in ((j + 1, "scaling"), (j, "scaling"), (j, "wavelet")):
            members, _, _, scaled_window = _level_cache(level, kind)
            dense = np.zeros(2 * band + 1)
            dense[members + band] = np.abs(scaled_window * 2.0 ** (level / 2.0)) ** 2
            power[level, kind] = dense
        np.testing.assert_allclose(power[j + 1, "scaling"],
                                   power[j, "scaling"] + power[j, "wavelet"],
                                   rtol=0, atol=1e-14)


class TestPeriodizedCoefficients:
    def test_outside_support_zero(self):
        members = set(frequency_set(SPEC, 3).members.tolist())
        for m in range(-20, 21):
            if m not in members:
                assert periodized_coeff(3, 1, m) == 0.0

    def test_shift_only_changes_phase(self):
        m = frequency_set(SPEC, 4).members
        base = np.abs(periodized_coeff(4, 0, m))
        for k in (1, 7, 15):
            assert np.abs(periodized_coeff(4, k, m)) == pytest.approx(base, rel=1e-13)

    def test_unit_norm(self):
        m = frequency_set(SPEC, 3).members
        total = np.sum(np.abs(periodized_coeff(3, 0, m)) ** 2)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("j", range(0, 9))
    def test_magnitude_bound(self, j):
        m = frequency_set(SPEC, j).members
        for k in {0, 2 ** j // 3, 2 ** j - 1}:
            vals = np.abs(periodized_coeff(j, k, m))
            assert np.all(vals <= 2.0 ** (-j / 2) + 1e-15)

    def test_invalid_shift(self):
        with pytest.raises(ConfigError):
            periodized_coeff(3, 8, 5)


def gram_matrix(spec, band):
    rows = [periodized_coeff(spec.j0, k, np.arange(-band, band + 1), "scaling")
            for k in range(2 ** spec.j0)]
    for j in spec.detail_levels:
        rows.extend(periodized_coeff(j, k, np.arange(-band, band + 1))
                    for k in range(2 ** j))
    V = np.asarray(rows)
    return V @ V.conj().T


class TestAnalysisSynthesis:
    def test_zero_in_zero_out(self):
        f = FourierSeries(90, np.zeros(181))
        coeffs = analyze(f, SPEC)
        assert np.sum(np.abs(coeffs.values) ** 2) == 0.0
        assert np.all(coeffs_to_grid(synthesize_series(coeffs), 256) == 0.0)

    def test_orthonormality_small_gram(self):
        spec = MeyerSpec(2, 5)
        G = gram_matrix(spec, 25)
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-8

    def test_basis_element_reproduces_itself(self):
        band = 90
        j, k = 4, 5
        values = periodized_coeff(j, k, np.arange(-band, band + 1))
        coeffs = analyze(FourierSeries(band, values), SPEC)
        assert coeffs.detail[j][k] == pytest.approx(1.0, abs=1e-9)
        coeffs.detail[j][k] -= 1.0
        assert np.sum(np.abs(coeffs.values) ** 2) < 1e-18

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
        assert np.abs(analyze(f, SPEC).values.imag).max() < 1e-9

    def test_round_trip_band_limited(self, rng):
        # covered band of (j0, J) = (3, 7) is |m| <= 2^7 / 3 = 42
        f = hermitian_series(90, rng, top=42)
        coeffs = analyze(f, SPEC)
        back = synthesize_series(coeffs)
        m = np.arange(-42, 43)
        assert back.values[m + back.band] == pytest.approx(f.values[m + f.band], abs=1e-8)
        grid = coeffs_to_grid(back, 512).real
        assert grid == pytest.approx(coeffs_to_grid(f, 512).real, abs=1e-8)

    def test_coefficient_space_round_trip(self, rng):
        coeffs = WaveletCoefficients.zeros(MeyerSpec(3, 7))
        coeffs.scaling[:] = rng.normal(size=8)
        for j in range(3, 7):
            coeffs.detail[j][:] = rng.normal(size=2 ** j)
        again = analyze(synthesize_series(coeffs), SPEC)
        assert again.scaling == pytest.approx(coeffs.scaling, abs=1e-9)
        for j in range(3, 7):
            assert again.detail[j] == pytest.approx(coeffs.detail[j], abs=1e-9)

    def test_parseval(self, rng):
        f = hermitian_series(90, rng, top=42)
        coeffs = analyze(f, SPEC)
        grid = coeffs_to_grid(synthesize_series(coeffs), 1024).real
        energy = np.sum(np.abs(coeffs.values) ** 2)
        assert np.sum(grid ** 2) / 1024 == pytest.approx(energy, abs=1e-8)

    def test_missing_frequency_error(self, rng):
        f = hermitian_series(10, rng)
        with pytest.raises(NumericError,
                           match=r"^analysis needs \|m\| <= 85 but only \|m\| <= 10 available$"):
            analyze(f, SPEC)


def reference_analyze(f, spec):
    """Analysis into a scaling array and a dict of per-level detail arrays,
    one inverse FFT per level: the reference for the flat layout."""

    def level_coeffs(j, kind):
        members, residues, conj_window, _ = _level_cache(j, kind)
        grouped = np.zeros(2 ** j, dtype=complex)
        np.add.at(grouped, residues, f.values[members + f.band] * conj_window)
        return 2.0 ** (j / 2.0) * np.fft.ifft(grouped)

    scaling = level_coeffs(spec.j0, "scaling")
    return scaling, {j: level_coeffs(j, "wavelet") for j in spec.detail_levels}


def reference_synthesize(scaling, detail, spec):
    """Synthesis from a scaling array and a dict of detail arrays: the
    reference for the flat layout; returns the Fourier values at |m| <= band."""
    band = needed_band(spec)
    values = np.zeros(2 * band + 1, dtype=complex)

    def add_level(j, vec, kind):
        members, residues, _, scaled_window = _level_cache(j, kind)
        phases = np.fft.fft(vec)
        values[members + band] += scaled_window * phases[residues]

    add_level(spec.j0, scaling, "scaling")
    for j in detail.keys():
        add_level(j, detail[j], "wavelet")
    return values


def random_hermitian(band, rng):
    half = rng.normal(size=band) + 1j * rng.normal(size=band)
    return FourierSeries(band, np.concatenate([np.conj(half[::-1]), [rng.normal()], half]))


class TestFlatLayout:
    """The 2^J coefficients in one vector: scaling block [0, 2^j0), level j
    at [2^j, 2^(j+1)), with ``scaling`` and ``detail[j]`` views into it."""

    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 12), min_size=2, max_size=2).map(sorted),
           extra=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(levels=[0, 0], extra=0, seed=1)
    @example(levels=[0, 12], extra=0, seed=2)
    @example(levels=[3, 11], extra=1, seed=3)
    @example(levels=[12, 12], extra=0, seed=4)
    def test_same_bits_as_the_per_level_reference(self, levels, extra, seed):
        j0, J = levels
        spec = MeyerSpec(j0, J)
        rng = np.random.default_rng(seed)
        f = random_hermitian(needed_band(spec) + extra, rng)
        coeffs = analyze(f, spec)
        scaling, detail = reference_analyze(f, spec)
        assert coeffs.scaling.tobytes() == scaling.tobytes()
        assert sorted(coeffs.detail) == sorted(detail) == list(range(j0, J))
        for j in range(j0, J):
            assert coeffs.detail[j].tobytes() == detail[j].tobytes(), j
        want = reference_synthesize(scaling, detail, spec)
        assert synthesize_series(coeffs).values.tobytes() == want.tobytes()
        # synthesis of coefficients that no analysis produced
        values = rng.normal(size=2 ** J) + 1j * rng.normal(size=2 ** J)
        want = reference_synthesize(values[:2 ** j0].copy(),
                                    {j: values[2 ** j:2 ** (j + 1)].copy()
                                     for j in range(j0, J)}, spec)
        got = synthesize_series(WaveletCoefficients(spec, values))
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("j0, J", [(0, 0), (0, 1), (0, 5), (3, 3), (3, 7)])
    def test_coefficients_carry_their_basis(self, j0, J):
        spec = MeyerSpec(j0, J)
        zeros = WaveletCoefficients.zeros(spec)
        twin = WaveletCoefficients(spec, np.arange(2 ** J)).copy()
        for coeffs in (zeros, twin):
            assert coeffs.spec is spec and (coeffs.j0, coeffs.J) == (j0, J)
        assert analyze(random_hermitian(needed_band(spec), np.random.default_rng(0)),
                       spec).spec is spec

    @pytest.mark.parametrize("j0, J", [(0, 0), (0, 1), (0, 5), (3, 3), (3, 7)])
    def test_views_tile_the_vector(self, j0, J):
        coeffs = WaveletCoefficients(MeyerSpec(j0, J), np.arange(2 ** J))
        assert coeffs.values.dtype == complex and coeffs.values.shape == (2 ** J,)
        assert coeffs.scaling.real.tolist() == list(range(2 ** j0))
        assert sorted(coeffs.detail) == list(range(j0, J))
        for j in range(j0, J):
            assert coeffs.detail[j].real.tolist() == list(range(2 ** j, 2 ** (j + 1)))
        views = [coeffs.scaling] + [coeffs.detail[j] for j in range(j0, J)]
        assert all(np.shares_memory(v, coeffs.values) for v in views)

    def test_writes_through_the_views_show_in_values(self):
        coeffs = WaveletCoefficients.zeros(MeyerSpec(2, 5))
        coeffs.scaling[1] = 2.0
        coeffs.detail[4][3] = 1.0 - 1.0j
        coeffs.detail[2][:] = 5.0
        want = np.zeros(32, dtype=complex)
        want[1], want[16 + 3], want[4:8] = 2.0, 1.0 - 1.0j, 5.0
        assert coeffs.values.tobytes() == want.tobytes()

    def test_copy_is_independent(self, rng):
        coeffs = WaveletCoefficients(MeyerSpec(2, 6),
                                     rng.normal(size=64) + 1j * rng.normal(size=64))
        before = coeffs.values.copy()
        twin = coeffs.copy()
        assert not np.shares_memory(twin.values, coeffs.values)
        assert twin.values.tobytes() == before.tobytes()
        twin.scaling[:] = 0.0
        twin.detail[5][:] = 0.0
        assert coeffs.values.tobytes() == before.tobytes()
        assert np.all(twin.values[:4] == 0.0) and np.all(twin.values[32:] == 0.0)
        coeffs.detail[3][0] = 7.0
        assert twin.values[8] == before[8]

    def test_block_threshold_leaves_its_input_unchanged(self, rng):
        coeffs = WaveletCoefficients(MeyerSpec(3, 7), 0.5 * (rng.normal(size=128)
                                                             + 1j * rng.normal(size=128)))
        before = coeffs.values.copy()
        out, decisions = block_threshold(coeffs, 1024, 1024.0, EstimatorConfig(mu=1.0, nu=1.0))
        assert {d.kept for d in decisions} == {True, False}
        assert coeffs.values.tobytes() == before.tobytes()
        assert not np.shares_memory(out.values, coeffs.values)
        assert out.scaling.tobytes() == before[:8].tobytes()

    @pytest.mark.parametrize("j0, J, values", [
        (3, 5, np.zeros(31)),
        (3, 5, np.zeros(33)),
        (3, 5, np.zeros((2, 16))),
        (3, 5, np.zeros(8)),
        (5, 3, np.zeros(8)),
        (5, 3, np.zeros(32)),
        (-1, 3, np.zeros(8)),
    ])
    def test_wrong_length_or_levels_raise(self, j0, J, values):
        with pytest.raises(ConfigError):
            WaveletCoefficients(MeyerSpec(j0, J), values)


def walked_needed_band(spec):
    """The band as the widest member over every level's set, walked level by level."""
    best = int(np.abs(scaling_frequency_set(spec, spec.j0).members).max())
    for j in spec.detail_levels:
        best = max(best, int(np.abs(frequency_set(spec, j).members).max()))
    return best


def synthesize_in_spec(coeffs, spec):
    """Synthesis in a basis passed beside the coefficients: the two-argument
    reference for synthesis in the coefficients' own basis."""
    band = walked_needed_band(spec)
    values = np.zeros(2 * band + 1, dtype=complex)
    levels = [(spec.j0, "scaling", coeffs.scaling)]
    levels += [(j, "wavelet", coeffs.detail[j]) for j in range(coeffs.j0, coeffs.J)]
    for j, kind, vec in levels:
        members, residues, _, scaled_window = _level_cache(j, kind)
        phases = np.fft.fft(vec)
        values[members + band] += scaled_window * phases[residues]
    return FourierSeries(band, values)


class TestOwnBasis:
    """Synthesis reads its basis from the coefficients, and the band from the
    top level alone."""

    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 12), min_size=2, max_size=2).map(sorted),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(levels=[0, 0], seed=1)
    @example(levels=[0, 12], seed=2)
    @example(levels=[3, 11], seed=3)
    @example(levels=[12, 12], seed=4)
    def test_same_bits_as_synthesis_with_the_matching_spec(self, levels, seed):
        j0, J = levels
        spec = MeyerSpec(j0, J)
        rng = np.random.default_rng(seed)
        coeffs = WaveletCoefficients(spec, rng.normal(size=2 ** J) + 1j * rng.normal(size=2 ** J))
        got = synthesize_series(coeffs)
        want = synthesize_in_spec(coeffs, spec)
        assert needed_band(spec) == walked_needed_band(spec) == got.band == want.band
        assert got.values.tobytes() == want.values.tobytes()


class TestFourierHelpers:
    def test_grid_round_trip(self, rng):
        f = hermitian_series(31, rng)
        grid = coeffs_to_grid(f, 128)
        assert np.abs(grid.imag).max() < 1e-12
        back = np.fft.fft(grid.real) / 128
        assert back[np.mod(f.m, 128)] == pytest.approx(f.values, abs=1e-12)

    def test_hermitian_defect(self, rng):
        f = hermitian_series(8, rng)
        assert np.abs(f.values[::-1] - np.conj(f.values)).max() < 1e-15
