"""Long-range dependent noise: spectral densities, autocovariances, exact
sampling, and Toeplitz eigenvalue scaling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, special
from scipy.integrate import quad

from lrdeconv import noise
from lrdeconv.errors import ConfigError, NumericError
from lrdeconv.noise import (
    NoiseModel,
    autocovariance,
    sample_paths,
    toeplitz_eigen_bounds,
)
from testkit import spectral_density


class TestModelValidation:
    def test_d_range(self):
        with pytest.raises(ConfigError):
            NoiseModel.farima(0.5)
        with pytest.raises(ConfigError):
            NoiseModel.farima(-0.1)
        with pytest.raises(ConfigError):
            NoiseModel("white", d=0.2)

    def test_scale_positive(self):
        with pytest.raises(ConfigError):
            NoiseModel.white(0.0)
        for scale in (math.nan, math.inf, 1e200, 1.4e154):  # the square must be finite
            with pytest.raises(ConfigError, match="finite square"):
                NoiseModel.farima(0.2, scale)
        assert NoiseModel.white(1e-300).scale == 1e-300
        assert NoiseModel.farima(0.2, 1.3e154).scale == 1.3e154

    def test_fgn_hurst_window(self):
        with pytest.raises(ConfigError):
            NoiseModel.fgn(hurst=0.45)
        assert NoiseModel.fgn(hurst=0.75).d == pytest.approx(0.25)


class TestSpectralDensity:
    def test_white_constant(self):
        assert spectral_density(NoiseModel.white(), 1.0) == pytest.approx(
            1.0 / (2 * math.pi), abs=1e-15
        )

    def test_farima_at_pi(self):
        # |2 (1 - cos pi)| = 4
        model = NoiseModel.farima(0.3, scale=1.5)
        expect = 1.5 ** 2 / (2 * math.pi) * 4.0 ** (-0.3)
        assert spectral_density(model, math.pi) == pytest.approx(expect, rel=1e-12)

    def test_fgn_low_frequency_power_law(self):
        # a(lam) -> (sigma^2 / 2 pi) Gamma(2H+1) sin(pi H) lam^(1-2H) as lam -> 0.
        # (This constant is the one consistent with the exact series: integrating
        # the density recovers gamma(0), and H = 1/2 recovers sigma^2 / 2 pi.)
        H = 0.75
        model = NoiseModel.fgn(hurst=H)
        c = math.gamma(2 * H + 1) * math.sin(math.pi * H) / (2 * math.pi)
        val = spectral_density(model, 0.01)
        assert val == pytest.approx(c * 0.01 ** (1 - 2 * H), rel=0.02)

    def test_fgn_half_is_white(self):
        model = NoiseModel.fgn(hurst=0.5)
        lam = np.array([0.3, 1.0, 3.0])
        assert spectral_density(model, lam) == pytest.approx(
            np.full(3, 1 / (2 * math.pi)), rel=1e-10
        )

    def test_pole_and_domain_errors(self):
        with pytest.raises(NumericError):
            spectral_density(NoiseModel.farima(0.2), 0.0)
        with pytest.raises(ConfigError):
            spectral_density(NoiseModel.white(), 4.0)

    def test_symmetry(self):
        lam = np.linspace(0.01, math.pi, 64)
        for model in (NoiseModel.farima(0.3), NoiseModel.fgn(hurst=0.8)):
            assert spectral_density(model, lam) == pytest.approx(
                spectral_density(model, -lam), rel=1e-13
            )

    @pytest.mark.parametrize("model", [
        NoiseModel.farima(0.1), NoiseModel.farima(0.4),
        NoiseModel.fgn(hurst=0.6), NoiseModel.fgn(hurst=0.9),
    ])
    def test_spectral_sandwich(self, model):
        # a(lam) |lam|^(2d) stays in a fixed positive band away from 0
        lam = np.concatenate([np.linspace(-math.pi, -0.01, 200),
                              np.linspace(0.01, math.pi, 200)])
        vals = spectral_density(model, lam) * np.abs(lam) ** (2 * model.d)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        assert vals.max() / vals.min() < 10.0


class TestAutocovariance:
    def test_white_like(self):
        assert autocovariance(NoiseModel.farima(0.0), 0) == pytest.approx(1.0)
        assert autocovariance(NoiseModel.farima(0.0), 1) == 0.0

    @pytest.mark.parametrize("model", [NoiseModel.white(1.5), NoiseModel.farima(0.0, 1.5)],
                             ids=lambda m: m.kind)
    def test_white_and_d_zero_are_exact(self, model):
        k = np.arange(-70, 70)
        gamma = autocovariance(model, k)
        assert gamma.tobytes() == np.where(k == 0, 1.5 ** 2, 0.0).tobytes()
        assert autocovariance(model, 0) == 1.5 ** 2 and autocovariance(model, -3) == 0.0

    @pytest.mark.parametrize("d", [1e-310, 1e-6, 0.01, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45,
                                   0.49, 0.499])
    def test_recurrence_matches_the_gammaln_closed_form(self, d):
        # gamma(k) = G(1-2d) G(k+d) / (G(d) G(1-d) G(k+1-d)), with G(k+d)/G(d) written
        # as d G(k+d)/G(1+d) at k >= 1 so that gammaln(d) cannot overflow
        k = np.arange(65537)
        lag0 = special.gammaln(1 - 2 * d) - 2 * special.gammaln(1 - d)
        log_g = (special.gammaln(1 - 2 * d) - special.gammaln(1 - d) + math.log(d)
                 + special.gammaln(k + d) - special.gammaln(1 + d) - special.gammaln(k + 1 - d))
        closed = 2.0 ** 2 * np.exp(np.where(k == 0, lag0, log_g))
        gamma = autocovariance(NoiseModel.farima(d, 2.0), k)
        # relative to each value, or to the smallest normal float for a subnormal one
        tiny = np.finfo(float).tiny
        for stop, rtol in ((4097, 1e-10), (65537, 2e-9)):
            err = np.abs(gamma[:stop] - closed[:stop])
            assert np.all(err <= rtol * np.maximum(closed[:stop], tiny)), stop

    @pytest.mark.parametrize("d", [1e-6, 0.1, 0.25, 0.4, 0.499])
    def test_recurrence_matches_mpmath(self, d):
        mpmath = pytest.importorskip("mpmath")
        lags = [0, 1, 2, 7, 100, 2048, 4096, 65536]
        gamma = autocovariance(NoiseModel.farima(d), np.array(lags))
        with mpmath.workdps(40):
            md = mpmath.mpf(d)
            for k, value in zip(lags, gamma):
                exact = (mpmath.gamma(1 - 2 * md) * mpmath.gamma(k + md)
                         / (mpmath.gamma(md) * mpmath.gamma(1 - md) * mpmath.gamma(k + 1 - md)))
                assert abs(float(value / exact) - 1) <= 1e-11, k

    def test_fgn_half_uncorrelated(self):
        assert autocovariance(NoiseModel.fgn(hurst=0.5), 1) == pytest.approx(0.0, abs=1e-14)
        gamma = autocovariance(NoiseModel.fgn(hurst=0.5, scale=1.5), np.arange(2 ** 18 + 1))
        assert gamma[0] == 1.5 ** 2
        assert np.abs(gamma[1:]).max() <= 1e-14

    @pytest.mark.parametrize("d", [0.001, 0.01, 0.1, 0.499])
    def test_fgn_matches_mpmath(self, d):
        # the second difference at 50 digits, at every lag to 64 and 300 lags
        # spaced evenly in log to 2^18; the plain double-precision difference
        # is off by up to 6.7e-6 (d = 0.1) and 3.8e-6 (d = 0.499) there, and
        # its expm1 form by 1.9e-9 (d = 0.01), 2.0e-10 (0.1) and 4.7e-11 (0.499)
        mpmath = pytest.importorskip("mpmath")
        model = NoiseModel("fgn", d, 2.0)
        lags = np.unique(np.concatenate(
            [np.arange(65), np.geomspace(64, 2 ** 18, 300).round().astype(int)]))
        gamma = autocovariance(model, lags)
        with mpmath.workdps(50):
            H2 = 2 * mpmath.mpf(model.hurst)
            exact = np.array([float(2 * (mpmath.mpf(k + 1) ** H2 - 2 * mpmath.mpf(k) ** H2
                                         + abs(mpmath.mpf(k - 1)) ** H2))
                              for k in lags.tolist()])
        assert gamma[0] == 4.0
        assert np.abs(gamma / exact - 1).max() <= 1e-13

    @pytest.mark.parametrize("lag", [0, 1, 5])
    def test_farima_matches_quadrature(self, lag):
        # adaptive quadrature of the spectral density is the oracle
        model = NoiseModel.farima(0.3)
        val, err = quad(lambda lam: math.cos(lag * lam) * spectral_density(model, lam),
                        0.0, math.pi, points=[0.0], limit=200)
        assert autocovariance(model, lag) == pytest.approx(2 * val, abs=1e-6)

    @pytest.mark.parametrize("hurst", [0.6, 0.9])
    def test_fgn_matches_quadrature(self, hurst):
        model = NoiseModel.fgn(hurst=hurst)
        val, err = quad(lambda lam: spectral_density(model, lam),
                        1e-10, math.pi, limit=200)
        assert autocovariance(model, 0) == pytest.approx(2 * val, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(d=st.floats(0.0, 1e-300, exclude_min=True), scale=st.floats(0.1, 3.0),
           n_points=st.integers(1, 64))
    @example(d=5e-324, scale=1.0, n_points=4)
    @example(d=2.225073858507e-311, scale=1.0, n_points=128)
    @pytest.mark.filterwarnings("error")
    def test_subnormal_and_tiny_d_are_finite(self, d, scale, n_points):
        # lag 0 is G(1-2d)/G(1-d)^2 from math.lgamma, with no G(d), which would
        # overflow for a subnormal d; the later lags are products of size d or 0
        model = NoiseModel.farima(d, scale)
        gamma = autocovariance(model, np.arange(n_points))
        assert np.all(np.isfinite(gamma))
        assert gamma[0] == pytest.approx(scale ** 2, rel=1e-12)
        assert np.all(np.abs(gamma[1:]) <= 1e-299 * scale ** 2)
        assert np.all(np.isfinite(sample_paths((model,), n_points, 0)[0]))

    def test_symmetry(self):
        model = NoiseModel.fgn(hurst=0.8)
        lags = np.arange(-6, 7)
        vals = autocovariance(model, lags)
        assert vals == pytest.approx(vals[::-1], rel=1e-14)


class TestSamplePath:
    def test_white_sample_mean(self):
        x = sample_paths((NoiseModel.white(),), 4096, 5)[0]
        assert abs(x.mean()) < 4 / math.sqrt(4096)

    def test_deterministic(self):
        model = NoiseModel.farima(0.3)
        a = sample_paths((model,), 1024, 17)[0]
        b = sample_paths((model,), 1024, 17)[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_paths((model,), 1024, 18)[0])

    def test_lag1_autocovariance(self):
        # pooled lag-1 sample autocovariance over 200 replicates vs gamma(1)
        model = NoiseModel.farima(0.3)
        n, reps = 4096, 200
        acc = np.empty(reps)
        for rep in range(reps):
            x = sample_paths((model,), n, np.random.SeedSequence(123, spawn_key=(rep,)))[0]
            acc[rep] = np.mean(x[1:] * x[:-1])
        target = float(autocovariance(model, 1))
        se = acc.std(ddof=1) / math.sqrt(reps)
        assert abs(acc.mean() - target) < 3 * se

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128, 1024])
    @pytest.mark.parametrize("model", [NoiseModel.white(1.5), NoiseModel.farima(0.45, 0.7),
                                       NoiseModel.fgn(hurst=0.95)], ids=lambda m: m.kind)
    def test_covariance_is_exact(self, n, model):
        # a path is linear in its 2n normals: x = z A, so Cov(x) = A^T A exactly
        sqrt_spec = noise._embedding_spectra.__wrapped__((model,), n)
        m = 2 * n
        h, x = np.empty((m, n + 1), dtype=complex), np.empty((m, m))
        A = noise._paths_from_normals(np.eye(m), sqrt_spec, h, x)[:, :n]
        gamma = autocovariance(model, np.arange(n))
        assert np.abs(A.T @ A - linalg.toeplitz(gamma)).max() <= 1e-12 * gamma[0]

    # 512 points: one group of 128 rows; 2^15 points: groups of 2 rows
    @pytest.mark.parametrize("n, groups", [(512, [3]), (2 ** 15, [2, 1])])
    def test_batch_rows_are_consecutive_runs_of_their_group_stream(self, n, groups):
        models = [NoiseModel.farima(0.1), NoiseModel.farima(0.3), NoiseModel.white()]
        batch = sample_paths(models, n, master_seed=42)
        z = np.concatenate([
            np.random.default_rng(np.random.SeedSequence(42, spawn_key=(b,)))
            .standard_normal((rows, 2 * n)) for b, rows in enumerate(groups)])
        sqrt_spec = noise._embedding_spectra(tuple(models), n)
        h, x = np.empty((3, n + 1), dtype=complex), np.empty((3, 2 * n))
        want = noise._paths_from_normals(z, sqrt_spec, h, x)[:, :n]
        assert np.array_equal(batch, want)

    def test_n_points_one(self):
        x = sample_paths((NoiseModel.farima(0.4),), 1, 0)[0]
        assert x.shape == (1,)

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_no_points_is_a_config_error(self, n_points):
        models = [NoiseModel.farima(0.1), NoiseModel.white()]
        with pytest.raises(ConfigError, match="n_points must be >= 1"):
            sample_paths(models, n_points, master_seed=1)

    def test_no_models_give_no_rows(self):
        paths = sample_paths([], 64, master_seed=1)
        assert paths.shape == (0, 64)
        assert paths.dtype == float


class TestToeplitzEigenBounds:
    def test_white_identity(self):
        s = toeplitz_eigen_bounds(NoiseModel.white(1.5), 64)
        assert s.lambda_min == pytest.approx(1.5 ** 2, abs=1e-10)
        assert s.lambda_max == pytest.approx(1.5 ** 2, abs=1e-10)

    def test_positive_definite(self):
        for model in (NoiseModel.farima(0.4), NoiseModel.fgn(hurst=0.9)):
            for n in (64, 256, 1024):
                s = toeplitz_eigen_bounds(model, n)
                assert 0 < s.lambda_min <= s.lambda_max

    def test_ratio_band_is_stable(self):
        vals = [toeplitz_eigen_bounds(NoiseModel.farima(0.25), n).ratio_max
                for n in (64, 128, 256, 512)]
        assert max(vals) / min(vals) < 2.0

    def test_lambda_max_slope_fgn(self):
        model = NoiseModel.fgn(hurst=0.75)
        ns = [64, 128, 256, 512, 1024]
        lams = [toeplitz_eigen_bounds(model, n).lambda_max for n in ns]
        slope = np.polyfit(np.log(ns), np.log(lams), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.15)

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("model", [
        NoiseModel.white(1.3), NoiseModel.farima(0.1), NoiseModel.farima(0.25),
        NoiseModel.farima(0.45), NoiseModel.fgn(hurst=0.6), NoiseModel.fgn(hurst=0.9),
    ], ids=lambda m: f"{m.kind}-d{m.d:g}")
    def test_extremes_match_scipy(self, model, n):
        # the index-gathered matrix and numpy's eigvalsh against scipy's toeplitz
        # and eigvalsh
        eigs = linalg.eigvalsh(linalg.toeplitz(autocovariance(model, np.arange(n))))
        s = toeplitz_eigen_bounds(model, n)
        assert s.lambda_min == pytest.approx(eigs[0], rel=1e-13, abs=0)
        assert s.lambda_max == pytest.approx(eigs[-1], rel=1e-13, abs=0)

    def test_size_limit(self):
        with pytest.raises(NumericError,
                           match=r"^dense eigensolve limited to N <= 4096, got 8192$"):
            toeplitz_eigen_bounds(NoiseModel.white(), 8192)
        with pytest.raises(ConfigError):
            toeplitz_eigen_bounds(NoiseModel.white(), 1)



class TestEmbeddingGuard:
    """Circulant embedding is never rejected for the supported laws
    (Craigmile, 2003); a covariance whose embedding is rejected raises."""

    @pytest.mark.parametrize("kind", ["farima", "fgn"])
    def test_no_embedding_rejected(self, kind):
        # the uncached function, so the large sizes do not stay in the cache
        spectra = noise._embedding_spectra.__wrapped__
        worst = math.inf
        for d in np.linspace(0.0, 0.499, 60):
            model = NoiseModel(kind, float(d)) if d > 0 else NoiseModel.white()
            for n in (1, 2, 16, 1024, 2048, 4096, 65536):
                sqrt_spec = spectra((model,), n)  # frequencies 0..n of the n + 1 lags' embedding
                m = 2 * n
                gamma0 = float(autocovariance(model, 0))
                worst = min(worst, float(np.min(sqrt_spec ** 2 * m)) / gamma0)
        assert worst >= 1e-3

    @pytest.mark.parametrize("d, n", [(0.4999999, 4096), (0.4999, 2 ** 16), (0.499, 2 ** 18)])
    def test_fgn_near_half_embeds(self, d, n):
        # the plain second difference gave these spectra minima -9.88e-9,
        # -8.42e-5 and -6.31e-3, and the embedding was rejected
        model = NoiseModel("fgn", d)
        gamma = autocovariance(model, np.arange(n + 1))
        assert np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real.min() > 0
        sqrt_spec = noise._embedding_spectra.__wrapped__((model,), n)
        assert sqrt_spec.shape == (1, n + 1) and np.all(np.isfinite(sqrt_spec))

    def test_rejected_embedding_raises(self, monkeypatch):
        def not_positive_definite(model, lag):
            # gamma = (1, 0.9, 0, ...): the 8-point embedding has spectrum 1 - 1.8 < 0
            k = np.abs(np.asarray(lag))
            return np.where(k == 0, 1.0, np.where(k == 1, 0.9, 0.0))

        monkeypatch.setattr(noise, "autocovariance", not_positive_definite)
        noise._embedding_spectra.cache_clear()
        try:
            with pytest.raises(NumericError, match="circulant embedding"):
                sample_paths([NoiseModel.farima(0.2)] * 2, 4, master_seed=0)
        finally:
            noise._embedding_spectra.cache_clear()

    def test_nan_covariance_raises(self, monkeypatch):
        # the guard is written so that NaN fails it
        monkeypatch.setattr(noise, "autocovariance", lambda model, lag: np.full(len(lag), np.nan))
        noise._embedding_spectra.cache_clear()
        try:
            with pytest.raises(NumericError, match="circulant embedding"):
                sample_paths((NoiseModel.farima(0.2),), 4, 0)
        finally:
            noise._embedding_spectra.cache_clear()
