"""Besov machinery, test functions, rate forecasts, and the Monte Carlo
risk harness."""

import math

import numpy as np
import pytest

from testkit import boxcar_linear_design
from lrdeconv import riskbench
from lrdeconv.channels import BlurKernel, ChannelDesign, simulate_observations
from lrdeconv.errors import ConfigError, DegenerateFitError, NumericError
from lrdeconv.estimator import EstimatorConfig, estimate
from lrdeconv.fourier import FourierSeries, coeffs_to_grid
from lrdeconv.meyer import MeyerSpec, WaveletCoefficients, analyze, synthesize_series
from lrdeconv.noise import NoiseModel
from lrdeconv.riskbench import (
    MIN_REPS,
    BesovBall,
    RiskReport,
    besov_seminorm,
    fit_rate,
    make_test_function,
    mc_risk,
    rate_axis,
    theoretical_rate,
)


def analyze_padded(f: FourierSeries, spec: MeyerSpec) -> WaveletCoefficients:
    from lrdeconv.meyer import frequency_set, scaling_frequency_set

    need = int(np.abs(scaling_frequency_set(spec, spec.j0).members).max())
    for j in spec.detail_levels:
        need = max(need, int(np.abs(frequency_set(spec, j).members).max()))
    need = max(need, f.band)
    values = np.zeros(2 * need + 1, dtype=complex)
    values[need - f.band: need + f.band + 1] = f.values
    return analyze(FourierSeries(need, values), spec)


class TestBesovBall:
    def test_derived_exponents(self):
        ball = BesovBall(s=2.0, p=3.0, q=1.0, radius=1.0)
        assert ball.s_prime == pytest.approx(2.0 + 0.5 - 1.0 / 3.0)
        assert ball.p_prime == 2.0
        assert ball.s_star == pytest.approx(2.0)

    def test_s_star_is_min(self):
        for s, p in [(1.0, 1.5), (2.0, 4.0), (0.8, 1.2)]:
            ball = BesovBall(s=s, p=p, q=2.0, radius=1.0)
            assert ball.s_star == pytest.approx(min(ball.s, ball.s_prime))

    def test_validation(self):
        with pytest.raises(ConfigError):
            BesovBall(s=0.1, p=1.0, q=2.0, radius=1.0)  # s <= 1/p - 1/2
        with pytest.raises(ConfigError):
            BesovBall(s=1.0, p=0.5, q=2.0, radius=1.0)
        with pytest.raises(ConfigError):
            BesovBall(s=1.0, p=2.0, q=2.0, radius=0.0)
        with pytest.raises(ConfigError):
            BesovBall(s=math.inf, p=2.0, q=2.0, radius=1.0)
        with pytest.raises(ConfigError):
            BesovBall(s=1.0, p=2.0, q=2.0, radius=math.inf)
        assert BesovBall(s=1.0, p=math.inf, q=math.inf, radius=1.0).p_prime == 2.0


class TestBesovSeminorm:
    def test_zero(self):
        coeffs = WaveletCoefficients.zeros(MeyerSpec(3, 8))
        ball = BesovBall(s=2.0, p=2.0, q=2.0, radius=1.0)
        assert besov_seminorm(coeffs, ball) == 0.0

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.0, 3.0), (math.inf, math.inf)])
    def test_single_detail_coefficient(self, p, q):
        coeffs = WaveletCoefficients.zeros(MeyerSpec(2, 7))
        j, c = 4, 0.7
        coeffs.detail[j][3] = c
        ball = BesovBall(s=1.5, p=p, q=q, radius=1.0)
        assert besov_seminorm(coeffs, ball) == pytest.approx(
            c * 2.0 ** (j * ball.s_prime), rel=1e-12
        )

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_no_detail_levels_is_the_scaling_norm(self, p):
        # J = j0: no level sum, so no convergence check, and the norm is the
        # l_p norm of the scaling coefficients alone
        coeffs = WaveletCoefficients.zeros(MeyerSpec(3, 3))
        coeffs.scaling[:] = [3.0, -4.0j, 0.0, 1.0 + 1.0j, -2.0, 0.5, 0.0, 7.0]
        ball = BesovBall(s=2.0, p=p, q=2.0, radius=1.0)
        want = np.linalg.norm(np.abs(coeffs.scaling), ord=p)
        assert besov_seminorm(coeffs, ball) == pytest.approx(want, rel=1e-12)

    def test_cosine_stable_as_levels_grow(self):
        f = make_test_function("smooth_sine", 1, {"freq": 1})
        ball = BesovBall(s=2.0, p=2.0, q=2.0, radius=1.0)
        vals = [besov_seminorm(analyze_padded(f, MeyerSpec(3, J)), ball)
                for J in (8, 9, 10)]
        assert abs(vals[-1] - vals[0]) < 0.01 * vals[0]

    def test_insufficient_levels(self):
        # spectrum still carrying energy at the top level triggers the error
        f = make_test_function("sawtooth_smoothed", 120, {"m0": 50.0, "decay": 0.2})
        ball = BesovBall(s=2.0, p=2.0, q=2.0, radius=1.0)
        with pytest.raises(NumericError):
            besov_seminorm(analyze_padded(f, MeyerSpec(3, 6)), ball)


class TestMakeTestFunction:
    def test_smooth_sine_support(self):
        f = make_test_function("smooth_sine", 8, {"freq": 3})
        nonzero = f.m[np.abs(f.values) > 0]
        assert set(nonzero.tolist()) == {-3, 3}

    @pytest.mark.parametrize("name,params", [
        ("smooth_sine", {"freq": 2, "mean": 0.5}),
        ("bump_mix", {}),
        ("sawtooth_smoothed", {"m0": 4.0, "decay": 1.5}),
    ])
    def test_hermitian_and_real(self, name, params):
        f = make_test_function(name, 24, params)
        assert f.hermitian_defect() < 1e-12
        grid = coeffs_to_grid(f, 128)
        assert np.abs(grid.imag).max() < 1e-12

    def test_bump_mix_in_declared_ball(self):
        f = make_test_function("bump_mix", 40, {})
        ball = BesovBall(s=1.5, p=2.0, q=2.0, radius=25.0)
        value = besov_seminorm(analyze_padded(f, MeyerSpec(3, 8)), ball)
        assert value <= ball.radius

    def test_parameter_boundaries(self):
        # freq = 0 is the constant mean + amplitude; one bump is a list of one
        f = make_test_function("smooth_sine", 4, {"freq": 0, "mean": 0.5, "amplitude": 2.0})
        assert f.values[f.band] == 2.5 and np.count_nonzero(f.values) == 1
        one = make_test_function("bump_mix", 8, {"centers": [0.3], "widths": [0.05],
                                                 "weights": [1.0]})
        two = make_test_function("bump_mix", 8, {"centers": [0.3, 0.7], "widths": [0.05, 0.1],
                                                 "weights": [1.0, 0.0]})
        assert one.values == pytest.approx(two.values, abs=1e-15)
        assert np.all(np.isfinite(make_test_function("sawtooth_smoothed", 8,
                                                     {"m0": 1e-3}).values))

    @pytest.mark.parametrize("name, params", [
        ("bump_mix", {"centers": [0.3], "widths": [math.nan], "weights": [1.0]}),
        ("bump_mix", {"centers": [math.inf], "widths": [0.05], "weights": [1.0]}),
        ("bump_mix", {"weights": [math.inf, 1.0], "amplitude": 0.0}),
        ("sawtooth_smoothed", {"decay": math.nan}),
        ("smooth_sine", {"amplitude": math.nan}),
        ("smooth_sine", {"freq": 0, "mean": math.inf, "amplitude": -math.inf}),
    ])
    def test_non_finite_coefficients_raise(self, name, params):
        # computed without a RuntimeWarning, which the suite turns into an error
        with pytest.raises(ConfigError, match=f"^{name} parameters give a truth with "
                                              "non-finite coefficients$"):
            make_test_function(name, 8, params)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_test_function("spikes", 8, {})
        with pytest.raises(ConfigError):
            make_test_function("smooth_sine", 8, {"freq": 2, "bogus": 1})


class TestTheoreticalRate:
    def test_dense_boxcar_case(self):
        ball = BesovBall(s=2.0, p=2.0, q=2.0, radius=1.0)
        fc = theoretical_rate(ball, nu=2.0)
        assert fc.regime == "dense"
        assert fc.exponent == pytest.approx(4.0 / 9.0)

    def test_sparse_case(self):
        ball = BesovBall(s=3.0, p=1.0, q=1.0, radius=1.0)  # s* = 2.5, nu(2-p)=2 < 2.5? no: p=1 -> 2.5
        # choose s so that nu (2 - p) >= p s*: nu=2, p=1 -> need s* <= 2
        ball = BesovBall(s=1.5, p=1.0, q=1.0, radius=1.0)  # s* = 1.0
        fc = theoretical_rate(ball, nu=2.0)
        assert fc.regime == "sparse"
        assert fc.exponent == pytest.approx(ball.s_star / (ball.s_star + 2.0))

    def test_supersmooth_case(self):
        ball = BesovBall(s=2.0, p=2.0, q=2.0, radius=1.0)
        fc = theoretical_rate(ball, nu=0.0, alpha1=1.0, beta=2.0)
        assert fc.regime == "supersmooth"
        assert fc.exponent == 0.0
        assert fc.log_exponent == pytest.approx(2.0 * ball.s_star / 2.0)

    def test_regime_boundary_flip(self):
        # nu (2 - p) = p s* exactly at this parameter point
        nu, p, q = 1.0, 1.0, 3.0
        s_star_boundary = nu * (2.0 - p) / p  # = 1.0
        s = s_star_boundary + 1.0 / p - 0.5   # p' = 1 -> s* = s + 1/2 - 1
        ball_eq = BesovBall(s=s, p=p, q=q, radius=1.0)
        assert ball_eq.s_star == pytest.approx(s_star_boundary)
        fc_eq = theoretical_rate(ball_eq, nu=nu)
        assert fc_eq.regime == "sparse"
        assert fc_eq.rho == pytest.approx((q - p) / q)
        ball_dense = BesovBall(s=s + 0.05, p=p, q=q, radius=1.0)
        assert theoretical_rate(ball_dense, nu=nu).regime == "dense"
        ball_sparse = BesovBall(s=s - 0.05, p=p, q=q, radius=1.0)
        fc_sp = theoretical_rate(ball_sparse, nu=nu)
        assert fc_sp.regime == "sparse" and fc_sp.rho == 0.0

    def test_dense_dominates_when_condition_holds(self):
        for s in np.linspace(1.2, 4.0, 8):
            for p in (1.0, 1.5, 2.0, 3.0):
                for nu in (0.5, 1.0, 2.0):
                    ball = BesovBall(s=float(s), p=p, q=2.0, radius=1.0)
                    if ball.s <= 1.0 / ball.p_prime:
                        continue
                    if nu * (2.0 - p) <= p * ball.s_star:
                        dense = 2 * s / (2 * s + 2 * nu + 1)
                        sparse = 2 * ball.s_star / (2 * ball.s_star + 2 * nu)
                        assert dense <= sparse + 1e-12

    def test_inadmissible(self):
        ball = BesovBall(s=0.8, p=1.0, q=1.0, radius=1.0)  # s <= 1/p' = 1
        with pytest.raises(ConfigError):
            theoretical_rate(ball, nu=1.0)
        with pytest.raises(ConfigError):
            theoretical_rate(BesovBall(s=2, p=2, q=2, radius=1), nu=0.0)


def tiny_design_family(scale=1e-300, d=0.0):
    def factory(n):
        k = int(round(math.log2(n)))
        N = 2 ** (k // 2)
        M = n // N
        u = tuple(l / M for l in range(1, M + 1))
        model = NoiseModel.white(scale) if d == 0.0 else None
        return ChannelDesign(u, (d,) * M, N, (model,) * M)

    return factory


class TestMcRisk:
    def test_zero_noise_risk_vanishes(self):
        f = make_test_function("sawtooth_smoothed", 5, {"m0": 3.0, "decay": 1.5})
        cfg = EstimatorConfig(mu=0.0, nu=2.0, level_override=(2, 4))
        report = mc_risk(f, tiny_design_family(), BlurKernel("boxcar"), cfg,
                         [2 ** 10, 2 ** 12, 2 ** 14], reps=30, master_seed=1)
        assert np.all(report.column("risk_mean") <= 1e-10)

    def test_reps_minimum(self):
        f = make_test_function("smooth_sine", 2, {"freq": 2})
        assert MIN_REPS == 30
        with pytest.raises(ConfigError, match=r"^reps must be >= 30$"):
            mc_risk(f, tiny_design_family(), BlurKernel("boxcar"),
                    EstimatorConfig(), [2 ** 10], reps=MIN_REPS - 1, master_seed=0)

    def test_risk_non_increasing_and_se_scaling(self):
        f = make_test_function("sawtooth_smoothed", 30, {"m0": 4.0, "decay": 1.5})
        cfg = EstimatorConfig(mu=1.0, nu=2.0)

        def family(n):
            return boxcar_linear_design(n)

        grid = [2 ** 12, 2 ** 14, 2 ** 16]
        r100 = mc_risk(f, family, BlurKernel("boxcar"), cfg, grid, reps=100,
                       master_seed=3)
        risks, ses = r100.column("risk_mean"), r100.column("risk_se")
        for i in range(len(grid) - 1):
            assert risks[i + 1] <= risks[i] + 2 * math.hypot(ses[i], ses[i + 1])
        r200 = mc_risk(f, family, BlurKernel("boxcar"), cfg, grid, reps=200,
                       master_seed=3)
        ratio = r200.column("risk_se") / ses
        assert np.all(np.abs(ratio - 1 / math.sqrt(2)) < 0.2)

    def test_disjoint_seed_ranges_agree(self):
        f = make_test_function("sawtooth_smoothed", 20, {"m0": 4.0, "decay": 1.5})
        cfg = EstimatorConfig(mu=1.0, nu=2.0)

        def family(n):
            return boxcar_linear_design(n)

        a = mc_risk(f, family, BlurKernel("boxcar"), cfg, [2 ** 12], reps=60,
                    master_seed=100)
        b = mc_risk(f, family, BlurKernel("boxcar"), cfg, [2 ** 12], reps=60,
                    master_seed=200)
        diff = abs(a.rows[0][4] - b.rows[0][4])
        pooled = math.hypot(a.rows[0][5], b.rows[0][5])
        assert diff < 3 * pooled

    def test_threads_do_not_change_results(self):
        f = make_test_function("smooth_sine", 3, {"freq": 3})
        cfg = EstimatorConfig(mu=1.0, nu=2.0)

        def family(n):
            return boxcar_linear_design(n)

        serial = mc_risk(f, family, BlurKernel("boxcar"), cfg, [2 ** 12], reps=40,
                         master_seed=7, threads=1)
        threaded = mc_risk(f, family, BlurKernel("boxcar"), cfg, [2 ** 12], reps=40,
                           master_seed=7, threads=4)
        assert serial.rows == threaded.rows

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_risk_raises_naming_the_replicate(self, monkeypatch, threads):
        def nan_at_rep_3(y, design, kernel, config):
            result = estimate(y, design, kernel, config)
            if np.array_equal(y, simulate_observations(f, design, kernel, bad_seed)):
                result.grid[0] = np.nan
            return result

        f = make_test_function("smooth_sine", 3, {"freq": 3})
        bad_seed = np.random.SeedSequence(7, spawn_key=(2 ** 12, 3))
        monkeypatch.setattr(riskbench, "estimate", nan_at_rep_3)
        with pytest.raises(NumericError, match=r"replicate 3 at n = 4096 has a non-finite"):
            mc_risk(f, boxcar_linear_design, BlurKernel("boxcar"),
                    EstimatorConfig(mu=1.0, nu=2.0), [2 ** 12], reps=30, master_seed=7,
                    threads=threads)

    def test_parseval_risk_identity(self):
        # grid risk = coefficient-space error + out-of-span truth energy
        design = boxcar_linear_design(2 ** 14)
        kernel = BlurKernel("boxcar")
        f = make_test_function("sawtooth_smoothed", 40, {"m0": 4.0, "decay": 1.5})
        cfg = EstimatorConfig(mu=1.0, nu=2.0, level_override=(3, 6))
        y = simulate_observations(f, design, kernel, seed=11)
        result = estimate(y, design, kernel, cfg)
        truth_grid = coeffs_to_grid(f, design.N).real
        grid_risk = float(np.mean((result.grid - truth_grid) ** 2))

        spec = MeyerSpec(3, 6)
        truth_coeffs = analyze_padded(f, spec)
        diff = float(np.sum(np.abs(result.coeffs.scaling - truth_coeffs.scaling) ** 2))
        for j in range(3, 6):
            diff += float(np.sum(np.abs(result.coeffs.detail[j]
                                        - truth_coeffs.detail[j]) ** 2))
        span_energy = synthesize_series(truth_coeffs).energy()
        tail = f.energy() - span_energy
        assert grid_risk == pytest.approx(diff + tail, abs=1e-8)


class TestFitRate:
    def make_report(self, n_stars, risks):
        report = RiskReport()
        for ns, r in zip(n_stars, risks):
            report.rows.append((int(ns), 1, 1, float(ns), float(r), 0.0, 30))
        return report

    def test_exact_power_law(self):
        ns = np.array([1e3, 1e4, 1e5, 1e6])
        report = self.make_report(ns, 3.0 * ns ** (-0.44))
        slope, se, r2 = fit_rate(report, "log_nstar")
        assert slope == pytest.approx(-0.44, abs=1e-10)
        assert se == pytest.approx(0.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_log_power_law(self):
        ns = np.array([1e3, 1e4, 1e5, 1e6, 1e8])
        report = self.make_report(ns, 2.0 * np.log(ns) ** (-3.0))
        slope, _, _ = fit_rate(report, "log_log_nstar")
        assert slope == pytest.approx(-3.0, abs=1e-10)

    def test_rate_axis(self):
        ns = np.array([3.0, 1e3, 1e8])
        assert rate_axis("log_nstar", ns).tobytes() == np.log(ns).tobytes()
        assert rate_axis("log_log_nstar", ns).tobytes() == np.log(np.log(ns)).tobytes()
        with pytest.raises(ConfigError):
            rate_axis("bogus", ns)

    def test_degenerate(self):
        report = self.make_report([1e3, 1e4], [1.0, 0.5])
        with pytest.raises(DegenerateFitError):
            fit_rate(report)
        with pytest.raises(ConfigError):
            fit_rate(self.make_report([1e3] * 5, [1.0] * 5), "bogus")
