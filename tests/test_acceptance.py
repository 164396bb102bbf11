"""Acceptance suite: every criterion at its stated tolerance, one summary
line per criterion (see the 'acceptance criteria' section of the pytest
terminal summary).

Criterion 1 checks both extreme eigenvalues of the Toeplitz covariance T_N
with symbol 2*pi*a, a the spectral density.  The largest grows like N^(2d).
The smallest does not: T_N is a principal submatrix of T_N' for N' > N, so
by Cauchy interlacing lambda_min(N) is nonincreasing, and the Rayleigh
quotient x' T_N x = integral |sum_k x_k e^(ik lambda)|^2 a(lambda) d lambda
>= 2*pi*min(a) |x|^2 bounds it below.  It converges to that floor
(Grenander & Szego, 1958), so check 1c asserts the floor, the monotonicity,
the convergence and a log-log slope of about 0, not 2d.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from testkit import boxcar_linear_design, record_acceptance, spectral_density
from lrdeconv.channels import (
    BlurKernel,
    boxcar_S_closed_form,
    delta_1,
    epsilon_n,
    simulate_observations,
)
from lrdeconv.cli import main
from lrdeconv.config import (
    build_ball,
    build_estimator_config,
    build_kernel,
    build_truth,
    design_for_n,
    load_config,
)
from lrdeconv.estimator import (
    EstimatorConfig,
    choose_levels,
    fourier_deconvolve,
    threshold_value,
)
from lrdeconv.fourier import FourierSeries
from lrdeconv.meyer import MeyerSpec, analyze, frequency_set, periodized_coeff
from lrdeconv.noise import NoiseModel, toeplitz_eigen_bounds
from lrdeconv.riskbench import fit_rate, mc_risk

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

EIGEN_MODELS = [
    NoiseModel.white(),
    NoiseModel.farima(0.1),
    NoiseModel.farima(0.25),
    NoiseModel.farima(0.4),
    NoiseModel.fgn(hurst=0.6),
    NoiseModel.fgn(hurst=0.75),
    NoiseModel.fgn(hurst=0.9),
]
EIGEN_SIZES = [64, 128, 256, 512, 1024]


def loglog_slope(values) -> float:
    """Least-squares slope of log(values) against log(EIGEN_SIZES)."""
    return float(np.polyfit(np.log(EIGEN_SIZES), np.log(values), 1)[0])


class TestCriterion1Eigenvalues:
    def test_white_noise_identity(self):
        summaries = [toeplitz_eigen_bounds(NoiseModel.white(1.3), n) for n in EIGEN_SIZES]
        ok = all(abs(s.lambda_min - 1.3 ** 2) < 1e-10
                 and abs(s.lambda_max - 1.3 ** 2) < 1e-10 for s in summaries)
        record_acceptance("1a eigenvalue law (white)", ok,
                          "lambda_min = lambda_max = scale^2 to 1e-10")
        assert ok

    def test_lambda_max_slope_is_2d(self):
        gaps = {}
        for model in EIGEN_MODELS:
            smax = loglog_slope([toeplitz_eigen_bounds(model, n).lambda_max
                                 for n in EIGEN_SIZES])
            gaps[f"{model.kind}(d={model.d:g})"] = smax - 2 * model.d
        ok = all(abs(g) <= 0.15 for g in gaps.values())
        worst = max(gaps.items(), key=lambda kv: abs(kv[1]))
        record_acceptance("1b eigenvalue law (lambda_max)", ok,
                          f"worst slope gap {worst[1]:+.3f} at {worst[0]} (tol 0.15)")
        assert ok, gaps

    def test_lambda_min_slope_is_2d(self):
        grid = np.linspace(0.0, np.pi, 1025)[1:]  # (0, pi], pi included
        slopes, gaps, failed = {}, {}, {}
        for model in EIGEN_MODELS:
            name = f"{model.kind}(d={model.d:g})"
            floor = 2 * np.pi * float(np.min(spectral_density(model, grid)))
            lam_min = np.array([toeplitz_eigen_bounds(model, n).lambda_min
                                for n in EIGEN_SIZES])
            slopes[name] = loglog_slope(lam_min)
            gaps[name] = float(lam_min[-1] / floor - 1.0)
            checks = {
                "floor": bool(np.all(lam_min >= floor * (1 - 1e-10))),
                "monotone": bool(np.all(lam_min[1:] <= lam_min[:-1] * (1 + 1e-12))),
                "convergence": gaps[name] <= 1e-4,
                "slope": abs(slopes[name]) <= 0.05,
            }
            if not all(checks.values()):
                failed[name] = [k for k, v in checks.items() if not v]
        ok = not failed
        worst_slope = max(slopes, key=lambda k: abs(slopes[k]))
        worst_gap = max(gaps, key=gaps.get)
        record_acceptance(
            "1c eigenvalue law (lambda_min)", ok,
            f"worst slope {slopes[worst_slope]:+.1e} at {worst_slope} (tol 0.05); "
            f"worst lambda_min({EIGEN_SIZES[-1]})/(2 pi min a) - 1 = "
            f"{gaps[worst_gap]:.1e} at {worst_gap} (tol 1e-4); "
            f"failed checks: {failed or 'none'}"
        )
        assert ok, (
            "lambda_min must stay above 2 pi min a, be nonincreasing in N and "
            f"converge to that floor. Failed checks: {failed}; slopes {slopes}; "
            f"relative gaps {gaps}"
        )


class TestCriterion2Meyer:
    def test_gram_identity_and_coefficient_bound(self):
        spec = MeyerSpec(3, 7)
        band = 90
        rows = [periodized_coeff(spec, 3, k, np.arange(-band, band + 1), "scaling")
                for k in range(8)]
        for j in range(3, 7):
            rows.extend(periodized_coeff(spec, j, k, np.arange(-band, band + 1))
                        for k in range(2 ** j))
        V = np.asarray(rows)
        gram_err = float(np.abs(V @ V.conj().T - np.eye(len(rows))).max())

        bound_ok = True
        for j in range(0, 9):
            members = frequency_set(spec, j).members
            for k in range(2 ** j):
                vals = np.abs(periodized_coeff(spec, j, k, members))
                if not np.all(vals <= 2.0 ** (-j / 2) + 1e-15):
                    bound_ok = False
        ok = gram_err <= 1e-8 and bound_ok
        record_acceptance("2 Meyer orthonormality", ok,
                          f"gram max error {gram_err:.2e} (tol 1e-8); "
                          f"|psi_mjk| <= 2^(-j/2): {bound_ok}")
        assert ok


class TestCriterion3BoxcarClosedForm:
    def test_closed_form_and_envelope(self):
        rng = np.random.default_rng(31415)
        worst = 0.0
        cases = 0
        while cases < 50:
            M = int(rng.integers(4, 700))
            N = 2 ** int(rng.integers(4, 15))
            m = int(rng.integers(1, 3 * M))
            a1 = float(rng.uniform(0.01, 0.45))
            if cases % 10 == 0:  # force the resonant branch regularly
                m = (M // 2) * max(1, cases // 10) if M % 2 == 0 else M
            l = np.arange(1, M + 1)
            brute = float(np.mean(np.sin(2 * np.pi * ((m * l) % M) / M) ** 2
                                  * N ** (-2.0 * a1 * l / M)))
            worst = max(worst, abs(brute - boxcar_S_closed_form(m, M, N, a1)))
            cases += 1

        sup_env = 0.0
        for N in (2 ** 10, 2 ** 12, 2 ** 14):
            for M in (8, 64, 256, 1024):
                for a1 in (0.05, 0.1, 0.2, 0.4):
                    for m in range(1, 50):
                        S = boxcar_S_closed_form(m, M, N, a1)
                        sup_env = max(sup_env, S * 2 * a1 * math.log(N))
        ok = worst <= 1e-10 and sup_env <= 1.1
        record_acceptance("3 box-car S closed form", ok,
                          f"max |closed - brute| {worst:.2e} (tol 1e-10); "
                          f"sup S*2a1*lnN = {sup_env:.3f} (tol 1.1)")
        assert ok


class TestCriterion4VarianceBound:
    def test_variance_ratio_band(self):
        design = boxcar_linear_design(2 ** 16, a1=0.2, a2=0.1, theta=0.5)
        kernel = BlurKernel("boxcar")
        spec = MeyerSpec(3, 7)
        reps = 500
        f0 = FourierSeries.zeros(1)
        acc = {j: [] for j in range(3, 7)}
        for rep in range(reps):
            y = simulate_observations(f0, design, kernel,
                                      np.random.SeedSequence(99, spawn_key=(rep,)))
            f_hat, _ = fourier_deconvolve(y, design, kernel)
            coeffs = analyze(f_hat, spec)
            for j in acc:
                acc[j].append(coeffs.detail[j].real)
        ratios = {}
        for j, rows in acc.items():
            B = np.asarray(rows)
            ratios[j] = float(B.var(axis=0, ddof=1).mean()
                              / (delta_1(design, kernel, j) / design.n))
        finite = all(np.isfinite(r) and r > 0 for r in ratios.values())
        spread = max(ratios.values()) / min(ratios.values())
        ok = finite and spread < 5.0
        record_acceptance("4 variance bound", ok,
                          f"Var/(n^-1 Delta_1) across j=3..6 spread factor "
                          f"{spread:.2f} (tol 5)")
        assert ok, ratios


class TestCriterion5RegularRate:
    def test_boxcar_rate_slope(self):
        cfg = load_config(CONFIG_DIR / "boxcar-regular.yaml")
        est = build_estimator_config(cfg)
        truth = build_truth(cfg)
        kernel = build_kernel(cfg)
        report = mc_risk(truth, lambda n: design_for_n(cfg, n), kernel, est,
                         [int(n) for n in cfg.bench["n_grid"]],
                         reps=int(cfg.bench["reps"]), master_seed=cfg.seed)
        slope, slope_se, _ = fit_rate(report, "log_nstar")
        target = -4.0 / 9.0
        ok = abs(slope - target) <= 0.15
        record_acceptance("5 regular-case rate", ok,
                          f"slope {slope:.3f} vs -2s/(2s+5) = {target:.3f} "
                          f"(tol 0.15, se {slope_se:.3f})")
        assert ok, report.rows


class TestCriterion6SupersmoothInsensitivity:
    def test_heat_rate_and_lrd_insensitivity(self):
        reports = {}
        for name in ("heat-supersmooth-d0", "heat-supersmooth-d04"):
            cfg = load_config(CONFIG_DIR / f"{name}.yaml")
            est = build_estimator_config(cfg)
            truth = build_truth(cfg)
            kernel = build_kernel(cfg)
            ball = build_ball(cfg)
            reports[name] = (cfg, ball, mc_risk(
                truth, lambda n: design_for_n(cfg, n), kernel, est,
                [int(n) for n in cfg.bench["n_grid"]],
                reps=int(cfg.bench["reps"]), master_seed=cfg.seed,
            ))

        r2s = {}
        for name, (cfg, ball, report) in reports.items():
            est = build_estimator_config(cfg)
            exponent = 2.0 * ball.s_star / est.beta
            x = np.log(report.column("n").astype(float)) ** (-exponent)
            y = report.column("risk_mean")
            coef = np.polyfit(x, y, 1)
            resid = y - np.polyval(coef, x)
            r2s[name] = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))

        ra = reports["heat-supersmooth-d0"][2]
        rb = reports["heat-supersmooth-d04"][2]
        diff = np.abs(ra.column("risk_mean") - rb.column("risk_mean"))
        pooled = np.sqrt(ra.column("risk_se") ** 2 + rb.column("risk_se") ** 2)
        max_sigma = float(np.max(diff / pooled))

        ok_a = all(r2 >= 0.9 for r2 in r2s.values())
        ok_b = max_sigma <= 3.0
        record_acceptance(
            "6 super-smooth LRD insensitivity", ok_a and ok_b,
            f"R^2 vs (ln n)^(-2s*/beta): "
            + ", ".join(f"{v:.3f}" for v in r2s.values())
            + f" (tol 0.9); max pointwise gap {max_sigma:.2f} pooled SE (tol 3)"
        )
        assert ok_a, r2s
        assert ok_b, max_sigma


class TestCriterion7IidLimit:
    def test_formulas_reduce_exactly(self):
        rng = np.random.default_rng(8)
        ok = True
        for _ in range(20):
            k = int(rng.integers(10, 22))
            n = 2 ** k
            theta = float(rng.choice([0.25, 0.5, 0.75]))
            design = boxcar_linear_design(n, a1=0.0, a2=0.0, theta=theta)
            eps, n_star = epsilon_n(design)
            ok &= eps == 1.0 and n_star == float(n)
            cfg = EstimatorConfig(mu=float(rng.uniform(0.5, 2.0)),
                                  nu=float(rng.choice([1.0, 2.0])),
                                  lambda1=float(rng.choice([0.0, 1.0])))
            levels_star = choose_levels(n_star, cfg, N=design.N)
            levels_n = choose_levels(float(n), cfg, N=design.N)
            ok &= levels_star == levels_n
            for j in range(levels_star[0], max(levels_star[1], levels_star[0] + 3)):
                ok &= threshold_value(j, n_star, cfg) == threshold_value(j, float(n), cfg)
        record_acceptance("7 iid limit", ok,
                          "eps_n = 1, n* = n exactly; level/threshold rules "
                          "coincide on 20 random configs")
        assert ok


class TestCriterion8NoiselessExactness:
    def test_cli_pipeline_recovers_truth(self, tmp_path):
        config = CONFIG_DIR / "noiseless-exact.yaml"
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        truth = np.loadtxt(out / "truth_grid.csv", delimiter=",", skiprows=5)
        fhat = np.loadtxt(out / "fhat_grid.csv", delimiter=",", skiprows=5)
        rel = float(np.sum((truth[:, 2] - fhat[:, 2]) ** 2) / np.sum(truth[:, 2] ** 2))
        ok = rel <= 1e-10
        record_acceptance("8 noiseless exactness", ok,
                          f"relative L2 error {rel:.2e} through the CLI (tol 1e-10)")
        assert ok
