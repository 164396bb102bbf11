"""Monte Carlo risk benchmarks: Besov balls, test functions, theoretical
rate forecasts, and empirical convergence-rate fits.

The empirical risk for one truth f is the replicate mean of the grid norm
(1/N) sum_i (fhat(t_i) - f(t_i))^2, which for band-limited truths equals the
squared L^2 distance exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import BlurKernel, ChannelDesign, simulate_observations
from .errors import ConfigError, DegenerateFitError, NumericError, require_int
from .estimator import EstimatorConfig, estimate, plan
from .fourier import FourierSeries, coeffs_to_grid
from .meyer import WaveletCoefficients

__all__ = [
    "MIN_REPS",
    "BesovBall",
    "RateForecast",
    "RiskReport",
    "besov_seminorm",
    "make_test_function",
    "theoretical_rate",
    "mc_risk",
    "rate_axis",
    "fit_rate",
]

# Fewest replicates per grid point that ``mc_risk`` and ``bench.reps`` accept.
MIN_REPS = 30


@dataclass(frozen=True)
class BesovBall:
    """Ball B^s_{p,q}(A): smoothness s, integrabilities p and q, radius A.

    Derived exponents: s' = s + 1/2 - 1/p, p' = min(p, 2),
    s* = s + 1/2 - 1/p' = min(s, s').
    """

    s: float
    p: float
    q: float
    radius: float

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1):
            raise ConfigError("need p >= 1 and q >= 1")
        if not max(0.0, 1.0 / self.p - 0.5) < self.s < math.inf:
            raise ConfigError("need s > max(0, 1/p - 1/2) and finite")
        if not 0 < self.radius < math.inf:
            raise ConfigError("ball radius must be > 0 and finite")

    @property
    def s_prime(self) -> float:
        return self.s + 0.5 - 1.0 / self.p

    @property
    def p_prime(self) -> float:
        return min(self.p, 2.0)

    @property
    def s_star(self) -> float:
        return self.s + 0.5 - 1.0 / self.p_prime


@dataclass(frozen=True)
class RateForecast:
    """Predicted risk decay: risk ~ (n*)^-exponent (ln n)^log_exponent,
    or (ln n*)^-log_exponent with exponent = 0 in the super-smooth regime."""

    regime: str  # "dense" | "sparse" | "supersmooth"
    exponent: float
    log_exponent: float
    rho: float


@dataclass
class RiskReport:
    rows: list = field(default_factory=list)  # (n, M, N, n_star, mean, se, reps)

    def column(self, name: str) -> np.ndarray:
        idx = {"n": 0, "M": 1, "N": 2, "n_star": 3, "risk_mean": 4, "risk_se": 5, "reps": 6}[name]
        return np.asarray([row[idx] for row in self.rows])


def _lp(vals: np.ndarray, p: float) -> float:
    if not vals.size:
        return 0.0
    if math.isinf(p):
        return float(np.max(vals))
    return float(np.sum(vals ** p) ** (1.0 / p))


def besov_seminorm(coeffs: WaveletCoefficients, ball: BesovBall) -> float:
    """Besov norm from wavelet coefficients, with max-conventions at p or q = inf.

    norm = (sum_k |a_{j0 k}|^p)^(1/p)
         + (sum_j [2^(j s') (sum_k |b_{jk}|^p)^(1/p)]^q)^(1/q)

    Requires enough levels for the level sum to have converged: the last
    level may contribute at most 1% of the detail part.
    """
    a_term = _lp(np.abs(coeffs.scaling), ball.p)
    terms = np.array([
        2.0 ** (j * ball.s_prime) * _lp(np.abs(coeffs.detail[j]), ball.p)
        for j in range(coeffs.j0, coeffs.J)
    ])
    if terms.size:
        detail = _lp(terms, ball.q)
        if detail > 0:
            last = terms[-1] if math.isinf(ball.q) else _lp(terms[-1:], ball.q)
            if last > 0.01 * detail:
                raise NumericError(
                    "besov_seminorm: top level contributes more than 1% of the norm; "
                    "supply more levels"
                )
    else:
        detail = 0.0
    return a_term + detail


@np.errstate(all="ignore")  # a parameter that gives a non-finite truth raises below
def make_test_function(name: str, band: int, params: dict | None = None) -> FourierSeries:
    """Band-limited test truths with Hermitian coefficient tables; every
    coefficient must be finite.

    smooth_sine        mean + amplitude * cos(2 pi freq t)
    bump_mix           mixture of periodized Gaussian bumps
    sawtooth_smoothed  odd sawtooth-like profile with |f_m| ~ |m|^(-1-decay)
    """
    params = dict(params or {})
    if band < 0:
        raise ConfigError("band must be >= 0")
    values = np.zeros(2 * band + 1, dtype=complex)
    m = np.arange(-band, band + 1)

    if name == "smooth_sine":
        freq = require_int(params.pop("freq", 3), "smooth_sine freq")
        amp = float(params.pop("amplitude", 1.0))
        mean = float(params.pop("mean", 0.0))
        if freq < 0:
            raise ConfigError(f"smooth_sine freq must be >= 0, got {freq}")
        if freq > band:
            raise ConfigError(f"freq {freq} exceeds band {band}")
        values[band] = mean
        if freq > 0:
            values[band + freq] += amp / 2.0
            values[band - freq] += amp / 2.0
        else:
            values[band] += amp
    elif name == "bump_mix":
        centers = params.pop("centers", (0.3, 0.7))
        widths = params.pop("widths", (0.05, 0.1))
        weights = params.pop("weights", (1.0, 0.7))
        amp = float(params.pop("amplitude", 1.0))
        lengths = (len(centers), len(widths), len(weights))
        if not 0 < lengths[0] == lengths[1] == lengths[2]:
            raise ConfigError("bump_mix centers, widths and weights must be non-empty lists "
                              f"of equal length, got lengths {lengths}")
        for c, w, a in zip(centers, widths, weights):
            values += amp * a * np.exp(-2.0 * (np.pi * w * m) ** 2) * np.exp(-2j * np.pi * m * c)
    elif name == "sawtooth_smoothed":
        m0 = float(params.pop("m0", 4.0))
        decay = float(params.pop("decay", 1.5))
        amp = float(params.pop("amplitude", 1.0))
        if not 0 < m0 < math.inf:
            raise ConfigError(f"sawtooth_smoothed m0 must be > 0 and finite, got {m0}")
        nz = m != 0
        mf = m[nz].astype(float)
        values[nz] = amp / (1j * np.pi * mf) * (1.0 + (mf / m0) ** 2) ** (-decay / 2.0)
    else:
        raise ConfigError(f"unknown test function {name!r}")
    if params:
        raise ConfigError(f"unused test-function parameters: {sorted(params)}")
    if not np.isfinite(values).all():
        raise ConfigError(f"{name} parameters give a truth with non-finite coefficients")
    return FourierSeries(band, values)


def theoretical_rate(ball: BesovBall, nu: float, lambda1: float = 0.0,
                     alpha1: float = 0.0, beta: float = 1.0) -> RateForecast:
    """Risk-decay forecast for the three regimes.

    Super-smooth (alpha1 > 0): risk ~ (ln n*)^(-2 s*/beta).
    Regular dense  (nu (2-p) <  p s*): risk ~ (n*)^(-2s/(2s+2nu+1)) times
    (ln n)^(rho + 2 s lambda1/(2s+2nu+1)).
    Regular sparse (nu (2-p) >= p s*): risk ~ (ln n / n*)^(2s*/(2s*+2nu))
    times (ln n)^(rho + 2 s* lambda1/(2s*+2nu)); its log_exponent below
    collects every ln power.
    """
    if not ball.s > 1.0 / ball.p_prime:
        raise ConfigError("rate forecast requires s > 1/p'")
    if alpha1 > 0:
        if beta <= 0:
            raise ConfigError("beta must be > 0 when alpha1 > 0")
        return RateForecast("supersmooth", 0.0, 2.0 * ball.s_star / beta, 0.0)
    if nu <= 0:
        raise ConfigError("regular regime requires nu > 0")

    s, s_star, p, q = ball.s, ball.s_star, ball.p, ball.q
    lhs = nu * (2.0 - p) if not math.isinf(p) else -math.inf
    rhs = p * s_star if not math.isinf(p) else math.inf
    if lhs < rhs:
        rho = (2.0 * nu + 1.0) * max(0.0, 2.0 - p) / (p * (2.0 * s + 2.0 * nu + 1.0)) \
            if not math.isinf(p) else 0.0
        exponent = 2.0 * s / (2.0 * s + 2.0 * nu + 1.0)
        log_exp = rho + 2.0 * s * lambda1 / (2.0 * s + 2.0 * nu + 1.0)
        return RateForecast("dense", exponent, log_exp, rho)
    if lhs == rhs:
        rho = max(0.0, q - p) / q if not math.isinf(q) else 1.0
    else:
        rho = 0.0
    exponent = 2.0 * s_star / (2.0 * s_star + 2.0 * nu)
    log_exp = exponent + rho + 2.0 * s_star * lambda1 / (2.0 * s_star + 2.0 * nu)
    return RateForecast("sparse", exponent, log_exp, rho)


def mc_risk(f: FourierSeries, design_for_n: Callable[[int], ChannelDesign],
            kernel: BlurKernel, config: EstimatorConfig, n_grid,
            reps: int, master_seed: int, threads: int = 1) -> RiskReport:
    """Monte Carlo L2 risk over a sample-size grid.

    Replicate rep at sample count n uses seed
    SeedSequence(master_seed, spawn_key=(n, rep)), so any execution order
    (or thread count) reproduces identical statistics, and the same n gives
    the same draws in any grid.
    """
    if reps < MIN_REPS:
        raise ConfigError(f"reps must be >= {MIN_REPS}")
    report = RiskReport()
    for n in n_grid:
        design = design_for_n(int(n))
        if design.n != int(n):
            raise ConfigError(f"design for n={n} has n={design.n}")
        truth_grid = coeffs_to_grid(f, design.N).real
        n_star = plan(design, config).n_star

        def one_rep(rep: int) -> float:
            seed = np.random.SeedSequence(master_seed, spawn_key=(int(n), rep))
            y = simulate_observations(f, design, kernel, seed)
            result = estimate(y, design, kernel, config)
            risk = float(np.mean((result.grid - truth_grid) ** 2))
            if not math.isfinite(risk):
                raise NumericError(f"replicate {rep} at n = {n} has a non-finite risk {risk}")
            return risk

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                risks = np.fromiter(pool.map(one_rep, range(reps)), dtype=float, count=reps)
        else:
            risks = np.fromiter((one_rep(r) for r in range(reps)), dtype=float, count=reps)
        mean = float(risks.mean())
        se = float(risks.std(ddof=1) / math.sqrt(reps))
        report.rows.append((int(n), design.M, design.N, n_star, mean, se, reps))
    return report


def rate_axis(regressor: str, n_star: np.ndarray) -> np.ndarray:
    """The axis a regressor fits log risk against: log n* for ``log_nstar``,
    log ln n* for ``log_log_nstar``."""
    if regressor == "log_nstar":
        return np.log(n_star)
    if regressor == "log_log_nstar":
        return np.log(np.log(n_star))
    raise ConfigError(f"unknown regressor {regressor!r}")


def fit_rate(report: RiskReport, regressor: str = "log_nstar") -> tuple[float, float, float]:
    """OLS slope of log risk against ``rate_axis(regressor, n*)``, with SE and R^2."""
    n_star = report.column("n_star").astype(float)
    risks = report.column("risk_mean").astype(float)
    mask = risks > 0
    if mask.sum() < 4:
        raise DegenerateFitError("need at least 4 grid points with positive risk")
    x = rate_axis(regressor, n_star[mask])
    y = np.log(risks[mask])
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx <= 0:
        raise DegenerateFitError("regressor has no spread")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = y.mean() - slope * x.mean()
    resid = y - slope * x - intercept
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / sxx)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return slope, se, r2
