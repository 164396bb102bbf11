"""Adaptive block-thresholding wavelet estimator.

Pipeline: per-channel DFT -> weighted-ratio Fourier deconvolution

    fhat_m = [sum_l N^(-2 d_l) conj(g_m(u_l)) y_m(u_l)]
             / [sum_l N^(-2 d_l) |g_m(u_l)|^2]

-> Meyer analysis at data-driven levels -> keep-or-kill on blocks of
~ln n coefficients against level thresholds -> synthesis back to the grid.

Level and threshold rules (regular regime, alpha1 = 0):

    2^j0 = ln n*,  2^J = (n*)^(1 / (2 nu + 1)),
    lambda_j = mu^2 (n*)^-1 ln(n*) 2^(2 nu j) j^lambda1,

and in the super-smooth regime (alpha1 > 0) a linear estimator at
2^j0 = (3 / 8 pi) (ln n* / (2 alpha1))^(1/beta), J = j0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import BlurKernel, ChannelDesign, epsilon_n, kernel_fourier
from .errors import ConfigError, NumericError
from .fourier import FourierSeries, coeffs_to_grid
from .meyer import MeyerSpec, WaveletCoefficients, analyze, needed_band, synthesize_series
from .noise import _blocks

__all__ = [
    "EstimatorConfig",
    "ThresholdDecision",
    "EstimateResult",
    "Plan",
    "plan",
    "fourier_deconvolve",
    "choose_levels",
    "threshold_value",
    "block_length",
    "block_threshold",
    "estimate",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator knobs: threshold constant mu, kernel decay (nu, lambda1) or
    super-smooth parameters (alpha1, beta), and numeric tolerances.  The Meyer
    basis has one auxiliary function, so ``aux_poly`` accepts "poly7" alone."""

    mu: float = 1.0
    nu: float = 1.0
    lambda1: float = 0.0
    alpha1: float = 0.0
    beta: float = 1.0
    denom_tol: float = 1e-12
    level_override: tuple | None = None
    # no config key reaches it: it stays only for perfbench/workloads.py, which
    # reads it into MeyerSpec, until the benchmark drops that read
    aux_poly: str = "poly7"

    def __post_init__(self):
        # NaN fails every comparison, so the "not" form rejects it too
        if not 0 <= self.mu < math.inf:
            raise ConfigError("mu must be >= 0 and finite")
        if not 0 <= self.nu < math.inf:
            raise ConfigError("nu must be >= 0 and finite")
        if not math.isfinite(self.lambda1):
            raise ConfigError("lambda1 must be finite")
        if not 0.0 < self.denom_tol <= 1e-3:
            raise ConfigError("denom_tol must lie in (0, 1e-3]")
        if not 0 <= self.alpha1 < math.inf:
            raise ConfigError("alpha1 must be >= 0 and finite")
        if self.alpha1 > 0 and not 0 < self.beta < math.inf:
            raise ConfigError("beta must be > 0 and finite in the super-smooth regime")
        if self.level_override is not None:
            j0, J = self.level_override
            if not 0 <= j0 <= J:
                raise ConfigError("level_override must satisfy 0 <= j0 <= J")
        if self.aux_poly != "poly7":
            raise ConfigError(f"unknown auxiliary function {self.aux_poly!r}")

    @property
    def supersmooth(self) -> bool:
        return self.alpha1 > 0


@dataclass
class ThresholdDecision:
    level: int
    block: int
    energy: float
    threshold: float
    kept: bool


@dataclass(frozen=True)
class Plan:
    """What a design and the estimator settings fix before any data (``band``: the
    largest |m| the analysis reads); ``estimate`` fills in ``ill_posed``."""

    n: int
    M: int
    N: int
    epsilon_n: float
    n_star: float
    j0: int
    J: int
    band: int
    thresholds: bool
    warnings: tuple
    ill_posed: list | None = None


@dataclass
class EstimateResult:
    grid: np.ndarray
    coeffs: WaveletCoefficients
    decisions: list
    diagnostics: Plan


@functools.lru_cache(maxsize=16)
def _deconvolution_weights(design: ChannelDesign, kernel: BlurKernel, denom_tol: float,
                           band: int) -> tuple:
    """The kernel-dependent part of ``fourier_deconvolve`` at |m| <= band.

    Returns the weights w_l conj(g_m(u_l)) with w_l = N^(-2 d_l), the
    denominators, the mask of well-posed m (all read-only and C-contiguous)
    and the ill-posed frequencies.  The cutoff and the ill-posed list are
    taken over the full alias-free band whatever ``band`` is, so a narrower
    band returns a slice of the full one.  The full band is walked in blocks
    of M x cols kernel values (``noise._blocks``), cols >= 2 since np.sum adds
    a C-ordered block's channels row by row but a single column's pairwise;
    the band's kernel values are copied out of the blocks that cover them, so
    each value is computed once and a band that fits one block makes one
    ``kernel_fourier`` call.  Raises NumericError when a denominator is not
    finite (|g|^2 overflows).
    """
    N = design.N
    full = design.alias_free_band
    m = np.arange(-full, full + 1)
    u = design.u_array()
    w = design.weight_array()[:, None]
    denom = np.empty(m.size)
    keep = slice(full - band, full + band + 1)
    g_band = np.empty((design.M, 2 * band + 1), dtype=complex)
    for cols in _blocks(m.size, design.M, least=2):
        g = np.ascontiguousarray(kernel_fourier(kernel, u, m[cols]))
        with np.errstate(over="ignore"):
            denom[cols] = np.sum(w * np.abs(g) ** 2, axis=0)
        lo, hi = max(cols.start, keep.start), min(cols.stop, keep.stop)
        if lo < hi:
            g_band[:, lo - keep.start:hi - keep.start] = g[:, lo - cols.start:hi - cols.start]
    if not np.isfinite(denom).all():
        m = int(np.flatnonzero(~np.isfinite(denom))[0]) - full
        raise NumericError(
            f"deconvolution weights: the denominator sum_l N^(-2 d_l) |g_m(u_l)|^2 is not "
            f"finite at m = {m} (N = {N}); the kernel values are too large"
        )
    ok = (denom >= denom_tol * denom.max()) & (denom > 0)  # an all-zero kernel is blind
    ill_posed = tuple(int(m) - full for m in np.flatnonzero(~ok))
    weights = np.multiply(w, np.conj(g_band, out=g_band), out=g_band)
    arrays = (weights, denom[keep].copy(), ok[keep].copy())
    for a in arrays:
        a.flags.writeable = False
    return arrays + (ill_posed,)


def _weights_width(design: ChannelDesign, band: int) -> int:
    """The band of the weights that ``fourier_deconvolve`` reads for ``band``.
    np.sum adds the channels of a C-ordered block row by row, but those of a
    single column pairwise; so band 0 is computed as |m| <= 1 and cut."""
    return min(max(band, 1), design.alias_free_band)


def ill_posed_frequencies(design: ChannelDesign, kernel: BlurKernel, denom_tol: float,
                          band: int) -> tuple:
    """The ill-posed m of the full alias-free band that ``fourier_deconvolve``
    at ``band`` reports, from the weights cache that such a call fills."""
    return _deconvolution_weights(design, kernel, denom_tol, _weights_width(design, band))[3]


def fourier_deconvolve(y: np.ndarray, design: ChannelDesign, kernel: BlurKernel,
                       denom_tol: float = 1e-12,
                       band: int | None = None) -> tuple[FourierSeries, list]:
    """Weighted-ratio estimator of f_m at |m| <= band (default: the alias-free
    band N/2 - 1).

    Frequencies whose denominator falls below denom_tol times the largest
    denominator of the full band are zero-filled and reported (ill-posed
    policy; the list always covers the full band).  The kernel weights are
    computed once per (design, kernel, denom_tol, band) and cached; the
    values at |m| <= K are the same bits for every band >= K.  The channel
    DFTs come from a real FFT of a block of rows at a time (``noise._blocks``),
    of which only the columns 0..band are kept, with y_(-m) = conj(y_m);
    raises NumericError when one of them overflows at a frequency the band
    reads, or when the weighted sum over the channels, or its ratio, is not
    finite there.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (design.M, design.N):
        raise ConfigError(f"y must be M x N = {design.M} x {design.N}, got {y.shape}")
    full = design.alias_free_band
    if band is None:
        band = full
    elif not 0 <= band <= full:
        raise NumericError(f"band {band} outside the alias-free band 0..{full}")
    width = _weights_width(design, band)
    weights, denom, ok, ill_posed = _deconvolution_weights(design, kernel, denom_tol, width)
    half = np.empty((design.M, width + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in an overflowing row
        for rows in _blocks(design.M, design.N):
            half[rows] = np.fft.rfft(y[rows], axis=1)[:, : width + 1]
    if not np.isfinite(half).all():
        row, m = (int(i) for i in np.argwhere(~np.isfinite(half))[0])
        raise NumericError(
            f"channel DFT: the DFT of row {row} of y is not finite at m = {m} "
            f"(N = {design.N}); the observations are too large"
        )
    half /= design.N
    Ym = np.concatenate([np.conj(half[:, width:0:-1]), half], axis=1)
    values = np.zeros(2 * width + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        numer = np.sum(weights * Ym, axis=0)
        values[ok] = numer[ok] / denom[ok]
    values = values[width - band:width + band + 1]
    if not np.isfinite(values).all():
        m = int(np.flatnonzero(~np.isfinite(values))[0]) - band
        raise NumericError(
            f"deconvolution: the weighted sum over the {design.M} channels is not finite "
            f"at m = {m} (N = {design.N}); the observations are too large"
        )
    return FourierSeries(band, values), list(ill_posed)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def choose_levels(n_star: float, config: EstimatorConfig, N: int) -> tuple[int, int, list]:
    """Coarsest/finest levels (j0, J) from n*; J is exclusive.

    ``config.level_override`` wins when set; an override whose J exceeds
    log2 N - 1 raises ConfigError, since the basis at such a level reads
    frequencies above the per-channel band N/2 - 1.
    Regular regime: j0 = round(log2 ln n*), J = floor(log2 (n*)^(1/(2 nu + 1))).
    Super-smooth: 2^j0 = (3/8 pi)(ln n* / (2 alpha1))^(1/beta) rounded to the
    nearest level and J = j0 (linear estimator only).  Levels are clamped so
    every needed frequency stays below the per-channel Nyquist band.
    """
    j_cap = int(math.log2(N)) - 1
    if config.level_override is not None:
        j0, J = config.level_override
        if J > j_cap:
            raise ConfigError(
                f"level_override J = {J} exceeds log2 N - 1 = {j_cap} at N = {N}: "
                f"the basis would need frequencies above the band N/2 - 1 = {N // 2 - 1}"
            )
        return j0, J, []
    if not n_star > math.e:
        raise ConfigError(f"n_star must exceed e for a level choice, got {n_star}")
    warnings: list[str] = []
    log_ns = math.log(n_star)
    if config.supersmooth:
        target = 3.0 / (8.0 * math.pi) * (log_ns / (2.0 * config.alpha1)) ** (1.0 / config.beta)
        j0 = _round_half_up(math.log2(target))
        if j0 < 0:
            warnings.append(
                f"super-smooth level rule gives 2^j0 = {target:.4g} < 1; clamped to j0 = 0"
            )
            j0 = 0
        J = j0
    else:
        j0 = _round_half_up(math.log2(log_ns))
        J = int(math.floor(math.log2(n_star) / (2.0 * config.nu + 1.0) + 1e-12))
    if J > j_cap:
        warnings.append(f"J clamped from {J} to {j_cap} by the N = {N} frequency band")
        J = j_cap
    if j0 > J:
        warnings.append(f"j0 = {j0} exceeds J = {J}; clamped (estimator is linear)")
        j0 = J
    return j0, J, warnings


def plan(design: ChannelDesign, config: EstimatorConfig) -> Plan:
    """A design's plan, with no kernel evaluated and no noise drawn; the estimate
    thresholds in the regular regime when J > j0, else it is linear at level J."""
    eps, n_star = epsilon_n(design)
    j0, J, warnings = choose_levels(n_star, config, design.N)
    return Plan(n=design.n, M=design.M, N=design.N, epsilon_n=eps, n_star=n_star,
                j0=j0, J=J, band=needed_band(MeyerSpec(j0, J)),
                thresholds=not config.supersmooth and J > j0, warnings=tuple(warnings))


def threshold_value(j: int, n_star: float, config: EstimatorConfig) -> float:
    """lambda_j = mu^2 (n*)^-1 ln(n*) 2^(2 nu j) j^lambda1, with 0^lambda1 := 1."""
    if config.supersmooth:
        raise ConfigError("thresholds are undefined in the super-smooth regime")
    j_pow = 1.0 if j == 0 else float(j) ** config.lambda1
    return config.mu ** 2 / n_star * math.log(n_star) * 2.0 ** (2.0 * config.nu * j) * j_pow


def block_length(n: int) -> int:
    """The block length ceil(ln n) of the keep-or-kill rule: block r (from 1)
    of a level holds coefficients k with k // ceil(ln n) = r - 1, and the last
    block keeps the remainder."""
    if n < 3:
        raise ConfigError(f"block thresholding needs n >= 3, got {n}")
    return int(math.ceil(math.log(n)))


def block_threshold(coeffs_hat: WaveletCoefficients, n: int, n_star: float,
                    config: EstimatorConfig) -> tuple[WaveletCoefficients, list]:
    """Keep a detail block iff its energy reaches the level threshold.

    Scaling coefficients pass through untouched; decisions are returned for
    audit (one per block, kept == energy >= threshold).  The blocks have
    ``block_length(n)`` coefficients; each level's full blocks are summed as
    the rows of one reshape, which numpy reduces with the same pairwise
    routine as a sum over one block's slice, so the energies are the
    per-block sums bit for bit.
    """
    out = coeffs_hat.copy()
    length = block_length(n)
    decisions: list[ThresholdDecision] = []
    for j in range(coeffs_hat.j0, coeffs_hat.J):
        lam = threshold_value(j, n_star, config)
        vec = out.detail[j]
        power = np.abs(vec) ** 2
        full = vec.size - vec.size % length
        energies = power[:full].reshape(-1, length).sum(axis=1)
        if full < vec.size:  # the short last block
            energies = np.append(energies, np.sum(power[full:]))
        kept = energies >= lam
        vec[~np.repeat(kept, length)[:vec.size]] = 0.0
        decisions += [ThresholdDecision(j, r, energy, lam, keep) for r, (energy, keep)
                      in enumerate(zip(energies.tolist(), kept.tolist()), start=1)]
    return out, decisions


def estimate(y: np.ndarray, design: ChannelDesign, kernel: BlurKernel,
             config: EstimatorConfig) -> EstimateResult:
    """Full pipeline on the design's plan: deconvolve, analyze, threshold, synthesize."""
    p = plan(design, config)
    spec = MeyerSpec(p.j0, p.J)
    f_hat, ill_posed = fourier_deconvolve(y, design, kernel, config.denom_tol, band=p.band)
    coeffs = analyze(f_hat, spec)

    if not p.thresholds:
        thresholded, decisions = coeffs, []
    else:
        thresholded, decisions = block_threshold(coeffs, design.n, p.n_star, config)

    series = synthesize_series(thresholded)
    grid = coeffs_to_grid(series, design.N).real
    return EstimateResult(grid, thresholded, decisions, replace(p, ill_posed=ill_posed))
