"""Stationary Gaussian error sequences with long-range dependence.

Three families are supported, all with spectral density behaving like
|lambda|^(-2d) near the origin for a memory exponent d in [0, 1/2):

* ``white``  -- iid Gaussian, d = 0,
* ``farima`` -- fractional ARIMA(0, d, 0) driven by innovations with
  standard deviation ``scale``,
* ``fgn``    -- fractional Gaussian noise with Hurst index H = d + 1/2.

Exact sampling uses circulant embedding of the Toeplitz covariance
(Davies-Harte).  The embedding is nonnegative for FARIMA(0, d, 0) and fGn
with 0 <= d < 1/2 (Craigmile, 2003); a covariance whose embedding spectrum
falls below -NEG_TOL * gamma(0) raises NumericError instead of being sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from .errors import ConfigError, NumericError, SizeLimitError

__all__ = [
    "NoiseModel",
    "CovarianceSummary",
    "spectral_density",
    "autocovariance",
    "sample_path",
    "sample_paths",
    "toeplitz_eigen_bounds",
]

# Embedding spectra below -NEG_TOL * gamma(0) reject the embedding.
NEG_TOL = 1e-10
DENSE_EIGEN_LIMIT = 4096
# Embedding points per block of rows that ``sample_paths`` draws and
# transforms together: about 3 MB of buffers.
_BLOCK_POINTS = 2 ** 17


@dataclass(frozen=True)
class NoiseModel:
    """A zero-mean stationary Gaussian law: kind, memory exponent d, scale."""

    kind: str
    d: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("white", "farima", "fgn"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.d < 0.5:
            raise ConfigError(f"memory exponent must satisfy 0 <= d < 1/2, got {self.d}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        if self.kind == "white" and self.d != 0.0:
            raise ConfigError("white noise requires d = 0")

    @property
    def hurst(self) -> float:
        """Hurst index H = d + 1/2 (the fGn parametrization)."""
        return self.d + 0.5

    @classmethod
    def white(cls, scale: float = 1.0) -> "NoiseModel":
        return cls("white", 0.0, scale)

    @classmethod
    def farima(cls, d: float, scale: float = 1.0) -> "NoiseModel":
        return cls("farima", d, scale)

    @classmethod
    def fgn(cls, hurst: float, scale: float = 1.0) -> "NoiseModel":
        if not 0.5 <= hurst < 1.0:
            raise ConfigError(f"fGn requires 1/2 <= H < 1, got {hurst}")
        return cls("fgn", hurst - 0.5, scale)


@dataclass(frozen=True)
class CovarianceSummary:
    """Extreme eigenvalues of the N x N Toeplitz covariance and N^(2d) ratios.

    Only ``ratio_max = lambda_max / N^(2d)`` stays in a bounded band as N
    grows.  ``lambda_min`` is nonincreasing in N and converges to
    2 pi min a, a the spectral density, so ``ratio_min = lambda_min / N^(2d)``
    tends to 0 for d > 0.
    """

    n_points: int
    lambda_min: float
    lambda_max: float
    ratio_min: float
    ratio_max: float


def spectral_density(model: NoiseModel, lam) -> np.ndarray:
    """Spectral density a(lambda) on [-pi, pi].

    White: scale^2 / (2 pi).  FARIMA(0,d,0):
    (scale^2 / 2 pi) |2 (1 - cos lambda)|^(-d).  fGn: the classical
    4 sin^2(lambda/2) * sum_k |k + lambda/(2 pi)|^(-2H-1) series, evaluated
    exactly through Hurwitz zeta functions.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(np.abs(lam_arr) > np.pi + 1e-12):
        raise ConfigError("spectral density defined on [-pi, pi] only")
    if model.d > 0 and np.any(lam_arr == 0.0):
        raise NumericError("spectral density has a pole at lambda = 0 when d > 0")

    sigma2 = model.scale ** 2
    if model.kind == "white" or (model.kind == "farima" and model.d == 0.0):
        out = np.full_like(lam_arr, sigma2 / (2 * np.pi))
        return out if out.shape else float(out)

    if model.kind == "farima":
        out = sigma2 / (2 * np.pi) * np.abs(2.0 * (1.0 - np.cos(lam_arr))) ** (-model.d)
        return out if out.shape else float(out)

    # fGn: sum_{k in Z} |k + x|^(-s) = zeta(s, x) + zeta(s, 1 - x), x in (0, 1)
    H = model.hurst
    s = 2 * H + 1
    x = np.abs(lam_arr) / (2 * np.pi)
    zero = x == 0.0
    xs = np.where(zero, 0.25, x)  # placeholder, overwritten below
    series = special.zeta(s, xs) + special.zeta(s, 1.0 - xs)
    const = sigma2 * (2 * np.pi) ** (-2 * H - 2) * special.gamma(2 * H + 1) * np.sin(np.pi * H)
    out = const * 4.0 * np.sin(lam_arr / 2.0) ** 2 * series
    if np.any(zero):  # only reachable for H = 1/2 (d = 0): the white limit
        out = np.where(zero, sigma2 / (2 * np.pi), out)
    return out if out.shape else float(out)


def autocovariance(model: NoiseModel, lag) -> np.ndarray:
    """Autocovariance gamma(lag) consistent with ``spectral_density``.

    FARIMA uses the closed form
    gamma(k) = scale^2 * G(1-2d) G(k+d) / (G(d) G(1-d) G(k+1-d)) for d > 0
    (log-gamma evaluated to avoid overflow); fGn uses
    gamma(k) = (scale^2/2) (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).
    """
    k = np.abs(np.asarray(lag))
    sigma2 = model.scale ** 2

    if model.kind == "fgn":
        H2 = 2.0 * model.hurst
        kf = k.astype(float)
        out = 0.5 * sigma2 * ((kf + 1) ** H2 - 2 * kf ** H2 + np.abs(kf - 1) ** H2)
        return out if out.shape else float(out)

    if model.kind == "white" or model.d == 0.0:
        out = np.where(k == 0, sigma2, 0.0)
        return out if out.shape else float(out)

    d = model.d
    kf = k.astype(float)
    log_g = (
        special.gammaln(1 - 2 * d)
        + special.gammaln(kf + d)
        - special.gammaln(d)
        - special.gammaln(1 - d)
        - special.gammaln(kf + 1 - d)
    )
    out = sigma2 * np.exp(log_g)
    return out if out.shape else float(out)


@functools.lru_cache(maxsize=4)
def _embedding_spectra(models: tuple, n_points: int) -> np.ndarray:
    """sqrt(spectrum / m) of each model's circulant embedding, one row per model.

    The embedding has size m = 2(N-1) (1 for N = 1).  Rows are read-only;
    raises NumericError when an entry of a spectrum lies below
    -NEG_TOL * gamma(0).
    """
    eigs = []
    for model in models:
        gamma = np.asarray(autocovariance(model, np.arange(n_points)), dtype=float)
        c = np.concatenate([gamma, gamma[-2:0:-1]])  # [gamma(0)] alone for N = 1
        eig = np.fft.fft(c).real
        if eig.min() < -NEG_TOL * gamma[0]:
            raise NumericError(
                f"circulant embedding of the {model.kind} (d = {model.d}) covariance at "
                f"N = {n_points} has spectrum {eig.min():.3g} < -{NEG_TOL:g} gamma(0); "
                "the covariance cannot be sampled exactly"
            )
        eigs.append(eig)
    eigs = np.array(eigs)
    sqrt_spec = np.sqrt(np.clip(eigs, 0.0, None) / eigs.shape[1])
    sqrt_spec.flags.writeable = False
    return sqrt_spec


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _sample_rows(seeds, sqrt_spec: np.ndarray, n_points: int) -> np.ndarray:
    """Row i: the first n_points of fft(sqrt_spec[i] * xi_i), xi_i drawn from seeds[i].

    xi_i holds conjugate-symmetric complex Gaussian weights built from one
    standard_normal(m) draw z: xi[0] = z[0], xi[m/2] = z[1] for even m, then
    xi[k] = (a_k + i b_k) / sqrt(2) for 1 <= k <= p and xi[m-k] = conj(xi[k]),
    with a and b the next two runs of p draws.  Rows are assembled a block at
    a time, in place in the real and imaginary views, with the roundings of
    the complex arithmetic this spells out; the block's buffers stay small
    enough to remain in cache between the draws, the assembly and the FFT.
    """
    rows, m = sqrt_spec.shape
    p = (m - 1) // 2  # conjugate pairs; m is even except m = 1 at N = 1
    o = m - 2 * p  # draws before the pairs: z[0] and, for even m, the Nyquist z[1]
    block = min(rows, max(1, _BLOCK_POINTS // m))
    z = np.empty((block, m))
    xi = np.empty((block, m), dtype=complex)
    out = np.empty((rows, n_points))
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        zb, xb = z[: stop - start], xi[: stop - start]
        for z_row, seed in zip(zb, seeds[start:stop]):
            np.random.default_rng(seed).standard_normal(out=z_row)
        re, im = xb.real, xb.imag
        re[:, 0], im[:, 0] = zb[:, 0], 0.0
        re[:, p + 1 : m - p], im[:, p + 1 : m - p] = zb[:, 1:o], 0.0
        # numpy divides complex by a real r as a multiply by 1 / r
        np.multiply(zb[:, o : o + p], 1 / math.sqrt(2.0), out=re[:, 1 : p + 1])
        np.multiply(zb[:, o + p :], 1 / math.sqrt(2.0), out=im[:, 1 : p + 1])
        re[:, m - p :] = re[:, p:0:-1]
        np.negative(im[:, p:0:-1], out=im[:, m - p :])
        re *= sqrt_spec[start:stop]
        im *= sqrt_spec[start:stop]
        np.fft.fft(xb, axis=1, out=xb)
        out[start:stop] = re[:, :n_points]
    return out


def sample_path(model: NoiseModel, n_points: int, seed) -> np.ndarray:
    """One exact draw from N(0, [gamma(j-k)]), deterministic in (model, n, seed)."""
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    sqrt_spec = _embedding_spectra((model,), n_points)
    return _sample_rows([_as_seed_sequence(seed)], sqrt_spec, n_points)[0]


def sample_paths(models, n_points: int, master_seed) -> np.ndarray:
    """Independent rows, one per model, with per-row derived seeds.

    Row l is drawn from the generator seeded by
    SeedSequence(master_seed, spawn_key=(l,)), so results are identical
    whether rows are produced jointly (batched FFT) or one at a time.
    """
    root = _as_seed_sequence(master_seed)
    seeds = [np.random.SeedSequence(root.entropy, spawn_key=tuple(root.spawn_key) + (i,))
             for i in range(len(models))]
    return _sample_rows(seeds, _embedding_spectra(tuple(models), n_points), n_points)


def toeplitz_eigen_bounds(model: NoiseModel, n_points: int) -> CovarianceSummary:
    """Extreme eigenvalues of the covariance matrix and their N^(2d) ratios.

    lambda_max grows like N^(2d), so ratio_max stays bounded.  lambda_min
    decreases to the floor 2 pi min a (Cauchy interlacing and the Rayleigh
    quotient bound), so ratio_min tends to 0 for d > 0.
    """
    if n_points < 2:
        raise ConfigError("n_points must be >= 2")
    if n_points > DENSE_EIGEN_LIMIT:
        raise SizeLimitError(
            f"dense eigensolve limited to N <= {DENSE_EIGEN_LIMIT}, got {n_points}"
        )
    gamma = np.asarray(autocovariance(model, np.arange(n_points)), dtype=float)
    eigs = linalg.eigvalsh(linalg.toeplitz(gamma))
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    norm = float(n_points) ** (2 * model.d)
    return CovarianceSummary(n_points, lam_min, lam_max, lam_min / norm, lam_max / norm)
