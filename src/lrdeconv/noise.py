"""Stationary Gaussian error sequences with long-range dependence.

Three families are supported, all with spectral density behaving like
|lambda|^(-2d) near the origin for a memory exponent d in [0, 1/2):

* ``white``  -- iid Gaussian, d = 0,
* ``farima`` -- fractional ARIMA(0, d, 0) driven by innovations with
  standard deviation ``scale``,
* ``fgn``    -- fractional Gaussian noise with Hurst index H = d + 1/2.

Exact sampling uses circulant embedding of the Toeplitz covariance
(Davies-Harte): an N-point path is the first N points of an exact
(N + 1)-point draw, whose N + 1 lags embed in a circle of m = 2N points.
The embedding is nonnegative for FARIMA(0, d, 0) and fGn with 0 <= d < 1/2
(Craigmile, 2003); a covariance whose embedding spectrum falls below
-NEG_TOL * gamma(0) raises NumericError instead of being sampled.  The paths
of one call share one generator: path l takes the l-th run of 2N standard
normals of default_rng(seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
# Points per block (``_blocks``): of the embedding rows that ``_sample_rows``
# draws and transforms together (about 3 MB of buffers), and of the blurred
# truth, the kernel weights and the channel DFTs (about 2 MB of complex
# values each).
_BLOCK_POINTS = 2 ** 17


def _blocks(count: int, points_each: int, least: int = 1) -> list[slice]:
    """Consecutive slices covering range(count), each of _BLOCK_POINTS //
    points_each items but at least ``least``; a remainder shorter than
    ``least`` joins the block before it."""
    size = max(least, _BLOCK_POINTS // points_each)
    edges = list(range(0, count, size)) + [count]
    if len(edges) > 2 and edges[-1] - edges[-2] < least:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


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
        if not (self.scale > 0 and math.isfinite(self.scale * self.scale)):
            raise ConfigError(f"scale must be > 0 with a finite square, got {self.scale}")
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

    White, and every family at d = 0: scale^2 / (2 pi).  FARIMA(0,d,0):
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
    if model.kind == "white" or model.d == 0.0:
        out = np.full_like(lam_arr, sigma2 / (2 * np.pi))
        return out if out.shape else float(out)

    if model.kind == "farima":
        out = sigma2 / (2 * np.pi) * np.abs(2.0 * (1.0 - np.cos(lam_arr))) ** (-model.d)
        return out if out.shape else float(out)

    from scipy import special  # only here, so that simulate, estimate and bench never load it

    # fGn: sum_{k in Z} |k + x|^(-s) = zeta(s, x) + zeta(s, 1 - x), x in (0, 1/2]
    # (d > 0 here, so lambda = 0 was rejected above as the pole)
    H = model.hurst
    s = 2 * H + 1
    x = np.abs(lam_arr) / (2 * np.pi)
    series = special.zeta(s, x) + special.zeta(s, 1.0 - x)
    const = sigma2 * (2 * np.pi) ** (-2 * H - 2) * special.gamma(2 * H + 1) * np.sin(np.pi * H)
    out = const * 4.0 * np.sin(lam_arr / 2.0) ** 2 * series
    return out if out.shape else float(out)


def autocovariance(model: NoiseModel, lag) -> np.ndarray:
    """Autocovariance gamma(lag) at integer lags, consistent with ``spectral_density``.

    fGn: gamma(k) = (scale^2/2) (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).  White and
    FARIMA(0, d, 0), d = 0 included: gamma(0) = scale^2 G(1-2d) / G(1-d)^2 and
    Hosking's (1981) recurrence gamma(k) = gamma(k-1) (k-1+d) / (k-d), one
    cumulative product over a prefix of max|lag| + 1 floats (exactly 0 past lag 0
    at d = 0).
    """
    k = np.abs(np.asarray(lag))
    sigma2 = model.scale ** 2

    if model.kind == "fgn":
        H2 = 2.0 * model.hurst
        kf = k.astype(float)
        out = 0.5 * sigma2 * ((kf + 1) ** H2 - 2 * kf ** H2 + np.abs(kf - 1) ** H2)
        return out if out.shape else float(out)

    d = model.d
    gamma0 = sigma2 * math.exp(math.lgamma(1 - 2 * d) - 2 * math.lgamma(1 - d))
    j = np.arange(1.0, k.max(initial=0) + 1)
    out = np.cumprod(np.concatenate([[gamma0], (j - 1 + d) / (j - d)]))[k]
    return out if out.shape else float(out)


@functools.lru_cache(maxsize=4)
def _embedding_spectra(models: tuple, n_points: int) -> np.ndarray:
    """sqrt(spectrum / m) of each model's circulant embedding at frequencies
    0..N, one row per model.

    The embedding row c = [gamma(0..N), gamma(N-1..1)] covers N + 1 lags and
    has size m = 2N, a power of two for every ``ChannelDesign``.  It is the
    minimal embedding of N + 1 points, and the first N of those points have
    the law N(0, toeplitz(gamma(0..N-1))), so the sampler draws N + 1 and
    keeps N.  The row is real and even, so its spectrum is real and
    symmetric, and the half 0..N that one real FFT gives holds every value.
    Rows are read-only; raises NumericError when an entry of a spectrum lies
    below -NEG_TOL * gamma(0).
    """
    m = 2 * n_points
    spectra = np.empty((len(models), n_points + 1))
    for row, model in zip(spectra, models):
        gamma = autocovariance(model, np.arange(n_points + 1))
        row[:] = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        low = row.min()
        if not low >= -NEG_TOL * gamma[0]:  # NaN fails too
            raise NumericError(
                f"circulant embedding of the {model.kind} (d = {model.d}) covariance at "
                f"N = {n_points} has spectrum {low:.3g} < -{NEG_TOL:g} gamma(0); "
                "the covariance cannot be sampled exactly"
            )
    np.clip(spectra, 0.0, None, out=spectra)
    spectra /= m
    np.sqrt(spectra, out=spectra)
    spectra.flags.writeable = False
    return spectra


def _paths_from_normals(z: np.ndarray, sqrt_spec: np.ndarray, h: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """Row i of x: fft(s_i * xi_i), s_i the symmetric extension of sqrt_spec[i]
    (or of its single row) to the m = 2N embedding frequencies and xi_i built
    from the standard normals z[i] of length m; h is the (rows, N + 1)
    complex work buffer.  Returns x, whose first N columns are the paths.

    xi_i holds conjugate-symmetric complex Gaussian weights:
    xi[0] = z[0], xi[N] = z[1], then xi[k] = (a_k + i b_k) / sqrt(2) for
    1 <= k <= N - 1 and xi[m-k] = conj(xi[k]), with a and b the next two runs
    of N - 1 draws.  For such weights fft(s xi) is real and equals the
    unnormalised inverse real FFT of the half conj(s xi)[0..N], so only that
    half is assembled, with the conjugate folded into the sign of the
    imaginary run.  The map is linear in z, so the covariance of a path is
    A^T A with A the paths of the m unit vectors.
    """
    n = z.shape[1] // 2  # frequency n is the Nyquist frequency of the m = 2n points
    re, im = h.real, h.imag
    re[:, 0], re[:, n] = z[:, 0], z[:, 1]
    im[:, 0], im[:, n] = 0.0, 0.0
    np.multiply(z[:, 2 : n + 1], 1 / math.sqrt(2.0), out=re[:, 1:n])
    np.multiply(z[:, n + 1 :], -1 / math.sqrt(2.0), out=im[:, 1:n])
    re *= sqrt_spec
    im *= sqrt_spec
    return np.fft.irfft(h, n=2 * n, axis=1, norm="forward", out=x)


def _sample_rows(seed, sqrt_spec: np.ndarray, n_points: int) -> np.ndarray:
    """Row i: the first n_points of the (N + 1)-point circulant-embedding draw
    with spectrum sqrt_spec[i] and weights from normals 2N i .. 2N (i + 1) - 1
    of the one generator default_rng(seed) (``_paths_from_normals``).  Rows
    are drawn and transformed a block at a time, in buffers small enough to
    stay in cache between the draws, the assembly and the FFT; the stream
    fills in order, so the bits do not depend on the block size.
    """
    rows, half = sqrt_spec.shape
    m = 2 * n_points
    blocks = _blocks(rows, m)
    block = blocks[0].stop
    rng = np.random.default_rng(seed)
    z = np.empty((block, m))
    h = np.empty((block, half), dtype=complex)
    x = np.empty((block, m))
    out = np.empty((rows, n_points))
    for b in blocks:
        size = b.stop - b.start
        zb, hb, xb = z[:size], h[:size], x[:size]
        rng.standard_normal(out=zb)
        _paths_from_normals(zb, sqrt_spec[b], hb, xb)
        out[b] = xb[:, :n_points]
    return out


def sample_path(model: NoiseModel, n_points: int, seed) -> np.ndarray:
    """One exact draw from N(0, [gamma(j-k)]), deterministic in (model, n, seed):
    row 0 of ``sample_paths([model], n_points, seed)``."""
    return sample_paths((model,), n_points, seed)[0]


def sample_paths(models, n_points: int, master_seed) -> np.ndarray:
    """Independent rows, one per model, from one generator stream.

    The rows take consecutive runs of 2N standard normals from
    default_rng(master_seed): row l takes normals 2N l .. 2N (l + 1) - 1.
    So the result is deterministic in (models, N, master_seed), whatever the
    block size, and row 0 is ``sample_path(models[0], N, master_seed)``.
    No models give a (0, N) array.
    """
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    models = tuple(models)
    if not models:
        return np.empty((0, n_points))
    return _sample_rows(master_seed, _embedding_spectra(models, n_points), n_points)


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
    from scipy import linalg

    gamma = np.asarray(autocovariance(model, np.arange(n_points)), dtype=float)
    eigs = linalg.eigvalsh(linalg.toeplitz(gamma))
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    norm = float(n_points) ** (2 * model.d)
    return CovarianceSummary(n_points, lam_min, lam_max, lam_min / norm, lam_max / norm)
