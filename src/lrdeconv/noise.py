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
of one call are drawn in fixed groups of max(1, 2^17 // 2N) rows, group b
from the generator of spawn key (b,) off the call's seed, each path taking
the next run of 2N standard normals of its group's generator.  A call of
more than one group made on the main thread shares its groups with the
process's one helper thread, which serves the main thread only; a call on
any other thread draws every group itself.  Each group has its own
generator, so the bits do not depend on which thread drew it.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "NoiseModel",
    "CovarianceSummary",
    "autocovariance",
    "sample_paths",
    "toeplitz_eigen_bounds",
]

# Embedding spectra below -NEG_TOL * gamma(0) reject the embedding.
NEG_TOL = 1e-10
DENSE_EIGEN_LIMIT = 4096
# Terms of the fGn autocovariance series (``autocovariance``): the first left
# out is below 4^-FGN_TERMS of the first kept.
FGN_TERMS = 30
# Points per block (``_blocks``) of the blurred truth, the kernel weights and
# the channel DFTs (about 2 MB of complex values each).
_BLOCK_POINTS = 2 ** 17
# Normals per generator of the sampler (``_sample_rows``): the rows are drawn
# in groups of max(1, _GROUP_POINTS // 2N), one generator each.  Unlike
# _BLOCK_POINTS, this fixes the output bits.
_GROUP_POINTS = 2 ** 17


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


def autocovariance(model: NoiseModel, lag) -> np.ndarray:
    """Autocovariance gamma(lag) at integer lags: the integral of
    cos(lag lambda) a(lambda) over [-pi, pi], a the spectral density.

    fGn: gamma(k) = (scale^2/2) (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}), formed
    without a difference, since any difference cancels: gamma(1) =
    scale^2 expm1((2H - 1) ln 2) and, for k >= 2, the binomial series
    scale^2 k^{2H} sum_{j >= 1} C(2H, 2j) k^{-2j}, whose terms are all positive
    for 1 < 2H < 2 (all zero at H = 1/2) and shrink by at least 1/k^2 <= 1/4
    each, so FGN_TERMS of them reach rounding.  White and
    FARIMA(0, d, 0), d = 0 included: gamma(0) = scale^2 G(1-2d) / G(1-d)^2 and
    Hosking's (1981) recurrence gamma(k) = gamma(k-1) (k-1+d) / (k-d), one
    cumulative product over a prefix of max|lag| + 1 floats (exactly 0 past lag 0
    at d = 0).
    """
    k = np.abs(np.asarray(lag))
    sigma2 = model.scale ** 2

    if model.kind == "fgn":
        H2 = 2.0 * model.hurst
        coeffs = [H2 * (H2 - 1) / 2]  # C(2H, 2j), j = 1 .. FGN_TERMS
        for j in range(1, FGN_TERMS):
            coeffs.append(coeffs[-1] * (H2 - 2 * j) * (H2 - 2 * j - 1)
                          / ((2 * j + 1) * (2 * j + 2)))
        kf = np.maximum(k, 2).astype(float)  # lags 0 and 1 are set below
        x = 1.0 / (kf * kf)
        series = np.full(kf.shape, coeffs[-1])
        for c in reversed(coeffs[:-1]):  # Horner in x = k^-2
            series *= x
            series += c
        series *= sigma2 * kf ** (H2 - 2)
        lag1 = sigma2 * math.expm1((H2 - 1) * math.log(2.0))
        return np.where(k == 0, sigma2, np.where(k == 1, lag1, series))

    d = model.d
    gamma0 = sigma2 * math.exp(math.lgamma(1 - 2 * d) - 2 * math.lgamma(1 - d))
    j = np.arange(1.0, k.max(initial=0) + 1)
    return np.cumprod(np.concatenate([[gamma0], (j - 1 + d) / (j - d)]))[k]


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


# The one helper thread of the process, which draws and transforms groups of
# rows beside the main thread (``_sample_rows``); its thread starts on the
# first submit.  Only the main thread submits, and it waits for the helper
# before it returns, so the helper serves one call at a time.
_draws = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lrdeconv-draws")


def _sample_rows(seed, sqrt_spec: np.ndarray, n_points: int) -> np.ndarray:
    """Row i: the first n_points of the (N + 1)-point circulant-embedding draw
    with spectrum sqrt_spec[i] (``_paths_from_normals``).  The rows fall in
    groups of G = max(1, _GROUP_POINTS // 2N): group b holds rows bG ..
    (b + 1)G - 1, which take consecutive runs of 2N normals from
    default_rng(SeedSequence(entropy, spawn_key=key + (b,))), (entropy, key)
    the seed's (an int seed has key ()).

    On the main thread, with more than one group, the process's helper
    thread and this thread each claim the next undone group, draw it,
    transform it and write its rows.  A call on any other thread (an
    ``mc_risk`` pool worker, say), or whose rows fit one group, does every
    group itself.  So the bits depend on (seed, sqrt_spec, N) alone, never on
    which thread did a group.  Each thread holds one normals buffer, which
    the transform then overwrites, and one complex half.
    """
    rows, half = sqrt_spec.shape
    m = 2 * n_points
    size = max(1, _GROUP_POINTS // m)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    out = np.empty((rows, n_points))
    groups = iter(range(0, rows, size))
    claim = threading.Lock()

    def work():
        z = np.empty((min(size, rows), m))
        h = np.empty((min(size, rows), half), dtype=complex)
        while True:
            with claim:
                start = next(groups, None)
            if start is None:
                return
            rng = np.random.default_rng(np.random.SeedSequence(
                root.entropy, spawn_key=root.spawn_key + (start // size,)))
            g = slice(start, min(start + size, rows))
            zg = z[: g.stop - g.start]
            rng.standard_normal(out=zg)
            _paths_from_normals(zg, sqrt_spec[g], h[: g.stop - g.start], zg)
            out[g] = zg[:, :n_points]

    if rows <= size or threading.current_thread() is not threading.main_thread():
        work()
        return out
    helper = _draws.submit(work)
    try:
        work()
    finally:
        wait([helper])  # it may still be writing into out
    helper.result()
    return out


def sample_paths(models, n_points: int, master_seed) -> np.ndarray:
    """Independent rows, one per model, each an exact draw from
    N(0, [gamma(j-k)]) of its model.

    Row l takes its 2N standard normals from the generator of its group of
    G = max(1, _GROUP_POINTS // 2N) rows, seeded by spawn key (l // G,) off
    master_seed (``_sample_rows``).  So the result is deterministic in
    (models, N, master_seed), whatever the thread count or the thread that
    drew a group, and two model lists of the same length, N and seed use the
    same normals.  No models give a (0, N) array.
    """
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    return _sample_rows(master_seed, _embedding_spectra(tuple(models), n_points), n_points)


def toeplitz_eigen_bounds(model: NoiseModel, n_points: int) -> CovarianceSummary:
    """Extreme eigenvalues of the covariance matrix and their N^(2d) ratios.

    lambda_max grows like N^(2d), so ratio_max stays bounded.  lambda_min
    decreases to the floor 2 pi min a (Cauchy interlacing and the Rayleigh
    quotient bound), so ratio_min tends to 0 for d > 0.
    """
    if n_points < 2:
        raise ConfigError("n_points must be >= 2")
    if n_points > DENSE_EIGEN_LIMIT:
        raise NumericError(
            f"dense eigensolve limited to N <= {DENSE_EIGEN_LIMIT}, got {n_points}"
        )
    lags = np.arange(n_points)
    gamma = autocovariance(model, lags)
    eigs = np.linalg.eigvalsh(gamma[np.abs(lags[:, None] - lags)])
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    norm = float(n_points) ** (2 * model.d)
    return CovarianceSummary(n_points, lam_min, lam_max, lam_min / norm, lam_max / norm)
