"""Helpers the test modules import: design and kernel builders, ``bits`` for
bit-for-bit comparisons, the unblocked blurred truth, the spectral density that
the noise tests hold the autocovariances and eigenvalues to, and the record of
acceptance results that ``conftest.py`` prints in the terminal summary.

The name is unique across ``tests/`` and ``perfbench/tests/``, so one pytest
run over both imports the same module whichever conftest was loaded last.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from lrdeconv.channels import BlurKernel, ChannelDesign, kernel_fourier
from lrdeconv.errors import ConfigError, NumericError
from lrdeconv.noise import NoiseModel

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))


def bits(a) -> bytes:
    """The bytes of an array, to compare two arrays bit for bit."""
    return np.ascontiguousarray(a).tobytes()


def make_design(u, d, N) -> ChannelDesign:
    """Channels at points u with memory exponents d: FARIMA noise, white where d = 0."""
    noise = tuple(NoiseModel.farima(dl) if dl > 0 else NoiseModel.white() for dl in d)
    return ChannelDesign(tuple(u), tuple(d), N, noise)


def make_kernel(kind, u, N, seed) -> BlurKernel:
    """A kernel of ``kind``; a table kernel covers the full band of N, rows
    shuffled and scaled over 12 decades, so the largest denominator can lie
    outside any narrower band."""
    if kind != "table":
        return BlurKernel(kind, c=0.9, q=(1.0, 0.5))
    rng = np.random.default_rng(seed)
    band = N // 2 - 1
    m_rows = rng.permutation(np.arange(-band, band + 1))
    g = rng.normal(size=(len(m_rows), len(u))) + 1j * rng.normal(size=(len(m_rows), len(u)))
    g *= 10.0 ** rng.uniform(-8.0, 4.0, size=(len(m_rows), 1))
    return BlurKernel("table", table_m=tuple(int(m) for m in m_rows), table_u=tuple(u),
                      table_g=tuple(g.ravel().tolist()))


def reference_blurred_truth(f, design, kernel) -> np.ndarray:
    """The blurred truth (g(u_l, .) * f)(t_i) of the FourierSeries f as one
    M x N inverse FFT, N ifft(g_m(u_l) f_m): the unblocked, uncached reference
    for ``channels._blurred_truth``."""
    N = design.N
    g = kernel_fourier(kernel, design.u_array(), f.m)
    assembled = np.zeros((design.M, N), dtype=complex)
    assembled[:, np.mod(f.m, N)] = g * f.values[None, :]
    return (N * np.fft.ifft(assembled, axis=1)).real


def boxcar_linear_design(n: int, a1: float = 0.2, a2: float = 0.1,
                         theta: float = 0.5) -> ChannelDesign:
    """Equispaced boxcar design u_l = l/M with d_l = a1 u_l + a2, M = n^theta."""
    k = int(round(math.log2(n)))
    exp_n = int(math.floor((1.0 - theta) * k + 0.5))
    N = 2 ** exp_n
    M = n // N
    u = tuple(l / M for l in range(1, M + 1))
    d = tuple(a1 * ul + a2 for ul in u)
    noise = tuple(NoiseModel.farima(dl) if dl > 0 else NoiseModel.white() for dl in d)
    return ChannelDesign(u, d, N, noise)


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

    # fGn: sum_{k in Z} |k + x|^(-s) = zeta(s, x) + zeta(s, 1 - x), x in (0, 1/2]
    # (d > 0 here, so lambda = 0 was rejected above as the pole)
    H = model.hurst
    s = 2 * H + 1
    x = np.abs(lam_arr) / (2 * np.pi)
    series = special.zeta(s, x) + special.zeta(s, 1.0 - x)
    const = sigma2 * (2 * np.pi) ** (-2 * H - 2) * special.gamma(2 * H + 1) * np.sin(np.pi * H)
    out = const * 4.0 * np.sin(lam_arr / 2.0) ** 2 * series
    return out if out.shape else float(out)
