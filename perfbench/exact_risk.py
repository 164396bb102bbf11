"""Exact law of the replicate risk of the linear (j0 = J) estimator.

Computed from the design alone, without sampling and without an FFT of
simulated data, so that it checks the sampler, the deconvolution and the
Meyer projection of the program from outside.

With xi_l(m) = N^-1 sum_t xi_l(t) exp(-2 pi i m t / N) the noise DFT of
channel l, the noise covariance at the frequencies the analysis reads is

    C_l(a, b) = E xi_l(a) conj(xi_l(b))
              = N^-2 sum_{s,t} gamma_l(s - t) exp(-2 pi i (a s - b t) / N),

with gamma_l from ``noise.autocovariance``.  It is pushed through the
deconvolution weights w_l(m) = N^(-2 d_l) conj(g_m(u_l)) / D(m),
D(m) = sum_l N^(-2 d_l) |g_m(u_l)|^2, ill-posed frequencies zero-filled,
and then through the level-J Meyer projection

    (P h)_m = phi_hat(2 pi m / 2^J) sum_{m' = m mod 2^J} phi_hat(2 pi m' / 2^J) h_m'.

The risk of one replicate is R = |c + z|^2 plus the truth energy outside the
band, with c the bias of P h and z = P e the projected noise, a Hermitian
complex Gaussian vector.  With x the real and imaginary parts of z, of
covariance S, and h those of c, the cumulants of R follow in closed form:

    k1 = |h|^2 + tr S + outside,  k2 = 2 tr S^2 + 4 h'S h,  k3 = 8 tr S^3 + 24 h'S^2 h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lrdeconv.noise import autocovariance


def meyer_aux(x):
    """nu(x) = x^4 (35 - 84 x + 70 x^2 - 20 x^3) on [0, 1], the poly7 choice."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def phi_hat(omega):
    """Meyer scaling transform: 1 on |w| <= 2 pi/3, cos taper to 0 at 4 pi/3."""
    w = np.abs(np.asarray(omega, dtype=float))
    taper = np.cos(np.pi / 2.0 * meyer_aux(3.0 * w / (2.0 * np.pi) - 1.0))
    return np.where(w <= 2.0 * np.pi / 3.0, 1.0, np.where(w < 4.0 * np.pi / 3.0, taper, 0.0))


def n_star(design) -> float:
    """n* = n eps_n with eps_n = M^-1 sum_l N^(-2 d_l)."""
    d = np.asarray(design.d, dtype=float)
    return design.N * len(d) * float(np.mean(float(design.N) ** (-2.0 * d)))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def levels(design, est) -> tuple[int, int]:
    """(j0, J) by the rules the estimator documents.

    Regular: 2^j0 = ln n*, 2^J = (n*)^(1/(2 nu + 1)); super-smooth:
    2^j0 = (3/8 pi)(ln n* / 2 alpha1)^(1/beta), J = j0.  J is capped at
    log2 N - 1 and j0 at J.
    """
    ns = n_star(design)
    if est.alpha1 > 0:
        target = 3.0 / (8.0 * math.pi) * (math.log(ns) / (2.0 * est.alpha1)) ** (1.0 / est.beta)
        j0 = max(_round_half_up(math.log2(target)), 0)
        J = j0
    else:
        j0 = _round_half_up(math.log2(math.log(ns)))
        J = int(math.floor(math.log2(ns) / (2.0 * est.nu + 1.0) + 1e-12))
    J = min(J, int(math.log2(design.N)) - 1)
    return min(j0, J), J


def kernel_coeffs(kernel_spec: dict, u, m) -> np.ndarray:
    """g_m(u_l) for the built-in box-car and heat kernels, shape (M, len(m))."""
    u = np.asarray(u, dtype=float)[:, None]
    m = np.asarray(m, dtype=int)[None, :]
    kind = kernel_spec["kind"]
    if kind == "heat":
        return np.exp(-4.0 * np.pi ** 2 * m.astype(float) ** 2 * u).astype(complex)
    if kind == "boxcar":
        q = float(kernel_spec.get("q0", 1.0)) + float(kernel_spec.get("q1", 0.0)) * u
        mf = np.where(m == 0, 1.0, m.astype(float))
        g = q * np.sin(2.0 * np.pi * m * u) / (2.0 * np.pi * mf)
        return np.where(m == 0, 1.0, g).astype(complex)
    raise ValueError(f"no independent formula for kernel kind {kind!r}")


def noise_dft_covariance(gamma: np.ndarray, freqs) -> np.ndarray:
    """C[l, i, k] = E xi_l(freqs[i]) conj(xi_l(freqs[k])) from gamma[l, 0..N-1].

    Summing over the lag k = s - t first leaves, for each lag, a geometric
    sum over t in [max(0, -k), min(N, N - k)) that has a closed form.
    """
    gamma = np.asarray(gamma, dtype=float)
    rows, N = gamma.shape
    f = np.asarray(freqs, dtype=int)
    lags = np.arange(-(N - 1), N)
    g_full = np.concatenate([gamma[:, :0:-1], gamma], axis=1)  # gamma(|k|), k = -(N-1)..N-1
    t0 = np.maximum(0, -lags)
    t1 = np.minimum(N, N - lags)  # exclusive
    cols = []
    for a in f:
        for b in f:
            delta = int(a - b)
            if delta % N == 0:
                s = (t1 - t0).astype(complex)
            else:
                z = np.exp(-2j * np.pi * delta / N)
                s = (z ** t0 - z ** t1) / (1.0 - z)
            cols.append(np.exp(-2j * np.pi * a * lags / N) * s)
    V = np.stack(cols, axis=1)
    C = (g_full @ V.real + 1j * (g_full @ V.imag)) / float(N) ** 2
    return C.reshape(rows, len(f), len(f))


@dataclass(frozen=True)
class RiskLaw:
    """First three cumulants of one replicate's risk."""

    mean: float
    var: float
    k3: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.var)

    def mean_interval(self, reps: int, sigmas: float) -> tuple[float, float]:
        """Central interval of the mean of ``reps`` replicates that holds the
        probability of +-``sigmas`` standard errors under a normal law.

        The risk is a quadratic form in Gaussians, skewed to the right (on the
        heat design it is close to a chi-square with one degree of freedom),
        so the interval comes from the three-cumulant (Pearson) fit
        sum ~ b + a chi2(nu), which is exact for a chi-square law.
        """
        from scipy import stats  # heavy: imported here, after the timed part, not at set-up

        k1, k2, k3 = reps * self.mean, reps * self.var, reps * self.k3
        p = stats.norm.sf(sigmas)
        if k3 <= 0.0:
            half = sigmas * math.sqrt(k2)
            return (k1 - half) / reps, (k1 + half) / reps
        a = k3 / (4.0 * k2)
        nu = 8.0 * k2 ** 3 / k3 ** 2
        b = k1 - a * nu
        lo, hi = b + a * stats.chi2.ppf([p, 1.0 - p], nu)
        return lo / reps, hi / reps


def risk_law(truth, design, kernel_spec: dict, est, J: int) -> RiskLaw:
    """Cumulants of one replicate's risk for the linear estimator at level J."""
    N = design.N
    u = np.asarray(design.u, dtype=float)
    w_d = float(N) ** (-2.0 * np.asarray(design.d, dtype=float))

    band = N // 2 - 1
    m_all = np.arange(-band, band + 1)
    denom_all = (w_d[:, None] * np.abs(kernel_coeffs(kernel_spec, u, m_all)) ** 2).sum(axis=0)
    cutoff = est.denom_tol * denom_all.max()

    K = int(math.ceil(2 ** (J + 1) / 3.0)) - 1  # phi_hat > 0 exactly on 3|m| < 2^(J+1)
    m = np.arange(-K, K + 1)
    phi = phi_hat(2.0 * np.pi * m / 2 ** J)
    g = kernel_coeffs(kernel_spec, u, m)
    denom = (w_d[:, None] * np.abs(g) ** 2).sum(axis=0)
    ok = denom >= cutoff
    weights = np.where(ok, w_d[:, None] * np.conj(g) / np.where(ok, denom, 1.0), 0.0)

    f_band = np.array([truth.values[k + truth.band] if abs(k) <= truth.band else 0.0
                       for k in m], dtype=complex)
    h_mean = (weights * g).sum(axis=0) * f_band

    gamma = np.stack([np.asarray(autocovariance(mod, np.arange(N)), dtype=float)
                      for mod in design.noise])
    C = noise_dft_covariance(gamma, m)
    sigma_e = np.einsum("la,lb,lab->ab", weights, np.conj(weights), C)
    pseudo_e = sigma_e[:, ::-1]  # E e_a e_b = E e_a conj(e_{-b})

    P = np.outer(phi, phi) * ((m[:, None] - m[None, :]) % 2 ** J == 0)
    c = P @ h_mean - f_band
    sigma_z = P @ sigma_e @ P.T
    pseudo_z = P @ pseudo_e @ P.T
    cxx = (sigma_z + pseudo_z).real / 2.0
    cyy = (sigma_z - pseudo_z).real / 2.0
    cyx = (sigma_z + pseudo_z).imag / 2.0
    cx = np.block([[cxx, cyx.T], [cyx, cyy]])
    h = np.concatenate([c.real, c.imag])

    outside = np.abs(truth.m) > K
    bias_out = float(np.sum(np.abs(truth.values[outside]) ** 2))
    cx2 = cx @ cx
    return RiskLaw(mean=float(h @ h) + float(np.trace(cx)) + bias_out,
                   var=2.0 * float(np.trace(cx2)) + 4.0 * float(h @ cx @ h),
                   k3=8.0 * float(np.sum(cx2 * cx)) + 24.0 * float(h @ cx2 @ h))
