"""Periodized Meyer wavelet basis on T = [0, 1], handled entirely in the
Fourier domain.

The Meyer pair (phi*, psi*) is band-limited: phi_hat is supported on
|w| <= 4*pi/3 and psi_hat on 2*pi/3 <= |w| <= 8*pi/3, so the periodized
basis element at level j touches only finitely many integer frequencies.
With the package's Fourier convention (see ``fourier``), the m-th
coefficient of the periodized wavelet is

    psi_{mjk} = 2^(-j/2) * exp(-2*pi*i*m*k / 2^j) * psi_hat(2*pi*m / 2^j),

and analysis/synthesis are plain weighted sums over those frequencies; no
time-domain wavelet evaluation is used anywhere (Meyer wavelets decay too
slowly in time for that to be attractive).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .fourier import FourierSeries

__all__ = [
    "MeyerSpec",
    "FrequencySet",
    "WaveletCoefficients",
    "meyer_aux",
    "scaling_ft",
    "wavelet_ft",
    "periodized_coeff",
    "frequency_set",
    "scaling_frequency_set",
    "needed_band",
    "analyze",
    "synthesize_series",
]

# Support membership: coefficients with |psi_hat| below this are treated as 0.
SUPPORT_TOL = 1e-14


def _nu_poly7(x: np.ndarray) -> np.ndarray:
    # C^3 auxiliary polynomial x^4 (35 - 84 x + 70 x^2 - 20 x^3) on [0, 1]
    xc = np.clip(x, 0.0, 1.0)
    return xc ** 4 * (35.0 - 84.0 * xc + 70.0 * xc ** 2 - 20.0 * xc ** 3)


def _nu_poly3(x: np.ndarray) -> np.ndarray:
    # C^1 alternative x^2 (3 - 2 x)
    xc = np.clip(x, 0.0, 1.0)
    return xc ** 2 * (3.0 - 2.0 * xc)


_AUX = {"poly7": _nu_poly7, "poly3": _nu_poly3}


def meyer_aux(x, aux_poly: str = "poly7") -> np.ndarray:
    """Auxiliary function nu: 0 for x <= 0, 1 for x >= 1, nu(x)+nu(1-x) = 1."""
    try:
        return _AUX[aux_poly](np.asarray(x, dtype=float))
    except KeyError:
        raise ConfigError(f"unknown auxiliary function {aux_poly!r}") from None


@dataclass(frozen=True)
class MeyerSpec:
    """Level range [j0, J) and auxiliary-function choice for the basis."""

    j0: int
    J: int
    aux_poly: str = "poly7"

    def __post_init__(self):
        if not 0 <= self.j0 <= self.J:
            raise ConfigError(f"levels must satisfy 0 <= j0 <= J, got ({self.j0}, {self.J})")
        if self.aux_poly not in _AUX:
            raise ConfigError(f"unknown auxiliary function {self.aux_poly!r}")

    @property
    def detail_levels(self) -> range:
        return range(self.j0, self.J)


@dataclass(frozen=True)
class FrequencySet:
    """Sorted integer frequencies m with a nonzero coefficient at one level."""

    members: np.ndarray


class WaveletCoefficients:
    """Coefficients a_{j0,k} and b_{j,k}, j0 <= j < J, of one expansion in the basis
    ``spec``, in one vector ``values`` of the 2^J coefficients: the scaling block is
    [0, 2^j0) and level j is [2^j, 2^(j+1)).  ``scaling`` and ``detail[j]`` are
    views into ``values``."""

    def __init__(self, spec: MeyerSpec, values):
        self.spec, self.j0, self.J = spec, spec.j0, spec.J
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != (2 ** self.J,):
            raise ConfigError(f"coefficient vector must have length 2^J = {2 ** self.J}")
        self.scaling = self.values[:2 ** self.j0]
        self.detail = {j: self.values[2 ** j:2 ** (j + 1)] for j in spec.detail_levels}

    @classmethod
    def zeros(cls, spec: MeyerSpec) -> "WaveletCoefficients":
        return cls(spec, np.zeros(2 ** spec.J, dtype=complex))

    def copy(self) -> "WaveletCoefficients":
        return WaveletCoefficients(self.spec, self.values.copy())


def scaling_ft(spec: MeyerSpec, omega) -> np.ndarray:
    """phi_hat(w): 1 on |w| <= 2 pi/3, cosine taper to 0 at |w| = 4 pi/3."""
    w = np.abs(np.asarray(omega, dtype=float))
    nu = meyer_aux(3.0 * w / (2.0 * np.pi) - 1.0, spec.aux_poly)
    return np.where(w <= 2 * np.pi / 3, 1.0,
                    np.where(w < 4 * np.pi / 3, np.cos(np.pi / 2 * nu), 0.0))


def wavelet_ft(spec: MeyerSpec, omega) -> np.ndarray:
    """psi_hat(w) = exp(i w / 2) * window(|w|), supported on 2 pi/3 <= |w| <= 8 pi/3."""
    w = np.asarray(omega, dtype=float)
    a = np.abs(w)
    lo = np.sin(np.pi / 2 * meyer_aux(3.0 * a / (2.0 * np.pi) - 1.0, spec.aux_poly))
    hi = np.cos(np.pi / 2 * meyer_aux(3.0 * a / (4.0 * np.pi) - 1.0, spec.aux_poly))
    window = np.where((a > 2 * np.pi / 3) & (a <= 4 * np.pi / 3), lo,
                      np.where((a > 4 * np.pi / 3) & (a < 8 * np.pi / 3), hi, 0.0))
    return np.exp(1j * w / 2.0) * window


def _level_window(spec: MeyerSpec, j: int, m: np.ndarray, kind: str) -> np.ndarray:
    omega = 2.0 * np.pi * m / float(2 ** j)
    if kind == "wavelet":
        return wavelet_ft(spec, omega)
    if kind == "scaling":
        return scaling_ft(spec, omega).astype(complex)
    raise ConfigError(f"unknown coefficient kind {kind!r}")


@functools.lru_cache(maxsize=256)
def _level_cache(aux_poly: str, j: int, kind: str) -> tuple:
    """Level j's members m (|window| > SUPPORT_TOL), residues m mod 2^j,
    conjugate window (analysis) and window times 2^(-j/2) (synthesis); read-only."""
    limit = int(np.ceil(2 ** (j + 2) / 3.0)) + 2
    m = np.arange(-limit, limit + 1)
    window = _level_window(MeyerSpec(0, 0, aux_poly), j, m, kind)
    keep = np.abs(window) > SUPPORT_TOL
    members, window = m[keep], window[keep]
    arrays = (members, np.mod(members, 2 ** j), np.conj(window), 2.0 ** (-j / 2.0) * window)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def frequency_set(spec: MeyerSpec, j: int) -> FrequencySet:
    """C_j = {m: psi_{mjk} != 0}; contained in 2^j < 3|m| < 2^(j+2)."""
    if j < 0:
        raise ConfigError("level must be >= 0")
    return FrequencySet(_level_cache(spec.aux_poly, j, "wavelet")[0])


def scaling_frequency_set(spec: MeyerSpec, j: int) -> FrequencySet:
    """Frequencies touched by the level-j scaling functions: 3|m| < 2^(j+1)."""
    if j < 0:
        raise ConfigError("level must be >= 0")
    return FrequencySet(_level_cache(spec.aux_poly, j, "scaling")[0])


def periodized_coeff(spec: MeyerSpec, j: int, k: int, m, kind: str = "wavelet") -> np.ndarray:
    """m-th Fourier coefficient of the periodized basis element (j, k).

    Satisfies |psi_{mjk}| <= 2^(-j/2); the shift k only contributes the
    phase exp(-2*pi*i*m*k / 2^j).
    """
    if not 0 <= k < 2 ** j:
        raise ConfigError(f"shift must satisfy 0 <= k < 2^j, got k={k} at j={j}")
    m_arr = np.asarray(m, dtype=int)
    window = _level_window(spec, j, m_arr, kind)
    phase = np.exp(-2j * np.pi * m_arr * k / float(2 ** j))
    return 2.0 ** (-j / 2.0) * phase * window


def needed_band(spec: MeyerSpec) -> int:
    """Largest |m| that analysis reads and synthesis writes: the last member of level
    J-1's wavelet set, or of the level-j0 scaling set when J = j0, as a detail window
    2^j < 3|m| < 2^(j+2) grows with j and holds the scaling window 3|m| < 2^(j0+1)."""
    j, kind = (spec.J - 1, "wavelet") if spec.J > spec.j0 else (spec.j0, "scaling")
    return int(_level_cache(spec.aux_poly, j, kind)[0][-1])


def _levels(coeffs: WaveletCoefficients):
    """(j, kind, view) for the scaling level j0, then each detail level j0 <= j < J."""
    yield coeffs.j0, "scaling", coeffs.scaling
    for j in range(coeffs.j0, coeffs.J):
        yield j, "wavelet", coeffs.detail[j]


def analyze(f: FourierSeries, spec: MeyerSpec) -> WaveletCoefficients:
    """Coefficients a_{j0,k} = sum_m f_m conj(phi_{m,j0,k}) and likewise b_{j,k}.

    The k-sums collapse to inverse FFTs of length 2^j after grouping
    frequencies by residue m mod 2^j.
    """
    band = needed_band(spec)
    if band > f.band:
        raise NumericError(
            f"analysis needs |m| <= {band} but only |m| <= {f.band} available"
        )

    coeffs = WaveletCoefficients.zeros(spec)
    for j, kind, view in _levels(coeffs):
        members, residues, conj_window, _ = _level_cache(spec.aux_poly, j, kind)
        grouped = np.zeros(2 ** j, dtype=complex)
        np.add.at(grouped, residues, f.values[members + f.band] * conj_window)
        np.multiply(2.0 ** (j / 2.0), np.fft.ifft(grouped), out=view)
    return coeffs


def synthesize_series(coeffs: WaveletCoefficients) -> FourierSeries:
    """Fourier coefficients of the truncated expansion sum a phi + sum b psi
    in the coefficients' own basis."""
    band = needed_band(coeffs.spec)
    values = np.zeros(2 * band + 1, dtype=complex)
    for j, kind, vec in _levels(coeffs):
        members, residues, _, scaled_window = _level_cache(coeffs.spec.aux_poly, j, kind)
        phases = np.fft.fft(vec)  # sum_k vec_k exp(-2 pi i k m / 2^j) at m mod 2^j
        values[members + band] += scaled_window * phases[residues]
    return FourierSeries(band, values)
