"""Discrete Fourier conventions used throughout the package.

A function ``w`` on the circle T = [0, 1] is represented by coefficients

    w_m = integral_0^1 w(t) exp(-2*pi*i*m*t) dt,   w(t) = sum_m w_m exp(+2*pi*i*m*t).

For a length-``n`` sample on the grid t_i = i/n the same convention reads
``w_m = (1/n) * fft(w)[m mod n]`` and ``w(t_i) = n * ifft(assembled)[i]``,
which makes the circular convolution theorem h_m = g_m * f_m exact and keeps
Parseval in the form (1/n) * sum_i |w(t_i)|^2 = sum_m |w_m|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingFrequencyError

__all__ = ["FourierSeries", "coeffs_to_grid"]


@dataclass(frozen=True)
class FourierSeries:
    """Coefficients w_m for |m| <= band, stored at index m + band."""

    band: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if self.band < 0:
            raise ConfigError("FourierSeries band must be >= 0")
        if values.shape != (2 * self.band + 1,):
            raise ConfigError(
                f"FourierSeries values must have length 2*band+1 = {2 * self.band + 1}"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, band: int) -> "FourierSeries":
        return cls(band, np.zeros(2 * band + 1, dtype=complex))

    @property
    def m(self) -> np.ndarray:
        """Integer frequencies −band..band matching ``values``."""
        return np.arange(-self.band, self.band + 1)

    def get(self, m) -> np.ndarray:
        """Coefficients at integer frequencies ``m``; raises if out of band."""
        m = np.asarray(m, dtype=int)
        if m.size and np.abs(m).max() > self.band:
            raise MissingFrequencyError(
                f"frequency |m|={int(np.abs(m).max())} outside available band {self.band}"
            )
        return self.values[m + self.band]

    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def hermitian_defect(self) -> float:
        """Max |w_{-m} - conj(w_m)|; zero for real-valued functions."""
        return float(np.max(np.abs(self.values[::-1] - np.conj(self.values))))


def coeffs_to_grid(series: FourierSeries, grid_size: int) -> np.ndarray:
    """Evaluate sum_m w_m exp(2*pi*i*m*t) at t_i = i/grid_size, i = 0..grid_size-1.

    This is exact point evaluation: frequencies above the grid Nyquist fold
    onto their aliases, exactly as sampling the continuous function would.
    """
    if grid_size < 1:
        raise ConfigError("grid_size must be >= 1")
    assembled = np.zeros(grid_size, dtype=complex)
    np.add.at(assembled, np.mod(series.m, grid_size), series.values)
    return grid_size * np.fft.ifft(assembled)
