"""Channel designs, blur kernels, the observation model, and the design
functionals that control estimator variance.

A design holds M channel points u_l, per-channel memory exponents d_l, the
per-channel sample count N (a power of two) and the per-channel noise laws.
Observations are

    y(u_l, t_i) = (g(u_l, .) * f)(t_i) + xi_{l,i},

synthesized by inverse DFT of the product g_m(u_l) f_m, with each channel's
noise drawn independently from its NoiseModel.

Design functionals:

    tau_1(m, n)   = M^-1 sum_l N^(-2 d_l) |g_m(u_l)|^2
    Delta_1(j, n) = |C_j|^-1 sum_{m in C_j} tau_1(m, n)^-1
    eps_n         = M^-1 sum_l N^(-2 d_l),    n* = n * eps_n
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateFitError, IllPosedFrequencyError
from .fourier import FourierSeries
from .meyer import MeyerSpec, frequency_set
from .noise import NoiseModel, _blocks, sample_paths

__all__ = [
    "ChannelDesign",
    "BlurKernel",
    "KernelFit",
    "kernel_fourier",
    "require_alias_free",
    "require_kernel_band",
    "simulate_observations",
    "tau_1",
    "delta_1",
    "epsilon_n",
    "boxcar_S_closed_form",
    "characterize_kernel",
    "fit_frequencies",
    "load_kernel_table",
    "save_kernel_table",
]

D_MAX = 0.5
TAU_FLOOR = 1e-300


def _hash_once(self) -> int:
    """Hash of the fields, computed on first use and kept: the u, d and table
    tuples are long, and the estimator's caches look designs and kernels up
    in every replicate."""
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", h)
    return h


def _state_without_caches(self) -> dict:
    # str hashes differ between interpreters, so a pickled hash would be stale;
    # a table kernel's arrays are rebuilt from its tuples on first use
    return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_table")}


@dataclass(frozen=True)
class ChannelDesign:
    """M channels at points u with memory exponents d, N samples each."""

    u: tuple
    d: tuple
    N: int
    noise: tuple

    __hash__ = _hash_once
    __getstate__ = _state_without_caches

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        object.__setattr__(self, "noise", tuple(self.noise))
        if len(self.u) != len(self.d) or len(self.u) != len(self.noise):
            raise ConfigError("u, d and noise must have one entry per channel")
        if len(self.u) < 1:
            raise ConfigError("design needs at least one channel")
        for ul in self.u:
            if not math.isfinite(ul):
                raise ConfigError(f"channel points must be finite, got u_l = {ul}")
        if self.N < 2 or self.N & (self.N - 1):
            raise ConfigError(f"N must be a power of 2, got {self.N}")
        for dl in self.d:
            if not 0.0 <= dl < D_MAX:
                raise ConfigError(f"memory exponents must satisfy 0 <= d_l < 1/2, got {dl}")
        for mod, dl in zip(self.noise, self.d):
            if not isinstance(mod, NoiseModel):
                raise ConfigError("noise entries must be NoiseModel instances")
            if abs(mod.d - dl) > 1e-12:
                raise ConfigError("noise model memory exponent must match design d_l")

    @property
    def M(self) -> int:
        return len(self.u)

    @property
    def n(self) -> int:
        return self.N * self.M

    @property
    def alias_free_band(self) -> int:
        """N/2 - 1: the largest |m| whose channel DFT does not alias."""
        return self.N // 2 - 1

    def u_array(self) -> np.ndarray:
        return np.asarray(self.u)

    def d_array(self) -> np.ndarray:
        return np.asarray(self.d)


@dataclass(frozen=True)
class BlurKernel:
    """Functional Fourier coefficients g_m(u) of the blurring family.

    kinds:
      heat      g_m(u) = exp(-4 pi^2 m^2 u)
      dirichlet g_m(u) = c * u^|m|
      boxcar    g_0(u) = 1, g_m(u) = q(u) sin(2 pi m u) / (2 pi m)
                with affine weight q(u) = q0 + q1 u, 0 < q_min <= q <= q_max
      table     explicit matrix over (m, channel)
    """

    kind: str
    c: float = 1.0
    q: tuple = (1.0, 0.0)
    table_m: tuple = ()
    table_u: tuple = ()
    table_g: tuple = ()

    __hash__ = _hash_once
    __getstate__ = _state_without_caches

    def __post_init__(self):
        if self.kind not in ("heat", "dirichlet", "boxcar", "table"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
        if len(self.q) != 2:
            raise ConfigError("boxcar weight must be affine: q = (q0, q1)")
        if not all(math.isfinite(x) for x in (self.c, *self.q)):
            raise ConfigError("kernel c, q0 and q1 must be finite")
        if self.kind == "dirichlet" and self.c == 0:
            raise ConfigError("dirichlet kernel requires c != 0: a zero kernel blinds "
                              "every channel")
        if self.kind == "table" and (not self.table_m or not self.table_u):
            raise ConfigError("table kernel requires table_m, table_u and table_g")

    def weight(self, u: np.ndarray) -> np.ndarray:
        return self.q[0] + self.q[1] * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class KernelFit:
    """Fitted decay template tau_1(m, n) ~ eps_n |m|^-nu (ln|m|)^-lam exp(-alpha |m|^beta)."""

    nu: float
    lam: float
    alpha: float
    beta: float
    regime: str  # "regular" | "supersmooth"
    residual: float
    residual_regular: float
    residual_supersmooth: float


def _sin_2pi(x: np.ndarray) -> np.ndarray:
    """sin(2 pi x) with exact zeros whenever 2x is an integer in floating point."""
    r = np.mod(2.0 * np.asarray(x, dtype=float), 2.0)
    k = np.round(r)
    sign = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
    return sign * np.sin(np.pi * (r - k))


def kernel_fourier(kernel: BlurKernel, u, m) -> np.ndarray:
    """g_m(u); broadcasts over channel points u (rows) and frequencies m (cols)."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))[:, None]
    m_arr = np.atleast_1d(np.asarray(m, dtype=int))[None, :]

    if kernel.kind == "heat":
        if np.any(u_arr < 0):
            raise ConfigError("heat kernel requires u >= 0")
        out = np.exp(-4.0 * np.pi ** 2 * m_arr.astype(float) ** 2 * u_arr).astype(complex)
    elif kernel.kind == "dirichlet":
        if np.any((u_arr <= 0) | (u_arr >= 1)):
            raise ConfigError("dirichlet kernel requires 0 < u < 1")
        out = (kernel.c * u_arr ** np.abs(m_arr).astype(float)).astype(complex)
    elif kernel.kind == "boxcar":
        mf = m_arr.astype(float)
        q = kernel.weight(u_arr)
        # folded sine so resonant channels (2 m u integer) give an exact zero
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = q * _sin_2pi(mf * u_arr) / (2 * np.pi * mf)
        out = np.where(m_arr == 0, 1.0, vals).astype(complex)
    else:
        out = _table_lookup(kernel, u_arr[:, 0], m_arr[0, :])

    scalar = np.isscalar(u) and np.isscalar(m)
    return complex(out[0, 0]) if scalar else out


def _table_arrays(kernel: BlurKernel) -> tuple:
    """A table kernel's channel points, its (rows, points) values, the row
    order that sorts m and the sorted m, all read-only.  The sort is stable,
    so repeated m keep table order and the last such row wins."""
    tab_u = np.asarray(kernel.table_u, dtype=float)
    tab_m = np.asarray(kernel.table_m, dtype=int)
    g = np.asarray(kernel.table_g, dtype=complex).reshape(len(tab_m), len(tab_u))
    order = np.argsort(tab_m, kind="stable")
    arrays = (tab_u, g, order, tab_m[order])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _table_index(kernel: BlurKernel, u: np.ndarray, m: np.ndarray) -> tuple:
    """The table's (rows, points) values, the rows of frequencies m and the
    columns of channel points u; raises ConfigError naming the first u, then
    the first m, that the table lacks.

    The arrays are built from the kernel's tuples on first use and kept, the
    way ``_hash_once`` keeps the hash: the kernel is read a block of
    frequencies at a time.
    """
    arrays = kernel.__dict__.get("_table")
    if arrays is None:
        arrays = _table_arrays(kernel)
        object.__setattr__(kernel, "_table", arrays)
    tab_u, g, order, sorted_m = arrays
    cols = np.argmin(np.abs(tab_u[None, :] - u[:, None]), axis=1)
    no_col = np.abs(tab_u[cols] - u) > 1e-9 * np.maximum(1.0, np.abs(u))
    if no_col.any():
        raise ConfigError(f"kernel table has no column for u = {u[np.argmax(no_col)]}")
    pos = np.searchsorted(sorted_m, m, side="right") - 1
    no_row = (pos < 0) | (sorted_m[pos] != m)
    if no_row.any():
        raise ConfigError(f"kernel table has no row for m = {int(m[np.argmax(no_row)])}")
    return g, order[pos], cols


def _table_lookup(kernel: BlurKernel, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    g, rows, cols = _table_index(kernel, u, m)
    return g[np.ix_(rows, cols)].T  # (len(u), len(m))


def require_kernel_band(kernel: BlurKernel, design: ChannelDesign) -> None:
    """Raise ConfigError unless a table kernel has a column for each u_l and a
    row for each |m| <= N/2 - 1, the band the estimator reads; evaluates no
    kernel value."""
    if kernel.kind == "table":
        band = design.alias_free_band
        _table_index(kernel, design.u_array(), np.arange(-band, band + 1))


def require_alias_free(f: FourierSeries, design: ChannelDesign) -> None:
    """Raise ConfigError unless the truth's band lies in the design's
    alias-free band |m| <= N/2 - 1."""
    if f.band > design.alias_free_band:
        raise ConfigError(f"truth band {f.band} exceeds alias-free band {design.alias_free_band}")


def simulate_observations(f: FourierSeries, design: ChannelDesign,
                          kernel: BlurKernel, seed) -> np.ndarray:
    """M x N observation matrix: blurred truth plus per-channel noise rows.

    The noise rows come from one generator seeded by ``seed``
    (``noise.sample_paths``), so the matrix is deterministic in (truth,
    design, kernel, seed).  The blurred truth is computed once per (truth,
    design, kernel).
    """
    require_alias_free(f, design)
    noise = sample_paths(design.noise, design.N, seed)
    noise += _blurred_truth(f.band, f.values.tobytes(), design, kernel)
    return noise


@functools.lru_cache(maxsize=4)
def _blurred_truth(band: int, values: bytes, design: ChannelDesign,
                   kernel: BlurKernel) -> np.ndarray:
    """(g(u_l, .) * f)(t_i) on the M x N grid, N ifft(g_m(u_l) f_m); read-only.

    The truth is keyed by its band and the bytes of its coefficients, so a
    truth whose values change is a new entry.  The rows are assembled and
    transformed a block at a time (``noise._blocks``), so no M x N complex
    array is held; each row's transform is its own, so the bits do not depend
    on the block size.
    """
    N = design.N
    m = np.arange(-band, band + 1)
    f = np.frombuffer(values, dtype=complex)[None, :]
    u = design.u_array()
    signal = np.empty((design.M, N))
    for rows in _blocks(design.M, N):
        g = kernel_fourier(kernel, u[rows], m)  # (rows, 2B+1)
        assembled = np.zeros((g.shape[0], N), dtype=complex)
        assembled[:, np.mod(m, N)] = g * f
        np.fft.ifft(assembled, axis=1, out=assembled)
        assembled *= N
        signal[rows] = assembled.real
    signal.flags.writeable = False
    return signal


def tau_1(design: ChannelDesign, kernel: BlurKernel, m) -> np.ndarray:
    """M^-1 sum_l N^(-2 d_l) |g_m(u_l)|^2."""
    g = kernel_fourier(kernel, design.u_array(), np.atleast_1d(m))
    weights = float(design.N) ** (-2.0 * design.d_array())
    out = (weights[:, None] * np.abs(g) ** 2).mean(axis=0)
    return float(out[0]) if np.isscalar(m) else out


def delta_1(design: ChannelDesign, kernel: BlurKernel, j: int) -> float:
    """|C_j|^-1 sum_{m in C_j} tau_1(m,n)^-1, each term formed as
    tau_1 tau_1^-2: Pensky and Sapatinas's Delta_kappa at kappa = 1."""
    members = frequency_set(MeyerSpec(0, 0), j).members
    t1 = tau_1(design, kernel, members)
    if np.any(t1 <= TAU_FLOOR):
        bad = members[t1 <= TAU_FLOOR]
        raise IllPosedFrequencyError(
            f"tau_1 vanishes on C_{j} at m in {bad[:8].tolist()}; level is ill-posed"
        )
    return float(np.mean(t1 * t1 ** -2.0))


def epsilon_n(design: ChannelDesign) -> tuple[float, float]:
    """Noise-reduction factor eps_n = M^-1 sum_l N^(-2 d_l) and n* = n eps_n."""
    eps = float(np.mean(float(design.N) ** (-2.0 * design.d_array())))
    return eps, eps * design.n


def boxcar_S_closed_form(m: int, M: int, N: int, a1: float) -> float:
    """S(m,n) = M^-1 sum_{l=1}^M sin^2(2 pi m l / M) N^(-2 a1 l / M), in closed form.

    With p = N^(-2 a1 / M) and x = 4 pi m / M (so that cos(Mx) = 1), summing
    the geometric series behind sin^2 = (1 - cos)/2 gives

    S = p (p+1) (1 - p^M) (1 - cos x) / (2 M (1-p) [(1-p)^2 + 2 p (1 - cos x)]).

    The resonant case 2m = 0 (mod M) gives exactly 0; a1 = 0 falls back to
    the direct sum.
    """
    if M < 1 or N < 2:
        raise ConfigError("need M >= 1 and N >= 2")
    if a1 < 0:
        raise ConfigError("a1 must be >= 0")
    if (2 * m) % M == 0:
        return 0.0
    if a1 == 0.0:
        l = np.arange(1, M + 1)
        return float(np.mean(np.sin(2 * np.pi * ((m * l) % M) / M) ** 2))
    t = 2.0 * a1 * math.log(N) / M
    p = math.exp(-t)
    one_minus_p = -math.expm1(-t)
    one_minus_pM = -math.expm1(-2.0 * a1 * math.log(N))
    one_minus_cos = 2.0 * math.sin(math.pi * ((2 * m) % M) / M) ** 2
    num = p * (p + 1.0) * one_minus_pM * one_minus_cos
    den = 2.0 * M * one_minus_p * (one_minus_p ** 2 + 2.0 * p * one_minus_cos)
    return num / den


def fit_frequencies(m_range) -> np.ndarray:
    """The frequencies m >= 2 of ``m_range`` that ``characterize_kernel`` fits;
    raises ConfigError unless there are at least 8 of them and they span one
    dyadic octave."""
    m = np.asarray(m_range, dtype=int)
    m = m[m >= 2]
    if m.size < 8 or m.max() < 2 * m.min():
        raise ConfigError("m_range must span at least one dyadic octave with m >= 2")
    return m


def characterize_kernel(design: ChannelDesign, kernel: BlurKernel, m_range) -> KernelFit:
    """Fit the decay of tau_1(m, n) over a frequency range.

    Two templates are fitted by least squares on log tau_1: a regular one in
    {1, log m, log log m} and a super-smooth one in {1, log m, m^beta} over a
    beta grid. The regime is the template with decisively smaller residual,
    super-smooth only when its term alpha m^beta moves log tau_1 by at least one
    e-fold over the fitted frequencies.  The exponent convention is
    tau_1 ~ |m|^(-nu), matching the rate formulas.
    """
    m = fit_frequencies(m_range)
    t1 = tau_1(design, kernel, m)
    keep = t1 > TAU_FLOOR
    if not np.any(keep):
        raise DegenerateFitError("tau_1 is identically zero over the requested range")
    m, t1 = m[keep], t1[keep]
    y = np.log(t1)
    logm = np.log(m.astype(float))

    def ols(X):
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ coef
        return coef, float(resid @ resid)

    ones = np.ones_like(logm)

    # regular template, with a parsimony rule for the collinear log log term
    coef_plain, rss_plain = ols(np.column_stack([ones, logm]))
    coef_full, rss_full = ols(np.column_stack([ones, logm, np.log(logm)]))
    if rss_full < 0.95 * rss_plain:
        nu_reg, lam_reg, rss_reg = -coef_full[1], -coef_full[2], rss_full
    else:
        nu_reg, lam_reg, rss_reg = -coef_plain[1], 0.0, rss_plain

    # super-smooth template over a beta grid, then one local refinement
    def ss_fit(beta):
        coef, rss = ols(np.column_stack([ones, logm, m.astype(float) ** beta]))
        return coef, rss

    betas = np.arange(0.25, 3.01, 0.25)
    fits = [ss_fit(b) for b in betas]
    i_best = int(np.argmin([rss for _, rss in fits]))
    fine = np.arange(max(0.05, betas[i_best] - 0.2), betas[i_best] + 0.21, 0.05)
    fits_fine = [ss_fit(b) for b in fine]
    j_best = int(np.argmin([rss for _, rss in fits_fine]))
    coef_ss, rss_ss = fits_fine[j_best]
    beta_ss, alpha_ss, nu_ss = float(fine[j_best]), -coef_ss[2], -coef_ss[1]

    y_spread = float(np.var(y)) * y.size
    if y_spread <= 1e-12:
        # flat tau_1: no decay at all
        return KernelFit(0.0, 0.0, 0.0, beta_ss, "regular", 0.0, rss_reg, rss_ss)
    if rss_ss < 0.25 * rss_reg and alpha_ss * (m.max() ** beta_ss - m.min() ** beta_ss) >= 1:
        return KernelFit(float(nu_ss), 0.0, float(alpha_ss), beta_ss,
                         "supersmooth", rss_ss, rss_reg, rss_ss)
    return KernelFit(float(nu_reg), float(lam_reg), 0.0, beta_ss,
                     "regular", rss_reg, rss_reg, rss_ss)


def save_kernel_table(path, m_values, u_values, g_matrix):
    """Write a kernel table: one row per m, columns per channel, entries 're,im'."""
    g = np.ascontiguousarray(g_matrix, dtype=complex)
    np.savetxt(path, np.column_stack([m_values, g.view(float)]),
               fmt="%d" + " %.17g,%.17g" * g.shape[1], comments="# ",
               header="kernel table: rows m, columns l; entries re,im\n"
                      "u " + " ".join(f"{u:.17g}" for u in u_values))


_TABLE_ROW = re.compile(r"[+-]?\d+(?:\s+[^\s,]+,[^\s,]+)*")


def load_kernel_table(path) -> BlurKernel:
    """Read a kernel table written by ``save_kernel_table``: the last '# u ...'
    comment names the channel points, and each other non-blank line is an
    integer m followed by one 're,im' cell per channel point."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
        comments = [line[1:].split() for line in lines if line.startswith("#")]
        u_rows = [c[1:] for c in comments if c[:1] == ["u"]]
        rows = [line for line in lines if line and not line.startswith("#")]
        if not rows or not u_rows or not u_rows[-1]:
            raise ConfigError("it is empty or lacks a '# u ...' header")
        u = np.array(u_rows[-1], dtype=float)
        bad = next((row for row in rows if not _TABLE_ROW.fullmatch(row)), None)
        if bad is not None:
            raise ConfigError(f"row {bad!r} is not an integer m and 're,im' cells")
        data = np.loadtxt([row.replace(",", " ") for row in rows], ndmin=2)
        if data.shape[1] != 1 + 2 * u.size:
            raise ConfigError(f"rows have {(data.shape[1] - 1) // 2} cells but the "
                              f"u header names {u.size} points")
        if not (np.isfinite(u).all() and np.isfinite(data).all()):
            raise ConfigError("u values and entries must be finite")
    except (ConfigError, ValueError) as exc:  # ValueError: a cell numpy cannot parse
        raise ConfigError(f"kernel table {path}: {exc}") from exc
    g = np.ascontiguousarray(data[:, 1:]).view(complex)  # keeps the sign of -0.0
    return BlurKernel(
        kind="table",
        table_m=tuple(data[:, 0].astype(int).tolist()),
        table_u=tuple(u.tolist()),
        table_g=tuple(g.ravel().tolist()),
    )
