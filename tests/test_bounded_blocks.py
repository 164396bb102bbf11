"""The stages that are built in blocks of ``noise._BLOCK_POINTS`` points: the
kernel weights (``_deconvolution_weights``), the blurred truth
(``_blurred_truth``) and the channel DFTs of ``fourier_deconvolve`` give the
bits of their unblocked bodies at every block size and raise the same errors
when the offending m or row lies in a later block; on a 1024 x 1024 design
none of them holds an M x N complex temporary, nor does the sampler hold
more than its output and two 1 MB buffers per thread; and a table kernel
converts its table once."""

import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrdeconv import channels, estimator, noise
from lrdeconv.channels import BlurKernel, _blurred_truth, kernel_fourier
from lrdeconv.errors import ConfigError, NumericError
from lrdeconv.estimator import _deconvolution_weights, fourier_deconvolve
from lrdeconv.fourier import FourierSeries
from testkit import (bits, boxcar_linear_design, make_design, make_kernel,
                     reference_blurred_truth)

KINDS = ("boxcar", "heat", "dirichlet", "table")
MB = 2 ** 20


# ------------------------------------------------------ unblocked bodies
# The three stages as they were before they were blocked: one kernel call over
# the full band, one M x N inverse FFT (``testkit.reference_blurred_truth``),
# one real FFT of every row.

def reference_weights(design, kernel, denom_tol, band):
    N = design.N
    full = design.alias_free_band
    g = np.ascontiguousarray(kernel_fourier(kernel, design.u_array(), np.arange(-full, full + 1)))
    w = (float(N) ** (-2.0 * design.d_array()))[:, None]
    with np.errstate(over="ignore"):
        denom = np.sum(w * np.abs(g) ** 2, axis=0)
    if not np.isfinite(denom).all():
        m = int(np.flatnonzero(~np.isfinite(denom))[0]) - full
        raise NumericError(
            f"deconvolution weights: the denominator sum_l N^(-2 d_l) |g_m(u_l)|^2 is not "
            f"finite at m = {m} (N = {N}); the kernel values are too large"
        )
    ok = (denom >= denom_tol * denom.max()) & (denom > 0)
    ill_posed = tuple(int(m) - full for m in np.flatnonzero(~ok))
    keep = slice(full - band, full + band + 1)
    return (np.ascontiguousarray(w * np.conj(g[:, keep])), denom[keep].copy(), ok[keep].copy(),
            ill_posed)


def reference_fourier_deconvolve(y, design, kernel, denom_tol, band):
    full = design.alias_free_band
    width = min(max(band, 1), full)
    weights, denom, ok, ill_posed = reference_weights(design, kernel, denom_tol, width)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.fft.rfft(y, axis=1)[:, : width + 1]
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
    return values[width - band:width + band + 1], list(ill_posed)


# ------------------------------------------------------------- builders

def channel_points(kind, M):
    if kind == "heat":
        return [0.05 * l / M for l in range(M)]  # u = 0 included
    if kind == "boxcar":
        return [l / 8 for l in range(1, M + 1)]  # 2 m u integer: blind channels
    return [0.05 + 0.9 * l / M for l in range(M)]


@st.composite
def cases(draw):
    """(design, kernel, band, y, block points) over every kernel kind."""
    kind = draw(st.sampled_from(KINDS))
    N = 2 ** draw(st.integers(1, 9))
    M = draw(st.integers(1, 12))
    full = N // 2 - 1
    band = draw(st.sampled_from([0, full]) | st.integers(0, full))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    d = draw(st.lists(st.floats(0.0, 0.45), min_size=M, max_size=M))
    block = draw(st.sampled_from([1, 2, 3, 5, 8, 64, 1000, noise._BLOCK_POINTS])
                 | st.integers(1, 4096))
    u = channel_points(kind, M)
    y = np.random.default_rng(seed).normal(size=(M, N))
    return make_design(u, d, N), make_kernel(kind, u, N, seed), band, y, block


def blocked(block):
    """Patch the block size; the weights cache is cleared on entry, since its
    entries were built at another block size."""
    _deconvolution_weights.cache_clear()
    return mock.patch.object(noise, "_BLOCK_POINTS", block)


# M = 4, N = 64: 63 columns, and 8 points give blocks of 2 columns, so the
# last column would be a block of its own
ONE_COLUMN_LEFT = ("table", 64, 4, 8)


def case_at(kind, N, M, block, band=None, seed=0):
    u = channel_points(kind, M)
    design = make_design(u, [0.1 + 0.3 * l / M for l in range(M)], N)
    y = np.random.default_rng(seed).normal(size=(M, N))
    full = N // 2 - 1
    return design, make_kernel(kind, u, N, seed), full if band is None else band, y, block


class TestSameBits:
    @settings(max_examples=150, deadline=None)
    @given(case=cases(), denom_tol=st.sampled_from([1e-12, 1e-3]))
    @example(case=case_at(*ONE_COLUMN_LEFT), denom_tol=1e-12)
    @example(case=case_at(*ONE_COLUMN_LEFT, band=0), denom_tol=1e-12)
    @example(case=case_at("boxcar", 2, 3, 1), denom_tol=1e-12)  # one column in all
    @example(case=case_at("heat", 512, 1, 1), denom_tol=1e-12)  # M = 1
    def test_weights(self, case, denom_tol):
        design, kernel, band, _, block = case
        with blocked(block):
            got = _deconvolution_weights.__wrapped__(design, kernel, denom_tol, band)
        want = reference_weights(design, kernel, denom_tol, band)
        assert [bits(a) for a in got[:3]] == [bits(a) for a in want[:3]]
        assert got[3] == want[3]
        for a in got[:3]:
            assert a.flags.c_contiguous and not a.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(case=cases(), truth_seed=st.integers(0, 2 ** 32 - 1))
    @example(case=case_at("dirichlet", 256, 1, 1), truth_seed=0)  # M = 1
    def test_blurred_truth(self, case, truth_seed):
        design, kernel, band, _, block = case
        rng = np.random.default_rng(truth_seed)
        values = (rng.normal(size=2 * band + 1) + 1j * rng.normal(size=2 * band + 1)).tobytes()
        with blocked(block):
            got = _blurred_truth.__wrapped__(band, values, design, kernel)
        truth = FourierSeries(band, np.frombuffer(values, dtype=complex))
        assert bits(got) == bits(reference_blurred_truth(truth, design, kernel))
        assert got.shape == (design.M, design.N) and not got.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(case=cases(), denom_tol=st.sampled_from([1e-12, 1e-3]))
    @example(case=case_at(*ONE_COLUMN_LEFT), denom_tol=1e-12)
    @example(case=case_at(*ONE_COLUMN_LEFT, band=0), denom_tol=1e-12)
    @example(case=case_at("table", 128, 1, 1), denom_tol=1e-12)  # M = 1
    def test_fourier_deconvolve(self, case, denom_tol):
        design, kernel, band, y, block = case
        with blocked(block):
            series, ill = fourier_deconvolve(y, design, kernel, denom_tol, band)
        want, ill_want = reference_fourier_deconvolve(y, design, kernel, denom_tol, band)
        assert series.band == band
        assert bits(series.values) == bits(want)
        assert ill == ill_want

    def test_simulate_observations(self):
        design, kernel, _, _, _ = case_at("boxcar", 256, 12, 600)
        f = FourierSeries(5, np.arange(11) + 1j)
        want = channels.simulate_observations(f, design, kernel, 3)
        channels._blurred_truth.cache_clear()
        with blocked(600):
            assert bits(channels.simulate_observations(f, design, kernel, 3)) == bits(want)


class TestErrorsInALaterBlock:
    def table(self, entry, skip=()):
        """A 2-channel table over the band of N = 64 with entries ``entry(m)``."""
        rows = [m for m in range(-31, 32) if m not in skip]
        return BlurKernel("table", table_m=tuple(rows), table_u=(0.3, 0.6),
                          table_g=tuple(entry(m) for m in rows for _ in range(2)))

    @pytest.mark.filterwarnings("error")  # no overflow warning before the error
    def test_non_finite_denominator_names_the_first_m(self):
        design = make_design([0.3, 0.6], [0.1, 0.2], 64)
        kernel = self.table(lambda m: 1e200 + 0j if m in (20, 25) else 1 + 0j)
        message = ("deconvolution weights: the denominator sum_l N^(-2 d_l) |g_m(u_l)|^2 is "
                   "not finite at m = 20 (N = 64); the kernel values are too large")
        with pytest.raises(NumericError) as want:
            reference_weights(design, kernel, 1e-12, 3)
        assert str(want.value) == message
        for block in (4, 10, 64, noise._BLOCK_POINTS):  # m = 20 in block 26, 6, 2, 1
            with blocked(block), pytest.raises(NumericError) as got:
                _deconvolution_weights(design, kernel, 1e-12, 3)
            assert str(got.value) == message

    def test_missing_row_or_column_names_the_first(self):
        design = make_design([0.3, 0.6], [0.1, 0.2], 64)
        no_rows = self.table(lambda m: 1 + 0j, skip=(17, 25))
        no_col = make_design([0.3, 0.7], [0.1, 0.2], 64)
        for d, kernel, message in ((design, no_rows, "kernel table has no row for m = 17"),
                                   (no_col, self.table(lambda m: 1 + 0j, skip=(17,)),
                                    "kernel table has no column for u = 0.7")):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                reference_weights(d, kernel, 1e-12, 3)
            for block in (4, 10, noise._BLOCK_POINTS):
                with blocked(block), pytest.raises(ConfigError, match=f"^{message}$"):
                    _deconvolution_weights(d, kernel, 1e-12, 3)
            with blocked(4), pytest.raises(ConfigError, match=f"^{message}$"):
                channels.require_kernel_band(kernel, d)

    def test_overflowing_channel_dft_names_its_row(self):
        design, kernel, _, y, _ = case_at("boxcar", 64, 6, 1)
        y[4, :] = 1e308
        message = ("channel DFT: the DFT of row 4 of y is not finite at m = 0 (N = 64); "
                   "the observations are too large")
        with pytest.raises(NumericError) as want:
            reference_fourier_deconvolve(y, design, kernel, 1e-12, 3)
        assert str(want.value) == message
        for block in (64, 128, noise._BLOCK_POINTS):  # row 4 in block 5, 3, 1
            with blocked(block), pytest.raises(NumericError) as got:
                fourier_deconvolve(y, design, kernel, band=3)
            assert str(got.value) == message


class TestTableConvertedOnce:
    def test_multi_block_build_converts_once_and_keeps_its_bits(self, monkeypatch):
        design, kernel, _, _, _ = case_at("table", 256, 8, 64)
        conversions, calls = [], []
        convert, evaluate = channels._table_arrays, estimator.kernel_fourier
        monkeypatch.setattr(channels, "_table_arrays",
                            lambda k: conversions.append(k) or convert(k))
        monkeypatch.setattr(estimator, "kernel_fourier",
                            lambda *a: calls.append(a) or evaluate(*a))
        with blocked(64):  # blocks of 8 of the 255 columns
            got = _deconvolution_weights(design, kernel, 1e-12, 40)
        assert len(conversions) == 1 and len(calls) == 32
        want = reference_weights(design, kernel, 1e-12, 40)
        assert [bits(a) for a in got[:3]] == [bits(a) for a in want[:3]]
        assert got[3] == want[3]

    def test_arrays_are_read_only_and_not_pickled(self):
        u = [0.2, 0.4]
        kernel = make_kernel("table", u, 32, seed=1)
        kernel_fourier(kernel, u, [1, 2])
        arrays = kernel.__dict__["_table"]
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0
        copy = pickle.loads(pickle.dumps(kernel))
        assert "_table" not in copy.__dict__ and copy == kernel
        assert bits(kernel_fourier(copy, u, [1, 2])) == bits(kernel_fourier(kernel, u, [1, 2]))


class TestPeakMemory:
    """Peaks that tracemalloc sees above what a stage is given, at M = N = 1024
    (the shipped box-car design at n = 2^20, which reads |m| <= 5); the
    unblocked bodies took 48, 17 and 8.4 MB.  The sampler holds its 8 MB
    output and, on each of its two threads, a 1 MB group of normals, which the
    transform overwrites, and its 1 MB complex half; a normals buffer of the
    full size would add 16 MB."""

    @pytest.fixture(scope="class")
    def large(self):
        design = boxcar_linear_design(2 ** 20)
        assert (design.M, design.N) == (1024, 1024)
        return design, BlurKernel("boxcar")

    @staticmethod
    def peak_above_start(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_weights(self, large):
        design, kernel = large
        _, peak = self.peak_above_start(_deconvolution_weights.__wrapped__, design, kernel,
                                        1e-12, 5)
        assert peak <= 16 * MB

    def test_blurred_truth(self, large):
        design, kernel = large
        values = (np.arange(81) + 1j).tobytes()
        signal, peak = self.peak_above_start(_blurred_truth.__wrapped__, 40, values, design,
                                             kernel)
        assert peak - signal.nbytes <= 12 * MB

    def test_channel_dfts(self, large):
        design, kernel = large
        y = np.random.default_rng(0).normal(size=(design.M, design.N))
        fourier_deconvolve(y, design, kernel, band=5)  # the weights, cached
        _, peak = self.peak_above_start(fourier_deconvolve, y, design, kernel, 1e-12, 5)
        assert peak <= 4 * MB

    def test_sample_paths(self, large):
        design, _ = large
        noise.sample_paths(design.noise, design.N, 0)  # the embedding spectra, cached
        paths, peak = self.peak_above_start(noise.sample_paths, design.noise, design.N, 1)
        assert peak - paths.nbytes <= 5 * MB
