"""The band-limited, cached deconvolution: ``fourier_deconvolve(band=K)`` is
a bitwise slice of the full band, matches the reference body it replaced,
and ``estimate`` computes the kernel weights once per design."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdeconv import estimator
from lrdeconv.channels import BlurKernel, ChannelDesign, _table_arrays, kernel_fourier
from lrdeconv.errors import ConfigError, MissingFrequencyError
from lrdeconv.estimator import (
    EstimatorConfig,
    _deconvolution_weights,
    estimate,
    fourier_deconvolve,
)
from lrdeconv.fourier import FourierSeries
from lrdeconv.meyer import MeyerSpec, _level_cache, _member_cache, analyze, needed_band
from lrdeconv.noise import NoiseModel

KINDS = ("boxcar", "heat", "dirichlet", "table")


def reference_fourier_deconvolve(y, design, kernel, denom_tol=1e-12):
    """The full-band body that ``fourier_deconvolve`` had before the weights
    were cached: the reference for its values and ill-posed list."""
    y = np.asarray(y, dtype=float)
    if y.shape != (design.M, design.N):
        raise ConfigError(f"y must be M x N = {design.M} x {design.N}, got {y.shape}")
    N = design.N
    band = N // 2 - 1
    m = np.arange(-band, band + 1)
    Y = np.fft.fft(y, axis=1) / N
    Ym = Y[:, np.mod(m, N)]
    g = kernel_fourier(kernel, design.u_array(), m)
    w = (float(N) ** (-2.0 * design.d_array()))[:, None]
    numer = np.sum(w * np.conj(g) * Ym, axis=0)
    denom = np.sum(w * np.abs(g) ** 2, axis=0)
    cutoff = denom_tol * denom.max()
    ok = denom >= cutoff
    values = np.zeros_like(numer)
    values[ok] = numer[ok] / denom[ok]
    ill_posed = [int(mm) for mm in m[~ok]]
    return FourierSeries(band, values), ill_posed


def make_design(u, d, N):
    noise = tuple(NoiseModel.farima(dl) if dl > 0 else NoiseModel.white() for dl in d)
    return ChannelDesign(tuple(u), tuple(d), N, noise)


def make_kernel(kind, u, N, seed):
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


@st.composite
def cases(draw):
    """(design, kernel, levels, y) over every kernel kind, with M, N, d and levels random."""
    kind = draw(st.sampled_from(KINDS))
    log_n = draw(st.integers(1, 9))
    N = 2 ** log_n
    M = draw(st.integers(1, 12))
    if kind == "boxcar":
        # a grid of u where 2 m u is an integer makes some channels blind
        u = draw(st.lists(st.sampled_from([l / 8 for l in range(1, 9)])
                          | st.floats(0.01, 1.0), min_size=M, max_size=M))
    elif kind == "heat":
        u = draw(st.lists(st.floats(0.0, 0.05), min_size=M, max_size=M))
    else:
        u = draw(st.lists(st.floats(0.05, 0.95), min_size=M, max_size=M, unique=True))
    d = draw(st.lists(st.floats(0.0, 0.45), min_size=M, max_size=M))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    J = draw(st.integers(0, log_n - 1))
    j0 = draw(st.integers(0, J))
    y = np.random.default_rng(seed).normal(size=(M, N))
    return make_design(u, d, N), make_kernel(kind, u, N, seed), (j0, J), y


class TestBandedDeconvolution:
    @settings(max_examples=150, deadline=None)
    @given(case=cases(), denom_tol=st.sampled_from([1e-12, 1e-6, 1e-3]))
    def test_band_is_a_bitwise_slice_of_the_full_band(self, case, denom_tol):
        design, kernel, (j0, J), y = case
        K = needed_band(MeyerSpec(j0, J))
        full, ill_full = fourier_deconvolve(y, design, kernel, denom_tol)
        part, ill_part = fourier_deconvolve(y, design, kernel, denom_tol, band=K)
        assert part.band == K
        assert part.values.tobytes() == full.get(np.arange(-K, K + 1)).tobytes()
        assert ill_part == ill_full

    @settings(max_examples=150, deadline=None)
    @given(case=cases(), denom_tol=st.sampled_from([1e-12, 1e-6, 1e-3]))
    def test_matches_the_reference_body(self, case, denom_tol):
        design, kernel, _, y = case
        got, ill = fourier_deconvolve(y, design, kernel, denom_tol)
        want, ill_want = reference_fourier_deconvolve(y, design, kernel, denom_tol)
        assert ill == ill_want
        if kernel.kind == "table":
            # the reference summed the F-ordered table lookup in another order
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-12 * scale
        else:
            assert got.values.tobytes() == want.values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=cases())
    def test_estimate_with_mu_zero_is_the_full_band_analysis(self, case):
        design, kernel, (j0, J), y = case
        cfg = EstimatorConfig(mu=0.0, nu=1.0, level_override=(j0, J))
        result = estimate(y, design, kernel, cfg)
        f_hat, ill = fourier_deconvolve(y, design, kernel, cfg.denom_tol)
        want = analyze(f_hat, MeyerSpec(j0, J, cfg.aux_poly))
        assert result.diagnostics.ill_posed == ill
        assert result.coeffs.scaling.tobytes() == want.scaling.tobytes()
        assert {j: v.tobytes() for j, v in result.coeffs.detail.items()} \
            == {j: v.tobytes() for j, v in want.detail.items()}

    def test_band_outside_the_alias_free_band_raises(self):
        design = make_design([0.3, 0.6], [0.1, 0.2], 64)
        y = np.zeros((2, 64))
        for band in (-1, 32):
            with pytest.raises(MissingFrequencyError):
                fourier_deconvolve(y, design, BlurKernel("boxcar"), band=band)
        assert fourier_deconvolve(y, design, BlurKernel("boxcar"), band=31)[0].band == 31

    def test_returned_ill_posed_list_is_the_callers(self):
        design = make_design([l / 4 for l in range(1, 5)], [0.0] * 4, 64)
        y = np.zeros((4, 64))
        _, ill = fourier_deconvolve(y, design, BlurKernel("boxcar"), band=5)
        assert 2 in ill
        ill.clear()
        assert 2 in fourier_deconvolve(y, design, BlurKernel("boxcar"), band=5)[1]


class TestWeightCache:
    def test_equal_design_does_not_recompute_the_kernel(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel_fourier(*args, **kwargs)

        monkeypatch.setattr(estimator, "kernel_fourier", counting)
        _deconvolution_weights.cache_clear()
        u, d = [l / 16 for l in range(1, 17)], [0.1 + 0.2 * l / 16 for l in range(1, 17)]
        cfg = EstimatorConfig(mu=1.0, nu=2.0, level_override=(2, 4))
        y = np.random.default_rng(5).normal(size=(16, 256))
        first = estimate(y, make_design(u, d, 256), BlurKernel("boxcar"), cfg)
        assert len(calls) == 1
        again = estimate(y, make_design(u, d, 256), BlurKernel("boxcar"), cfg)
        assert len(calls) == 1
        assert again.grid.tobytes() == first.grid.tobytes()

    def test_threads_filling_the_cache_agree(self):
        u, d = [0.0, 0.0005, 0.001, 0.002], [0.0, 0.1, 0.2, 0.4]
        y = np.random.default_rng(6).normal(size=(4, 512))
        want = reference_fourier_deconvolve(y, make_design(u, d, 512), BlurKernel("heat"))
        _deconvolution_weights.cache_clear()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fourier_deconvolve, y, make_design(u, d, 512),
                                       BlurKernel("heat"), 1e-12, band)
                           for band in (None, 40, 3, None, 40, 3) * 4]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for series, ill in results:
            assert ill == want[1]
            assert series.values.tobytes() == want[0].get(series.m).tobytes()

    def test_equal_objects_hash_equal_and_survive_pickling(self):
        u, d = [0.25, 0.5], [0.0, 0.3]
        a, b = make_design(u, d, 32), make_design(u, d, 32)
        assert a == b and hash(a) == hash(b)
        kernel = make_kernel("table", u, 32, seed=1)
        for obj in (a, kernel):
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and hash(copy) == hash(obj)
        assert "_hash" not in pickle.loads(pickle.dumps(a)).__dict__

    def test_table_arrays_are_built_once_per_kernel(self):
        u = [0.25, 0.5, 0.75]
        kernel = make_kernel("table", u, 64, seed=2)
        _table_arrays.cache_clear()
        for m in (np.arange(-31, 32), np.arange(5)):
            kernel_fourier(kernel, np.array(u), m)
        kernel_fourier(make_kernel("table", u, 64, seed=2), np.array(u), np.arange(3))
        assert _table_arrays.cache_info().misses == 1

    def test_cached_arrays_are_read_only(self):
        design = make_design([0.2, 0.4, 0.7], [0.0, 0.1, 0.3], 128)
        kernel = make_kernel("table", design.u, 128, seed=3)
        cached = [a for a in _deconvolution_weights(design, kernel, 1e-12, 10)
                  if isinstance(a, np.ndarray)]
        cached += list(_table_arrays(kernel))
        cached += list(_level_cache("poly7", 4, "wavelet"))
        cached += list(_level_cache("poly7", 3, "scaling"))
        cached.append(_member_cache("poly7", 5, "wavelet"))
        assert len(cached) == 17
        for a in cached:
            with pytest.raises(ValueError):
                a[...] = 0
        assert isinstance(_deconvolution_weights(design, kernel, 1e-12, 10)[-1], tuple)
