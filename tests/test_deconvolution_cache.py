"""The band-limited, cached deconvolution: ``fourier_deconvolve(band=K)`` is
a bitwise slice of the full band, matches the complex-FFT reference body it
replaced to within 1e-12 of the largest value, gives the same bits on any
thread, and ``estimate`` computes the kernel weights once per design."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdeconv import estimator
from lrdeconv.channels import BlurKernel, kernel_fourier
from lrdeconv.errors import ConfigError, NumericError
from lrdeconv.estimator import (
    EstimatorConfig,
    _deconvolution_weights,
    estimate,
    fourier_deconvolve,
)
from lrdeconv.fourier import FourierSeries
from lrdeconv.meyer import MeyerSpec, _level_cache, analyze, needed_band
from testkit import make_design, make_kernel

KINDS = ("boxcar", "heat", "dirichlet", "table")
# The real FFT rounds differently from the reference's complex FFT, and the
# reference summed a table lookup in another order; measured differences stay
# below 1e-15 of the largest value.
TOLERANCE = 1e-12


def reference_fourier_deconvolve(y, design, kernel, denom_tol=1e-12):
    """The full-band body that ``fourier_deconvolve`` had before the weights
    were cached and the DFT became a real FFT: the reference for its values
    and ill-posed list."""
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


@st.composite
def cases(draw):
    """(design, kernel, levels, y) over every kernel kind, with M, N, d and levels random."""
    kind = draw(st.sampled_from(KINDS))
    log_n = draw(st.integers(1, 12))
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
        assert part.values.tobytes() == full.values[full.band - K:full.band + K + 1].tobytes()
        assert ill_part == ill_full

    @settings(max_examples=150, deadline=None)
    @given(case=cases(), denom_tol=st.sampled_from([1e-12, 1e-6, 1e-3]))
    def test_matches_the_reference_body(self, case, denom_tol):
        design, kernel, _, y = case
        got, ill = fourier_deconvolve(y, design, kernel, denom_tol)
        want, ill_want = reference_fourier_deconvolve(y, design, kernel, denom_tol)
        assert ill == ill_want
        assert np.abs(got.values - want.values).max() <= TOLERANCE * np.abs(want.values).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_reference_body_at_the_largest_size(self, kind):
        u = [0.01 * l for l in range(1, 6)] if kind == "heat" else [0.15 * l for l in range(1, 6)]
        design = make_design(u, [0.0, 0.1, 0.2, 0.3, 0.45], 4096)  # odd M
        kernel = make_kernel(kind, u, 4096, seed=4)
        y = np.random.default_rng(4).normal(size=(5, 4096))
        got, ill = fourier_deconvolve(y, design, kernel)
        want, ill_want = reference_fourier_deconvolve(y, design, kernel)
        assert ill == ill_want
        assert np.abs(got.values - want.values).max() <= TOLERANCE * np.abs(want.values).max()

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
            with pytest.raises(NumericError,
                               match=rf"^band {band} outside the alias-free band 0\.\.31$"):
                fourier_deconvolve(y, design, BlurKernel("boxcar"), band=band)
        assert fourier_deconvolve(y, design, BlurKernel("boxcar"), band=31)[0].band == 31

    def test_returned_ill_posed_list_is_the_callers(self):
        design = make_design([l / 4 for l in range(1, 5)], [0.0] * 4, 64)
        y = np.zeros((4, 64))
        _, ill = fourier_deconvolve(y, design, BlurKernel("boxcar"), band=5)
        assert 2 in ill
        ill.clear()
        assert 2 in fourier_deconvolve(y, design, BlurKernel("boxcar"), band=5)[1]

    @pytest.mark.filterwarnings("error")  # no 0/0
    def test_all_zero_kernel_is_ill_posed_everywhere(self):
        design = make_design([0.3, 0.6], [0.1, 0.2], 64)
        zero = BlurKernel("table", table_m=tuple(range(-31, 32)), table_u=(0.3, 0.6),
                          table_g=(0j,) * 126)
        y = np.random.default_rng(0).normal(size=(2, 64))
        values, ill = fourier_deconvolve(y, design, zero)
        assert ill == list(range(-31, 32))
        assert not values.values.any()

    @pytest.mark.filterwarnings("error")  # no overflow warning before the error
    def test_overflowing_kernel_raises_naming_the_weights(self):
        design = make_design([0.3, 0.6], [0.1, 0.2], 64)
        huge = BlurKernel("table", table_m=tuple(range(-31, 32)), table_u=(0.3, 0.6),
                          table_g=(1e200 + 0j,) * 126)
        y = np.random.default_rng(0).normal(size=(2, 64))
        for band in (None, 3):
            with pytest.raises(NumericError, match="deconvolution weights"):
                fourier_deconvolve(y, design, huge, band=band)


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
        bands = (None, 40, 3, None, 40, 3) * 4
        want = reference_fourier_deconvolve(y, make_design(u, d, 512), BlurKernel("heat"))
        serial = [fourier_deconvolve(y, make_design(u, d, 512), BlurKernel("heat"), 1e-12, band)
                  for band in bands]
        _deconvolution_weights.cache_clear()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fourier_deconvolve, y, make_design(u, d, 512),
                                       BlurKernel("heat"), 1e-12, band)
                           for band in bands]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        scale = np.abs(want[0].values).max()
        for (series, ill), (one, _) in zip(results, serial):
            assert ill == want[1]
            assert series.values.tobytes() == one.values.tobytes()
            expect = want[0].values[series.m + want[0].band]
            assert np.abs(series.values - expect).max() <= TOLERANCE * scale

    def test_equal_objects_hash_equal_and_survive_pickling(self):
        u, d = [0.25, 0.5], [0.0, 0.3]
        a, b = make_design(u, d, 32), make_design(u, d, 32)
        assert a == b and hash(a) == hash(b)
        kernel = make_kernel("table", u, 32, seed=1)
        for obj in (a, kernel):
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and hash(copy) == hash(obj)
        assert "_hash" not in pickle.loads(pickle.dumps(a)).__dict__

    def test_cached_arrays_are_read_only(self):
        design = make_design([0.2, 0.4, 0.7], [0.0, 0.1, 0.3], 128)
        kernel = make_kernel("table", design.u, 128, seed=3)
        cached = [a for a in _deconvolution_weights(design, kernel, 1e-12, 10)
                  if isinstance(a, np.ndarray)]
        cached += list(_level_cache(4, "wavelet"))
        cached += list(_level_cache(3, "scaling"))
        assert len(cached) == 11
        for a in cached:
            with pytest.raises(ValueError):
                a[...] = 0
        assert isinstance(_deconvolution_weights(design, kernel, 1e-12, 10)[-1], tuple)
