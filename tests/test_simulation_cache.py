"""The real-transform sampler and the cached blurred truth: ``sample_paths``
and ``simulate_observations`` match a per-row complex-FFT sampler that embeds
the same N + 1 lags in m = 2N points, keeps the first N and draws the rows in
fixed groups of max(1, 2^17 // 2N), row l's normals the next run of 2N from
the generator of its group, and the per-call signal (the signal bit for bit;
the embedding spectra to within the rounding of an FFT of the embedding row,
and the noise, on the program's spectra, to within 1e-12 of its largest
entry); they give the same bits at any block size and on any thread, and a
call builds one generator per group of rows."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrdeconv import channels, noise
from lrdeconv.channels import (
    BlurKernel,
    ChannelDesign,
    _blurred_truth,
    kernel_fourier,
    simulate_observations,
)
from lrdeconv.fourier import FourierSeries
from lrdeconv.noise import NoiseModel, autocovariance, sample_paths
from testkit import bits, reference_blurred_truth


# ------------------------------------------------------- reference sampler
# The sampler without blocks or real transforms: one complex-FFT spectrum per
# model, the weights built row by row in complex arithmetic, and a complex FFT
# of the full embedding.  An N-point path is the first N points of the
# minimal circulant embedding of N + 1 lags, m = 2N.  The rows fall in groups of
# G = max(1, GROUP_POINTS // m): group b holds rows bG .. (b + 1)G - 1, which
# take consecutive runs of m normals from the generator of spawn key (b,) off
# the seed.

GROUP_POINTS = 2 ** 17

def reference_embedding_spectrum(model, n_lags):
    """sqrt(spectrum / m) of the minimal embedding of n_lags lags, m = 2(n_lags - 1)."""
    gamma = np.asarray(autocovariance(model, np.arange(n_lags)), dtype=float)
    c = np.concatenate([gamma, gamma[-2:0:-1]])
    m = c.size
    eigs = np.fft.fft(c).real
    return np.sqrt(np.clip(eigs, 0.0, None) / m), m


def reference_draw_embedding_normals(rng, m):
    z = rng.standard_normal(m)
    xi = np.empty(m, dtype=complex)
    half = m // 2
    xi[0] = z[0]
    xi[half] = z[1]  # m = 2N is even
    a = z[2 : 2 + half - 1]
    b = z[2 + half - 1 :]
    xi[1:half] = (a + 1j * b) / math.sqrt(2.0)
    xi[half + 1 :] = np.conj(xi[1:half][::-1])
    return xi


def as_seed_sequence(seed):
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def group_generators(master_seed, m, group_points=GROUP_POINTS):
    """The generator of each row: row l uses that of group l // G."""
    root = as_seed_sequence(master_seed)
    size = max(1, group_points // m)
    group = None
    for l in itertools.count():
        if l % size == 0:
            group = np.random.default_rng(
                np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (l // size,)))
        yield group


def reference_paths(sqrt_spectra, n_points, master_seed, group_points=GROUP_POINTS):
    """Row i: fft(s_i xi_i)[:n_points], s_i = sqrt_spectra[i] over the m = 2N
    embedding frequencies and xi_i from the next run of 2N normals of row i's
    group generator."""
    m = 2 * n_points
    weighted = np.array([s * reference_draw_embedding_normals(rng, m) for s, rng in
                         zip(sqrt_spectra, group_generators(master_seed, m, group_points))])
    return np.fft.fft(weighted, axis=1).real[:, :n_points].copy()


def reference_sample_paths(models, n_points, master_seed):
    return reference_paths([reference_embedding_spectrum(mod, n_points + 1)[0] for mod in models],
                           n_points, master_seed)


# The real transforms round differently from the complex FFTs of the
# references.  On the same spectra, measured differences stay below 1.3e-15 of
# the largest entry (N up to 4096, FARIMA d and fGn H drawn up to the edge of
# their ranges); on the reference's own spectra, below 3.1e-15 for d <= 0.4,
# but up to 1.1e-12 at d = 0.499, where the spectra themselves differ.
TOLERANCE = 1e-12


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOLERANCE * np.abs(want).max()


# ---------------------------------------------------------------- sampler

models_st = st.one_of(
    st.builds(NoiseModel.white, st.floats(0.1, 3.0)),
    st.builds(NoiseModel.farima, st.floats(0.0, 0.499), st.floats(0.1, 3.0)),
    st.builds(NoiseModel.fgn, st.floats(0.5, 0.999), st.floats(0.1, 3.0)),
)
seeds_st = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.builds(np.random.SeedSequence, st.integers(0, 2 ** 32 - 1),
              spawn_key=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=3).map(tuple)),
)
# groups of one row, of a few rows, and the contract's size, one group of
# these rows
group_st = st.sampled_from([1, 600, 5000, GROUP_POINTS])


class TestSamplerMatchesReference:
    # The sampler in two checks, so that each holds to its own rounding: the
    # spectra against the complex FFT of each embedding row c, within
    # eps (1 + log2 m) sum|c| (eps log2(m) sum|c| for the FFT, near d = 1/2 no
    # longer small beside the peak, and eps sum|c| for the square root that
    # the program keeps and the check squares), then the paths against the
    # reference's weights and transform of the program's spectra.  The group
    # size is patched, to reach several groups at these sizes.
    @settings(max_examples=200, deadline=None)
    @given(models=st.lists(models_st, min_size=1, max_size=13),
           n_points=st.integers(1, 4096), seed=seeds_st, group=group_st)
    # a subnormal d once gave a NaN row, whose NaN sign bits differed
    @example(models=[NoiseModel.white(1.0)] * 11 + [NoiseModel.farima(2.225073858507e-311)],
             n_points=128, seed=0, group=1)
    @example(models=[NoiseModel.fgn(0.9)] * 3, n_points=2, seed=1, group=1)
    @example(models=[NoiseModel.farima(0.45), NoiseModel.white(), NoiseModel.fgn(0.6)],
             n_points=4096, seed=2, group=GROUP_POINTS)
    # the spectrum of d = 0.499 at N = 3239 put the paths 1.1e-12 of their
    # largest entry from the reference's own spectrum
    @example(models=[NoiseModel.white()] * 3 + [NoiseModel.farima(0.499)],
             n_points=3239, seed=0, group=GROUP_POINTS)
    def test_sample_paths(self, models, n_points, seed, group):
        m = 2 * n_points
        sqrt_spectra = noise._embedding_spectra(tuple(models), n_points)
        assert sqrt_spectra.shape == (len(models), n_points + 1)
        for row, model in zip(sqrt_spectra, models):
            gamma = autocovariance(model, np.arange(n_points + 1))
            c = np.concatenate([gamma, gamma[-2:0:-1]])
            want = np.clip(np.fft.fft(c).real[: n_points + 1], 0.0, None)
            bound = np.finfo(float).eps * (1 + math.log2(m)) * np.abs(c).sum()
            assert np.abs(row ** 2 * m - want).max() <= bound

        with mock.patch.object(noise, "_GROUP_POINTS", group):
            got = sample_paths(models, n_points, seed)
        assert got.shape == (len(models), n_points)
        full = np.concatenate([sqrt_spectra, sqrt_spectra[:, -2:0:-1]], axis=1)
        assert_close(got, reference_paths(full, n_points, seed, group))

    def test_group_size_is_the_contracts(self):
        assert noise._GROUP_POINTS == GROUP_POINTS

    @pytest.mark.parametrize("M, N", [(64, 1024), (70, 2048)])  # one group; 32 + 32 + 6 rows
    def test_fixed_sizes(self, M, N):
        models = [NoiseModel.farima(0.1 + 0.2 * l / M) for l in range(1, M + 1)]
        models[::5] = [NoiseModel.fgn(0.8)] * len(models[::5])
        models[3] = NoiseModel.white(2.0)
        seed = np.random.SeedSequence(2024, spawn_key=(N, 7))
        got = sample_paths(models, N, seed)
        assert_close(got, reference_sample_paths(models, N, seed))
        with mock.patch.object(noise, "_BLOCK_POINTS", 1):
            assert bits(sample_paths(models, N, seed)) == bits(got)


class TestSamplerBits:
    @settings(max_examples=150, deadline=None)
    @given(models=st.lists(models_st, min_size=1, max_size=13),
           n_points=st.integers(1, 4096), seed=seeds_st,
           block=st.sampled_from([1, 600, 5000, noise._BLOCK_POINTS]), group=group_st)
    def test_bits_do_not_depend_on_the_block_size(self, models, n_points, seed, block, group):
        with mock.patch.object(noise, "_GROUP_POINTS", group):
            want = sample_paths(models, n_points, seed)
            with mock.patch.object(noise, "_BLOCK_POINTS", block):
                assert bits(sample_paths(models, n_points, seed)) == bits(want)

    def test_a_call_builds_one_generator_per_group(self, monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(noise.np.random, "default_rng", counting)
        models = [NoiseModel.farima(0.1 + 0.3 * l / 1024) for l in range(1024)]
        y = sample_paths(models, 1024, np.random.SeedSequence(5, spawn_key=(2 ** 20, 0)))
        assert y.shape == (1024, 1024)
        # groups of 2^17 // 2048 = 64 rows, spawn keys (2^20, 0, b)
        assert sorted(seq.spawn_key for seq, in calls) == [(2 ** 20, 0, b) for b in range(16)]
        assert {seq.entropy for seq, in calls} == {5}

    def test_spectra_do_not_depend_on_the_block_size(self):
        models = tuple(NoiseModel.farima(0.4 * l / 9) for l in range(9)) + (NoiseModel.fgn(0.7),)
        want = noise._embedding_spectra.__wrapped__(models, 300)
        assert want.shape == (10, 301)  # m = 600, frequencies 0..300
        for row, model in zip(want, models):
            ref, m = reference_embedding_spectrum(model, 301)
            assert_close(row, ref[: m // 2 + 1])

    def test_spectra_are_read_only_and_cached_per_design(self):
        models = (NoiseModel.farima(0.3), NoiseModel.white())
        noise._embedding_spectra.cache_clear()
        spectra = noise._embedding_spectra(models, 64)
        with pytest.raises(ValueError):
            spectra[...] = 0
        sample_paths(list(models), 64, 1)
        sample_paths(models, 64, 2)
        assert noise._embedding_spectra.cache_info().misses == 1


# ------------------------------------------------------------ signal cache

def make_case(kind, M=6, N=128, band=20, seed=0):
    rng = np.random.default_rng(seed)
    u = tuple(l / (M + 1) for l in range(1, M + 1))
    d = tuple(0.4 * l / M for l in range(M))
    design = ChannelDesign(u, d, N, tuple(NoiseModel.farima(dl) for dl in d))
    if kind == "table":
        m = np.arange(-band, band + 1)
        g = rng.normal(size=(m.size, M)) + 1j * rng.normal(size=(m.size, M))
        kernel = BlurKernel("table", table_m=tuple(int(x) for x in m), table_u=u,
                            table_g=tuple(g.ravel().tolist()))
    else:
        kernel = BlurKernel(kind, c=0.9, q=(1.0, 0.5))
    values = rng.normal(size=2 * band + 1) + 1j * rng.normal(size=2 * band + 1)
    return FourierSeries(band, values), design, kernel


class TestSignalCache:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["boxcar", "heat", "dirichlet", "table"]),
           M=st.integers(1, 12), log_n=st.integers(2, 9), data=st.data())
    def test_cached_signal_is_the_uncached_formula(self, kind, M, log_n, data):
        N = 2 ** log_n
        band = data.draw(st.integers(0, N // 2 - 1))
        f, design, kernel = make_case(kind, M, N, band, seed=data.draw(st.integers(0, 99)))
        signal = _blurred_truth(f.band, f.values.tobytes(), design, kernel)
        assert bits(signal) == bits(reference_blurred_truth(f, design, kernel))
        y = simulate_observations(f, design, kernel, 5)
        assert bits(y) == bits(reference_blurred_truth(f, design, kernel)
                               + sample_paths(design.noise, N, 5))
        assert_close(y, reference_blurred_truth(f, design, kernel)
                     + reference_sample_paths(design.noise, N, 5))

    def test_changed_truth_values_give_the_new_signal(self):
        f, design, kernel = make_case("boxcar")
        first = simulate_observations(f, design, kernel, 3)
        f.values[5] *= 2.0
        again = simulate_observations(f, design, kernel, 3)
        assert bits(again) != bits(first)
        want = (reference_blurred_truth(f, design, kernel)
                + sample_paths(design.noise, design.N, 3))
        assert bits(again) == bits(want)

    def test_cached_signal_is_read_only_and_results_are_writable(self):
        f, design, kernel = make_case("heat")
        y = simulate_observations(f, design, kernel, 4)
        signal = _blurred_truth(f.band, f.values.tobytes(), design, kernel)
        with pytest.raises(ValueError):
            signal[...] = 0
        y[...] = 0  # the caller owns its observations

    def test_equal_inputs_do_not_recompute_the_kernel(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel_fourier(*args, **kwargs)

        monkeypatch.setattr(channels, "kernel_fourier", counting)
        _blurred_truth.cache_clear()
        first = simulate_observations(*make_case("boxcar"), 8)
        assert len(calls) == 1
        again = simulate_observations(*make_case("boxcar"), 8)
        assert len(calls) == 1
        assert bits(again) == bits(first)

    def test_threads_filling_the_caches_agree(self):
        cases = [make_case(kind, M=8, N=256, band=30) for kind in ("boxcar", "heat", "table")]
        seeds = [np.random.SeedSequence(99, spawn_key=(rep,)) for rep in range(4)]
        jobs = [(case, seed) for case in cases for seed in seeds] * 3
        serial = [simulate_observations(*case, seed) for case, seed in jobs]
        for (case, seed), y in zip(jobs, serial):
            assert_close(y, reference_blurred_truth(*case)
                         + reference_sample_paths(case[1].noise, 256, seed))
        _blurred_truth.cache_clear()
        noise._embedding_spectra.cache_clear()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(simulate_observations, *case, seed) for case, seed in jobs]
                results = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(old)
        assert [bits(y) for y in results] == [bits(y) for y in serial]
