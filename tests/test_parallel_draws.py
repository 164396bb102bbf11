"""The two-thread sampler: with more than one group of rows,
``noise._sample_rows`` shares the groups between the calling thread and the
process's one helper thread, each group drawn from its own generator.  It
gives the bits of a serial loop over the groups at every group layout, with
the helper free or held, at any block size, and at riskbench threads = 1
and 2; two model lists of the same length, N and seed use the same normals;
calls on several threads at once get their serial bits, with one call on the
helper; the process never holds more than one helper thread; and an error on
either thread is raised only after the helper has finished."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrdeconv import noise
from lrdeconv.channels import BlurKernel
from lrdeconv.estimator import EstimatorConfig
from lrdeconv.noise import NoiseModel, sample_paths
from lrdeconv.riskbench import make_test_function, mc_risk
from testkit import bits, boxcar_linear_design


# ------------------------------------------------------------ serial loop
# The groups one after another on the calling thread, each with its own
# generator and buffers.

def serial_sample_paths(models, n_points, seed):
    sqrt_spec = noise._embedding_spectra(tuple(models), n_points)
    rows, half = sqrt_spec.shape
    m = 2 * n_points
    size = max(1, noise._GROUP_POINTS // m)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    out = np.empty((rows, n_points))
    for b, start in enumerate(range(0, rows, size)):
        g = slice(start, min(start + size, rows))
        rng = np.random.default_rng(
            np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (b,)))
        z = rng.standard_normal((g.stop - g.start, m))
        h = np.empty((g.stop - g.start, half), dtype=complex)
        out[g] = noise._paths_from_normals(z, sqrt_spec[g], h, np.empty_like(z))[:, :n_points]
    return out


def on_helper() -> bool:
    return threading.current_thread().name.startswith("lrdeconv-draws")


class Transforms:
    """Stands in for ``noise._paths_from_normals`` and records the thread of
    each call and a copy of its normals.  With ``meet``, the first call on
    the caller and on the helper wait for each other, so that both threads
    take a group; ``fail`` raises in the call it picks."""

    def __init__(self, meet=False, fail=lambda call: False):
        self.transform = noise._paths_from_normals
        self.meet = threading.Barrier(2) if meet else None
        self.fail = fail
        self.threads, self.normals, self.lock = [], [], threading.Lock()

    def __call__(self, z, *args):
        with self.lock:
            first = threading.get_ident() not in self.threads
            self.threads.append(threading.get_ident())
            self.normals.append(z.copy())
            call = len(self.threads)
        if first and self.meet is not None:
            self.meet.wait(timeout=20)
        if self.fail(call):
            raise FloatingPointError(f"call {call}")
        return self.transform(z, *args)


def transforms(spy):
    return mock.patch.object(noise, "_paths_from_normals", spy)


def models_for(rows, seed):
    rng = np.random.default_rng(seed)
    kinds = [NoiseModel.white(1.5), NoiseModel.fgn(0.8)]
    return [kinds[l % 2] if l % 3 == 0 else NoiseModel.farima(float(rng.uniform(0.0, 0.49)))
            for l in range(rows)]


LAYOUTS = ("one group", "two groups", "short last group", "one row per group")


@st.composite
def layouts(draw):
    """(rows, n_points, group points) of one of LAYOUTS, the points anywhere
    between the rows they give and the next row."""
    layout = draw(st.sampled_from(LAYOUTS))
    least = {"one group": 1, "two groups": 2, "short last group": 3, "one row per group": 2}
    rows = draw(st.integers(least[layout], 9))
    n_points = draw(st.integers(1, 300))
    if layout == "one group":
        per_group = rows
    elif layout == "two groups":
        per_group = -(-rows // 2)
    elif layout == "short last group":
        per_group = draw(st.integers(2, rows - 1).filter(lambda k: rows % k))
    else:
        per_group = 1
    m = 2 * n_points
    return rows, n_points, per_group * m + draw(st.integers(0, m - 1))


class TestSameBits:
    @settings(max_examples=100, deadline=None)
    @given(layout=layouts(), seed=st.integers(0, 2 ** 64 - 1),
           block=st.sampled_from([1, 600, noise._BLOCK_POINTS]))
    @example(layout=(1, 1, 2), seed=0, block=1)  # one row of one point
    @example(layout=(9, 300, 600), seed=1, block=1)  # nine groups of one row
    @example(layout=(7, 64, 3 * 128), seed=2, block=1)  # 3 + 3 + 1 rows
    @example(layout=(2, 256, 512), seed=3, block=1)  # two groups of one row
    def test_helper_free_or_held_gives_the_serial_bits(self, layout, seed, block):
        rows, n_points, points = layout
        models = models_for(rows, seed)
        with mock.patch.object(noise, "_GROUP_POINTS", points):
            groups = -(-rows // max(1, points // (2 * n_points)))
            want = serial_sample_paths(models, n_points, seed)
            shared = Transforms(meet=groups > 1)
            with transforms(shared), mock.patch.object(noise, "_BLOCK_POINTS", block):
                free = sample_paths(models, n_points, seed)
            inline = Transforms()
            with transforms(inline), noise._draws_lock:
                held = sample_paths(models, n_points, seed)
        assert bits(free) == bits(want) and bits(held) == bits(want)
        # both threads take a group, unless the rows fit one group
        assert len(set(shared.threads)) == (2 if groups > 1 else 1)
        assert set(inline.threads) == {threading.get_ident()}
        assert len(shared.threads) == len(inline.threads) == groups
        assert not noise._draws_lock.locked()

    def test_two_model_lists_use_the_same_normals(self):
        # M = 70, N = 2048: groups of 32 + 32 + 6 rows
        first = [NoiseModel.farima(0.1 + 0.3 * l / 70) for l in range(70)]
        second = [NoiseModel.fgn(0.9)] * 35 + [NoiseModel.white(2.0)] * 35
        seed = np.random.SeedSequence(18, spawn_key=(2 ** 17, 3))
        spies = [Transforms(), Transforms()]
        with noise._draws_lock:  # in order, on this thread
            for models, spy in zip((first, second), spies):
                with transforms(spy):
                    sample_paths(models, 2048, seed)
        assert [z.shape for z in spies[0].normals] == [(32, 4096), (32, 4096), (6, 4096)]
        assert [bits(z) for z in spies[0].normals] == [bits(z) for z in spies[1].normals]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_riskbench_threads(self, threads):
        # M = N = 64 in groups of 8 rows
        f = make_test_function("smooth_sine", 3, {"freq": 3})
        cfg = EstimatorConfig(mu=1.0, nu=2.0)
        args = (f, boxcar_linear_design, BlurKernel("boxcar"), cfg, [2 ** 12])
        with mock.patch.object(noise, "_GROUP_POINTS", 8 * 128):
            with noise._draws_lock:  # every replicate on its own thread
                want = mc_risk(*args, reps=30, master_seed=9, threads=1)
            got = mc_risk(*args, reps=30, master_seed=9, threads=threads)
        assert got.rows == want.rows


# 64 rows of N = 1024 in groups of 8 rows
M, N, POINTS = 64, 1024, 8 * 2048


@pytest.fixture(scope="module")
def design():
    return [NoiseModel.farima(0.05 + 0.4 * l / M) for l in range(M)]


class Submissions:
    """Stands in for ``noise._draw_helper`` and records each call that
    submitted work to the helper and the future it got; the helper starts
    ``delay`` seconds late."""

    def __init__(self, delay=0.0):
        self.helper, self.delay = noise._draw_helper, delay
        self.futures, self.threads = [], []

    def __call__(self):
        return self

    def submit(self, fn):
        self.threads.append(threading.get_ident())
        self.futures.append(self.helper().submit(self.late, fn))
        return self.futures[-1]

    def late(self, fn):
        time.sleep(self.delay)
        return fn()


def spying(spy):
    return mock.patch.object(noise, "_draw_helper", spy)


class TestThreads:
    def test_concurrent_calls_get_their_serial_bits(self, design):
        threads = 4
        seeds = [np.random.SeedSequence(11, spawn_key=(k,)) for k in range(threads)]
        with mock.patch.object(noise, "_GROUP_POINTS", POINTS):
            serial = [serial_sample_paths(design, N, seed) for seed in seeds]
            # every call waits before its first transform until all have
            # started, so one holds the helper while the others work alone
            start = threading.Barrier(threads)
            waited = threading.local()
            transform = noise._paths_from_normals

            def after_all_started(*args):
                if not on_helper() and not getattr(waited, "done", False):
                    waited.done = True
                    start.wait(timeout=20)
                return transform(*args)

            spy = Submissions()
            with spying(spy), mock.patch.object(noise, "_paths_from_normals", after_all_started), \
                    ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda seed: (threading.get_ident(),
                                                      sample_paths(design, N, seed)), seeds,
                                        timeout=120))
        assert [bits(y) for _, y in results] == [bits(y) for y in serial]
        callers = {ident for ident, _ in results}
        assert len(callers) == threads
        assert len(spy.threads) == 1 and spy.threads[0] in callers  # one call took the helper
        assert not noise._draws_lock.locked()

    def test_one_helper_thread_after_many_calls(self, design):
        # 50 calls on more threads than cores, switching threads often
        seeds = [np.random.SeedSequence(12, spawn_key=(k,)) for k in range(50)]
        spy = Submissions()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(noise, "_GROUP_POINTS", POINTS), spying(spy), \
                    ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda seed: sample_paths(design, N, seed), seeds,
                                        timeout=120))
        finally:
            sys.setswitchinterval(old)
        with mock.patch.object(noise, "_GROUP_POINTS", POINTS):
            want = [serial_sample_paths(design, N, seed) for seed in seeds]
        assert [bits(y) for y in results] == [bits(y) for y in want]
        assert spy.futures and not noise._draws_lock.locked()
        helpers = [t for t in threading.enumerate() if t.name.startswith("lrdeconv-draws")]
        assert len(helpers) == 1

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_an_error_is_raised_after_the_helper_finished(self, design, where):
        if where == "caller":  # the helper still works when the caller fails
            spy, failing = Submissions(delay=0.05), Transforms(fail=lambda call: call == 2)
        else:  # the caller waits for the helper's first group, which fails
            spy, failing = Submissions(), Transforms(meet=True, fail=lambda call: on_helper())
        with mock.patch.object(noise, "_GROUP_POINTS", POINTS), spying(spy):
            with transforms(failing), pytest.raises(FloatingPointError):
                sample_paths(design, N, 13)
            assert len(spy.futures) == 1 and spy.futures[0].done()
            assert not noise._draws_lock.locked()
            got = sample_paths(design, N, 14)
            assert len(spy.futures) == 2  # the next call shares its groups
            assert bits(got) == bits(serial_sample_paths(design, N, 14))
