"""The two-thread sampler: with more than one group of rows, a call of
``noise._sample_rows`` on the main thread shares the groups with the
process's one helper thread, and a call on any other thread draws them all
itself; each group is drawn from its own generator.  It gives the bits of a
serial loop over the groups at every group layout, on the main thread or
another, at any block size, and at riskbench threads = 1 and 2; two model
lists of the same length, N and seed use the same normals; calls on several
threads at once get their serial bits, with only the main thread's call on
the helper; only the main thread submits to the helper, so ``mc_risk``'s
pool workers never do; the process never holds more than one helper thread;
and an error on either thread is raised only after the helper has
finished."""

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


def off_main(fn, *args, **kwargs):
    """fn(*args, **kwargs) on a thread other than the main thread, where the
    sampler draws every group itself."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args, **kwargs).result(timeout=120)


def drawing_thread(*args):
    """sample_paths(*args) and the thread that called it."""
    return threading.get_ident(), sample_paths(*args)


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


def riskbench_args():
    """``mc_risk``'s leading arguments for one grid point of M = N = 64."""
    f = make_test_function("smooth_sine", 3, {"freq": 3})
    cfg = EstimatorConfig(mu=1.0, nu=2.0)
    return f, boxcar_linear_design, BlurKernel("boxcar"), cfg, [2 ** 12]


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
    def test_shared_or_inline_gives_the_serial_bits(self, layout, seed, block):
        rows, n_points, points = layout
        models = models_for(rows, seed)
        with mock.patch.object(noise, "_GROUP_POINTS", points):
            groups = -(-rows // max(1, points // (2 * n_points)))
            want = serial_sample_paths(models, n_points, seed)
            shared = Transforms(meet=groups > 1)
            with transforms(shared), mock.patch.object(noise, "_BLOCK_POINTS", block):
                main = sample_paths(models, n_points, seed)
            inline = Transforms()
            with transforms(inline):
                caller, other = off_main(drawing_thread, models, n_points, seed)
        assert bits(main) == bits(want) and bits(other) == bits(want)
        # on the main thread both threads take a group, unless the rows fit one
        assert len(set(shared.threads)) == (2 if groups > 1 else 1)
        assert set(inline.threads) == {caller} != {threading.get_ident()}
        assert len(shared.threads) == len(inline.threads) == groups

    def test_two_model_lists_use_the_same_normals(self):
        # M = 70, N = 2048: groups of 32 + 32 + 6 rows
        first = [NoiseModel.farima(0.1 + 0.3 * l / 70) for l in range(70)]
        second = [NoiseModel.fgn(0.9)] * 35 + [NoiseModel.white(2.0)] * 35
        seed = np.random.SeedSequence(18, spawn_key=(2 ** 17, 3))
        spies = [Transforms(), Transforms()]

        def in_order():
            for models, spy in zip((first, second), spies):
                with transforms(spy):
                    sample_paths(models, 2048, seed)

        off_main(in_order)  # every group in order, on one thread
        assert [z.shape for z in spies[0].normals] == [(32, 4096), (32, 4096), (6, 4096)]
        assert [bits(z) for z in spies[0].normals] == [bits(z) for z in spies[1].normals]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_riskbench_threads(self, threads):
        args = riskbench_args()
        with mock.patch.object(noise, "_GROUP_POINTS", 8 * 128):  # groups of 8 rows
            # every group of every replicate on one thread
            want = off_main(mc_risk, *args, reps=30, master_seed=9, threads=1)
            got = mc_risk(*args, reps=30, master_seed=9, threads=threads)
        assert got.rows == want.rows


# 64 rows of N = 1024 in groups of 8 rows
M, N, POINTS = 64, 1024, 8 * 2048


@pytest.fixture(scope="module")
def design():
    return [NoiseModel.farima(0.05 + 0.4 * l / M) for l in range(M)]


class Submissions:
    """Stands in for ``noise._draws`` and records the thread of each submit
    and the future it got; the helper starts ``delay`` seconds late."""

    def __init__(self, delay=0.0):
        self.helper, self.delay = noise._draws, delay
        self.futures, self.threads = [], []

    def submit(self, fn):
        self.threads.append(threading.get_ident())
        self.futures.append(self.helper.submit(self.late, fn))
        return self.futures[-1]

    def late(self, fn):
        time.sleep(self.delay)
        return fn()


def spying(spy):
    return mock.patch.object(noise, "_draws", spy)


class TestThreads:
    def test_concurrent_calls_get_their_serial_bits(self, design):
        threads = 4
        seeds = [np.random.SeedSequence(11, spawn_key=(k,)) for k in range(threads)]
        with mock.patch.object(noise, "_GROUP_POINTS", POINTS):
            serial = [serial_sample_paths(design, N, seed) for seed in seeds]
            # every call waits before its first transform until all have
            # started, so the main thread's call shares its groups with the
            # helper while the other calls work at the same time
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
                    ThreadPoolExecutor(max_workers=threads - 1) as pool:
                others = [pool.submit(drawing_thread, design, N, seed) for seed in seeds[1:]]
                results = [drawing_thread(design, N, seeds[0])]
                results += [future.result(timeout=120) for future in others]
        assert [bits(y) for _, y in results] == [bits(y) for y in serial]
        assert len({ident for ident, _ in results}) == threads
        assert spy.threads == [threading.get_ident()]  # the main thread's call alone

    def test_one_helper_thread_after_many_calls(self, design):
        # 20 calls on the main thread beside 30 on three others, switching
        # threads often
        seeds = [np.random.SeedSequence(12, spawn_key=(k,)) for k in range(50)]
        spy = Submissions()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(noise, "_GROUP_POINTS", POINTS), spying(spy), \
                    ThreadPoolExecutor(max_workers=3) as pool:
                others = [pool.submit(sample_paths, design, N, seed) for seed in seeds[20:]]
                results = [sample_paths(design, N, seed) for seed in seeds[:20]]
                results += [future.result(timeout=120) for future in others]
        finally:
            sys.setswitchinterval(old)
        with mock.patch.object(noise, "_GROUP_POINTS", POINTS):
            want = [serial_sample_paths(design, N, seed) for seed in seeds]
        assert [bits(y) for y in results] == [bits(y) for y in want]
        assert spy.threads == [threading.get_ident()] * 20
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
            got = sample_paths(design, N, 14)
            assert len(spy.futures) == 2  # the next call shares its groups
            assert bits(got) == bits(serial_sample_paths(design, N, 14))


class TestOneOwner:
    """Only the main thread submits to the helper."""

    def test_a_call_off_the_main_thread_never_submits(self, design):
        spy = Submissions()
        with mock.patch.object(noise, "_GROUP_POINTS", POINTS), spying(spy):
            got = off_main(sample_paths, design, N, 15)
            plain = []
            worker = threading.Thread(target=lambda: plain.append(sample_paths(design, N, 15)))
            worker.start()
            worker.join(timeout=120)
            want = serial_sample_paths(design, N, 15)
        assert spy.threads == []
        assert bits(got) == bits(plain[0]) == bits(want)

    @staticmethod
    def mc_risk_submitters(threads):
        """The thread of each submit of a 30-replicate ``mc_risk`` in groups of
        8 rows."""
        spy = Submissions()
        with mock.patch.object(noise, "_GROUP_POINTS", 8 * 128), spying(spy):
            mc_risk(*riskbench_args(), reps=30, master_seed=9, threads=threads)
        return spy.threads

    def test_mc_risk_on_a_pool_never_submits(self):
        assert self.mc_risk_submitters(2) == []

    def test_mc_risk_on_the_main_thread_submits_once_per_replicate(self):
        assert self.mc_risk_submitters(1) == [threading.get_ident()] * 30
