"""The overlapped sampler: with more than one block, ``noise._sample_rows``
draws the next block's normals on the process's one helper thread while it
transforms the current block.  It gives the bits of the inline loop at every
block layout; calls on several threads at once get their serial bits, with
one call on the helper and the others drawing inline; the process never holds
more than one helper thread; and an error in a later block releases the
helper only after its pending draw has finished."""

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
from lrdeconv.noise import NoiseModel, sample_paths
from testkit import bits


# ------------------------------------------------------------ inline loop
# The sampler as it was before the draws overlapped: one normals buffer,
# filled and transformed a block at a time on the calling thread.

def inline_sample_paths(models, n_points, seed):
    sqrt_spec = noise._embedding_spectra(tuple(models), n_points)
    rows, half = sqrt_spec.shape
    m = 2 * n_points
    blocks = noise._blocks(rows, m)
    block = blocks[0].stop
    rng = np.random.default_rng(seed)
    z = np.empty((block, m))
    h = np.empty((block, half), dtype=complex)
    x = np.empty((block, m))
    out = np.empty((rows, n_points))
    for b in blocks:
        size = b.stop - b.start
        zb, hb, xb = z[:size], h[:size], x[:size]
        rng.standard_normal(out=zb)
        noise._paths_from_normals(zb, sqrt_spec[b], hb, xb)
        out[b] = xb[:, :n_points]
    return out


class Submissions:
    """Stands in for ``noise._draw_helper`` and records each draw submitted to
    the helper, the thread that submitted it and the thread that drew it;
    each draw starts ``delay`` seconds late."""

    def __init__(self, delay=0.0):
        self.helper, self.delay = noise._draw_helper, delay
        self.futures, self.threads, self.drawers = [], [], []

    def __call__(self):
        return self

    def submit(self, fn, *args):
        self.threads.append(threading.get_ident())
        self.futures.append(self.helper().submit(self.late, fn, *args))
        return self.futures[-1]

    def late(self, fn, *args):
        self.drawers.append(threading.current_thread())
        time.sleep(self.delay)
        return fn(*args)


def spying(spy):
    return mock.patch.object(noise, "_draw_helper", spy)


def models_for(rows, seed):
    rng = np.random.default_rng(seed)
    kinds = [NoiseModel.white(1.5), NoiseModel.fgn(0.8)]
    return [kinds[l % 2] if l % 3 == 0 else NoiseModel.farima(float(rng.uniform(0.0, 0.49)))
            for l in range(rows)]


LAYOUTS = ("one block", "two blocks", "short last block", "one row per block")


@st.composite
def layouts(draw):
    """(rows, n_points, block points) of one of LAYOUTS, the points anywhere
    between the rows they give and the next row."""
    layout = draw(st.sampled_from(LAYOUTS))
    least = {"one block": 1, "two blocks": 2, "short last block": 3, "one row per block": 1}
    rows = draw(st.integers(least[layout], 9))
    n_points = draw(st.integers(1, 300))
    if layout == "one block":
        per_block = rows
    elif layout == "two blocks":
        per_block = -(-rows // 2)
    elif layout == "short last block":
        per_block = draw(st.integers(2, rows - 1).filter(lambda k: rows % k))
    else:
        per_block = 1
    m = 2 * n_points
    return rows, n_points, per_block * m + draw(st.integers(0, m - 1))


class TestSameBits:
    @settings(max_examples=150, deadline=None)
    @given(layout=layouts(), seed=st.integers(0, 2 ** 64 - 1))
    @example(layout=(1, 1, 2), seed=0)  # one row of one point
    @example(layout=(9, 300, 600), seed=1)  # nine blocks of one row
    @example(layout=(7, 64, 3 * 128), seed=2)  # 3 + 3 + 1 rows
    @example(layout=(2, 256, 512), seed=3)  # two blocks of one row
    def test_matches_the_inline_loop(self, layout, seed):
        rows, n_points, points = layout
        models = models_for(rows, seed)
        spy = Submissions()
        transform = noise._paths_from_normals

        def after_the_next_draw(*args):  # the worst case for a shared normals buffer
            for future in spy.futures:
                future.result()
            return transform(*args)

        with mock.patch.object(noise, "_BLOCK_POINTS", points), spying(spy):
            blocks = noise._blocks(rows, 2 * n_points)
            want = inline_sample_paths(models, n_points, seed)
            with mock.patch.object(noise, "_paths_from_normals", after_the_next_draw):
                got = sample_paths(models, n_points, seed)
        assert bits(got) == bits(want)
        # each block's draw goes to the helper, unless the rows fit one block
        assert len(spy.futures) == (len(blocks) if len(blocks) > 1 else 0)


# 64 rows of N = 1024 in blocks of 8 rows
M, N, POINTS = 64, 1024, 8 * 2048


@pytest.fixture(scope="module")
def design():
    return [NoiseModel.farima(0.05 + 0.4 * l / M) for l in range(M)]


class TestThreads:
    def test_concurrent_calls_get_their_serial_bits(self, design):
        threads = 4
        seeds = [np.random.SeedSequence(11, spawn_key=(k,)) for k in range(threads)]
        with mock.patch.object(noise, "_BLOCK_POINTS", POINTS):
            serial = [inline_sample_paths(design, N, seed) for seed in seeds]
            # every call waits before its first transform until all have
            # started, so one holds the helper while the others draw inline
            start = threading.Barrier(threads)
            waited = threading.local()
            transform = noise._paths_from_normals

            def after_all_started(*args):
                if not getattr(waited, "done", False):
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
        assert len(set(spy.threads)) == 1  # one call took the helper ...
        assert len(spy.futures) == M // 8
        assert len(callers - set(spy.threads)) == threads - 1  # ... the others drew inline
        assert not noise._draws_lock.locked()

    def test_one_helper_thread_after_many_calls(self, design):
        # 50 calls on more threads than cores, switching threads often
        seeds = [np.random.SeedSequence(12, spawn_key=(k,)) for k in range(50)]
        spy = Submissions()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(noise, "_BLOCK_POINTS", POINTS), spying(spy), \
                    ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda seed: sample_paths(design, N, seed), seeds,
                                        timeout=120))
        finally:
            sys.setswitchinterval(old)
        with mock.patch.object(noise, "_BLOCK_POINTS", POINTS):
            want = [inline_sample_paths(design, N, seed) for seed in seeds]
        assert [bits(y) for y in results] == [bits(y) for y in want]
        assert spy.futures and not noise._draws_lock.locked()
        assert len(set(spy.drawers)) == 1  # every draw on the same thread
        helpers = [t for t in threading.enumerate() if t.name.startswith("lrdeconv-draws")]
        assert helpers == spy.drawers[:1]

    def test_an_error_in_block_2_releases_the_helper_after_its_draw(self, design):
        transform, calls = noise._paths_from_normals, []

        def fails_in_block_2(*args):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("block 2")
            return transform(*args)

        spy = Submissions(delay=0.05)  # block 3's draw outlasts block 2's transform
        with mock.patch.object(noise, "_BLOCK_POINTS", POINTS), spying(spy):
            with mock.patch.object(noise, "_paths_from_normals", fails_in_block_2), \
                    pytest.raises(FloatingPointError, match="block 2"):
                sample_paths(design, N, 13)
            assert len(spy.futures) == 3  # blocks 1 and 2 drawn, block 3 pending at the error
            assert all(future.done() for future in spy.futures)
            assert not noise._draws_lock.locked()
            spy.futures.clear()
            got = sample_paths(design, N, 14)
            assert len(spy.futures) == M // 8  # the next call overlaps
            assert bits(got) == bits(inline_sample_paths(design, N, 14))
