"""Hooks around the program's public functions, installed from the benchmark.

The benchmark changes no program file.  It replaces a module attribute
(for example ``lrdeconv.estimator.analyze``) with a wrapper that calls the
original, so calls the program makes through that name pass the wrapper.
``Patch`` restores every attribute it replaced.

``Tracer`` records one span per wrapped call: name, start, end, the span
that caused it and the estimate it belongs to.  Spans stay in memory until
the benchmark writes them out.  ``RiskCapture`` records the risk of every
Monte Carlo replicate by its seed, so that checks can compare replicate by
replicate what ``riskbench.mc_risk`` only reports as a mean.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from lrdeconv import fourier


class Patch:
    """Replaces module attributes with wrappers; ``restore`` undoes it."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def seed_key(seed) -> tuple:
    """(entropy, spawn_key) of a SeedSequence: names one Monte Carlo replicate."""
    return (seed.entropy, tuple(seed.spawn_key))


class Tracer:
    """In-memory spans with parent links; one estimate id per thread at a time."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_estimate(self, estimate) -> None:
        self._local.estimate = estimate

    def call(self, name: str, fn, args, kwargs, counts=None):
        """Call fn(*args, **kwargs) inside a span; ``counts`` maps the call to a dict."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": stack[-1] if stack else None, "phase": self.phase,
                "thread": threading.get_ident(),
                "estimate": getattr(self._local, "estimate", None), "counts": {}}
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def wrap(self, patch: Patch, module, attr: str, name: str, counts=None,
             starts_estimate: bool = False) -> None:
        """Spans around module.attr; ``starts_estimate`` takes the estimate id
        from the seed, the fourth argument of ``simulate_observations``."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if starts_estimate:
                    tracer.set_estimate(seed_key(args[3]))
                return tracer.call(name, original, args, kwargs, counts)
            return wrapper

        patch.wrap(module, attr, make)


class RiskCapture:
    """Risk of every replicate that ``riskbench.mc_risk`` runs, by seed key.

    The risk is computed exactly as ``mc_risk`` computes it, from the same
    arrays, so the captured values reproduce its reported mean bit for bit.
    """

    def __init__(self, truth, grid_sizes):
        self.risks: dict[tuple, float] = {}
        self._local = threading.local()
        # built before any worker thread reads them
        self.truth_grids = {N: fourier.coeffs_to_grid(truth, N).real for N in grid_sizes}

    def install(self, patch: Patch, riskbench) -> None:
        capture = self

        def make_simulate(original):
            def wrapper(f, design, kernel, seed):
                capture._local.key = seed_key(seed)
                return original(f, design, kernel, seed)
            return wrapper

        def make_estimate(original):
            def wrapper(y, design, kernel, config):
                result = original(y, design, kernel, config)
                truth_grid = capture.truth_grids[design.N]
                capture.risks[capture._local.key] = float(np.mean((result.grid - truth_grid) ** 2))
                return result
            return wrapper

        patch.wrap(riskbench, "simulate_observations", make_simulate)
        patch.wrap(riskbench, "estimate", make_estimate)

    def vector(self, master_seed: int, n: int, reps: int) -> np.ndarray:
        """Risks of replicates 0..reps-1 of grid point n under one master seed."""
        return np.array([self.risks[(master_seed, (n, rep))] for rep in range(reps)])
