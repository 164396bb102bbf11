"""Helpers the test modules import: a boxcar design builder and the record
of acceptance results that ``conftest.py`` prints in the terminal summary.

The name is unique across ``tests/`` and ``perfbench/tests/``, so one pytest
run over both imports the same module whichever conftest was loaded last.
"""

from __future__ import annotations

import math

from lrdeconv.channels import ChannelDesign
from lrdeconv.noise import NoiseModel

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))


def boxcar_linear_design(n: int, a1: float = 0.2, a2: float = 0.1,
                         theta: float = 0.5) -> ChannelDesign:
    """Equispaced boxcar design u_l = l/M with d_l = a1 u_l + a2, M = n^theta."""
    k = int(round(math.log2(n)))
    exp_n = int(math.floor((1.0 - theta) * k + 0.5))
    N = 2 ** exp_n
    M = n // N
    u = tuple(l / M for l in range(1, M + 1))
    d = tuple(a1 * ul + a2 for ul in u)
    noise = tuple(NoiseModel.farima(dl) if dl > 0 else NoiseModel.white() for dl in d)
    return ChannelDesign(u, d, N, noise)
