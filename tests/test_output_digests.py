"""Byte identity of the command line outputs for a fixed (config, seed): the
sha256 of every output file, of stdout and of stderr, and the exit code of

* ``simulate`` then ``estimate`` on each shipped config,
* the same on perfbench's ``fine-levels`` config, the one estimate that
  thresholds, with its kernel table written into a temporary directory,
* ``bench`` at ``--threads 1`` and at ``--threads 2`` on a two-point
  ``boxcar-regular`` grid with ``reps: 30``,

against the committed table ``output_digests.json``.  The output directory
is written as ``<out>`` and the seconds of bench's progress lines as ``<s>``
before stdout and stderr are hashed.

The bits rest on numpy's FFT, so the table records the numpy version it was
made with; under another version the tests skip and name both.  The tests
never write the table.  A change that moves bits on purpose rewrites it with

    PYTHONPATH=src python tests/test_output_digests.py --write

and names every changed digest, and why, in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lrdeconv.channels import save_kernel_table
from lrdeconv.cli import main
from lrdeconv.config import design_for_n, load_config

TABLE = Path(__file__).resolve().parent / "output_digests.json"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FINE_LEVELS = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "fine-levels.yaml"
SHIPPED = ("boxcar-regular", "heat-supersmooth-d0", "heat-supersmooth-d04", "noiseless-exact")
BENCH_GRID = ("  n_grid: [16384, 32768]\n  reps: 30\n")
PROGRESS_SECONDS = re.compile(r" \d+\.\d+ s$", re.MULTILINE)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], out: Path) -> dict:
    """One ``lrdeconv`` command writing to ``out``: its exit code, the digests
    of its masked stdout and stderr, and of every file then in ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])

    def masked(text: str) -> str:
        return PROGRESS_SECONDS.sub(" <s> s", text.replace(str(out), "<out>"))

    return {
        "command": argv[0],
        "exit": code,
        "stdout": sha256(masked(stdout.getvalue()).encode()),
        "stderr": sha256(masked(stderr.getvalue()).encode()),
        "files": {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())},
    }


def simulate_then_estimate(config: Path, tmp: Path) -> list[dict]:
    return [run([command, "--config", str(config)], tmp / "out")
            for command in ("simulate", "estimate")]


def fine_levels(tmp: Path) -> list[dict]:
    """The fine-levels config with its table g_m(u_l) = (1 + |m|)^(-1/2)
    exp(-i pi m u_l / 2) over |m| <= N/2 - 1 at ``kernel.txt``, run from
    ``tmp`` so that the config, and so its hash, names no directory."""
    config = tmp / "fine-levels.yaml"
    config.write_text(re.sub(r"table_path: .*", "table_path: kernel.txt",
                             FINE_LEVELS.read_text()))
    cfg = load_config(config)
    design = design_for_n(cfg, int(cfg.design["n"]))
    m = np.arange(1 - design.N // 2, design.N // 2)
    u = np.asarray(design.u)[:, None]
    save_kernel_table(tmp / "kernel.txt", m, design.u,
                      ((1.0 + np.abs(m)) ** -0.5 * np.exp(-0.5j * np.pi * m * u)).T)
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        return simulate_then_estimate(config, tmp)
    finally:
        os.chdir(cwd)


def bench(threads: int, tmp: Path) -> list[dict]:
    text = (CONFIGS / "boxcar-regular.yaml").read_text()
    grid = re.search(r"  n_grid: .*\n  reps: .*\n", text).group(0)
    config = tmp / "boxcar-regular-2pt.yaml"
    config.write_text(text.replace(grid, BENCH_GRID))
    return [run(["bench", "--config", str(config), "--threads", str(threads)], tmp / "out")]


CASES = {
    **{name: lambda tmp, name=name: simulate_then_estimate(CONFIGS / f"{name}.yaml", tmp)
       for name in SHIPPED},
    "fine-levels": fine_levels,
    "bench-threads-1": lambda tmp: bench(1, tmp),
    "bench-threads-2": lambda tmp: bench(2, tmp),
}


def load_table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_table(case, tmp_path):
    table = load_table()
    if table["numpy"] != np.__version__:
        pytest.skip(f"the table was made with numpy {table['numpy']}, this is numpy "
                    f"{np.__version__}")
    assert CASES[case](tmp_path) == table["cases"][case]


def test_table_covers_every_case():
    assert sorted(load_table()["cases"]) == sorted(CASES)


def write_table() -> None:
    cases = {}
    for case, make in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = make(Path(tmp))
    TABLE.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_digests.py --write")
    write_table()
