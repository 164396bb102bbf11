"""Correctness checks.  Each returns a list of failure messages, empty on success.

Every check compares the program's output against a computation made in
the benchmark or against a property the method must have; none compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

SE_LIMIT = 4.0
REL_TOL = 1e-12


def _as_floats(x) -> np.ndarray:
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x, dtype=complex).view(float)
    return np.ascontiguousarray(x, dtype=float)


def same_bits(a, b, label: str) -> list[str]:
    """Equal shape and equal float64 bit patterns (complex: both parts)."""
    a, b = _as_floats(a), _as_floats(b)
    if a.shape != b.shape:
        return [f"{label}: shape {a.shape} != {b.shape}"]
    diff = np.flatnonzero(a.view(np.uint64) != b.view(np.uint64))
    if diff.size:
        i = int(diff[0])
        return [f"{label}: {diff.size} values differ, first at flat index {i}: "
                f"{a.flat[i]!r} != {b.flat[i]!r}"]
    return []


def report_matches(risks: np.ndarray, row, label: str) -> list[str]:
    """An mc_risk report row (n, M, N, n*, mean, se, reps) is the mean and SE of ``risks``."""
    reps = len(risks)
    mean = float(risks.mean())
    se = float(risks.std(ddof=1) / math.sqrt(reps))
    errors = []
    if row[6] != reps:
        errors.append(f"{label}: report has {row[6]} replicates, expected {reps}")
    errors += same_bits([row[4], row[5]], [mean, se], f"{label}: reported (mean, se)")
    if not (np.all(np.isfinite(risks)) and np.all(risks >= 0)):
        errors.append(f"{label}: a replicate risk is negative or not finite")
    return errors


def expected_risk(risks: np.ndarray, law, label: str) -> list[str]:
    """The replicate mean lies within SE_LIMIT standard errors of the exact mean.

    The standard error is law.sd / sqrt(reps), from the exact law rather than
    the sample.  The limits are read on the exact, right-skewed law of the
    mean (``RiskLaw.mean_interval``), so they keep the false-alarm rate of
    SE_LIMIT standard errors of a normal law.
    """
    reps = len(risks)
    mean = float(np.mean(risks))
    lo, hi = law.mean_interval(reps, SE_LIMIT)
    if not lo <= mean <= hi:
        z = (mean - law.mean) / (law.sd / math.sqrt(reps))
        return [f"{label}: replicate mean {mean:.6g} lies outside [{lo:.6g}, {hi:.6g}], "
                f"{z:+.2f} standard errors from the exact expected risk {law.mean:.6g}"]
    return []


def threshold(j: int, n_star: float, mu: float, nu: float, lambda1: float) -> float:
    """lambda_j = mu^2 ln(n*) / n* 2^(2 nu j) j^lambda1, with 0^lambda1 = 1."""
    j_pow = 1.0 if j == 0 else float(j) ** lambda1
    return mu ** 2 * math.log(n_star) / n_star * 2.0 ** (2.0 * nu * j) * j_pow


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def block_decisions(before, after, decisions, n: int, n_star: float, est,
                    label: str) -> list[str]:
    """Recompute every keep-or-kill decision of one estimate.

    ``before`` are the analysis coefficients ahead of thresholding, ``after``
    the returned ones.  Blocks have length ceil(ln n); a block is kept exactly
    when its energy reaches lambda_j; killed blocks are zero afterwards, kept
    blocks and the scaling coefficients are unchanged; both kinds occur.
    """
    errors = same_bits(after.scaling, before.scaling, f"{label}: scaling coefficients")
    length = int(math.ceil(math.log(n)))
    expected = []
    for j in range(before.j0, before.J):
        lam = threshold(j, n_star, est.mu, est.nu, est.lambda1)
        for r, start in enumerate(range(0, 2 ** j, length), start=1):
            stop = min(start + length, 2 ** j)
            energy = float(np.sum(np.abs(before.detail[j][start:stop]) ** 2))
            expected.append((j, r, start, stop, energy, lam))
    if len(decisions) != len(expected):
        return errors + [f"{label}: {len(decisions)} decisions for {len(expected)} blocks"]
    kept = 0
    for d, (j, r, start, stop, energy, lam) in zip(decisions, expected):
        where = f"{label}: level {j} block {r}"
        if (d.level, d.block) != (j, r):
            errors.append(f"{where}: decision is for level {d.level} block {d.block}")
            continue
        if not _close(d.threshold, lam):
            errors.append(f"{where}: threshold {d.threshold!r} != {lam!r}")
        if not _close(d.energy, energy):
            errors.append(f"{where}: energy {d.energy!r} != {energy!r}")
        if d.kept != (d.energy >= d.threshold):
            errors.append(f"{where}: kept={d.kept} but energy {d.energy:.6g} "
                          f"vs threshold {d.threshold:.6g}")
        block = after.detail[j][start:stop]
        if d.kept:
            kept += 1
            errors += same_bits(block, before.detail[j][start:stop], f"{where}: kept coefficients")
        elif np.any(block != 0):
            errors.append(f"{where}: killed block is not zero")
    if not 0 < kept < len(expected):
        errors.append(f"{label}: {kept} of {len(expected)} blocks kept; "
                      "the workload needs both kept and killed blocks")
    return errors


def relative_l2(estimate: np.ndarray, truth: np.ndarray, limit: float, label: str) -> list[str]:
    err = float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
    if not err <= limit:
        return [f"{label}: relative L2 error {err:.3g} exceeds {limit:g}"]
    return []


def read_table(path, skip_header: bool) -> np.ndarray:
    """Numbers of a comma-separated output file, parsed with numpy.

    Lines starting with '#' are comments; ``skip_header`` drops the column
    name line that follows them.
    """
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    if skip_header:
        lines = lines[1:]
    return np.loadtxt(lines, delimiter=",", ndmin=2)
