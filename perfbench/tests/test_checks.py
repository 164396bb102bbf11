"""Each correctness check of the benchmark passes on the program's output and
fails on a broken one.  Small designs keep the suite to well under a minute."""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

from lrdeconv import channels, cli, config, estimator, meyer, noise, riskbench

import checks
import exact_risk
import run
import workloads
from spans import Patch, RiskCapture

CONFIGS = workloads.CONFIGS


def small(name: str, n: int):
    cfg = config.load_config(CONFIGS / f"{name}.yaml")
    return (cfg, config.design_for_n(cfg, n), config.build_kernel(cfg),
            config.build_truth(cfg), config.build_estimator_config(cfg))


def captured_risks(truth, design, kernel, est, reps, master, threads=1):
    capture = RiskCapture(truth, [design.N])
    with Patch() as patch:
        capture.install(patch, riskbench)
        report = riskbench.mc_risk(truth, lambda n: design, kernel, est, [design.n], reps,
                                   master, threads=threads)
    return capture.vector(master, design.n, reps), report


@pytest.mark.parametrize("model", [noise.NoiseModel.farima(0.3), noise.NoiseModel.fgn(0.8),
                                   noise.NoiseModel.white(1.5)])
def test_noise_dft_covariance_matches_dense_sum(model):
    N = 32
    freqs = np.arange(-4, 5)
    gamma = noise.autocovariance(model, np.arange(N))
    F = np.exp(-2j * np.pi * np.outer(freqs, np.arange(N)) / N)
    dense = F @ linalg.toeplitz(gamma) @ F.conj().T / N ** 2
    fast = exact_risk.noise_dft_covariance(np.asarray(gamma, dtype=float)[None, :], freqs)[0]
    assert np.max(np.abs(fast - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("name", ["boxcar-large", "heat-large-2t"])
def test_levels_and_kernel_match_the_program(name):
    cfg, design, kernel, truth, est = small(name, 2 ** 14)
    _, n_star = channels.epsilon_n(design)
    assert exact_risk.n_star(design) == pytest.approx(n_star, rel=1e-14)
    assert exact_risk.levels(design, est) == estimator.choose_levels(n_star, est, design.N)[:2]
    m = np.arange(-9, 10)
    g = exact_risk.kernel_coeffs(cfg.kernel, design.u, m)
    assert np.allclose(g, channels.kernel_fourier(kernel, design.u_array(), m),
                       rtol=0, atol=1e-15)


def test_expected_risk_catches_noise_scaled_by_1_1():
    cfg, design, kernel, truth, est = small("boxcar-large", 2 ** 14)
    _, J = exact_risk.levels(design, est)
    law = exact_risk.risk_law(truth, design, cfg.kernel, est, J)
    risks, _ = captured_risks(truth, design, kernel, est, 1600, master=5)
    assert checks.expected_risk(risks, law, "scale 1") == []

    louder = channels.ChannelDesign(design.u, design.d, design.N,
                                    [dataclasses.replace(m, scale=1.1) for m in design.noise])
    risks, _ = captured_risks(truth, louder, kernel, est, 1600, master=5)
    assert checks.expected_risk(risks, law, "scale 1.1")


def test_capture_reproduces_the_report_and_catches_a_dropped_replicate():
    cfg, design, kernel, truth, est = small("boxcar-large", 2 ** 14)
    risks, report = captured_risks(truth, design, kernel, est, 30, master=9)
    assert checks.report_matches(risks, report.rows[0], "capture") == []
    assert checks.report_matches(risks[1:], report.rows[0], "dropped")


def test_threads_check_catches_a_permuted_risk_vector():
    cfg, design, kernel, truth, est = small("heat-large-2t", 2 ** 14)
    two, _ = captured_risks(truth, design, kernel, est, 30, master=3, threads=2)
    one, _ = captured_risks(truth, design, kernel, est, 30, master=3, threads=1)
    assert checks.same_bits(two, one, "threads") == []
    permuted = two.copy()
    permuted[[0, 1]] = permuted[[1, 0]]
    assert checks.same_bits(permuted, one, "permuted")


@pytest.fixture(scope="module")
def fine(tmp_path_factory):
    """The fine-levels design with its kernel table in a temporary directory."""
    cfg = config.load_config(CONFIGS / "fine-levels.yaml")
    design = config.design_for_n(cfg, int(cfg.design["n"]))
    band = design.N // 2 - 1
    m = np.arange(-band, band + 1)
    path = tmp_path_factory.mktemp("fine") / "kernel.txt"
    channels.save_kernel_table(path, m, design.u, workloads.fine_kernel(design.u, m).T)
    return SimpleNamespace(design=design, kernel=channels.load_kernel_table(path),
                           truth=config.build_truth(cfg), est=config.build_estimator_config(cfg))


def fine_estimate(fine, seed):
    y = channels.simulate_observations(fine.truth, fine.design, fine.kernel, seed)
    result = estimator.estimate(y, fine.design, fine.kernel, fine.est)
    f_hat, _ = estimator.fourier_deconvolve(y, fine.design, fine.kernel)
    before = meyer.analyze(f_hat, meyer.MeyerSpec(*fine.est.level_override))
    return before, result


def test_block_check_catches_a_flipped_kept_flag(fine):
    before, result = fine_estimate(fine, 11)
    n_star = exact_risk.n_star(fine.design)

    def verdict(decisions, after):
        return checks.block_decisions(before, after, decisions, fine.design.n, n_star,
                                      fine.est, "fine")

    assert verdict(result.decisions, result.coeffs) == []
    for i in (0, len(result.decisions) - 1):  # one kept, one killed block
        flipped = list(result.decisions)
        flipped[i] = dataclasses.replace(flipped[i], kept=not flipped[i].kept)
        assert verdict(flipped, result.coeffs)

    unzeroed = result.coeffs.copy()
    unzeroed.detail[fine.est.level_override[1] - 1][-1] = 1e-3  # in the last block
    assert not result.decisions[-1].kept
    assert verdict(result.decisions, unzeroed)

    lowered = [dataclasses.replace(d, threshold=0.5 * d.threshold) for d in result.decisions]
    assert verdict(lowered, result.coeffs)


def test_block_check_needs_both_kept_and_killed_blocks(fine):
    before, result = fine_estimate(fine, 12)
    everything = dataclasses.replace(fine.est, mu=0.0)
    y = channels.simulate_observations(fine.truth, fine.design, fine.kernel, 12)
    kept_all = estimator.estimate(y, fine.design, fine.kernel, everything)
    errors = checks.block_decisions(before, kept_all.coeffs, kept_all.decisions,
                                    fine.design.n, exact_risk.n_star(fine.design), everything,
                                    "mu = 0")
    assert any("both kept and killed" in e for e in errors)


def test_noise_free_check(fine):
    workload = workloads.WORKLOADS["fine-levels"]
    s = SimpleNamespace(designs={fine.design.n: fine.design}, kernel=fine.kernel,
                        truth=fine.truth, est=fine.est)
    assert workload._check_noise_free(s) == []
    # the estimator deconvolves with a table 0.1% off the kernel that blurred the input
    s.kernel = channels.BlurKernel("table", table_m=fine.kernel.table_m,
                                   table_u=fine.kernel.table_u,
                                   table_g=tuple(1.001 * g for g in fine.kernel.table_g))
    assert workload._check_noise_free(s)


def test_cli_check_catches_one_changed_digit(tmp_path):
    text = (CONFIGS / "cli-roundtrip.yaml").read_text().replace("n: 1048576", "n: 16384")
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(text)
    cfg = config.load_config(cfg_path)
    out = tmp_path / "pair"
    for command in ("simulate", "estimate"):
        assert cli.main([command, "--config", str(cfg_path), "--seed", "77",
                         "--out", str(out)]) == 0
    s = SimpleNamespace(pairs=[(77, out)], design=config.design_for_n(cfg, 16384),
                        kernel=config.build_kernel(cfg), truth=config.build_truth(cfg),
                        est=config.build_estimator_config(cfg))
    roundtrip = workloads.WORKLOADS["cli-roundtrip"]
    assert roundtrip.check(s) == []

    lines = (out / "y.csv").read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    first = lines[row].split(",")[0]
    digit = next(i for i, c in enumerate(first) if c.isdigit() and c != "0")
    changed = first[:digit] + str(int(first[digit]) % 9 + 1) + first[digit + 1:]
    lines[row] = lines[row].replace(first, changed, 1)
    (out / "y.csv").write_text("".join(lines))
    assert any("y.csv" in e for e in roundtrip.check(s))


def test_benchmark_json_lists_every_metric():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == workloads.LAYER_METRICS
    assert set(workloads.WORKLOADS) == set(run.NAMES)
