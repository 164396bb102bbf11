"""The module globals that perfbench's layer spans replace.

``perfbench/workloads.py`` (``install_layer_hooks``) times each stage of a
replicate by replacing these names in their modules, and reads ``j0``,
``J`` and ``ill_posed`` from ``result.diagnostics``.  These tests wrap the
same names with counting wrappers, so a refactor that calls a stage some
other way fails here, not only when the benchmark runs.
"""

from collections import defaultdict

import numpy as np
import pytest
import yaml

from lrdeconv import channels, cli, estimator, riskbench
from lrdeconv.channels import BlurKernel, ChannelDesign
from lrdeconv.estimator import EstimatorConfig
from lrdeconv.noise import NoiseModel
from lrdeconv.riskbench import make_test_function

HOOKS = [
    (riskbench, "simulate_observations"), (riskbench, "estimate"),
    (cli, "simulate_observations"), (cli, "estimate"),
    (channels, "sample_paths"),
    (estimator, "kernel_fourier"), (estimator, "fourier_deconvolve"), (estimator, "analyze"),
    (estimator, "block_threshold"), (estimator, "synthesize_series"),
    (estimator, "coeffs_to_grid"),
]

STAGES = ["estimator.fourier_deconvolve", "estimator.analyze", "estimator.block_threshold",
          "estimator.synthesize_series", "estimator.coeffs_to_grid"]

# M = 4 channels of N = 256 white-noise samples: n* = n = 1024 and, at
# nu = 1/2, levels j0 = 3 < J = 5, so the estimate thresholds
U = (0.13, 0.29, 0.41, 0.67)
DESIGN = ChannelDesign(U, (0.0,) * 4, 256, (NoiseModel.white(),) * 4)
CONFIG = EstimatorConfig(mu=0.5, nu=0.5)


@pytest.fixture
def results(monkeypatch):
    """The results of every call through a hooked name, by module.name."""
    seen = defaultdict(list)
    for module, name in HOOKS:
        def counting(*args, _key=f"{module.__name__.split('.')[-1]}.{name}",
                     _original=getattr(module, name), **kwargs):
            out = _original(*args, **kwargs)
            seen[_key].append(out)
            return out

        monkeypatch.setattr(module, name, counting)
    estimator._deconvolution_weights.cache_clear()  # so the weights call kernel_fourier
    return seen


def check_estimates(estimates):
    for result in estimates:
        diag = result.diagnostics
        assert (diag.j0, diag.J) == (3, 5)
        assert isinstance(diag.ill_posed, list)


def test_mc_risk_replicates_go_through_the_hooks(results):
    truth = make_test_function("sawtooth_smoothed", 8, {})
    riskbench.mc_risk(truth, lambda n: DESIGN, BlurKernel("boxcar"), CONFIG, [1024], 30, 7)
    counts = {key: len(calls) for key, calls in results.items()}
    per_replicate = ["riskbench.simulate_observations", "riskbench.estimate",
                     "channels.sample_paths", *STAGES]
    assert counts == {**dict.fromkeys(per_replicate, 30), "estimator.kernel_fourier": 1}
    check_estimates(results["riskbench.estimate"])


def test_a_thresholded_estimate_goes_through_the_hooks(results):
    y = np.random.default_rng(3).normal(size=(DESIGN.M, DESIGN.N))
    result = estimator.estimate(y, DESIGN, BlurKernel("boxcar"), CONFIG)
    assert result.decisions
    counts = {key: len(calls) for key, calls in results.items()}
    assert counts == {**dict.fromkeys(STAGES, 1), "estimator.kernel_fourier": 1}
    check_estimates([result])


def test_the_cli_goes_through_the_hooks(results, tmp_path):
    config = {
        "experiment": "hooks", "seed": 5, "output_dir": str(tmp_path / "out"),
        "design": {"n": 1024, "m_rule": "fixed", "M": 4,
                   "u_rule": {"kind": "explicit", "values": list(U)},
                   "d_rule": {"kind": "constant", "value": 0.0}},
        "noise": {"kind": "white"},
        "kernel": {"kind": "boxcar"},
        "truth": {"kind": "sawtooth_smoothed", "band": 8},
        "estimator": {"mu": 0.5, "nu": 0.5},
    }
    path = tmp_path / "hooks.yaml"
    path.write_text(yaml.safe_dump(config))
    for command in ("simulate", "estimate"):
        assert cli.main([command, "--config", str(path)]) == 0
    counts = {key: len(calls) for key, calls in results.items()}
    assert counts == {"cli.simulate_observations": 1, "channels.sample_paths": 1,
                      "cli.estimate": 1, **dict.fromkeys(STAGES, 1),
                      "estimator.kernel_fourier": 1}
    check_estimates(results["cli.estimate"])
