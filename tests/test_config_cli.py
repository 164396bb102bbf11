"""Configuration parsing, validation, and the command line front end."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from lrdeconv import estimator
from lrdeconv.channels import save_kernel_table, simulate_observations
from lrdeconv.cli import COMMANDS, _load_y, main
from lrdeconv.config import (
    build_bench,
    build_design,
    build_eigencheck,
    build_estimator_config,
    build_kernel,
    build_truth,
    characterize_range,
    config_hash,
    design_for_n,
    load_config,
    parse_config,
    serialize_config,
)
from lrdeconv.errors import ConfigError
from lrdeconv.estimator import EstimatorConfig, fourier_deconvolve, plan
from lrdeconv.noise import NoiseModel, autocovariance
from lrdeconv.riskbench import MIN_REPS, BesovBall, RiskReport, mc_risk
from testkit import bits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

BASE_CONFIG = """\
experiment: cli-test
seed: 321
output_dir: {out}
design:
  n: 1024
  theta: 0.5
  m_rule: power
  u_rule: {{kind: equispaced, a: 0.0, b: 1.0}}
  d_rule: {{kind: linear, a1: 0.2, a2: 0.1}}
noise:
  kind: farima
  scale: 1.0
kernel:
  kind: boxcar
  q0: 1.0
truth:
  kind: sawtooth_smoothed
  band: 8
  amplitude: 1.0
  params: {{m0: 3.0, decay: 1.5}}
estimator:
  mu: 1.0
  nu: 2.0
bench:
  n_grid: [1024, 4096, 16384, 65536]
  reps: 30
  ball: {{s: 2.0, p: 2.0, q: 2.0, radius: 20.0}}
eigencheck:
  models:
    - {{kind: white, scale: 1.0}}
    - {{kind: farima, d: 0.25, scale: 1.0}}
  n_list: [64, 128, 256]
characterize:
  m_min: 4
  m_max: 15
"""

NOISELESS_CONFIG = """\
experiment: noiseless
seed: 77
output_dir: {out}
design:
  n: 1024
  m_rule: fixed
  M: 1
  u_rule: {{kind: explicit, values: [0.37]}}
  d_rule: {{kind: constant, value: 0.0}}
noise:
  kind: white
  scale: 1.0e-300
kernel:
  kind: boxcar
  q0: 1.0
truth:
  kind: sawtooth_smoothed
  band: 40
  amplitude: 1.0
  params: {{m0: 4.0, decay: 1.5}}
estimator:
  mu: 0.0
  nu: 2.0
  level_override: [3, 7]
"""


FINE_CONFIG = """\
experiment: fine
seed: 1
output_dir: {out}
design:
  n: 16384
  m_rule: fixed
  M: 4
  u_rule: {{kind: equispaced, a: 0.0, b: 1.0}}
  d_rule: {{kind: constant, value: 0.1}}
noise:
  kind: farima
  scale: 1.0
kernel:
  kind: table
  table_path: {table}
truth:
  kind: smooth_sine
  band: 8
  params: {{freq: 3}}
estimator:
  mu: 1.0
  nu: 0.5
  level_override: [3, 11]
"""


# one channel of N = 2, the smallest design, estimated linearly at level 0
TINY_CONFIG = """\
experiment: tiny
seed: 3
output_dir: {out}
design:
  n: 2
  m_rule: fixed
  M: 1
  d_rule: {{kind: constant, value: 0.0}}
noise:
  kind: white
kernel:
  kind: heat
truth:
  kind: bump_mix
  band: 0
estimator:
  nu: 1.0
  level_override: [0, 0]
"""

# M = 2 channels of N = 4 with d = 0.49: n* = 8 * 4^(-0.98) = 2.06 <= e, so no
# level choice exists
SMALL_NSTAR_CONFIG = """\
experiment: small-nstar
seed: 3
output_dir: {out}
design:
  n: 8
  m_rule: fixed
  M: 2
  d_rule: {{kind: constant, value: 0.49}}
noise:
  kind: farima
kernel:
  kind: heat
truth:
  kind: smooth_sine
  band: 1
  params: {{freq: 1}}
estimator:
  nu: 1.0
eigencheck:
  models: [{{kind: farima, d: 0.49}}]
  n_list: [16, 32]
"""

# What every subcommand's --dry-run prints on each shipped config: loading
# checks every section, so a stricter load must still accept all of them.
SHIPPED_DRY_RUNS = {
    "boxcar-regular": {
        "simulate": "simulate: M=256 N=256 n=65536 band=40",
        "estimate": "estimate: n*=8648.48 j0=2 J=2",
        "bench": """\
n=16384 M=128 N=128 n*=2718.82 j0=2 J=2 (linear estimator, no detail levels)
n=32768 M=128 N=256 n*=4305.51 j0=2 J=2 (linear estimator, no detail levels)
n=65536 M=256 N=256 n*=8648.48 j0=2 J=2 (linear estimator, no detail levels)
n=131072 M=256 N=512 n*=13773.1 j0=2 J=2 (linear estimator, no detail levels)
n=262144 M=512 N=512 n*=27613.4 j0=2 J=2 (linear estimator, no detail levels)
n=524288 M=512 N=1024 n*=44199.7 j0=3 J=3 (linear estimator, no detail levels)
n=1048576 M=1024 N=1024 n*=88519.2 j0=3 J=3 (linear estimator, no detail levels)""",
        "eigencheck": "eigencheck: 7 models x N in [64, 128, 256, 512, 1024]",
        "characterize": "characterize: m range 8..64 on M=256 N=256",
    },
    "heat-supersmooth-d0": {
        "simulate": "simulate: M=256 N=256 n=65536 band=1",
        "estimate": "estimate: n*=65536 j0=1 J=1",
        "bench": """\
n=16384 M=128 N=128 n*=16384 j0=1 J=1 (linear estimator, no detail levels)
n=32768 M=128 N=256 n*=32768 j0=1 J=1 (linear estimator, no detail levels)
n=65536 M=256 N=256 n*=65536 j0=1 J=1 (linear estimator, no detail levels)
n=131072 M=256 N=512 n*=131072 j0=1 J=1 (linear estimator, no detail levels)
n=262144 M=512 N=512 n*=262144 j0=1 J=1 (linear estimator, no detail levels)
n=524288 M=512 N=1024 n*=524288 j0=1 J=1 (linear estimator, no detail levels)
n=1048576 M=1024 N=1024 n*=1.04858e+06 j0=1 J=1 (linear estimator, no detail levels)
n=2097152 M=1024 N=2048 n*=2.09715e+06 j0=1 J=1 (linear estimator, no detail levels)""",
        "characterize": "characterize: m range 4..24 on M=256 N=256",
    },
    "heat-supersmooth-d04": {
        "simulate": "simulate: M=256 N=256 n=65536 band=1",
        "estimate": "estimate: n*=14459.6 j0=1 J=1",
        "bench": """\
n=16384 M=128 N=128 n*=4068.53 j0=1 J=1 (linear estimator, no detail levels)
n=32768 M=128 N=256 n*=7167.15 j0=1 J=1 (linear estimator, no detail levels)
n=65536 M=256 N=256 n*=14459.6 j0=1 J=1 (linear estimator, no detail levels)
n=131072 M=256 N=512 n*=25805.5 j0=1 J=1 (linear estimator, no detail levels)
n=262144 M=512 N=512 n*=51863.7 j0=1 J=1 (linear estimator, no detail levels)
n=524288 M=512 N=1024 n*=93563.3 j0=1 J=1 (linear estimator, no detail levels)
n=1048576 M=1024 N=1024 n*=187635 j0=1 J=1 (linear estimator, no detail levels)
n=2097152 M=1024 N=2048 n*=341584 j0=1 J=1 (linear estimator, no detail levels)""",
        "characterize": "characterize: m range 4..24 on M=256 N=256",
    },
    "noiseless-exact": {
        "simulate": "simulate: M=1 N=1024 n=1024 band=40",
        "estimate": "estimate: n*=1024 j0=3 J=7",
        "characterize": "characterize: m range 4..64 on M=1 N=1024",
    },
}


def write_config(tmp_path, text, name="cfg.yaml", out=None):
    out_dir = out or (tmp_path / "out")
    path = tmp_path / name
    path.write_text(text.format(out=out_dir))
    return path, Path(out_dir)


def read_strict_json(path):
    """A JSON file that holds no NaN, Infinity or -Infinity."""
    def no_constants(name):
        raise ValueError(f"{path.name} holds {name}")

    return json.loads(path.read_text(), parse_constant=no_constants)


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)


def run_cli(args, cwd):
    return run_python(["-m", "lrdeconv.cli", *args], cwd)


class TestConfigRoundTrip:
    def test_parse_serialize_parse(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_CONFIG)
        cfg = load_config(path)
        again = parse_config(serialize_config(cfg))
        assert again.to_dict() == cfg.to_dict()
        assert config_hash(again) == config_hash(cfg)

    def test_hash_changes_with_any_field(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_CONFIG)
        cfg = load_config(path)
        base = config_hash(cfg)
        cfg.design["n"] = 2048
        assert config_hash(cfg) != base

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment: x\nseed: 1\noutput_dir: o\n"
                         "design: {n: 64, theta: 0.5}\nnoise: {kind: white}\n"
                         "kernel: {kind: boxcar}\nbogus: 1\n")

    def test_design_materialization(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_CONFIG)
        cfg = load_config(path)
        design = design_for_n(cfg, 4096)
        assert design.M == design.N == 64
        assert design.u[-1] == pytest.approx(1.0)
        assert design.d[0] == pytest.approx(0.2 / 64 + 0.1)

    def test_explicit_d_rule_loads_its_values(self, tmp_path, capsys):
        # M = 32 at n = 1024 and at n = 2048
        values = [round(0.01 + 0.0137 * l, 4) for l in range(32)]
        text = BASE_CONFIG.replace("d_rule: {{kind: linear, a1: 0.2, a2: 0.1}}",
                                   f"d_rule: {{{{kind: explicit, values: {values}}}}}")
        text = text.replace("n_grid: [1024, 4096, 16384, 65536]", "n_grid: [1024, 2048]")
        path, out = write_config(tmp_path, text)
        cfg = load_config(path)
        for n in (1024, 2048):
            design = design_for_n(cfg, n)
            assert design.d == tuple(values)
            assert design.noise == tuple(NoiseModel.farima(dl) for dl in values)
        assert main(["simulate", "--dry-run", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "simulate: M=32 N=32 n=1024 band=8\n"
        assert not out.exists()

    def test_fgn_given_by_d_keeps_its_d(self, tmp_path):
        # d once went through H = d + 1/2 and back: d = 0.1 came back as
        # 0.09999999999999998; the autocovariance, a function of H, is unchanged
        text = BASE_CONFIG.replace("noise:\n  kind: farima", "noise:\n  kind: fgn")
        design = design_for_n(load_config(write_config(tmp_path, text)[0]), 4096)
        assert [model.d for model in design.noise] == list(design.d)
        lags = np.arange(128)
        for model in design.noise:
            assert bits(autocovariance(model, lags)) == bits(
                autocovariance(NoiseModel.fgn(model.d + 0.5), lags))

    def test_white_noise_requires_d_zero(self, tmp_path):
        text = BASE_CONFIG.replace("kind: farima", "kind: white")
        path, _ = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="white requires all d_l = 0"):
            load_config(path)  # the design is built, and rejected, at load


class TestSectionBuilders:
    def test_estimator_defaults_are_estimator_config_defaults(self, tmp_path):
        text = NOISELESS_CONFIG.replace(
            "estimator:\n  mu: 0.0\n  nu: 2.0\n  level_override: [3, 7]\n", "")
        cfg = load_config(write_config(tmp_path, text)[0])
        assert cfg.estimator == {}
        assert build_estimator_config(cfg) == EstimatorConfig()

    def test_bench_and_characterize_defaults(self, tmp_path):
        text = BASE_CONFIG.replace("  reps: 30\n", "").replace(
            "characterize:\n  m_min: 4\n  m_max: 15\n", "")
        cfg = load_config(write_config(tmp_path, text)[0])
        assert build_bench(cfg) == ([1024, 4096, 16384, 65536], 100,
                                    BesovBall(2.0, 2.0, 2.0, 20.0))
        design = build_design(cfg)
        assert (design.M, design.N) == (32, 32)
        assert characterize_range(cfg, design) == range(4, 16)  # m_max = N/2 - 1

    def test_cli_reads_no_config_section(self):
        sections = {"design", "noise", "kernel", "truth", "estimator", "bench",
                    "eigencheck", "characterize"}
        tree = ast.parse((SRC / "lrdeconv" / "cli.py").read_text())
        read = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "cfg"
                and node.attr in sections]
        assert read == []


class TestCliValidation:
    def test_d_constraint_exit_code_and_message(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("a1: 0.2, a2: 0.1", "a1: 0.2, a2: 0.6")
        path, _ = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(path)])
        assert code == 1
        assert "1/2" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, BASE_CONFIG)
        assert main(["estimate", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_output_path_that_is_a_file_is_io_error(self, tmp_path, capsys):
        path, out = write_config(tmp_path, BASE_CONFIG)
        out.write_text("")
        assert main(["simulate", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_threads_validation(self, tmp_path, capsys, monkeypatch):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", str(path), "--threads", "0"]) == 1
        assert capsys.readouterr().err == "config error: --threads must be >= 1\n"
        # argument errors exit 1 with one line, like every other config error, and
        # a bad --seed is caught before the output directory is made
        for args, message in (
            (["--threads", "abc"], "argument --threads: invalid int value: 'abc'"),
            (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
            (["--seed", str(2 ** 64)],
             f"--seed must be an unsigned 64-bit integer, got {2 ** 64}"),
            (["--bogus"], "unrecognized arguments: --bogus"),
        ):
            assert main(["simulate", "--config", str(path), *args]) == 1
            assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()
        for argv, message in (
            (["simulate"], "the following arguments are required: --config"),
            ([], "the following arguments are required: command"),
            (["bogus", "--config", str(path)], "argument command: invalid choice: 'bogus'"),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"config error: {message}")
            assert captured.err.count("\n") == 1
        with pytest.raises(SystemExit) as exit_help:
            main(["simulate", "--help"])
        assert exit_help.value.code == 0
        assert main(["simulate", "--config", str(path), "--seed", str(2 ** 64 - 1),
                     "--dry-run"]) == 0
        capsys.readouterr()
        for env, message in (("0", "--threads must be >= 1"),
                             ("abc", "LRD_DECONV_THREADS must be an integer, got 'abc'")):
            monkeypatch.setenv("LRD_DECONV_THREADS", env)
            assert main(["simulate", "--config", str(path), "--dry-run"]) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("nu", ["-0.5", ".nan", ".inf"])
    def test_negative_nu_exit_code_and_message(self, tmp_path, capsys, nu):
        text = (CONFIGS / "boxcar-regular.yaml").read_text().replace("nu: 2.0", f"nu: {nu}")
        path = tmp_path / "negative-nu.yaml"
        path.write_text(text)
        assert main(["estimate", "--config", str(path), "--dry-run"]) == 1
        assert "nu must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [".nan", ".inf"])
    @pytest.mark.parametrize("config, key, value", [
        ("boxcar-regular", "mu", "1.0"),
        ("boxcar-regular", "lambda1", "0.0"),
        ("heat-supersmooth-d0", "alpha1", "0.0197"),
        ("heat-supersmooth-d0", "beta", "2.0"),
    ])
    def test_nonfinite_estimator_number_exit_code_and_message(self, tmp_path, capsys,
                                                              config, key, value, bad):
        text = (CONFIGS / f"{config}.yaml").read_text()
        assert f"{key}: {value}\n" in text
        path = tmp_path / "nonfinite.yaml"
        path.write_text(text.replace(f"{key}: {value}\n", f"{key}: {bad}\n"))
        assert main(["estimate", "--config", str(path), "--dry-run"]) == 1
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("estimator.mu", "abc"), ("design.n", "abc"), ("bench.reps", "abc"),
        ("truth.band", "abc"), ("design", 5), ("LRD_DECONV_THREADS", "abc"),
        ("kernel.q0", "abc"), ("truth.params.m0", "abc"), ("characterize.m_min", "abc"),
        pytest.param("design.u_rule", {"kind": "explicit"}, id="u_rule-without-values"),
        pytest.param("bench.n_grid", [16384, 16385], id="n_grid-not-a-power-of-2"),
        pytest.param("design.n", None, id="n-missing"),
        pytest.param("estimator.level_override", [3], id="level_override-one-level"),
        ("seed", -1), ("seed", 2 ** 64), ("--seed", "-1"), ("--seed", str(2 ** 64)),
        ("--seed", "abc"), ("--threads", "abc"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, monkeypatch, key, value):
        # a key that starts with -- is a command line flag
        raw = yaml.safe_load((CONFIGS / "boxcar-regular.yaml").read_text())
        flags = []
        if key == "LRD_DECONV_THREADS":
            monkeypatch.setenv(key, value)
        elif key.startswith("--"):
            flags = [key, value]
        else:
            *sections, name = key.split(".")
            node = raw
            for section in sections:
                node = node[section]
            node[name] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        proc = run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                        "--dry-run", *flags], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("config, key, bad", [
        ("boxcar-regular", "seed", 1.5),
        ("boxcar-regular", "seed", True),
        ("boxcar-regular", "design.n", 65536.7),
        ("boxcar-regular", "design.M", 64.5),
        ("boxcar-regular", "bench.n_grid", [16384.5, 32768]),
        ("boxcar-regular", "bench.reps", 30.9),
        ("boxcar-regular", "truth.band", 1.9),
        ("boxcar-regular", "estimator.level_override", [2, 3.5]),
        ("boxcar-regular", "eigencheck.n_list", [64, 128.5]),
        ("boxcar-regular", "characterize.m_min", 8.5),
        ("boxcar-regular", "characterize.m_max", 64.5),
        ("heat-supersmooth-d0", "truth.params.freq", 1.5),
    ])
    def test_integer_keys_are_checked_not_truncated(self, tmp_path, capsys, config, key, bad):
        # an integral float loads as its integer; any other value exits 1 naming the key
        raw = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
        if key == "design.M":
            raw["design"].update(m_rule="fixed", M=64)
        if key == "estimator.level_override":
            raw["estimator"]["level_override"] = [2, 3]
        *sections, name = key.split(".")
        node = raw
        for section in sections:
            node = node[section]
        good = [float(x) for x in node[name]] if isinstance(bad, list) else float(node[name])
        for value, code in ((good, 0), (bad, 1)):
            node[name] = value
            path = tmp_path / "cfg.yaml"
            path.write_text(yaml.safe_dump(raw))
            assert main(["simulate", "--config", str(path), "--dry-run"]) == code
            err = capsys.readouterr().err
            if code:
                first = next(x for x in bad if x != int(x)) if isinstance(bad, list) else bad
                label = {"truth.params.freq": "smooth_sine freq"}.get(key, key)
                label += " entry" if isinstance(bad, list) else ""
                assert err == f"config error: {label} must be an integer, got {first!r}\n"

    def test_two_amplitude_keys_exit_1_at_load(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("params: {{m0: 3.0, decay: 1.5}}",
                                   "params: {{m0: 3.0, decay: 1.5, amplitude: 3.0}}")
        path, out = write_config(tmp_path, text)
        for command in COMMANDS:
            assert main([command, "--config", str(path), "--dry-run"]) == 1
            assert capsys.readouterr().err == (
                "config error: truth.amplitude and truth.params.amplitude both set the "
                "amplitude; give one\n")
        # either key alone sets it, to the same truth
        inner, _ = write_config(tmp_path, text.replace("  amplitude: 1.0\n", ""), name="in.yaml")
        outer, _ = write_config(tmp_path, BASE_CONFIG.replace("amplitude: 1.0", "amplitude: 3.0"),
                                name="out.yaml")
        values = [build_truth(load_config(path)).values for path in (inner, outer)]
        assert values[0].tobytes() == values[1].tobytes()
        base = build_truth(load_config(write_config(tmp_path, BASE_CONFIG, name="base.yaml")[0]))
        assert np.abs(values[0]).max() == pytest.approx(3.0 * np.abs(base.values).max())

    @pytest.mark.parametrize("truth, message", [
        ("kind: bump_mix\n  band: 8\n  params: {{centers: [0.3, 0.7], widths: [0.05], "
         "weights: [1.0, 0.7]}}", "bump_mix centers, widths and weights must be non-empty "
         "lists of equal length, got lengths (2, 1, 2)"),
        ("kind: bump_mix\n  band: 8\n  params: {{centers: [0.3], widths: [0.05], "
         "weights: [1.0, 0.7]}}", "bump_mix centers, widths and weights must be non-empty "
         "lists of equal length, got lengths (1, 1, 2)"),
        ("kind: bump_mix\n  band: 8\n  params: {{centers: [], widths: [], weights: []}}",
         "bump_mix centers, widths and weights must be non-empty lists of equal length, "
         "got lengths (0, 0, 0)"),
        ("kind: smooth_sine\n  band: 8\n  params: {{freq: -3}}",
         "smooth_sine freq must be >= 0, got -3"),
        ("kind: smooth_sine\n  band: 5\n  params: {{freq: -30}}",
         "smooth_sine freq must be >= 0, got -30"),
        ("kind: sawtooth_smoothed\n  band: 8\n  params: {{m0: 0}}",
         "sawtooth_smoothed m0 must be > 0 and finite, got 0.0"),
        ("kind: sawtooth_smoothed\n  band: 8\n  params: {{m0: -4.0}}",
         "sawtooth_smoothed m0 must be > 0 and finite, got -4.0"),
        ("kind: sawtooth_smoothed\n  band: 8\n  params: {{m0: .inf}}",
         "sawtooth_smoothed m0 must be > 0 and finite, got inf"),
        ("kind: sawtooth_smoothed\n  band: 8\n  params: {{m0: .nan}}",
         "sawtooth_smoothed m0 must be > 0 and finite, got nan"),
        ("kind: bump_mix\n  band: 8\n  params: {{centers: [0.3], widths: [.nan], "
         "weights: [1.0]}}", "bump_mix parameters give a truth with non-finite coefficients"),
        ("kind: bump_mix\n  band: 8\n  params: {{centers: [.inf], widths: [0.05], "
         "weights: [1.0]}}", "bump_mix parameters give a truth with non-finite coefficients"),
        ("kind: sawtooth_smoothed\n  band: 8\n  params: {{decay: .nan}}",
         "sawtooth_smoothed parameters give a truth with non-finite coefficients"),
        ("kind: smooth_sine\n  band: 8\n  params: {{amplitude: .nan}}",
         "smooth_sine parameters give a truth with non-finite coefficients"),
        ("kind: smooth_sine\n  band: 8\n  params: {{mean: .inf}}",
         "smooth_sine parameters give a truth with non-finite coefficients"),
    ], ids=["bump-short-widths", "bump-short-centers", "bump-empty", "sine-freq-3",
            "sine-freq-30-at-band-5", "saw-m0-zero", "saw-m0-negative", "saw-m0-inf",
            "saw-m0-nan", "bump-width-nan", "bump-center-inf", "saw-decay-nan",
            "sine-amplitude-nan", "sine-mean-inf"])
    def test_test_function_parameters_that_give_another_truth_exit_1_at_load(
            self, tmp_path, capsys, truth, message):
        # each of these once simulated a truth other than the one its parameters
        # name, or one with non-finite coefficients
        base_truth = "kind: sawtooth_smoothed\n  band: 8\n  amplitude: 1.0\n" \
            "  params: {{m0: 3.0, decay: 1.5}}"
        assert base_truth in BASE_CONFIG
        path, out = write_config(tmp_path, BASE_CONFIG.replace(base_truth, truth))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), *dry_run])
                assert (code, *capsys.readouterr()) == (1, "", f"config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("u_rule, d_rule, bad", [
        ("{{kind: equispaced, a: .nan, b: 1.0}}", "{{kind: constant, value: 0.1}}", "nan"),
        ("{{kind: equispaced, a: .nan, b: 1.0}}", "{{kind: linear, a1: 0.2, a2: 0.1}}", "nan"),
        ("{{kind: equispaced, a: 0.0, b: .inf}}", "{{kind: constant, value: 0.0}}", "inf"),
        ("{{kind: equispaced, a: -.inf, b: 0.0}}", "{{kind: linear, a1: 0.2, a2: 0.1}}", "nan"),
    ], ids=["nan-constant-d", "nan-linear-d", "inf", "minus-inf-linear-d"])
    def test_non_finite_channel_point_exits_1_at_load(self, tmp_path, capsys, u_rule, d_rule,
                                                      bad):
        # a constant d once simulated rows of nan, and a linear d blamed d
        base = "u_rule: {{kind: equispaced, a: 0.0, b: 1.0}}\n" \
            "  d_rule: {{kind: linear, a1: 0.2, a2: 0.1}}"
        assert base in BASE_CONFIG
        path, out = write_config(tmp_path, BASE_CONFIG.replace(
            base, f"u_rule: {u_rule}\n  d_rule: {d_rule}"))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), *dry_run])
                assert (code, *capsys.readouterr()) == (
                    1, "", "config error: design.u_rule must give finite channel points, "
                           f"got u_l = {bad}\n")
        assert not out.exists()

    @pytest.mark.parametrize("count, n_grid, M", [
        (31, "[1024, 2048]", 32),  # M = 32 at design.n
        (32, "[1024, 4096]", 64),  # M = 64 at the grid point 4096
    ])
    def test_explicit_d_rule_of_another_length_exits_1_at_load(self, tmp_path, capsys, count,
                                                              n_grid, M):
        text = BASE_CONFIG.replace("d_rule: {{kind: linear, a1: 0.2, a2: 0.1}}",
                                   f"d_rule: {{{{kind: explicit, values: {[0.1] * count}}}}}")
        text = text.replace("n_grid: [1024, 4096, 16384, 65536]", f"n_grid: {n_grid}")
        path, out = write_config(tmp_path, text)
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), *dry_run])
                assert (code, *capsys.readouterr()) == (
                    1, "", f"config error: d_rule.values must have M = {M} entries\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale, value", [(".inf", math.inf), ("1.0e+200", 1e200)])
    def test_noise_scale_without_a_finite_square_exits_1_at_load(self, tmp_path, capsys,
                                                                 scale, value):
        # inf once exited 2 naming a NaN embedding spectrum, 1e200 with a traceback
        noise = "noise:\n  kind: farima\n  scale: 1.0\n"
        model = "- {{kind: white, scale: 1.0}}"
        assert noise in BASE_CONFIG and model in BASE_CONFIG
        cases = [(BASE_CONFIG.replace(noise, noise.replace("1.0", scale)), ["simulate"]),
                 (BASE_CONFIG.replace(noise, noise.replace("1.0", scale)),
                  ["estimate", "--dry-run"]),
                 (BASE_CONFIG.replace(model, model.replace("1.0", scale)), ["eigencheck"])]
        for text, args in cases:
            path, out = write_config(tmp_path, text)
            code = main([*args[:1], "--config", str(path), *args[1:]])
            assert (code, *capsys.readouterr()) == (
                1, "", f"config error: scale must be > 0 with a finite square, got {value}\n")
            assert not out.exists()

    @pytest.mark.parametrize("ball, message", [
        ("{{s: .inf, p: 2.0, q: 2.0, radius: 20.0}}", "need s > max(0, 1/p - 1/2) and finite"),
        ("{{s: 2.0, p: 2.0, q: 2.0, radius: .inf}}", "ball radius must be > 0 and finite"),
    ])
    def test_infinite_besov_ball_exits_1_at_load(self, tmp_path, capsys, ball, message):
        # risk_meta.json once held Infinity and NaN, which strict JSON has not
        base = "ball: {{s: 2.0, p: 2.0, q: 2.0, radius: 20.0}}"
        assert base in BASE_CONFIG
        path, out = write_config(tmp_path, BASE_CONFIG.replace(base, f"ball: {ball}"))
        code = main(["bench", "--config", str(path), "--dry-run"])
        assert (code, *capsys.readouterr()) == (1, "", f"config error: {message}\n")

    def test_bench_reps_below_the_floor_exit_1_at_load(self, tmp_path, capsys):
        assert MIN_REPS == 30 and "  reps: 30\n" in BASE_CONFIG
        path, out = write_config(tmp_path, BASE_CONFIG.replace("  reps: 30\n", "  reps: 29\n"))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), *dry_run])
                assert (code, *capsys.readouterr()) == (
                    1, "", "config error: bench.reps must be >= 30\n")
        assert not out.exists()
        assert build_bench(load_config(write_config(tmp_path, BASE_CONFIG, "ok.yaml")[0]))[1] \
            == MIN_REPS

    @pytest.mark.parametrize("aux", ["poly7", "poly3"])
    def test_auxiliary_function_key_exits_1_at_load(self, tmp_path, capsys, aux):
        # the basis has one auxiliary function, so no config key names it
        path, out = write_config(tmp_path, BASE_CONFIG.replace(
            "estimator:\n", f"estimator:\n  aux_poly: {aux}\n"))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), *dry_run])
                assert (code, *capsys.readouterr()) == (
                    1, "", "config error: unknown keys in 'estimator': ['aux_poly']\n")
        assert not out.exists()

    def test_truth_band_above_a_design_band_exits_1_at_load(self, tmp_path, capsys):
        # design.n = 65536 has N = 256, so the alias-free band is 127
        text = (CONFIGS / "boxcar-regular.yaml").read_text()
        assert "band: 40\n" in text
        path = tmp_path / "wide-truth.yaml"
        path.write_text(text.replace("band: 40\n", "band: 200\n"))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                             *dry_run])
                out, err = capsys.readouterr()
                assert (code, out) == (1, "")
                assert err == "config error: truth band 200 exceeds alias-free band 127\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("ball: {s: 2.0,", "ball: {s: 0.4,", "rate forecast requires s > 1/p'"),
        ("  nu: 2.0\n", "  nu: 0.0\n", "regular regime requires nu > 0"),
    ], ids=["s-below-1/p'", "nu-0"])
    def test_ball_without_a_rate_forecast_exits_1_at_load(self, tmp_path, capsys, old, new,
                                                          message):
        # bench builds the forecast of its ball after the dry run, so load builds it too
        text = (CONFIGS / "boxcar-regular.yaml").read_text()
        grid = "  n_grid: [16384, 32768, 65536, 131072, 262144, 524288, 1048576]\n"
        assert grid in text and "  reps: 100\n" in text and old in text
        path = tmp_path / "no-forecast.yaml"
        path.write_text(text.replace(grid, "  n_grid: [16384, 32768]\n")
                        .replace("  reps: 100\n", "  reps: 30\n").replace(old, new))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                             *dry_run])
                assert (code, *capsys.readouterr()) == (1, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_estimation_plan_is_checked_at_load(self, tmp_path, capsys):
        path, out = write_config(tmp_path, SMALL_NSTAR_CONFIG)
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                assert main([command, "--config", str(path), *dry_run]) == 1
                std, err = capsys.readouterr()
                assert std == ""
                assert err.startswith("config error: n_star must exceed e for a level "
                                      "choice, got 2.05")
        assert not out.exists()
        # without an estimator section the design still serves eigencheck;
        # estimate, which needs levels, fails when it runs
        path, out = write_config(tmp_path, SMALL_NSTAR_CONFIG.replace(
            "estimator:\n  nu: 1.0\n", ""), name="no-estimator.yaml")
        assert main(["eigencheck", "--config", str(path)]) == 0
        assert (out / "eigen_slopes.csv").exists()
        assert main(["estimate", "--config", str(path), "--dry-run"]) == 1
        assert "n_star must exceed e" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.yaml"
        path.write_bytes(b"\xff\xfe")
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "UTF-8" in err

    def test_config_directory_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and str(tmp_path) in err


class TestKernelInputs:
    @pytest.mark.parametrize("damage", [
        "non-numeric-cell", "not-one-pair", "ragged-row", "wide-rows", "non-integer-m",
        "missing-header", "malformed-header", "non-finite-entry",
    ])
    def test_malformed_table_exits_1_naming_the_file(self, tmp_path, damage):
        table = tmp_path / "kernel.txt"
        m = np.arange(-2047, 2048)
        save_kernel_table(table, m, [0.25, 0.5, 0.75, 1.0], np.ones((m.size, 4)))
        lines = table.read_text().splitlines(keepends=True)
        row = lines[5]
        lines[5] = {
            "non-numeric-cell": row.replace("1,0", "abc", 1),
            "not-one-pair": row.replace("1,0", "1 0", 1),
            "ragged-row": row.rsplit(" ", 1)[0] + "\n",
            "wide-rows": row,
            "non-integer-m": row.replace(" ", ".5 ", 1),
            "missing-header": row,
            "malformed-header": row,
            "non-finite-entry": row.replace("1,0", "1,nan", 1),
        }[damage]
        if damage == "wide-rows":
            lines[2:] = [l.rstrip("\n") + " 1,0\n" for l in lines[2:]]
        elif damage == "missing-header":
            del lines[1]
        elif damage == "malformed-header":
            lines[1] = lines[1].replace("0.5", "0.5x")
        table.write_text("".join(lines))
        path, out = write_config(tmp_path, FINE_CONFIG.replace("{table}", str(table)))
        for args in (["simulate"], ["estimate"], ["estimate", "--dry-run"]):
            proc = run_cli([*args, "--config", str(path)], tmp_path)
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr.startswith(f"config error: kernel table {table}: ")
            assert "Traceback" not in proc.stderr
        assert not (out / "y.csv").exists()

    @pytest.mark.parametrize("kernel, message", [
        ("kind: dirichlet\n  c: 0", "c != 0"),
        ("kind: dirichlet\n  c: .nan", "must be finite"),
        ("kind: boxcar\n  q0: .nan", "must be finite"),
        ("kind: boxcar\n  q0: 1.0\n  q1: .inf", "must be finite"),
    ])
    def test_kernel_numbers_that_gave_nan_exit_1(self, tmp_path, capsys, kernel, message):
        # u in (0, 1), so the Dirichlet kernel is defined at every channel
        text = BASE_CONFIG.replace("a: 0.0, b: 1.0}", "a: 0.0, b: 0.9}")
        good, out = write_config(tmp_path, text.replace(
            "kind: boxcar\n  q0: 1.0", "kind: dirichlet\n  c: 0.8"), name="good.yaml")
        assert main(["simulate", "--config", str(good)]) == 0
        assert main(["estimate", "--config", str(good)]) == 0
        assert np.isfinite(np.loadtxt(out / "fhat_grid.csv", delimiter=",", skiprows=5)).all()
        bad, _ = write_config(tmp_path, text.replace(
            "kind: boxcar\n  q0: 1.0", kernel), name="bad.yaml")
        capsys.readouterr()
        for args in (["simulate"], ["estimate"], ["estimate", "--dry-run"]):
            assert main([*args, "--config", str(bad), "--out", str(tmp_path / "bad")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
        assert not (tmp_path / "bad").exists()

    def test_overflowing_kernel_exits_2_without_an_estimate(self, tmp_path, capsys):
        # finite entries, so the table loads, but |g|^2 overflows in the weights
        table = tmp_path / "kernel.txt"
        m = np.arange(-127, 128)
        save_kernel_table(table, m, [0.25, 0.5, 0.75, 1.0], np.full((m.size, 4), 1e200 + 0j))
        text = FINE_CONFIG.replace("{table}", str(table)).replace("n: 16384", "n: 1024")
        path, out = write_config(tmp_path, text.replace("[3, 11]", "[3, 5]"))  # M = 4, N = 256
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: deconvolution weights")
        assert not (out / "fhat_grid.csv").exists()

    def test_overflowing_channel_dft_exits_2_without_an_estimate(self, tmp_path, capsys):
        # finite observations whose row sums overflow in the real FFT
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", str(path)]) == 0
        lines = (out / "y.csv").read_text().splitlines(keepends=True)
        header = [line for line in lines if line.startswith("#")]
        assert len(lines) - len(header) == 32
        (out / "y.csv").write_text("".join(header) + (",".join(["1e307"] * 32) + "\n") * 32)
        capsys.readouterr()
        assert main(["estimate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: channel DFT")
        assert not (out / "fhat_grid.csv").exists()

    def test_overflowing_channel_dft_prints_one_line(self, tmp_path):
        # inf - inf inside the real FFT of a 1e308 row gives no numpy warning on
        # stderr, in a process without pytest's warning filters
        config = str(CONFIGS / "noiseless-exact.yaml")  # M = 1, N = 1024
        out = tmp_path / "out"
        proc = run_cli(["simulate", "--config", config, "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        header = [line for line in (out / "y.csv").read_text().splitlines(keepends=True)
                  if line.startswith("#")]
        (out / "y.csv").write_text("".join(header) + ",".join(["1e308"] * 1024) + "\n")
        proc = run_cli(["estimate", "--config", config, "--out", str(out)], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "numeric error: channel DFT: the DFT of row 0 of y is not finite at m = 0 "
                   "(N = 1024); the observations are too large\n")
        assert not (out / "fhat_grid.csv").exists()

    def test_overflowing_channel_sum_exits_2_without_an_estimate(self, tmp_path, capsys):
        # finite channel DFTs (9.6e307) whose weighted sum over 512 channels overflows
        text = BASE_CONFIG.replace("m_rule: power", "m_rule: fixed\n  M: 512").replace(
            "n: 1024", "n: 16384").replace("[1024, 4096, 16384, 65536]", "[16384]")
        path, out = write_config(tmp_path, text)  # M = 512, N = 32
        assert main(["simulate", "--config", str(path)]) == 0
        lines = (out / "y.csv").read_text().splitlines(keepends=True)
        header = [line for line in lines if line.startswith("#")]
        assert len(lines) - len(header) == 512
        (out / "y.csv").write_text("".join(header) + (",".join(["3e306"] * 32) + "\n") * 512)
        capsys.readouterr()
        assert main(["estimate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: deconvolution: the weighted sum over "
                                       "the 512 channels is not finite at m = ")
        assert not (out / "fhat_grid.csv").exists()

    def test_subnormal_memory_exponent_gives_finite_data(self, tmp_path):
        text = BASE_CONFIG.replace("{{kind: linear, a1: 0.2, a2: 0.1}}",
                                   "{{kind: constant, value: 1.0e-310}}")
        path, out = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(path)]) == 0
        y = np.loadtxt(out / "y.csv", delimiter=",")
        assert y.shape == (32, 32) and np.isfinite(y).all()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_config_dry_runs(path, tmp_path, capsys):
    # a command whose section the config lacks exits 1 and names the section
    plans = SHIPPED_DRY_RUNS[path.stem]
    for command in COMMANDS:
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"])
        out, err = capsys.readouterr()
        if command in plans:
            assert (code, out, err) == (0, plans[command] + "\n", "")
        else:
            assert code == 1 and out == "" and err.startswith("config error:")
            assert "section" in err
    assert not (tmp_path / "out").exists()


def test_supersmooth_override_dry_run(tmp_path, capsys):
    # a super-smooth plan with J > j0 keeps levels j0..J-1: the projection at level J
    path = tmp_path / "override.yaml"
    text = (CONFIGS / "heat-supersmooth-d0.yaml").read_text()
    path.write_text(text.replace("  beta: 2.0\n", "  beta: 2.0\n  level_override: [1, 4]\n"))
    golden = SHIPPED_DRY_RUNS["heat-supersmooth-d0"]["bench"]
    assert main(["bench", "--config", str(path), "--dry-run"]) == 0
    assert capsys.readouterr() == (golden.replace(
        "J=1 (linear estimator, no detail levels)",
        "J=4 (linear estimator at level 4: levels 1..3 unthresholded)") + "\n", "")
    assert main(["estimate", "--config", str(path), "--dry-run"]) == 0
    assert capsys.readouterr().out == "estimate: n*=65536 j0=1 J=4\n"


def test_every_command_runs_without_scipy(tmp_path):
    # the package needs numpy and PyYAML only: with scipy unimportable, every
    # command exits 0, eigencheck on FARIMA and fGn models included
    text = BASE_CONFIG.replace("  n_list: [64, 128, 256]\n",
                               "    - {{kind: fgn, hurst: 0.6, scale: 1.0}}\n"
                               "    - {{kind: fgn, hurst: 0.9, scale: 1.0}}\n"
                               "  n_list: [64, 128]\n")
    path, _ = write_config(tmp_path, text)
    assert [m.kind for m in build_eigencheck(load_config(path))[0]] == [
        "white", "farima", "fgn", "fgn"]
    probe = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "from lrdeconv.cli import main\n"
             "print(main(sys.argv[1:]))\n")
    for command in COMMANDS:
        for dry_run in ([], ["--dry-run"]):
            args = [command, *dry_run, "--config", str(path)]
            proc = run_python(["-c", probe, *args], tmp_path)
            assert proc.returncode == 0, (args, proc.stderr)
            assert proc.stdout.splitlines()[-1] == "0", args


class TestSimulateEstimate:
    def test_byte_identical_reruns(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", str(path)]) == 0
        first = (out / "y.csv").read_bytes()
        out2 = tmp_path / "out2"
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        assert (out2 / "y.csv").read_bytes() == first

    def test_seed_override_changes_data(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", str(path)]) == 0
        first = (out / "y.csv").read_bytes()
        assert main(["simulate", "--config", str(path), "--seed", "99"]) == 0
        assert (out / "y.csv").read_bytes() != first

    def test_y_csv_rows_are_17g_of_the_simulation(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", str(path)]) == 0
        cfg = load_config(path)
        y = simulate_observations(build_truth(cfg), design_for_n(cfg, 1024),
                                  build_kernel(cfg), cfg.seed)
        text = (out / "y.csv").read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert lines[:len(header)] == header
        assert f"# config_hash={config_hash(cfg)}" in header
        assert lines[len(header):] == [",".join("%.17g" % v for v in row) for row in y]
        assert _load_y(out / "y.csv", cfg).tobytes() == y.tobytes()  # parsed bit for bit

    @pytest.mark.filterwarnings("ignore:loadtxt")  # header-only: "input contained no data"
    @pytest.mark.parametrize("damage", ["ragged", "non-numeric", "header-only", "nan", "inf"])
    def test_malformed_y_csv_exit_1_names_the_file(self, tmp_path, capsys, damage):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", str(path)]) == 0
        y_csv = out / "y.csv"
        lines = y_csv.read_text().splitlines(keepends=True)
        header = [l for l in lines if l.startswith("#")]
        data = lines[len(header):]
        if damage == "ragged":
            data[3] = data[3].rsplit(",", 1)[0] + "\n"
        elif damage == "non-numeric":
            data[3] = "abc," + data[3].split(",", 1)[1]
        elif damage == "header-only":
            data = []
        else:
            data[3] = data[3].split(",", 1)[0] + f",{damage}," + data[3].split(",", 2)[2]
        y_csv.write_text("".join(header + data))
        capsys.readouterr()
        assert main(["estimate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(y_csv) in err
        if damage in ("ragged", "non-numeric"):
            assert "row" in err
        if damage in ("nan", "inf"):
            assert err.endswith(": entries must be finite\n")
            assert not (out / "fhat_grid.csv").exists()

    def test_manifest_contents(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        main(["simulate", "--config", str(path)])
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = load_config(path)
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == 321
        assert manifest["command"] == "simulate"

    def test_hash_mismatch_rejected(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        main(["simulate", "--config", str(path)])
        other_text = BASE_CONFIG.replace("band: 8", "band: 9")
        other, _ = write_config(tmp_path, other_text, name="other.yaml", out=out)
        assert main(["estimate", "--config", str(other)]) == 1

    def test_noiseless_pipeline_recovers_truth(self, tmp_path):
        path, out = write_config(tmp_path, NOISELESS_CONFIG)
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["estimate", "--config", str(path)]) == 0
        truth = np.loadtxt(out / "truth_grid.csv", delimiter=",", skiprows=5)
        fhat = np.loadtxt(out / "fhat_grid.csv", delimiter=",", skiprows=5)
        rel = np.sum((truth[:, 2] - fhat[:, 2]) ** 2) / np.sum(truth[:, 2] ** 2)
        assert rel <= 1e-9

    def test_diagnostics_list_ill_posed_for_divisible_boxcar(self, tmp_path):
        text = NOISELESS_CONFIG.replace("M: 1", "M: 8").replace(
            "values: [0.37]", "values: [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]"
        ).replace("level_override: [3, 7]", "level_override: [3, 6]")
        path, out = write_config(tmp_path, text)
        main(["simulate", "--config", str(path)])
        main(["estimate", "--config", str(path)])
        diag = (out / "diagnostics.csv").read_text()
        assert "ill_posed_m,4" in diag or "ill_posed_m,-4" in diag

    @pytest.mark.parametrize("config, warned", [("boxcar-regular", True),
                                                ("noiseless-exact", False)])
    def test_diagnostics_list_level_warnings(self, tmp_path, config, warned):
        path = CONFIGS / f"{config}.yaml"
        for command in ("simulate", "estimate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        body = [l for l in (tmp_path / "diagnostics.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert body[0] == "key,value"
        assert [r.split(",")[0] for r in body[1:6]] == [
            "epsilon_n", "n_star", "j0", "J", "n_ill_posed"]
        assert all(len(r.split(",")) == 2 for r in body)
        rows = [l for l in body if l.startswith("warning,")]
        if warned:
            # boxcar-regular at n = 65536: j0 = 3 exceeds J = 2
            assert [r.split(",") for r in rows] == [
                ["warning", "j0 = 3 exceeds J = 2; clamped (estimator is linear)"]]
        else:
            assert rows == []

    def test_block_counts_are_the_decisions_per_level(self, tmp_path):
        # a table kernel (1 + |m|)^(-1/2) and a narrow bump at levels 3..11: some
        # blocks are kept and others killed
        table = tmp_path / "kernel.txt"
        m = np.arange(-2047, 2048)
        u = [0.25, 0.5, 0.75, 1.0]
        save_kernel_table(table, m, u, np.outer((1.0 + np.abs(m)) ** -0.5, np.ones(len(u))))
        text = FINE_CONFIG.replace("{table}", str(table)).replace(
            "kind: smooth_sine\n  band: 8\n  params: {{freq: 3}}",
            "kind: bump_mix\n  band: 600\n  params: {{centers: [0.3], widths: [0.004], "
            "weights: [1.0]}}")
        path, out = write_config(tmp_path, text)
        for command in ("simulate", "estimate"):
            assert main([command, "--config", str(path)]) == 0
        decisions = np.loadtxt(out / "decisions.csv", delimiter=",", skiprows=5)
        level, kept = decisions[:, 0].astype(int), decisions[:, 4].astype(int)
        assert 0 < kept.sum() < len(kept)
        body = [l.split(",") for l in (out / "diagnostics.csv").read_text().splitlines()
                if not l.startswith("#")]
        levels = range(3, 11)
        assert body[6:] == (
            [[f"kept_blocks_j{j}", str(kept[level == j].sum())] for j in levels]
            + [[f"total_blocks_j{j}", str((level == j).sum())] for j in levels])
        assert [r[0] for r in body[:6]] == [
            "key", "epsilon_n", "n_star", "j0", "J", "n_ill_posed"]
        assert body[5] == ["n_ill_posed", "0"]
        # every detail coefficient names its block of ceil(ln n) = 10 and that
        # block's decision, and a killed block is zero
        kept_by_block = {(int(j), int(r)): int(k) for j, r, k in decisions[:, [0, 1, 4]]}
        rows = [l.split(",") for l in (out / "coefficients.csv").read_text().splitlines()
                if l.startswith("b,")]
        assert len(rows) == 2 ** 11 - 2 ** 3
        length = math.ceil(math.log(16384))
        for _, j, k, value, block, keep in rows:
            assert int(block) == int(k) // length + 1
            assert int(keep) == kept_by_block[int(j), int(block)]
            if not int(keep):
                assert float(value) == 0.0
        assert {(int(r[1]), int(r[4])) for r in rows} == set(kept_by_block)

    def test_linear_estimate_at_n_2_writes_its_coefficients(self, tmp_path):
        # no detail level, so no block length is needed: ceil(ln n) needs n >= 3
        path, out = write_config(tmp_path, TINY_CONFIG)
        for command in ("simulate", "estimate"):
            assert main([command, "--config", str(path)]) == 0
        rows = [l.split(",") for l in (out / "coefficients.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert [r[:3] + r[4:] for r in rows] == [
            ["type", "j", "k", "block", "kept"], ["a", "0", "0", "0", "1"]]

    def test_dry_run_prints_plan_without_output(self, tmp_path, capsys):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["bench", "--config", str(path), "--dry-run"]) == 0
        text = capsys.readouterr().out
        assert "j0=" in text and "J=" in text
        assert not out.exists()


class TestLevelOverride:
    def test_override_above_the_band_exits_1(self, tmp_path, capsys):
        # M = 4 channels of N = 4096 and a table kernel: J may be at most 11
        m = np.arange(-2047, 2048)
        u = [0.25, 0.5, 0.75, 1.0]
        save_kernel_table(tmp_path / "kernel.txt", m, u,
                          np.outer((1.0 + np.abs(m)) ** -0.5, np.ones(len(u))))
        text = FINE_CONFIG.replace("{table}", str(tmp_path / "kernel.txt"))
        path, _ = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(path)]) == 0
        bad, _ = write_config(tmp_path, text.replace("[3, 11]", "[3, 12]"), name="bad.yaml")
        capsys.readouterr()
        for command in ("simulate", "estimate"):
            assert main([command, "--config", str(bad)]) == 1
            assert "level_override J = 12" in capsys.readouterr().err

    def test_estimate_dry_run_prints_the_override(self, capsys):
        config = Path(__file__).resolve().parent.parent / "configs" / "noiseless-exact.yaml"
        assert main(["estimate", "--config", str(config), "--dry-run"]) == 0
        assert "j0=3 J=7" in capsys.readouterr().out


class TestBenchCommand:
    def test_no_fit_writes_null(self, tmp_path, capsys):
        # two grid points: too few for a rate fit, but the risks are valid
        config = Path(__file__).resolve().parent.parent / "configs" / "noiseless-exact.yaml"
        text = config.read_text().replace("scale: 1.0e-300", "scale: 1.0")
        text += "bench:\n  n_grid: [1024, 2048]\n  reps: 30\n"
        path = tmp_path / "two-point.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
        meta = read_strict_json(out / "risk_meta.json")
        assert meta["fitted_slope"] is None
        assert meta["fitted_slope_se"] is None and meta["r_squared"] is None
        summary = (out / "summary.txt").read_text()
        assert "no rate fitted" in summary and "at least 4 grid points" in summary
        rows = [l for l in (out / "risk_report.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 3

    def test_bench_outputs(self, tmp_path, capsys):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["bench", "--config", str(path), "--dry-run"]) == 0
        dry_lines = capsys.readouterr().out.splitlines()
        assert main(["bench", "--config", str(path)]) == 0
        report = (out / "risk_report.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(report) if not l.startswith("#"))
        assert report[header_idx] == "n,M,N,n_star,risk_mean,risk_se,reps"
        assert len(report) - header_idx - 1 == 4
        meta = read_strict_json(out / "risk_meta.json")
        assert meta["forecast"]["exponent"] == pytest.approx(4.0 / 9.0)
        assert "besov_certificate" in meta
        assert meta["regressor"] == "log_nstar"
        gap = meta["fitted_slope"] + meta["forecast"]["exponent"]
        assert f"slope gap: {gap:+.4f}" in (out / "summary.txt").read_text().splitlines()
        curve = [l for l in (out / "risk_curve.dat").read_text().splitlines()
                 if not l.startswith("#")]
        rows = [l.split(",") for l in report[header_idx + 1:]]
        xs = np.log([float(r[3]) for r in rows])  # log n*, the log_nstar regressor
        ys = np.log([float(r[4]) for r in rows])  # log risk_mean
        assert curve == ["%.17g %.17g" % (x, y) for x, y in zip(xs, ys)]
        # the plan per grid point, with the clamp warnings that the dry run does not print
        plan = meta["plan"]
        assert [(p["n"], p["M"], p["N"], p["n_star"]) for p in plan] == [
            (int(r[0]), int(r[1]), int(r[2]), float(r[3])) for r in rows]
        assert [(p["j0"], p["J"]) for p in plan] == [(1, 1), (1, 1), (2, 2), (2, 2)]
        assert [p["warnings"] for p in plan] == [
            ["j0 = 2 exceeds J = 1; clamped (estimator is linear)"],
            ["j0 = 3 exceeds J = 1; clamped (estimator is linear)"],
            ["j0 = 3 exceeds J = 2; clamped (estimator is linear)"],
            ["j0 = 3 exceeds J = 2; clamped (estimator is linear)"]]
        assert [line.split(" j0=")[0] for line in dry_lines] == [
            f"n={p['n']} M={p['M']} N={p['N']} n*={p['n_star']:.6g}" for p in plan]

    def test_plan_counts_the_ill_posed_frequencies_from_the_cache(self, tmp_path, capsys,
                                                                  monkeypatch):
        text = (CONFIGS / "heat-supersmooth-d04.yaml").read_text()
        path, out = tmp_path / "cut.yaml", tmp_path / "out"
        path.write_text(re.sub(r"n_grid: \[.*\]", "n_grid: [16384, 32768]", text)
                        .replace("reps: 150", "reps: 30"))
        cfg = load_config(path)
        kernel, est = build_kernel(cfg), build_estimator_config(cfg)
        want = []
        for n in build_bench(cfg)[0]:
            design = design_for_n(cfg, n)
            y = np.zeros((design.M, design.N))
            want.append(len(fourier_deconvolve(y, design, kernel, est.denom_tol)[1]))
        assert want == [114, 242]  # of the full bands |m| <= 63 and 127
        # no kernel value is evaluated while the counts are read
        reading, during = [], []
        kernel_fourier, count = estimator.kernel_fourier, estimator.ill_posed_frequencies

        def counting_kernel(*args):
            during.append(bool(reading))
            return kernel_fourier(*args)

        def read(*args):
            reading.append(None)
            try:
                return count(*args)
            finally:
                reading.pop()

        monkeypatch.setattr(estimator, "kernel_fourier", counting_kernel)
        monkeypatch.setattr("lrdeconv.cli.ill_posed_frequencies", read)
        estimator._deconvolution_weights.cache_clear()
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
        assert [p["ill_posed"] for p in read_strict_json(out / "risk_meta.json")["plan"]] == want
        assert during and not any(during)

    def test_one_progress_line_per_grid_point_and_the_rows_of_one_call(self, tmp_path, capsys,
                                                                       monkeypatch):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["bench", "--config", str(path)]) == 0
        lines = capsys.readouterr().err.splitlines()
        cfg = load_config(path)
        n_grid, reps, _ = build_bench(cfg)
        est = build_estimator_config(cfg)
        plans = [plan(design_for_n(cfg, n), est) for n in n_grid]
        assert len(lines) == len(plans) == 4
        for line, p in zip(lines, plans):
            assert re.fullmatch(rf"bench: n={p.n} M={p.M} N={p.N} j0={p.j0} J={p.J} "
                                r"\d+\.\d\d s", line)
        # the same command with the rows of a single mc_risk call over the grid
        rows = {}

        def rows_of_one_call(truth, design_for_n, kernel, config, grid, *args, **kwargs):
            if not rows:
                report = mc_risk(truth, design_for_n, kernel, config, n_grid, *args, **kwargs)
                rows.update((row[0], row) for row in report.rows)
            return RiskReport([rows[n] for n in grid])

        monkeypatch.setattr("lrdeconv.cli.mc_risk", rows_of_one_call)
        single = tmp_path / "single"
        assert main(["bench", "--config", str(path), "--out", str(single)]) == 0
        assert sorted(rows) == n_grid
        for name in ("risk_report.csv", "risk_curve.dat", "risk_meta.json"):
            assert (out / name).read_bytes() == (single / name).read_bytes()

    def test_supersmooth_fit_is_against_log_ln_nstar(self, tmp_path, capsys):
        text = (CONFIGS / "heat-supersmooth-d04.yaml").read_text()
        grid = "n_grid: [16384, 32768, 65536, 131072, 262144, 524288, 1048576, 2097152]"
        assert grid in text and "reps: 150" in text
        path = tmp_path / "cut.yaml"
        path.write_text(text.replace(grid, "n_grid: [16384, 32768, 65536, 131072]")
                        .replace("reps: 150", "reps: 30"))
        out = tmp_path / "out"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "risk_meta.json").read_text())
        assert meta["regressor"] == "log_log_nstar"
        assert meta["forecast"]["regime"] == "supersmooth"
        gap = meta["fitted_slope"] + meta["forecast"]["log_exponent"]
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[0].startswith(
            "experiment heat-supersmooth-d04: fitted slope of log risk vs log_log_nstar = ")
        assert f"slope gap: {gap:+.4f}" in summary
        rows = [l.split(",") for l in (out / "risk_report.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        xs = np.log(np.log([float(r[3]) for r in rows]))
        ys = np.log([float(r[4]) for r in rows])
        curve = [l for l in (out / "risk_curve.dat").read_text().splitlines()
                 if not l.startswith("#")]
        assert curve == ["%.17g %.17g" % (x, y) for x, y in zip(xs, ys)]

    def test_regressor_is_not_a_key(self, tmp_path, capsys):
        # the fit axis follows the regime, so a config cannot choose it
        text = BASE_CONFIG.replace("  reps: 30\n", "  reps: 30\n  regressor: log_log_nstar\n")
        path, out = write_config(tmp_path, text)
        assert main(["bench", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown keys in 'bench': ['regressor']\n")
        assert not out.exists()

    def test_threads_reproducibility(self, tmp_path, monkeypatch):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["bench", "--config", str(path), "--threads", "1"]) == 0
        first = (out / "risk_report.csv").read_bytes()
        monkeypatch.setenv("LRD_DECONV_THREADS", "3")
        out2 = tmp_path / "out3"
        assert main(["bench", "--config", str(path), "--out", str(out2)]) == 0
        assert (out2 / "risk_report.csv").read_bytes() == first

    def test_table_coverage_is_checked_before_any_replicate(self, tmp_path, capsys,
                                                           monkeypatch):
        # the table covers N = 4096 (n = 16384) but not N = 8192 (n = 32768)
        table = tmp_path / "kernel.txt"
        m = np.arange(-2047, 2048)
        save_kernel_table(table, m, [0.25, 0.5, 0.75, 1.0], np.ones((m.size, 4)))
        text = FINE_CONFIG.replace("{table}", str(table))
        path, out = write_config(tmp_path, text + "bench:\n  n_grid: [16384, 32768]\n"
                                                  "  reps: 30\n")
        calls = []
        monkeypatch.setattr("lrdeconv.cli.mc_risk", lambda *a, **k: calls.append(a))
        for args in (["bench", "--dry-run"], ["bench"]):
            assert main([*args, "--config", str(path)]) == 1
            out_text, err = capsys.readouterr()
            assert out_text == ""
            assert err == "config error: kernel table has no row for m = -4095\n"
        assert calls == [] and not (out / "risk_report.csv").exists()
        covered, _ = write_config(tmp_path, text + "bench:\n  n_grid: [16384]\n  reps: 30\n",
                                  name="covered.yaml")
        assert main(["bench", "--dry-run", "--config", str(covered)]) == 0

    def test_table_coverage_check_evaluates_no_kernel_value(self, tmp_path, capsys,
                                                           monkeypatch):
        # it once built the M x (N - 1) kernel matrix only to raise on a gap
        m = np.arange(-2047, 2048)
        bench = "bench:\n  n_grid: [16384]\n  reps: 30\n"
        calls = []
        monkeypatch.setattr("lrdeconv.channels._table_lookup", lambda *a: calls.append(a))
        for u, code, err in (([0.25, 0.5, 0.75, 1.0], 0, ""),
                             ([0.25, 0.5, 0.75, 0.9], 1,
                              "config error: kernel table has no column for u = 1.0\n")):
            table = tmp_path / "kernel.txt"
            save_kernel_table(table, m, u, np.ones((m.size, 4)))
            path, _ = write_config(tmp_path, FINE_CONFIG.replace("{table}", str(table)) + bench)
            assert main(["bench", "--dry-run", "--config", str(path)]) == code
            assert capsys.readouterr().err == err
        assert calls == []


class TestEigencheckCommand:
    @pytest.mark.parametrize("n_list, message", [
        ("[64]", "needs at least two distinct sizes"),
        ("[64, 64]", "needs at least two distinct sizes"),
        ("[1, 64]", "entries must be >= 2"),
    ])
    def test_n_list_that_fits_no_slope_exits_1_at_load(self, tmp_path, capsys,
                                                       n_list, message):
        text = BASE_CONFIG.replace("n_list: [64, 128, 256]", f"n_list: {n_list}")
        path, out = write_config(tmp_path, text)
        for args in (["eigencheck"], ["simulate", "--dry-run"]):
            assert main([*args, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: eigencheck.n_list {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        pytest.param("{{kind: farima, d: 0.1, hurst: 0.9}}",
                     "noise model: hurst is the fgn parameter, not read for kind 'farima'",
                     id="farima-with-hurst"),
        pytest.param("{{kind: white, hurst: 0.9}}",
                     "noise model: hurst is the fgn parameter, not read for kind 'white'",
                     id="white-with-hurst"),
        pytest.param("{{kind: fgn, hurst: 0.6, d: 0.3}}",
                     "noise model: give d or hurst, not both (hurst = d + 1/2)",
                     id="fgn-with-hurst-and-d"),
    ])
    def test_noise_model_key_the_kind_does_not_read_exits_1_at_load(self, tmp_path, capsys,
                                                                     spec, message):
        text = BASE_CONFIG.replace("{{kind: white, scale: 1.0}}", spec)
        path, out = write_config(tmp_path, text)
        for args in (["eigencheck"], ["eigencheck", "--dry-run"], ["simulate", "--dry-run"]):
            assert main([*args, "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_white_model_with_memory_exits_1_at_load(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("{{kind: white, scale: 1.0}}",
                                   "{{kind: white, d: 0.25, scale: 1.0}}")
        path, _ = write_config(tmp_path, text)
        for args in (["eigencheck"], ["simulate", "--dry-run"]):
            assert main([*args, "--config", str(path)]) == 1
            assert capsys.readouterr().err == "config error: white noise requires d = 0\n"
        zero, _ = write_config(tmp_path, text.replace("d: 0.25, ", "d: 0.0, "), name="zero.yaml")
        assert main(["eigencheck", "--dry-run", "--config", str(zero)]) == 0

    def test_table_kernel_with_unknown_key_exits_1_without_reading_the_table(self, tmp_path,
                                                                            capsys):
        # the table file does not exist, so reading it would exit 3
        text = FINE_CONFIG.replace("{table}", str(tmp_path / "missing.txt")) + (
            "eigencheck:\n  models:\n    - {{kind: white}}\n  n_list: [64, 128]\n")
        good, _ = write_config(tmp_path, text, name="good.yaml")
        assert main(["eigencheck", "--dry-run", "--config", str(good)]) == 0
        bad, out = write_config(
            tmp_path, text.replace("  table_path:", "  bogus: 1\n  table_path:"), name="bad.yaml")
        capsys.readouterr()
        assert main(["eigencheck", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == "config error: unknown keys in 'kernel': ['bogus']\n"
        assert not out.exists()

    def test_fgn_given_by_d_writes_its_two_d(self, tmp_path):
        # d = 0.1 once came back from H = 0.6 as 0.09999999999999998, and the
        # two_d cell read 0.19999999999999996
        text = BASE_CONFIG.replace("{{kind: farima, d: 0.25, scale: 1.0}}",
                                   "{{kind: fgn, d: 0.1, scale: 1.0}}")
        path, out = write_config(tmp_path, text)
        models, _ = build_eigencheck(load_config(path))
        assert [(model.kind, model.d) for model in models] == [("white", 0.0), ("fgn", 0.1)]
        assert main(["eigencheck", "--config", str(path)]) == 0
        rows = [line.split(",") for line in (out / "eigen_slopes.csv").read_text().splitlines()
                if line.startswith("fgn")]
        assert [(row[0], float(row[3])) for row in rows] == [("fgn(d=0.1;scale=1)", 0.2)]

    def test_output_sorted_and_white_ratio_one(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["eigencheck", "--config", str(path)]) == 0
        lines = [l for l in (out / "eigen_scaling.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        labels = [l.split(",")[0] for l in lines]
        assert labels == sorted(labels)
        ns = [int(l.split(",")[1]) for l in lines]
        assert ns == sorted(ns[:3]) + sorted(ns[3:])
        white = [l for l in lines if l.startswith("white")]
        for line in white:
            parts = line.split(",")
            assert float(parts[4]) == pytest.approx(1.0, abs=1e-10)
            assert float(parts[5]) == pytest.approx(1.0, abs=1e-10)

    def test_farima_slope_column(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        main(["eigencheck", "--config", str(path)])
        lines = [l for l in (out / "eigen_slopes.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        farima = next(l for l in lines if l.startswith("farima"))
        slope_max = float(farima.split(",")[1])
        assert slope_max == pytest.approx(0.5, abs=0.15)


class TestCharacterizeCommand:
    def test_boxcar_fit(self, tmp_path):
        path, out = write_config(tmp_path, BASE_CONFIG)
        assert main(["characterize", "--config", str(path)]) == 0
        line = [l for l in (out / "kernel_fit.csv").read_text().splitlines()
                if not l.startswith("#")][1]
        nu = float(line.split(",")[0])
        regime = line.split(",")[4]
        assert regime == "regular"
        assert nu == pytest.approx(2.0, abs=0.35)

    @pytest.mark.parametrize("m_min, m_max", [
        pytest.param(20, 10, id="reversed"),
        pytest.param(4, 10, id="seven-points"),
        pytest.param(10, 17, id="no-octave"),
        pytest.param(-3, 8, id="seven-points-from-2"),
        pytest.param(8, 128, id="above-the-band"),
        pytest.param(-128, 64, id="below-minus-the-band"),
    ])
    def test_bad_range_exits_1_at_load(self, tmp_path, capsys, m_min, m_max):
        # boxcar-regular's design.n = 65536 has N = 256 samples per channel: band 127
        if max(-m_min, m_max) > 127:
            message = (f"characterize range {m_min}..{m_max} leaves the alias-free band "
                       "|m| <= N/2 - 1 = 127")
        else:  # the rule that characterize_kernel applies
            message = "m_range must span at least one dyadic octave with m >= 2"
        text = (CONFIGS / "boxcar-regular.yaml").read_text()
        assert "  m_min: 8\n  m_max: 64\n" in text
        path = tmp_path / "range.yaml"
        path.write_text(text.replace("  m_min: 8\n  m_max: 64\n",
                                     f"  m_min: {m_min}\n  m_max: {m_max}\n"))
        for command in COMMANDS:
            for dry_run in ([], ["--dry-run"]):
                code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                             *dry_run])
                assert (code, *capsys.readouterr()) == (1, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_degenerate_fit_exit_code(self, tmp_path, capsys):
        # heat kernel far from the boundary: every g_m underflows to zero
        text = BASE_CONFIG.replace("kind: boxcar", "kind: heat").replace(
            "u_rule: {{kind: equispaced, a: 0.0, b: 1.0}}",
            "u_rule: {{kind: equispaced, a: 1.0, b: 2.0}}",
        ).replace("d_rule: {{kind: linear, a1: 0.2, a2: 0.1}}",
                  "d_rule: {{kind: constant, value: 0.0}}").replace(
            "noise:\n  kind: farima", "noise:\n  kind: white")
        path, out = write_config(tmp_path, text)
        assert main(["characterize", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("numeric error:")
