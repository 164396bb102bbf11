"""Configuration files: a single YAML document with nested sections.

The same file drives every subcommand, and every section is checked when the
file is loaded, whichever command loads it: a config is checked by building
what it describes.  Parsing is strict: unknown keys and constraint
violations raise ConfigError with the violated constraint named, and
``parse(serialize(config)) == config`` holds exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .channels import (
    D_MAX,
    BlurKernel,
    ChannelDesign,
    epsilon_n,
    load_kernel_table,
    require_alias_free,
)
from .errors import ConfigError
from .estimator import EstimatorConfig, choose_levels
from .fourier import FourierSeries
from .noise import DENSE_EIGEN_LIMIT, NoiseModel
from .riskbench import BesovBall, make_test_function

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "serialize_config",
    "config_hash",
    "design_for_n",
    "build_kernel",
    "build_truth",
    "build_estimator_config",
    "build_ball",
]


def _require(mapping: dict, key: str, section: str):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"missing required key '{section}.{key}'")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set, section: str):
    extra = set(mapping) - allowed
    if extra:
        raise ConfigError(f"unknown keys in '{section}': {sorted(extra)}")


@dataclass
class RunConfig:
    """Validated configuration document."""

    experiment: str
    seed: int
    output_dir: str
    design: dict
    noise: dict
    kernel: dict
    truth: dict | None = None
    estimator: dict = field(default_factory=dict)
    bench: dict | None = None
    eigencheck: dict | None = None
    characterize: dict | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "experiment": self.experiment,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "design": self.design,
            "noise": self.noise,
            "kernel": self.kernel,
        }
        for key in ("truth", "estimator", "bench", "eigencheck", "characterize"):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out


def parse_config(text: str) -> RunConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")
    _check_keys(raw, {"experiment", "seed", "output_dir", "design", "noise", "kernel",
                      "truth", "estimator", "bench", "eigencheck", "characterize"}, "<root>")
    try:
        cfg = RunConfig(
            experiment=str(_require(raw, "experiment", "<root>")),
            seed=int(_require(raw, "seed", "<root>")),
            output_dir=str(_require(raw, "output_dir", "<root>")),
            design=dict(_require(raw, "design", "<root>")),
            noise=dict(_require(raw, "noise", "<root>")),
            kernel=dict(_require(raw, "kernel", "<root>")),
            truth=dict(raw["truth"]) if raw.get("truth") else None,
            estimator=dict(raw.get("estimator") or {}),
            bench=dict(raw["bench"]) if raw.get("bench") else None,
            eigencheck=dict(raw["eigencheck"]) if raw.get("eigencheck") else None,
            characterize=dict(raw["characterize"]) if raw.get("characterize") else None,
        )
        validate_config(cfg)
    except (TypeError, ValueError) as exc:  # a value of the wrong type or form
        raise ConfigError(f"malformed config value: {exc}") from exc
    return cfg


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def validate_config(cfg: RunConfig):
    """Check a config by building what it describes.

    The builders hold the model's rules (NoiseModel, ChannelDesign,
    BlurKernel, EstimatorConfig, BesovBall, make_test_function), so this
    checks the keys and the few rules no builder makes, then builds the
    design at ``design.n`` and at every ``bench.n_grid`` point and each
    object the commands build, and checks the truth's band against every
    design built.  The kernel table is not read here: the
    commands read it, and a missing one is an I/O failure.
    """
    if cfg.seed < 0 or cfg.seed >= 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    design = cfg.design
    _check_keys(design, {"n", "theta", "m_rule", "M", "u_rule", "d_rule"}, "design")
    _check_keys(dict(design.get("u_rule") or {}), {"kind", "a", "b", "values"}, "design.u_rule")
    _check_keys(dict(design.get("d_rule") or {}), {"kind", "value", "a1", "a2", "values"},
                "design.d_rule")
    _check_keys(cfg.noise, {"kind", "scale"}, "noise")

    _check_keys(cfg.kernel, {"kind", "c", "q0", "q1", "table_path"}, "kernel")
    if cfg.kernel.get("kind") != "table":
        build_kernel(cfg)
    elif not cfg.kernel.get("table_path"):
        raise ConfigError("kernel.kind=table requires kernel.table_path")

    truth = None
    if cfg.truth is not None:
        _check_keys(cfg.truth, {"kind", "band", "amplitude", "params"}, "truth")
        truth = build_truth(cfg)

    _check_keys(cfg.estimator, {"mu", "nu", "lambda1", "alpha1", "beta",
                                "denom_tol", "level_override"}, "estimator")
    est = build_estimator_config(cfg)
    sizes = [_require(design, "n", "design")]

    if cfg.bench is not None:
        _check_keys(cfg.bench, {"n_grid", "reps", "ball"}, "bench")
        n_grid = _require(cfg.bench, "n_grid", "bench")
        if len(n_grid) < 1:
            raise ConfigError("bench.n_grid must be nonempty")
        sizes += n_grid
        if int(cfg.bench.get("reps", 100)) < 30:
            raise ConfigError("bench.reps must be >= 30")
        if cfg.bench.get("ball"):
            build_ball(cfg)

    for n in sizes:
        built = design_for_n(cfg, int(n))
        if truth is not None:
            require_alias_free(truth, built)
        if est.level_override is not None:
            choose_levels(epsilon_n(built)[1], est, built.N)  # raises above the band

    if cfg.eigencheck is not None:
        _check_keys(cfg.eigencheck, {"models", "n_list"}, "eigencheck")
        eigencheck_models(cfg)
        for n in _require(cfg.eigencheck, "n_list", "eigencheck"):
            if int(n) > DENSE_EIGEN_LIMIT:
                raise ConfigError(f"eigencheck.n_list entries must be <= {DENSE_EIGEN_LIMIT}")

    if cfg.characterize is not None:
        _check_keys(cfg.characterize, {"m_min", "m_max"}, "characterize")
        for value in cfg.characterize.values():
            int(value)  # cmd_characterize converts them the same way


def _noise_model(kind, d: float, scale: float) -> NoiseModel:
    """The noise law of a channel with memory exponent d (fGn: Hurst index d + 1/2)."""
    if kind == "white" and d != 0.0:
        raise ConfigError("noise.kind=white requires all d_l = 0 (white noise has d = 0)")
    if kind == "fgn":
        return NoiseModel.fgn(d + 0.5, scale)
    return NoiseModel(kind, d, scale)  # NoiseModel rejects any other kind


def _noise_model_from(spec: dict) -> NoiseModel:
    _check_keys(spec, {"kind", "d", "hurst", "scale"}, "noise model")
    kind = spec.get("kind")
    scale = float(spec.get("scale", 1.0))
    if kind == "fgn" and "hurst" in spec:
        return NoiseModel.fgn(float(spec["hurst"]), scale)
    if kind in ("farima", "fgn"):
        return _noise_model(kind, float(_require(spec, "d", "noise model")), scale)
    return _noise_model(kind, 0.0, scale)  # white reads no d; NoiseModel rejects other kinds


def _split_n(cfg: RunConfig, n: int) -> tuple[int, int]:
    """(M, N) for total sample count n under the design's channel rule."""
    k = math.log2(n)
    if abs(k - round(k)) > 1e-9:
        raise ConfigError(f"total sample count n must be a power of 2, got {n}")
    k = int(round(k))
    m_rule = cfg.design.get("m_rule", "power")
    if m_rule == "power":
        theta = float(_require(cfg.design, "theta", "design"))
        if not 0.0 <= theta < 1.0:
            raise ConfigError("design.theta must satisfy 0 <= theta < 1")
        exp_n = int(math.floor((1.0 - theta) * k + 0.5))
        exp_n = min(max(exp_n, 1), k)
        return 2 ** (k - exp_n), 2 ** exp_n
    if m_rule != "fixed":
        raise ConfigError("design.m_rule must be 'power' or 'fixed'")
    M = int(_require(cfg.design, "M", "design"))
    if M < 1:
        raise ConfigError("design.M must be >= 1")
    if n % M:
        raise ConfigError(f"design.M = {M} does not divide n = {n}")
    N = n // M
    if N < 2 or N & (N - 1):
        raise ConfigError(f"samples per channel N = n/M = {N} must be a power of 2")
    return M, N


def design_for_n(cfg: RunConfig, n: int) -> ChannelDesign:
    """Materialize the channel design for a total sample count n."""
    M, N = _split_n(cfg, n)

    u_rule = dict(cfg.design.get("u_rule") or {"kind": "equispaced"})
    if u_rule.get("kind") == "equispaced":
        a = float(u_rule.get("a", 0.0))
        b = float(u_rule.get("b", 1.0))
        u = tuple(a + (b - a) * l / M for l in range(1, M + 1))
    elif u_rule.get("kind") == "explicit":
        u = tuple(float(x) for x in _require(u_rule, "values", "design.u_rule"))
        if len(u) != M:
            raise ConfigError(f"u_rule.values must have M = {M} entries")
    else:
        raise ConfigError("design.u_rule.kind must be 'equispaced' or 'explicit'")

    # ChannelDesign and NoiseModel hold the range 0 <= d_l < 1/2
    d_rule = dict(cfg.design.get("d_rule") or {"kind": "constant", "value": 0.0})
    kind = d_rule.get("kind")
    if kind == "constant":
        d = (float(_require(d_rule, "value", "design.d_rule")),) * M
    elif kind == "linear":
        a1 = float(_require(d_rule, "a1", "design.d_rule"))
        a2 = float(_require(d_rule, "a2", "design.d_rule"))
        if not (0.0 <= a2 < D_MAX and 0.0 <= a1 + a2 < D_MAX):
            # d = a1 u + a2 must fit for every u in [0, 1], not only at the channels
            raise ConfigError(
                "design.d_rule linear coefficients violate "
                f"0 <= a2 < 1/2 and 0 <= a1 + a2 < 1/2 (got a1={a1}, a2={a2})"
            )
        d = tuple(a1 * ul + a2 for ul in u)
    elif kind == "explicit":
        d = tuple(float(x) for x in _require(d_rule, "values", "design.d_rule"))
        if len(d) != M:
            raise ConfigError(f"d_rule.values must have M = {M} entries")
    else:
        raise ConfigError("design.d_rule.kind must be constant, linear or explicit")

    noise_kind = _require(cfg.noise, "kind", "noise")
    scale = float(cfg.noise.get("scale", 1.0))
    models = tuple(_noise_model(noise_kind, dl, scale) for dl in d)
    return ChannelDesign(u, d, N, models)


def build_kernel(cfg: RunConfig) -> BlurKernel:
    spec = cfg.kernel
    kind = _require(spec, "kind", "kernel")
    if kind == "table":
        return load_kernel_table(spec["table_path"])
    return BlurKernel(
        kind=kind,
        c=float(spec.get("c", 1.0)),
        q=(float(spec.get("q0", 1.0)), float(spec.get("q1", 0.0))),
    )


def build_truth(cfg: RunConfig) -> FourierSeries:
    if cfg.truth is None:
        raise ConfigError("this command requires a 'truth' section")
    params = dict(cfg.truth.get("params") or {})
    params.setdefault("amplitude", float(cfg.truth.get("amplitude", 1.0)))
    return make_test_function(_require(cfg.truth, "kind", "truth"),
                              int(_require(cfg.truth, "band", "truth")), params)


def build_estimator_config(cfg: RunConfig) -> EstimatorConfig:
    est = cfg.estimator
    override = est.get("level_override")
    if override is not None:
        override = tuple(int(j) for j in override)  # EstimatorConfig unpacks (j0, J)
    return EstimatorConfig(
        mu=float(est.get("mu", 1.0)),
        nu=float(est.get("nu", 1.0)),
        lambda1=float(est.get("lambda1", 0.0)),
        alpha1=float(est.get("alpha1", 0.0)),
        beta=float(est.get("beta", 1.0)),
        denom_tol=float(est.get("denom_tol", 1e-12)),
        level_override=override,
    )


def build_ball(cfg: RunConfig) -> BesovBall:
    if not cfg.bench or not cfg.bench.get("ball"):
        raise ConfigError("bench.ball section is required for rate forecasts")
    ball = cfg.bench["ball"]
    _check_keys(dict(ball), {"s", "p", "q", "radius"}, "bench.ball")

    def _num(x):
        return math.inf if x in ("inf", ".inf") else float(x)

    return BesovBall(
        s=float(_require(ball, "s", "bench.ball")), p=_num(ball.get("p", 2.0)),
        q=_num(ball.get("q", 2.0)), radius=float(ball.get("radius", 1.0)),
    )


def eigencheck_models(cfg: RunConfig) -> list[NoiseModel]:
    if cfg.eigencheck is None:
        raise ConfigError("this command requires an 'eigencheck' section")
    return [_noise_model_from(dict(spec))
            for spec in _require(cfg.eigencheck, "models", "eigencheck")]
