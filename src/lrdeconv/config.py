"""Configuration files: a single YAML document with nested sections.

The same file drives every subcommand; sections not needed by a command are
ignored by it.  Parsing is strict: unknown keys and constraint violations
raise ConfigError with the violated constraint named, and
``parse(serialize(config)) == config`` holds exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .channels import BlurKernel, ChannelDesign, epsilon_n, load_kernel_table
from .errors import ConfigError
from .estimator import EstimatorConfig, choose_levels
from .fourier import FourierSeries
from .noise import NoiseModel
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

D_STAR_LIMIT = 0.5


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
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def validate_config(cfg: RunConfig):
    if cfg.seed < 0 or cfg.seed >= 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    design = cfg.design
    _check_keys(design, {"n", "theta", "m_rule", "M", "u_rule", "d_rule"}, "design")
    m_rule = design.get("m_rule", "power")
    if m_rule not in ("power", "fixed"):
        raise ConfigError("design.m_rule must be 'power' or 'fixed'")
    if m_rule == "power":
        theta = float(_require(design, "theta", "design"))
        if not 0.0 <= theta < 1.0:
            raise ConfigError("design.theta must satisfy 0 <= theta < 1")
    else:
        M = int(_require(design, "M", "design"))
        if M < 1:
            raise ConfigError("design.M must be >= 1")

    u_rule = dict(design.get("u_rule") or {"kind": "equispaced", "a": 0.0, "b": 1.0})
    _check_keys(u_rule, {"kind", "a", "b", "values"}, "design.u_rule")
    if u_rule.get("kind") not in ("equispaced", "explicit"):
        raise ConfigError("design.u_rule.kind must be 'equispaced' or 'explicit'")

    d_rule = dict(design.get("d_rule") or {"kind": "constant", "value": 0.0})
    _check_keys(d_rule, {"kind", "value", "a1", "a2", "values"}, "design.d_rule")
    kind = d_rule.get("kind")
    if kind == "constant":
        val = float(_require(d_rule, "value", "design.d_rule"))
        if not 0.0 <= val < D_STAR_LIMIT:
            raise ConfigError(
                f"design.d_rule.value violates 0 <= d < 1/2 (got {val})"
            )
    elif kind == "linear":
        a1 = float(_require(d_rule, "a1", "design.d_rule"))
        a2 = float(_require(d_rule, "a2", "design.d_rule"))
        if not (0.0 <= a2 < D_STAR_LIMIT and 0.0 <= a1 + a2 < D_STAR_LIMIT):
            raise ConfigError(
                "design.d_rule linear coefficients violate "
                f"0 <= a2 < 1/2 and 0 <= a1 + a2 < 1/2 (got a1={a1}, a2={a2})"
            )
    elif kind == "explicit":
        values = _require(d_rule, "values", "design.d_rule")
        for val in values:
            if not 0.0 <= float(val) < D_STAR_LIMIT:
                raise ConfigError(
                    f"design.d_rule.values violates 0 <= d < 1/2 (got {val})"
                )
    else:
        raise ConfigError("design.d_rule.kind must be constant, linear or explicit")

    noise = cfg.noise
    _check_keys(noise, {"kind", "scale"}, "noise")
    if noise.get("kind") not in ("white", "farima", "fgn"):
        raise ConfigError("noise.kind must be white, farima or fgn")
    if not float(noise.get("scale", 1.0)) > 0:
        raise ConfigError("noise.scale must be > 0")

    kernel = cfg.kernel
    _check_keys(kernel, {"kind", "c", "q0", "q1", "table_path"}, "kernel")
    if kernel.get("kind") not in ("heat", "dirichlet", "boxcar", "table"):
        raise ConfigError("kernel.kind must be heat, dirichlet, boxcar or table")
    if kernel.get("kind") == "table" and not kernel.get("table_path"):
        raise ConfigError("kernel.kind=table requires kernel.table_path")

    if cfg.truth is not None:
        _check_keys(cfg.truth, {"kind", "band", "amplitude", "params"}, "truth")
        if cfg.truth.get("kind") not in ("smooth_sine", "bump_mix", "sawtooth_smoothed"):
            raise ConfigError("truth.kind must be smooth_sine, bump_mix or sawtooth_smoothed")
        if int(_require(cfg.truth, "band", "truth")) < 0:
            raise ConfigError("truth.band must be >= 0")

    _check_keys(cfg.estimator, {"mu", "nu", "lambda1", "alpha1", "beta",
                                "denom_tol", "level_override"}, "estimator")
    est = build_estimator_config(cfg)  # raises on violations
    sizes = [cfg.design["n"]] if cfg.design.get("n") is not None else []

    if cfg.bench is not None:
        _check_keys(cfg.bench, {"n_grid", "reps", "ball", "regressor"}, "bench")
        n_grid = _require(cfg.bench, "n_grid", "bench")
        if len(n_grid) < 1:
            raise ConfigError("bench.n_grid must be nonempty")
        sizes += n_grid
        if int(cfg.bench.get("reps", 100)) < 30:
            raise ConfigError("bench.reps must be >= 30")
        if cfg.bench.get("regressor", "log_nstar") not in ("log_nstar", "log_log_nstar"):
            raise ConfigError("bench.regressor must be log_nstar or log_log_nstar")
        if cfg.bench.get("ball"):
            build_ball(cfg)

    sizes = [int(n) for n in sizes]  # a malformed n fails here, not at command time
    if est.level_override is not None:
        for n in sizes:
            design = design_for_n(cfg, n)
            choose_levels(epsilon_n(design)[1], est, design.N)  # raises above the band

    if cfg.eigencheck is not None:
        _check_keys(cfg.eigencheck, {"models", "n_list"}, "eigencheck")
        for spec in _require(cfg.eigencheck, "models", "eigencheck"):
            _noise_model_from(dict(spec))
        for n in _require(cfg.eigencheck, "n_list", "eigencheck"):
            if int(n) > 4096:
                raise ConfigError("eigencheck.n_list entries must be <= 4096")

    if cfg.characterize is not None:
        _check_keys(cfg.characterize, {"m_min", "m_max"}, "characterize")


def _noise_model_from(spec: dict) -> NoiseModel:
    _check_keys(spec, {"kind", "d", "hurst", "scale"}, "noise model")
    kind = spec.get("kind")
    scale = float(spec.get("scale", 1.0))
    if kind == "white":
        return NoiseModel.white(scale)
    if kind == "farima":
        return NoiseModel.farima(float(_require(spec, "d", "noise model")), scale)
    if kind == "fgn":
        if "hurst" in spec:
            return NoiseModel.fgn(float(spec["hurst"]), scale)
        return NoiseModel.fgn(float(_require(spec, "d", "noise model")) + 0.5, scale)
    raise ConfigError(f"unknown noise kind {kind!r}")


def _split_n(cfg: RunConfig, n: int) -> tuple[int, int]:
    """(M, N) for total sample count n under the design's channel rule."""
    k = math.log2(n)
    if abs(k - round(k)) > 1e-9:
        raise ConfigError(f"total sample count n must be a power of 2, got {n}")
    k = int(round(k))
    if cfg.design.get("m_rule", "power") == "power":
        theta = float(cfg.design["theta"])
        exp_n = int(math.floor((1.0 - theta) * k + 0.5))
        exp_n = min(max(exp_n, 1), k)
        return 2 ** (k - exp_n), 2 ** exp_n
    M = int(cfg.design["M"])
    if n % M:
        raise ConfigError(f"design.M = {M} does not divide n = {n}")
    N = n // M
    if N < 2 or N & (N - 1):
        raise ConfigError(f"samples per channel N = n/M = {N} must be a power of 2")
    return M, N


def design_for_n(cfg: RunConfig, n: int) -> ChannelDesign:
    """Materialize the channel design for a total sample count n."""
    M, N = _split_n(cfg, n)

    u_rule = dict(cfg.design.get("u_rule") or {"kind": "equispaced", "a": 0.0, "b": 1.0})
    if u_rule.get("kind") == "equispaced":
        a = float(u_rule.get("a", 0.0))
        b = float(u_rule.get("b", 1.0))
        u = tuple(a + (b - a) * l / M for l in range(1, M + 1))
    else:
        u = tuple(float(x) for x in u_rule["values"])
        if len(u) != M:
            raise ConfigError(f"u_rule.values must have M = {M} entries")

    d_rule = dict(cfg.design.get("d_rule") or {"kind": "constant", "value": 0.0})
    kind = d_rule["kind"]
    if kind == "constant":
        d = tuple(float(d_rule["value"]) for _ in u)
    elif kind == "linear":
        a1, a2 = float(d_rule["a1"]), float(d_rule["a2"])
        d = tuple(a1 * ul + a2 for ul in u)
    else:
        d = tuple(float(x) for x in d_rule["values"])
        if len(d) != M:
            raise ConfigError(f"d_rule.values must have M = {M} entries")

    noise_kind = cfg.noise.get("kind", "farima")
    scale = float(cfg.noise.get("scale", 1.0))
    if noise_kind == "white":
        if any(dl != 0.0 for dl in d):
            raise ConfigError("noise.kind=white requires all d_l = 0 (white noise has d = 0)")
        models = tuple(NoiseModel.white(scale) for _ in d)
    elif noise_kind == "farima":
        models = tuple(NoiseModel.farima(dl, scale) for dl in d)
    else:
        models = tuple(NoiseModel.fgn(dl + 0.5, scale) for dl in d)

    design = ChannelDesign(u, d, N, models)
    _assert_eps_window(design)
    return design


def _assert_eps_window(design: ChannelDesign):
    """ln(eps_n) must sit inside (-h1 ln n, h2 ln n) with h1, h2 in (0, 1)."""
    eps, _ = epsilon_n(design)
    h1_eff = -math.log(eps) / math.log(design.n) if eps < 1.0 else 0.0
    if h1_eff >= 1.0:
        raise ConfigError(
            f"noise-reduction factor decays too fast: -ln(eps_n)/ln(n) = {h1_eff:.3f} >= 1"
        )


def build_kernel(cfg: RunConfig) -> BlurKernel:
    spec = cfg.kernel
    kind = spec["kind"]
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
    return make_test_function(cfg.truth["kind"], int(cfg.truth["band"]), params)


def build_estimator_config(cfg: RunConfig) -> EstimatorConfig:
    est = cfg.estimator
    override = est.get("level_override")
    if override is not None:
        override = (int(override[0]), int(override[1]))
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
        s=float(ball["s"]), p=_num(ball.get("p", 2.0)),
        q=_num(ball.get("q", 2.0)), radius=float(ball.get("radius", 1.0)),
    )


def eigencheck_models(cfg: RunConfig) -> list[NoiseModel]:
    if cfg.eigencheck is None:
        raise ConfigError("this command requires an 'eigencheck' section")
    return [_noise_model_from(dict(spec)) for spec in cfg.eigencheck["models"]]
