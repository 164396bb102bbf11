"""Configuration files: a single YAML document with nested sections.

The same file drives every subcommand, and every section is checked when the
file is loaded, whichever command loads it: a config is checked by building
what it describes.  Each section has one reader, its builder, which checks
its keys, holds its defaults and converts its values.  Parsing is strict: unknown keys and constraint
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
    fit_frequencies,
    load_kernel_table,
    require_alias_free,
)
from .errors import ConfigError, require_int, require_seed
from .estimator import EstimatorConfig, plan
from .fourier import FourierSeries
from .noise import DENSE_EIGEN_LIMIT, NoiseModel
from .riskbench import MIN_REPS, BesovBall, make_test_function

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "serialize_config",
    "config_hash",
    "build_design",
    "design_for_n",
    "build_kernel",
    "build_truth",
    "build_estimator_config",
    "build_bench",
    "build_ball",
    "build_eigencheck",
    "characterize_range",
]


def _require(mapping: dict, key: str, section: str):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"missing required key '{section}.{key}'")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set, section: str):
    extra = set(mapping) - allowed
    if extra:
        raise ConfigError(f"unknown keys in '{section}': {sorted(extra)}")


# Root keys: the required ones with the reader of each, then the optional sections.
_REQUIRED = {"experiment": str, "seed": require_seed, "output_dir": str,
             "design": dict, "noise": dict, "kernel": dict}
_OPTIONAL = ("truth", "estimator", "bench", "eigencheck", "characterize")


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
        out: dict[str, Any] = {key: getattr(self, key) for key in _REQUIRED}
        out.update((key, getattr(self, key)) for key in _OPTIONAL if getattr(self, key))
        return out


def parse_config(text: str) -> RunConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")
    _check_keys(raw, {*_REQUIRED, *_OPTIONAL}, "<root>")
    try:
        cfg = RunConfig(
            **{key: read(_require(raw, key, "<root>")) for key, read in _REQUIRED.items()},
            **{key: dict(raw[key]) for key in _OPTIONAL if raw.get(key)},
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

    Each builder checks the keys of the section it reads, holds its defaults
    and converts its values; what it builds holds the model's rules.  So
    this builds the design at ``design.n`` and at every
    ``bench.n_grid`` point and each object the commands build, and checks
    the truth's band against every design built and, when the config has an
    ``estimator`` section, the estimation plan of each (a config without one
    may serve ``eigencheck`` or ``characterize`` alone).
    The kernel table is not read here: the commands read it, and a missing
    one is an I/O failure.
    """
    designs = [build_design(cfg)]
    _kernel_or_table(cfg)
    truth = None if cfg.truth is None else build_truth(cfg)
    est = build_estimator_config(cfg)
    if cfg.bench is not None:
        designs += [design_for_n(cfg, n) for n in build_bench(cfg)[0]]
    for built in designs:
        if truth is not None:
            require_alias_free(truth, built)
        if cfg.estimator:  # raises for n* <= e or an override above the band
            plan(built, est)
    if cfg.eigencheck is not None:
        build_eigencheck(cfg)
    if cfg.characterize is not None:
        characterize_range(cfg, designs[0])


def _noise_model(spec: dict, section: str) -> NoiseModel:
    """The noise law of a spec {kind, d, scale}: farima and fgn need d (fGn:
    Hurst index d + 1/2, or ``hurst`` in place of d), white takes d = 0."""
    _check_keys(spec, {"kind", "d", "hurst", "scale"}, section)
    kind = _require(spec, "kind", section)
    scale = float(spec.get("scale", 1.0))
    if "hurst" in spec:
        if kind != "fgn":
            raise ConfigError(f"{section}: hurst is the fgn parameter, not read for kind {kind!r}")
        if "d" in spec:
            raise ConfigError(f"{section}: give d or hurst, not both (hurst = d + 1/2)")
        return NoiseModel.fgn(float(spec["hurst"]), scale)
    if kind in ("farima", "fgn"):
        d = float(_require(spec, "d", section))
        return NoiseModel.fgn(d + 0.5, scale) if kind == "fgn" else NoiseModel(kind, d, scale)
    return NoiseModel(kind, float(spec.get("d", 0.0)), scale)  # rejects white with d > 0


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
    M = require_int(_require(cfg.design, "M", "design"), "design.M")
    if M < 1:
        raise ConfigError("design.M must be >= 1")
    if n % M:
        raise ConfigError(f"design.M = {M} does not divide n = {n}")
    N = n // M
    if N < 2 or N & (N - 1):
        raise ConfigError(f"samples per channel N = n/M = {N} must be a power of 2")
    return M, N


def build_design(cfg: RunConfig) -> ChannelDesign:
    """The channel design at the config's own sample count ``design.n``."""
    return design_for_n(cfg, require_int(_require(cfg.design, "n", "design"), "design.n"))


def design_for_n(cfg: RunConfig, n: int) -> ChannelDesign:
    """The channel design for a total sample count n: the design and noise sections."""
    _check_keys(cfg.design, {"n", "theta", "m_rule", "M", "u_rule", "d_rule"}, "design")
    u_rule = dict(cfg.design.get("u_rule") or {"kind": "equispaced"})
    _check_keys(u_rule, {"kind", "a", "b", "values"}, "design.u_rule")
    d_rule = dict(cfg.design.get("d_rule") or {"kind": "constant", "value": 0.0})
    _check_keys(d_rule, {"kind", "value", "a1", "a2", "values"}, "design.d_rule")
    _check_keys(cfg.noise, {"kind", "scale"}, "noise")
    M, N = _split_n(cfg, n)

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

    if cfg.noise.get("kind") == "white" and any(d):
        raise ConfigError("noise.kind=white requires all d_l = 0 (white noise has d = 0)")
    models = tuple(_noise_model({**cfg.noise, "d": dl}, "noise") for dl in d)
    return ChannelDesign(u, d, N, models)


def _kernel_or_table(cfg: RunConfig) -> BlurKernel | str:
    """The kernel section: its BlurKernel, or for a ``table`` kernel the path
    of the file, which only ``build_kernel`` reads."""
    spec = cfg.kernel
    _check_keys(spec, {"kind", "c", "q0", "q1", "table_path"}, "kernel")
    kind = _require(spec, "kind", "kernel")
    if kind == "table":
        if not spec.get("table_path"):
            raise ConfigError("kernel.kind=table requires kernel.table_path")
        return spec["table_path"]
    return BlurKernel(
        kind=kind,
        c=float(spec.get("c", 1.0)),
        q=(float(spec.get("q0", 1.0)), float(spec.get("q1", 0.0))),
    )


def build_kernel(cfg: RunConfig) -> BlurKernel:
    kernel = _kernel_or_table(cfg)
    return kernel if isinstance(kernel, BlurKernel) else load_kernel_table(kernel)


def build_truth(cfg: RunConfig) -> FourierSeries:
    if cfg.truth is None:
        raise ConfigError("this command requires a 'truth' section")
    _check_keys(cfg.truth, {"kind", "band", "amplitude", "params"}, "truth")
    params = dict(cfg.truth.get("params") or {})
    if "amplitude" in cfg.truth and "amplitude" in params:
        raise ConfigError("truth.amplitude and truth.params.amplitude both set the amplitude; "
                          "give one")
    params.setdefault("amplitude", float(cfg.truth.get("amplitude", 1.0)))
    return make_test_function(_require(cfg.truth, "kind", "truth"),
                              require_int(_require(cfg.truth, "band", "truth"), "truth.band"),
                              params)


def build_estimator_config(cfg: RunConfig) -> EstimatorConfig:
    """The estimator section; a key left out keeps EstimatorConfig's default."""
    est = cfg.estimator
    _check_keys(est, {"mu", "nu", "lambda1", "alpha1", "beta",
                      "denom_tol", "level_override"}, "estimator")
    knobs = {key: float(value) for key, value in est.items() if key != "level_override"}
    if est.get("level_override") is not None:  # EstimatorConfig unpacks (j0, J)
        knobs["level_override"] = tuple(require_int(j, "estimator.level_override entry")
                                        for j in est["level_override"])
    return EstimatorConfig(**knobs)


def build_bench(cfg: RunConfig) -> tuple[list[int], int, BesovBall | None]:
    """The bench section: its n grid, replicate count and Besov ball (or None)."""
    if cfg.bench is None:
        raise ConfigError("bench command requires a 'bench' section")
    _check_keys(cfg.bench, {"n_grid", "reps", "ball"}, "bench")
    n_grid = [require_int(n, "bench.n_grid entry") for n in _require(cfg.bench, "n_grid", "bench")]
    if len(n_grid) < 1:
        raise ConfigError("bench.n_grid must be nonempty")
    reps = require_int(cfg.bench.get("reps", 100), "bench.reps")
    if reps < MIN_REPS:
        raise ConfigError(f"bench.reps must be >= {MIN_REPS}")
    return n_grid, reps, build_ball(cfg) if cfg.bench.get("ball") else None


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


def build_eigencheck(cfg: RunConfig) -> tuple[list[NoiseModel], list[int]]:
    """The eigencheck section: its noise models and its sorted sizes N."""
    if cfg.eigencheck is None:
        raise ConfigError("this command requires an 'eigencheck' section")
    _check_keys(cfg.eigencheck, {"models", "n_list"}, "eigencheck")
    models = [_noise_model(dict(spec), "noise model")
              for spec in _require(cfg.eigencheck, "models", "eigencheck")]
    n_list = sorted(require_int(n, "eigencheck.n_list entry")
                    for n in _require(cfg.eigencheck, "n_list", "eigencheck"))
    if any(n > DENSE_EIGEN_LIMIT for n in n_list):
        raise ConfigError(f"eigencheck.n_list entries must be <= {DENSE_EIGEN_LIMIT}")
    if any(n < 2 for n in n_list):
        raise ConfigError("eigencheck.n_list entries must be >= 2")
    if len(set(n_list)) < 2:  # each slope is fitted over the sizes
        raise ConfigError("eigencheck.n_list needs at least two distinct sizes")
    return models, n_list


def characterize_range(cfg: RunConfig, design: ChannelDesign) -> range:
    """The frequencies m_min..m_max that ``characterize`` fits on a design:
    within the alias-free band |m| <= N/2 - 1, and passing the fit's own rule
    (``channels.fit_frequencies``)."""
    section = cfg.characterize or {}
    _check_keys(section, {"m_min", "m_max"}, "characterize")
    band = design.alias_free_band
    m_min = require_int(section.get("m_min", 4), "characterize.m_min")
    m_max = require_int(section.get("m_max", min(64, band)), "characterize.m_max")
    if not (-band <= m_min and m_max <= band):
        raise ConfigError(f"characterize range {m_min}..{m_max} leaves the alias-free band "
                          f"|m| <= N/2 - 1 = {band}")
    m_range = range(m_min, m_max + 1)
    fit_frequencies(m_range)
    return m_range
