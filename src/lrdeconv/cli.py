"""Configuration-driven command line front end.

Subcommands: simulate | estimate | bench | eigencheck | characterize.
Common flags: --config PATH, --seed U64, --out DIR, --threads INT, --dry-run.
Exit codes: 0 ok, 1 configuration error, 2 numeric failure, 3 I/O failure.

All primary outputs are plain text with 17-significant-digit numbers and a
header carrying the config hash, so identical (config, seed) runs produce
byte-identical files regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .channels import characterize_kernel, require_kernel_band, simulate_observations
from .config import (
    RunConfig,
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
)
from .errors import ConfigError, DegenerateFitError, NumericError, require_seed
from .estimator import block_length, estimate, plan, threshold_value
from .fourier import FourierSeries, coeffs_to_grid
from .meyer import MeyerSpec, analyze, needed_band
from .noise import toeplitz_eigen_bounds
from .riskbench import RiskReport, besov_seminorm, fit_rate, mc_risk, rate_axis, theoretical_rate

FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FMT % float(x)


def _header(cfg: RunConfig, command: str, seed: int) -> list[str]:
    return [
        f"# lrdeconv {__version__}",
        f"# command={command}",
        f"# config_hash={config_hash(cfg)}",
        f"# seed={seed}",
    ]


def _write_table(path: Path, header: list[str], columns: list[str], rows) -> None:
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_manifest(out: Path, cfg: RunConfig, command: str, seed: int) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "experiment": cfg.experiment,
        "seed": seed,
        "version": __version__,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_hash(path: Path) -> str:
    with open(path) as fh:
        for line in fh:
            if line.startswith("# config_hash="):
                return line.strip().split("=", 1)[1]
            if not line.startswith("#"):
                break
    raise ConfigError(f"{path} carries no config hash header")


def cmd_simulate(cfg: RunConfig, seed: int, out: Path, args) -> int:
    design = build_design(cfg)
    kernel = build_kernel(cfg)
    truth = build_truth(cfg)
    if args.dry_run:
        print(f"simulate: M={design.M} N={design.N} n={design.n} band={truth.band}")
        return 0
    y = simulate_observations(truth, design, kernel, seed)
    header = _header(cfg, "simulate", seed)
    np.savetxt(out / "y.csv", y, fmt=FMT, delimiter=",", comments="",
               header="\n".join(header + [f"# rows=channels M={design.M}, cols=N={design.N}"]))
    _write_table(out / "truth_fourier.csv", header, ["m", "re", "im"],
                 [(int(m), v.real, v.imag) for m, v in zip(truth.m, truth.values)])
    grid = coeffs_to_grid(truth, design.N).real
    _write_table(out / "truth_grid.csv", header, ["i", "t", "value"],
                 [(i, i / design.N, v) for i, v in enumerate(grid)])
    _write_manifest(out, cfg, "simulate", seed)
    print(f"simulate: wrote y.csv ({design.M}x{design.N}) to {out}")
    return 0


def _load_y(path: Path, cfg: RunConfig) -> np.ndarray:
    if _read_hash(path) != config_hash(cfg):
        raise ConfigError(
            f"{path} was produced under a different config hash; refusing to mix runs"
        )
    try:
        y = np.loadtxt(path, delimiter=",", ndmin=2)  # M = 1 stays 1 x N
    except ValueError as exc:  # a ragged row or a non-numeric cell
        raise ConfigError(f"{path}: {exc}") from exc
    if not np.isfinite(y).all():
        raise ConfigError(f"{path}: entries must be finite")
    return y


def cmd_estimate(cfg: RunConfig, seed: int, out: Path, args) -> int:
    design = build_design(cfg)
    kernel = build_kernel(cfg)
    est_cfg = build_estimator_config(cfg)
    if args.dry_run:
        p = plan(design, est_cfg)
        print(f"estimate: n*={p.n_star:.6g} j0={p.j0} J={p.J}")
        return 0
    path = out / "y.csv"
    y = _load_y(path, cfg)
    if y.shape != (design.M, design.N):
        raise ConfigError(
            f"{path} shape {y.shape} does not match the configured design "
            f"{design.M}x{design.N}"
        )
    result = estimate(y, design, kernel, est_cfg)
    header = _header(cfg, "estimate", seed)
    _write_table(out / "fhat_grid.csv", header, ["i", "t", "value"],
                 [(i, i / design.N, v) for i, v in enumerate(result.grid)])

    co = result.coeffs
    coeff_rows = [("a", co.j0, k, v.real, 0, 1) for k, v in enumerate(co.scaling)]
    if co.J > co.j0:  # a linear estimate has no blocks, whatever n is
        length = block_length(design.n)
        kept_by_block = {(d.level, d.block): d.kept for d in result.decisions}
        for j in range(co.j0, co.J):
            for k, v in enumerate(co.detail[j]):
                r = k // length + 1
                coeff_rows.append(("b", j, k, v.real, r, int(kept_by_block.get((j, r), True))))
    _write_table(out / "coefficients.csv", header,
                 ["type", "j", "k", "value", "block", "kept"], coeff_rows)
    _write_table(out / "decisions.csv", header,
                 ["j", "block", "energy", "threshold", "kept"],
                 [(d.level, d.block, d.energy, d.threshold, int(d.kept))
                  for d in result.decisions])
    diag = result.diagnostics
    diag_rows = [("epsilon_n", diag.epsilon_n), ("n_star", diag.n_star),
                 ("j0", diag.j0), ("J", diag.J),
                 ("n_ill_posed", len(diag.ill_posed))]
    diag_rows += [("ill_posed_m", m) for m in diag.ill_posed]
    total = Counter(d.level for d in result.decisions)
    kept = Counter(d.level for d in result.decisions if d.kept)
    diag_rows += [(f"kept_blocks_j{j}", kept[j]) for j in sorted(total)]
    diag_rows += [(f"total_blocks_j{j}", total[j]) for j in sorted(total)]
    diag_rows += [("warning", w) for w in diag.warnings]
    _write_table(out / "diagnostics.csv", header, ["key", "value"], diag_rows)
    _write_manifest(out, cfg, "estimate", seed)
    print(f"estimate: wrote fhat_grid.csv, coefficients.csv, decisions.csv to {out}")
    return 0


def cmd_bench(cfg: RunConfig, seed: int, out: Path, args) -> int:
    n_grid, reps, ball = build_bench(cfg)
    est_cfg = build_estimator_config(cfg)
    kernel = build_kernel(cfg)
    designs, plans = {}, []
    for n in n_grid:
        design = designs[n] = design_for_n(cfg, n)
        require_kernel_band(kernel, design)  # before any replicate
        plans.append(plan(design, est_cfg))
    if args.dry_run:
        for p in plans:
            if p.thresholds:
                lams = " ".join(f"lambda_{j}={threshold_value(j, p.n_star, est_cfg):.3e}"
                                for j in range(p.j0, p.J))
            elif p.J > p.j0:
                lams = f"(linear estimator at level {p.J}: levels {p.j0}..{p.J - 1} unthresholded)"
            else:
                lams = "(linear estimator, no detail levels)"
            print(f"n={p.n} M={p.M} N={p.N} n*={p.n_star:.6g} j0={p.j0} J={p.J} {lams}")
        return 0
    truth = build_truth(cfg)
    fc = None if ball is None else theoretical_rate(
        ball, est_cfg.nu, est_cfg.lambda1, est_cfg.alpha1, est_cfg.beta)
    # one mc_risk call per grid point, for a progress line each; the replicate
    # seeds (seed, (n, rep)) make the rows those of one call over the grid
    report = RiskReport()
    for p in plans:
        start = time.perf_counter()
        report.rows += mc_risk(truth, designs.__getitem__, kernel, est_cfg, [p.n], reps, seed,
                               threads=args.threads).rows
        print(f"bench: n={p.n} M={p.M} N={p.N} j0={p.j0} J={p.J} "
              f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
    # the rate is a power of ln n* in the super-smooth regime and of n* otherwise
    regressor = "log_log_nstar" if est_cfg.supersmooth else "log_nstar"
    try:
        slope, slope_se, r2 = fit_rate(report, regressor)
        no_fit = None
    except DegenerateFitError as exc:
        slope = slope_se = r2 = None
        no_fit = str(exc)

    seminorm = None if ball is None else _truth_seminorm(truth, ball)

    header = _header(cfg, "bench", seed)
    _write_table(out / "risk_report.csv", header,
                 ["n", "M", "N", "n_star", "risk_mean", "risk_se", "reps"], report.rows)
    xs = rate_axis(regressor, report.column("n_star").astype(float))
    ys = np.log(report.column("risk_mean").astype(float))
    np.savetxt(out / "risk_curve.dat", np.column_stack([xs, ys]), fmt=FMT, delimiter=" ",
               comments="", header="\n".join(header))

    meta = {
        "config_hash": config_hash(cfg),
        "experiment": cfg.experiment,
        "fitted_slope": slope,
        "fitted_slope_se": slope_se,
        "plan": [{key: getattr(p, key) for key in ("n", "M", "N", "n_star", "j0", "J", "warnings")}
                 for p in plans],
        "r_squared": r2,
        "regressor": regressor,
        "reps": reps,
        "seed": seed,
    }
    if fc is not None:
        meta["forecast"] = {
            "regime": fc.regime,
            "exponent": fc.exponent,
            "log_exponent": fc.log_exponent,
            "rho": fc.rho,
        }
    if seminorm is not None:
        meta["ball"] = {"s": ball.s, "p": ball.p, "q": ball.q, "radius": ball.radius}
        meta["besov_certificate"] = seminorm
    with open(out / "risk_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    if no_fit is None:
        lines = [f"experiment {cfg.experiment}: fitted slope of log risk vs {regressor} "
                 f"= {slope:.4f} (se {slope_se:.4f}, R^2 {r2:.3f})"]
    else:
        lines = [f"experiment {cfg.experiment}: no rate fitted: {no_fit}"]
    if fc is not None:
        if est_cfg.supersmooth:
            target = fc.log_exponent
            lines.append(f"forecast ({fc.regime}): risk ~ (ln n*)^(-{target:.4f})")
        else:
            target = fc.exponent
            lines.append(f"forecast ({fc.regime}): risk ~ (n*)^(-{target:.4f}), "
                         f"target slope -{target:.4f}")
        if no_fit is None:
            lines.append(f"slope gap: {slope + target:+.4f}")
    if seminorm is not None:
        lines.append(f"besov certificate: seminorm {seminorm['value']:.4f} "
                     f"(levels {seminorm['j0']}..{seminorm['J']}) vs radius {ball.radius}")
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
    print(text, end="")
    _write_manifest(out, cfg, "bench", seed)
    return 0


def _truth_seminorm(truth, ball) -> dict:
    J = max(4, int(math.ceil(math.log2(max(3 * truth.band, 2)))) + 1)
    spec = MeyerSpec(3, J)
    need = needed_band(spec)
    padded = np.zeros(2 * need + 1, dtype=complex)
    padded[need - truth.band: need + truth.band + 1] = truth.values
    coeffs = analyze(FourierSeries(need, padded), spec)
    value = besov_seminorm(coeffs, ball)
    return {"value": value, "j0": 3, "J": J}


def cmd_eigencheck(cfg: RunConfig, seed: int, out: Path, args) -> int:
    models, n_list = build_eigencheck(cfg)
    if args.dry_run:
        print(f"eigencheck: {len(models)} models x N in {n_list}")
        return 0
    rows = []
    slope_rows = []
    for model in models:
        label = f"{model.kind}(d={model.d:g};scale={model.scale:g})"
        summaries = [toeplitz_eigen_bounds(model, n) for n in n_list]
        for s in summaries:
            rows.append((label, s.n_points, s.lambda_min, s.lambda_max,
                         s.ratio_min, s.ratio_max))
        logn = np.log([s.n_points for s in summaries])
        smax = float(np.polyfit(logn, np.log([s.lambda_max for s in summaries]), 1)[0])
        smin = float(np.polyfit(logn, np.log([s.lambda_min for s in summaries]), 1)[0])
        slope_rows.append((label, smax, smin, 2 * model.d))
    rows.sort(key=lambda r: (r[0], r[1]))
    slope_rows.sort(key=lambda r: r[0])
    header = _header(cfg, "eigencheck", seed)
    _write_table(out / "eigen_scaling.csv", header,
                 ["model", "N", "lambda_min", "lambda_max", "ratio_min", "ratio_max"], rows)
    _write_table(out / "eigen_slopes.csv", header,
                 ["model", "slope_max", "slope_min", "two_d"], slope_rows)
    _write_manifest(out, cfg, "eigencheck", seed)
    for label, smax, smin, twod in slope_rows:
        print(f"{label}: slope(log lambda_max) = {smax:.3f}, "
              f"slope(log lambda_min) = {smin:.3f}, 2d = {twod:.3f}")
    return 0


def cmd_characterize(cfg: RunConfig, seed: int, out: Path, args) -> int:
    design = build_design(cfg)
    kernel = build_kernel(cfg)
    m_range = characterize_range(cfg, design)
    if args.dry_run:
        print(f"characterize: m range {m_range.start}..{m_range.stop - 1} "
              f"on M={design.M} N={design.N}")
        return 0
    fit = characterize_kernel(design, kernel, m_range)
    header = _header(cfg, "characterize", seed)
    _write_table(out / "kernel_fit.csv", header,
                 ["nu", "lambda", "alpha", "beta", "regime",
                  "residual", "residual_regular", "residual_supersmooth"],
                 [(fit.nu, fit.lam, fit.alpha, fit.beta, fit.regime,
                   fit.residual, fit.residual_regular, fit.residual_supersmooth)])
    _write_manifest(out, cfg, "characterize", seed)
    print(f"characterize: regime={fit.regime} nu={fit.nu:.3f} lambda={fit.lam:.3f} "
          f"alpha={fit.alpha:.4g} beta={fit.beta:.2f}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "bench": cmd_bench,
    "eigencheck": cmd_eigencheck,
    "characterize": cmd_characterize,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error (exit 1), not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # the subcommand parsers take its class
        prog="lrdeconv",
        description="Multichannel deconvolution with long-range dependent noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: LRD_DECONV_THREADS or 1)")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved plan without computing")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.threads is None:
            env = os.environ.get("LRD_DECONV_THREADS", "1")
            try:
                args.threads = int(env)
            except ValueError:
                raise ConfigError(f"LRD_DECONV_THREADS must be an integer, got {env!r}") from None
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        seed = cfg.seed if args.seed is None else require_seed(args.seed, "--seed")
        out = Path(args.out if args.out is not None else cfg.output_dir)
        if not args.dry_run:
            out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, seed, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
