"""The four workloads: set-up, timed rounds, checks and per-layer figures.

One *estimate* is one Monte Carlo replicate (simulate, ``estimate``, risk,
inside ``riskbench.mc_risk``) or one ``lrdeconv simulate`` +
``lrdeconv estimate`` command pair.  A round is one ``mc_risk`` call at the
workload's grid point (30 replicates) or one command pair, so every run
attempts whole rounds of the same operations.  Round r draws its seed from
(--seed, r); the program receives only those seeds and the configs below.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from lrdeconv import channels, cli, config, estimator, meyer, riskbench
from lrdeconv.errors import LrdeconvError

import checks
import exact_risk
from spans import Patch, RiskCapture, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
CONFIGS = BENCH / "configs"
SETUP_PROBES = 5
NOISE_FREE_LIMIT = 1e-10

# name -> (unit, better); every traced run reports all of them, 0 where the
# layer does not run on the workload (see README.md)
LAYER_METRICS = {
    "config.load_ms": ("ms", "lower"),
    "noise.sample_paths_ms": ("ms", "lower"),
    "noise.first_sample_paths_ms": ("ms", "lower"),
    "noise.fft_points": ("count", "lower"),
    "channels.signal_ms": ("ms", "lower"),
    "channels.kernel_fourier_ms": ("ms", "lower"),
    "channels.kernel_evals": ("count", "lower"),
    "estimator.deconvolve_ms": ("ms", "lower"),
    "estimator.band_read": ("count", "lower"),
    "estimator.band_use_ratio": ("ratio", "higher"),
    "estimator.ill_posed": ("count", "lower"),
    "estimator.estimate_ms": ("ms", "lower"),
    "estimator.threshold_ms": ("ms", "lower"),
    "estimator.blocks_total": ("count", "lower"),
    "estimator.blocks_kept": ("count", "lower"),
    "meyer.analyze_ms": ("ms", "lower"),
    "meyer.synthesize_ms": ("ms", "lower"),
    "meyer.detail_levels": ("count", "higher"),
    "fourier.coeffs_to_grid_ms": ("ms", "lower"),
    "riskbench.loop_overhead_ms": ("ms", "lower"),
    "riskbench.thread_speedup": ("ratio", "higher"),
    "cli.import_ms": ("ms", "lower"),
    "cli.simulate_cmd_ms": ("ms", "lower"),
    "cli.estimate_cmd_ms": ("ms", "lower"),
    "cli.write_y_ms": ("ms", "lower"),
    "cli.read_y_ms": ("ms", "lower"),
    "cli.y_csv_bytes": ("bytes", "lower"),
    "trace.estimates_per_s_delta": ("1/s", "higher"),
}


def derive(seed: int, *path: int) -> int:
    """A 64-bit seed for one use of the run seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def fine_kernel(u, m) -> np.ndarray:
    """g_m(u) = (1 + |m|)^(-1/2) exp(-i pi m u / 2), shape (len(u), len(m))."""
    u = np.asarray(u, dtype=float)[:, None]
    m = np.asarray(m, dtype=int)[None, :]
    return (1.0 + np.abs(m)) ** -0.5 * np.exp(-0.5j * np.pi * m * u)


def write_fine_table(cfg) -> None:
    """Write the fine-levels kernel table for every |m| the estimator reads."""
    design = config.design_for_n(cfg, int(cfg.design["n"]))
    band = design.N // 2 - 1
    m = np.arange(-band, band + 1)
    path = ROOT / cfg.kernel["table_path"]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}")
    channels.save_kernel_table(tmp, m, design.u, fine_kernel(design.u, m).T)
    os.replace(tmp, path)


def _plain_call(name, fn, args, kwargs):
    return fn(*args, **kwargs)


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclasses.dataclass
class Timing:
    """Wall and CPU seconds of each completed round of a timed part."""

    wall: list = dataclasses.field(default_factory=list)
    cpu: list = dataclasses.field(default_factory=list)
    per_round: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0

    def estimates_per_s(self) -> float:
        """Completed estimates over the time of their rounds.

        Not a median over rounds: the machine these bounds were set on
        alternates between a slow and a fast state for seconds at a time, and
        a median jumps between the two where the total averages them.
        """
        return self.per_round * len(self.wall) / sum(self.wall) if self.wall else 0.0

    def cpu_ms_per_estimate(self) -> float:
        return 1e3 * sum(self.cpu) / (self.per_round * len(self.cpu)) if self.cpu else 0.0


def timed_rounds(run_round, seconds: float, first_round: int = 0) -> Timing:
    """Whole rounds until the next one would end after ``seconds``."""
    timing = Timing()
    start = time.perf_counter()
    while True:
        t, cpu0 = time.perf_counter(), cpu_seconds()
        attempted, failed = run_round(first_round + timing.rounds)
        wall, cpu = time.perf_counter() - t, cpu_seconds() - cpu0
        if not failed:
            timing.wall.append(wall)
            timing.cpu.append(cpu)
            timing.per_round = attempted
        timing.attempted += attempted
        timing.failed += failed
        timing.rounds += 1
        if time.perf_counter() - start + wall > seconds:
            return timing


def subprocess_env() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def setup_seconds(command, until_ready: bool) -> float:
    """Median wall time of SETUP_PROBES fresh processes running ``command``.

    With ``until_ready`` the clock stops at the probe's "ready" line, else
    at its exit.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=subprocess_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline() if until_ready else "ready\n"
            elapsed = time.perf_counter() - start
            _, err = proc.communicate()
        if not until_ready:
            elapsed = time.perf_counter() - start
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"set-up probe {command} failed: {err.strip()}")
        times.append(elapsed)
    return statistics.median(times)


# ----------------------------------------------------------------- tracing

def _estimate_counts(args, kwargs, result):
    diag = result.diagnostics
    return {"j0": diag.j0, "J": diag.J, "N": args[1].N, "ill_posed": len(diag.ill_posed)}


def install_layer_hooks(patch: Patch, tracer: Tracer) -> None:
    """Spans around every public function a replicate or a command calls."""
    tracer.wrap(patch, riskbench, "simulate_observations", "channels.simulate_observations",
                starts_estimate=True)
    tracer.wrap(patch, riskbench, "estimate", "estimator.estimate", _estimate_counts)
    tracer.wrap(patch, cli, "simulate_observations", "channels.simulate_observations")
    tracer.wrap(patch, cli, "estimate", "estimator.estimate", _estimate_counts)
    tracer.wrap(patch, channels, "sample_paths", "noise.sample_paths",
                lambda a, k, r: {"fft_points": r.shape[0] * 2 * (r.shape[1] - 1)})
    tracer.wrap(patch, estimator, "kernel_fourier", "channels.kernel_fourier",
                lambda a, k, r: {"kernel_evals": int(np.size(r))})
    tracer.wrap(patch, estimator, "fourier_deconvolve", "estimator.fourier_deconvolve")
    tracer.wrap(patch, estimator, "analyze", "meyer.analyze")
    tracer.wrap(patch, estimator, "block_threshold", "estimator.block_threshold",
                lambda a, k, r: {"blocks_total": len(r[1]),
                                 "blocks_kept": sum(d.kept for d in r[1])})
    tracer.wrap(patch, estimator, "synthesize_series", "meyer.synthesize_series")
    tracer.wrap(patch, estimator, "coeffs_to_grid", "fourier.coeffs_to_grid")




def _band_read(j0: int, J: int) -> int:
    """2K + 1, K the largest |m| that the analysis at levels (j0, J) reads."""
    spec = meyer.MeyerSpec(j0, J)
    sets = [meyer.scaling_frequency_set(spec, j0).members]
    sets += [meyer.frequency_set(spec, j).members for j in spec.detail_levels]
    return 2 * max(int(np.abs(m).max()) for m in sets) + 1


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(spans: list[dict], extra: dict) -> dict:
    """Every per-layer metric; times and counts are medians per estimate.

    Estimates are those of the traced phase; a layer that an estimate does
    not call counts 0 for it.  ``extra`` holds figures measured outside the
    spans (thread speed-up, tracing overhead, import time, file size).
    """
    traced = [(i, s) for i, s in enumerate(spans) if s["phase"] == "traced"]
    estimates = {s["estimate"] for _, s in traced if s["name"] == "estimator.estimate"}

    def per_estimate(name, value):
        totals = dict.fromkeys(estimates, 0.0)
        for _, s in traced:
            if s["name"] == name and s["estimate"] in totals:
                totals[s["estimate"]] += value(s)
        return [totals[e] for e in sorted(totals, key=repr)]

    def ms(name):
        return per_estimate(name, lambda s: 1e3 * (s["end"] - s["start"]))

    def count(name, key):
        return median(per_estimate(name, lambda s: s["counts"][key]))

    def minus(a, b):
        return median([x - y for x, y in zip(a, b)]) if any(a) else 0.0

    setup = [s for s in spans if s["phase"] == "setup"]
    sim, paths = ms("channels.simulate_observations"), ms("noise.sample_paths")
    sim_cmd, est_cmd = ms("cli.simulate_cmd"), ms("cli.estimate_cmd")
    est_spans = [s for _, s in traced if s["name"] == "estimator.estimate"]
    band = [_band_read(s["counts"]["j0"], s["counts"]["J"]) for s in est_spans]
    out = {
        "config.load_ms": sum(1e3 * (s["end"] - s["start"]) for s in setup
                              if s["name"] in ("config.load_config", "config.design_for_n")),
        "noise.sample_paths_ms": median(paths),
        "noise.first_sample_paths_ms": median([1e3 * (s["end"] - s["start"]) for s in setup
                                               if s["name"] == "noise.sample_paths"]),
        "noise.fft_points": count("noise.sample_paths", "fft_points"),
        "channels.signal_ms": minus(sim, paths),
        "channels.kernel_fourier_ms": median(ms("channels.kernel_fourier")),
        "channels.kernel_evals": count("channels.kernel_fourier", "kernel_evals"),
        "estimator.deconvolve_ms": median(ms("estimator.fourier_deconvolve")),
        "estimator.band_read": median(band),
        "estimator.band_use_ratio": median([b / (s["counts"]["N"] - 1)
                                            for b, s in zip(band, est_spans)]),
        "estimator.ill_posed": count("estimator.estimate", "ill_posed"),
        "estimator.estimate_ms": median(ms("estimator.estimate")),
        "estimator.threshold_ms": median(ms("estimator.block_threshold")),
        "estimator.blocks_total": count("estimator.block_threshold", "blocks_total"),
        "estimator.blocks_kept": count("estimator.block_threshold", "blocks_kept"),
        "meyer.analyze_ms": median(ms("meyer.analyze")),
        "meyer.synthesize_ms": median(ms("meyer.synthesize_series")),
        "meyer.detail_levels": median([s["counts"]["J"] - s["counts"]["j0"] for s in est_spans]),
        "fourier.coeffs_to_grid_ms": median(ms("fourier.coeffs_to_grid")),
        "cli.simulate_cmd_ms": median(sim_cmd),
        "cli.estimate_cmd_ms": median(est_cmd),
        "cli.write_y_ms": minus(sim_cmd, sim),
        "cli.read_y_ms": minus(est_cmd, ms("estimator.estimate")),
    }

    stages = {}
    for _, s in traced:
        if s["name"] in ("channels.simulate_observations", "estimator.estimate"):
            stages[s["parent"]] = stages.get(s["parent"], 0.0) + s["end"] - s["start"]
    out["riskbench.loop_overhead_ms"] = median([
        1e3 * (s["end"] - s["start"] - stages.get(i, 0.0)) / s["counts"]["reps"]
        for i, s in traced if s["name"] == "riskbench.mc_risk"])
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name in LAYER_METRICS}


# --------------------------------------------------------------- workloads

class MonteCarlo:
    """Rounds of ``riskbench.mc_risk`` at one grid point of a config."""

    peak_rss_of = resource.RUSAGE_SELF
    setup_until_ready = True

    def __init__(self, name: str, threads: int, exact_law: bool = False, blocks: bool = False):
        self.name, self.threads = name, threads
        self.exact_law, self.blocks = exact_law, blocks

    def setup_command(self, seed: int) -> list[str]:
        return [sys.executable, str(BENCH / "run.py"), "--workload", self.name,
                "--seed", str(seed), "--setup-probe"]

    def setup(self, seed: int, call=_plain_call):
        """Config, designs, and the first estimate at each grid point."""
        cfg = call("config.load_config", config.load_config,
                   (CONFIGS / f"{self.name}.yaml",), {})
        s = SimpleNamespace(seed=seed, cfg=cfg, rounds=[], notes=[], one_thread_rate=None)
        s.designs = {int(n): call("config.design_for_n", config.design_for_n, (cfg, int(n)), {})
                     for n in cfg.bench["n_grid"]}
        if cfg.kernel["kind"] == "table":
            write_fine_table(cfg)
        s.kernel = config.build_kernel(cfg)
        s.truth = config.build_truth(cfg)
        s.est = config.build_estimator_config(cfg)
        s.reps = int(cfg.bench["reps"])
        s.first = {}
        for n, design in s.designs.items():
            seed_n = np.random.SeedSequence(derive(seed, 1), spawn_key=(n,))
            y = riskbench.simulate_observations(s.truth, design, s.kernel, seed_n)
            s.first[n] = riskbench.estimate(y, design, s.kernel, s.est)
        s.capture = RiskCapture(s.truth, [d.N for d in s.designs.values()])
        return s

    def capture(self, s, patch: Patch) -> None:
        s.capture.install(patch, riskbench)

    def warm(self, s, tracer: Tracer) -> None:
        """Nothing: the set-up already ran the first estimate at each grid point."""

    def mc_risk(self, s, master: int, threads: int, call=_plain_call):
        return call("riskbench.mc_risk", riskbench.mc_risk,
                    (s.truth, lambda n: config.design_for_n(s.cfg, n), s.kernel, s.est,
                     list(s.designs), s.reps, master), {"threads": threads})

    def run_round(self, s, r: int, threads: int | None = None, call=_plain_call):
        master = derive(s.seed, 0, r)
        total = s.reps * len(s.designs)
        try:
            report = self.mc_risk(s, master, threads or self.threads, call)
        except LrdeconvError as exc:
            s.notes.append(f"round {r}: {type(exc).__name__}: {exc}")
            report = None
        s.rounds.append((master, report))
        return total, 0 if report is not None else total

    def traced_round(self, s, r: int, tracer: Tracer):
        def call(name, fn, args, kwargs):
            reps = s.reps * len(s.designs)
            return tracer.call(name, fn, args, kwargs, lambda a, k, res: {"reps": reps})
        return self.run_round(s, r, threads=1, call=call)

    def check(self, s) -> list[str]:
        done = [(master, report) for master, report in s.rounds if report is not None]
        if not done:
            return [f"{self.name}: no round completed"]
        errors = []
        for master, report in done:
            for row in report.rows:
                errors += checks.report_matches(s.capture.vector(master, row[0], s.reps), row,
                                                f"{self.name} n={row[0]} seed {master}")
        if self.exact_law:
            errors += self._check_law(s, done)
        if self.threads > 1:
            errors += self._check_threads(s, *done[0])
        if self.blocks:
            errors += self._check_blocks(s, done[0][0]) + self._check_noise_free(s)
        return errors

    def _check_law(self, s, done) -> list[str]:
        """Replicate-mean risk against the exact expected risk at each grid point."""
        errors = []
        for n, design in s.designs.items():
            label = f"{self.name} n={n}"
            j0, J = exact_risk.levels(design, s.est)
            diag = s.first[n].diagnostics
            if (diag.j0, diag.J) != (j0, J) or j0 != J:
                errors.append(f"{label}: levels {(diag.j0, diag.J)}, the rule gives {(j0, J)}; "
                              "the exact law needs a linear estimator")
                continue
            law = exact_risk.risk_law(s.truth, design, s.cfg.kernel, s.est, J)
            risks = np.concatenate([s.capture.vector(master, n, s.reps) for master, _ in done])
            errors += checks.expected_risk(risks, law, label)
        return errors

    def _check_threads(self, s, master: int, report) -> list[str]:
        """The same seeds with one thread give the same risks, bit for bit."""
        many = {n: s.capture.vector(master, n, s.reps) for n in s.designs}
        with Patch() as patch:
            self.capture(s, patch)
            start = time.perf_counter()
            one = self.mc_risk(s, master, 1)
            s.one_thread_rate = s.reps * len(s.designs) / (time.perf_counter() - start)
        errors = []
        for n in s.designs:
            errors += checks.same_bits(many[n], s.capture.vector(master, n, s.reps),
                                       f"{self.name} n={n}: risks with {self.threads} threads "
                                       "against one thread")
        errors += checks.same_bits(np.array(report.rows, dtype=float),
                                   np.array(one.rows, dtype=float),
                                   f"{self.name}: report with {self.threads} threads "
                                   "against one thread")
        return errors

    def _check_blocks(self, s, master: int) -> list[str]:
        """Replay one round through the public functions; recompute every block decision."""
        errors = []
        j0, J = s.est.level_override
        spec = meyer.MeyerSpec(j0, J, s.est.aux_poly)
        for n, design in s.designs.items():
            n_star = exact_risk.n_star(design)
            captured = s.capture.vector(master, n, s.reps)
            for rep in range(s.reps):
                label = f"{self.name} n={n} seed {master} replicate {rep}"
                seed = np.random.SeedSequence(master, spawn_key=(n, rep))
                y = channels.simulate_observations(s.truth, design, s.kernel, seed)
                result = estimator.estimate(y, design, s.kernel, s.est)
                f_hat, _ = estimator.fourier_deconvolve(y, design, s.kernel, s.est.denom_tol)
                before = meyer.analyze(f_hat, spec)
                errors += checks.block_decisions(before, result.coeffs, result.decisions,
                                                 design.n, n_star, s.est, label)
                risk = np.mean((result.grid - s.capture.truth_grids[design.N]) ** 2)
                errors += checks.same_bits(risk, captured[rep], f"{label}: risk of the replay")
        return errors

    def _check_noise_free(self, s) -> list[str]:
        """N ifft(g_m f_m) estimated with mu = 0 gives back the truth grid."""
        errors = []
        noiseless = dataclasses.replace(s.est, mu=0.0)
        for n, design in s.designs.items():
            N, m = design.N, s.truth.m
            blurred = np.zeros((design.M, N), dtype=complex)
            blurred[:, m % N] = fine_kernel(design.u, m) * s.truth.values
            y = (N * np.fft.ifft(blurred, axis=1)).real
            truth = np.zeros(N, dtype=complex)
            truth[m % N] = s.truth.values
            grid = estimator.estimate(y, design, s.kernel, noiseless).grid
            errors += checks.relative_l2(grid, (N * np.fft.ifft(truth)).real, NOISE_FREE_LIMIT,
                                         f"{self.name} n={n}: noise-free estimate")
        return errors

    def layer_extra(self, s, rate_untraced: float, rate_traced: float) -> dict:
        one = s.one_thread_rate if self.threads > 1 else rate_untraced
        return {"riskbench.thread_speedup": rate_untraced / one,
                "trace.estimates_per_s_delta": rate_traced - one}

    def cleanup(self, s) -> None:
        pass


class CliRoundtrip:
    """``lrdeconv simulate`` then ``lrdeconv estimate``, each its own process."""

    name = "cli-roundtrip"
    peak_rss_of = resource.RUSAGE_CHILDREN
    setup_until_ready = False
    config_path = CONFIGS / "cli-roundtrip.yaml"

    def setup_command(self, seed: int) -> list[str]:
        return [sys.executable, "-m", "lrdeconv.cli", "estimate", "--dry-run",
                "--config", str(self.config_path)]

    def setup(self, seed: int, call=_plain_call):
        s = SimpleNamespace(seed=seed, pairs=[], notes=[], y_bytes=0)
        s.cfg = call("config.load_config", config.load_config, (self.config_path,), {})
        s.design = call("config.design_for_n", config.design_for_n,
                        (s.cfg, int(s.cfg.design["n"])), {})
        s.kernel = config.build_kernel(s.cfg)
        s.truth = config.build_truth(s.cfg)
        s.est = config.build_estimator_config(s.cfg)
        s.base = OUT / f"{self.name}-{os.getpid()}"
        shutil.rmtree(s.base, ignore_errors=True)
        s.base.mkdir(parents=True)
        return s

    def capture(self, s, patch: Patch) -> None:
        pass

    def _argv(self, command: str, seed: int, out: Path) -> list[str]:
        return [command, "--config", str(self.config_path), "--seed", str(seed), "--out", str(out)]

    def run_round(self, s, r: int):
        seed, out = derive(s.seed, 0, r), s.base / f"pair-{r}"
        for command in ("simulate", "estimate"):
            proc = subprocess.run([sys.executable, "-m", "lrdeconv.cli",
                                   *self._argv(command, seed, out)],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  env=subprocess_env(), cwd=ROOT)
            if proc.returncode != 0:
                s.notes.append(f"pair {r}: {command} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
                return 1, 1
        s.pairs.append((seed, out))
        return 1, 0

    def traced_round(self, s, r: int, tracer: Tracer):
        """The same pair in this process, through ``cli.main``."""
        return self._in_process(s, derive(s.seed, 0, r), s.base / f"pair-{r}", tracer, r)

    def warm(self, s, tracer: Tracer) -> None:
        """One in-process pair in the set-up phase, so traced pairs find warm caches."""
        self._in_process(s, derive(s.seed, 1), s.base / "warm", tracer, "warm")

    def _in_process(self, s, seed: int, out: Path, tracer: Tracer, key):
        tracer.set_estimate(("pair", key))
        with contextlib.redirect_stdout(sys.stderr):
            for command in ("simulate", "estimate"):
                code = tracer.call(f"cli.{command}_cmd", cli.main,
                                   (self._argv(command, seed, out),), {})
                if code != 0:
                    s.notes.append(f"pair {key}: in-process {command} returned {code}")
                    return 1, 1
        s.pairs.append((seed, out))
        s.y_bytes = (out / "y.csv").stat().st_size
        return 1, 0

    def check(self, s) -> list[str]:
        """y.csv parsed with numpy is the simulation; fhat_grid.csv is its estimate."""
        if not s.pairs:
            return [f"{self.name}: no command pair completed"]
        errors = []
        for seed, out in s.pairs:
            label = f"{self.name} seed {seed}"
            y = checks.read_table(out / "y.csv", skip_header=False)
            expected = channels.simulate_observations(s.truth, s.design, s.kernel, seed)
            errors += checks.same_bits(y, expected, f"{label}: y.csv against simulate_observations")
            fhat = checks.read_table(out / "fhat_grid.csv", skip_header=True)[:, 2]
            grid = estimator.estimate(y, s.design, s.kernel, s.est).grid
            errors += checks.same_bits(fhat, grid, f"{label}: fhat_grid.csv against estimate")
        return errors

    def layer_extra(self, s, rate_untraced: float, rate_traced: float) -> dict:
        return {"riskbench.thread_speedup": 1.0,
                "trace.estimates_per_s_delta": rate_traced - rate_untraced,
                "cli.import_ms": 1e3 * import_seconds(),
                "cli.y_csv_bytes": s.y_bytes}

    def cleanup(self, s) -> None:
        shutil.rmtree(s.base, ignore_errors=True)


def import_seconds() -> float:
    """Median time to import ``lrdeconv.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import lrdeconv.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(), cwd=ROOT, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


WORKLOADS = {
    "boxcar-large": MonteCarlo("boxcar-large", threads=1, exact_law=True),
    "heat-large-2t": MonteCarlo("heat-large-2t", threads=2, exact_law=True),
    "fine-levels": MonteCarlo("fine-levels", threads=1, blocks=True),
    "cli-roundtrip": CliRoundtrip(),
}
