"""Benchmark of lrdeconv: estimate throughput, CPU, set-up and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # all workloads

Run from anywhere inside a checkout; the program is imported from its
``src/`` directory.  With ``--workload`` the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, the metrics
being the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.  Without ``--workload`` every workload runs in its own process and
a table of their results is printed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("boxcar-large", "heat-large-2t", "fine-levels", "cli-roundtrip")

END_TO_END = {
    "estimates_per_s": "1/s",
    "cpu_ms_per_estimate": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_untraced(w, args) -> dict:
    import workloads
    from spans import Patch

    setup_s = workloads.setup_seconds(w.setup_command(args.seed), w.setup_until_ready)
    s = w.setup(args.seed)
    try:
        with Patch() as patch:
            w.capture(s, patch)
            timing = workloads.timed_rounds(lambda r: w.run_round(s, r), args.seconds)
        peak_kb = resource.getrusage(w.peak_rss_of).ru_maxrss
        errors = w.check(s)
    finally:
        w.cleanup(s)
    metrics = {
        "estimates_per_s": timing.estimates_per_s(),
        "cpu_ms_per_estimate": timing.cpu_ms_per_estimate(),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return result(errors + s.notes, timing.attempted, timing.failed,
                  {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def run_traced(w, args) -> dict:
    """Half the time untraced, half traced with one thread; spans to a file."""
    import workloads
    from spans import Patch, Tracer

    tracer = Tracer()
    with Patch() as hooks:
        workloads.install_layer_hooks(hooks, tracer)
        s = w.setup(args.seed, call=tracer.call)
        w.warm(s, tracer)
    half = args.seconds / 2.0
    try:
        with Patch() as patch:
            w.capture(s, patch)
            untraced = workloads.timed_rounds(lambda r: w.run_round(s, r), half)
        tracer.phase = "traced"
        with Patch() as hooks:
            workloads.install_layer_hooks(hooks, tracer)
            with Patch() as patch:  # above the hooks, so spans exclude the capture
                w.capture(s, patch)
                traced = workloads.timed_rounds(lambda r: w.traced_round(s, r, tracer), half,
                                                first_round=untraced.rounds)
        tracer.phase = "check"
        errors = w.check(s)
        extra = w.layer_extra(s, untraced.estimates_per_s(), traced.estimates_per_s())
    finally:
        w.cleanup(s)
    metrics = workloads.layer_metrics(tracer.spans, extra)
    path = workloads.OUT / f"trace-{w.name}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed, "spans": tracer.spans}, fh)
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return result(errors + s.notes, untraced.attempted + traced.attempted,
                  untraced.failed + traced.failed,
                  {k: (v, workloads.LAYER_METRICS[k][0]) for k, v in metrics.items()})


def result(errors, attempted: int, failed: int, metrics: dict) -> dict:
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"] and res["failed"] == 0
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:32s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lrdeconv" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'lrdeconv'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload is None:
        return run_all(args)

    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        w.setup(args.seed)
        print("ready", flush=True)
        return 0
    res = run_traced(w, args) if args.trace else run_untraced(w, args)
    for name, v in res["metrics"].items():
        print(f"{args.workload} {name} = {v['value']:.6g} {v['unit']}")
    print(f"{args.workload} attempted {res['attempted']} estimates, failed {res['failed']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
