"""Replicates per second and peak memory of riskbench.mc_risk at one thread count.

    python3 perfbench/thread_scaling.py N THREADS

Runs 30 replicates of the heat-supersmooth-d04 design at total sample count
N after one warm-up call, in a fresh process so that the peak is its own.
The README's one-thread against two-thread table comes from it.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lrdeconv import config, riskbench  # noqa: E402


def main() -> None:
    n, threads = int(sys.argv[1]), int(sys.argv[2])
    cfg = config.load_config(ROOT / "configs" / "heat-supersmooth-d04.yaml")
    kernel, truth = config.build_kernel(cfg), config.build_truth(cfg)
    est = config.build_estimator_config(cfg)

    def design(m):
        return config.design_for_n(cfg, m)

    riskbench.mc_risk(truth, design, kernel, est, [n], 30, 1, threads=threads)
    start = time.perf_counter()
    riskbench.mc_risk(truth, design, kernel, est, [n], 30, 2, threads=threads)
    wall = time.perf_counter() - start
    print(json.dumps({"n": n, "threads": threads, "reps_per_s": 30 / wall,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    main()
