"""Checks and timings of single layers, run alongside the traced workload.

* ``work_counter_check``: the mean number of uniform draws (walk steps) per
  forest must match Wilson's and Marchal's expectation
  sum_v (q + W(v)) [(qI - L)^{-1}]_vv within a 5-sigma CLT band.
* ``baseline_table``: fixed-input timings of the layers listed in the
  ROADMAP's baseline table, so that table can be confirmed or corrected.
"""

from __future__ import annotations

import math
import statistics
import time
from random import Random

import numpy as np

from lepart.graphs import Complete, Path, laplacian, make_family, parse_family
from lepart.spectral import TreePairCorrelation, partition_function
from lepart.wilson import ForestSampler, split_seed

from tracing import CountingRandom

WORK_CASES = (("path:n=30", 0.05), ("bottleneck:n=10,m=4,w=0.3", 0.2), ("star:n=12,w=2", 0.7))


def expected_walk_steps(g, q: float) -> float:
    """sum_v (q + W(v)) G_vv with G = (qI - L)^{-1}."""
    green = np.linalg.inv(q * np.eye(g.n) - laplacian(g))
    return float(np.sum((q + g.out_weight) * np.diag(green)))


def work_counter_check(seed: int, forests: int = 4000) -> list[dict]:
    results = []
    for family, q in WORK_CASES:
        g = make_family(parse_family(family))
        sampler = ForestSampler(g, q)
        steps = []
        for r in range(forests):
            rng = CountingRandom(Random(split_seed(seed, r)))
            sampler.sample(rng)
            steps.append(rng.steps)
        mean = statistics.fmean(steps)
        expected = expected_walk_steps(g, q)
        z = (mean - expected) / (statistics.stdev(steps) / math.sqrt(forests))
        results.append({"case": f"{family} q={q}", "mean_steps": mean, "expected": expected, "z": z, "ok": abs(z) <= 5.0})
    return results


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def baseline_table() -> dict[str, float]:
    out = {}
    batch = 2000
    out["replica_seeding_us"] = 1e6 / batch * _median_time(lambda: [Random(split_seed(7, r)) for r in range(batch)], 5)
    path2000 = make_family(Path(2000))
    out["path2000_partition_function_s"] = _median_time(lambda: partition_function(path2000, 0.5), 3)
    out["complete300_make_family_s"] = _median_time(lambda: make_family(Complete(300)), 3)
    complete300 = make_family(Complete(300))
    out["complete300_laplacian_s"] = _median_time(lambda: laplacian(complete300), 3)
    path400 = make_family(Path(400))
    out["path400_d30_tree_build_s"] = _median_time(lambda: TreePairCorrelation(path400, 100, 130), 3)
    pair = TreePairCorrelation(path400, 100, 130)
    out["path400_d30_tree_at_s"] = _median_time(lambda: pair.at(0.1), 3)
    sampler = ForestSampler(make_family(Path(1000)), 1e-3)
    rngs = [Random(split_seed(7, r)) for r in range(10)]
    start = time.perf_counter()
    for rng in rngs:
        sampler.sample(rng)
    out["path1000_forest_s"] = (time.perf_counter() - start) / len(rngs)  # mean over 10 forests
    return out
