#!/usr/bin/env python3
"""Implanted-module detection on a regular hierarchical tree.

On the tree with branching d and depth h, edges of generation i (distance i
from the ancestor) carry weight w_i. For one parent-child pair per
generation, emits the exact separation probability over a q-grid (with
Monte Carlo estimates when --replicas > 0), then each generation's
half-crossing q* next to its threshold d^-k w_i, k the child's distance to
the leaves: the separation flips from 0 to 1 as q crosses that scale.

    python3 scripts/hier_layers.py --d 3 --h 4 --weights 1,10,100,1000 > hier_layers.csv
"""

import argparse
import math
import sys

import numpy as np

from lepart import detect_layers_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--h", type=int, default=4)
    ap.add_argument("--weights", default="1,10,100,1000", help="one weight per generation, nondecreasing")
    ap.add_argument("--q-grid", default="1e-4:1e4:33", help="lo:hi:count, log spaced")
    ap.add_argument("--replicas", type=int, default=0, help="add MC estimates from this many forests per row")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    weights = [float(w) for w in args.weights.split(",")]
    lo, hi, count = args.q_grid.split(":")
    grid = list(np.logspace(math.log10(float(lo)), math.log10(float(hi)), int(count)))

    table, crossings = detect_layers_experiment(args.d, args.h, weights, grid, args.replicas, args.seed)
    print(f"# hierarchical tree d={args.d} h={args.h} weights={args.weights}")
    for c in crossings:
        q_half = "none in grid" if c.q_half is None else f"{c.q_half:.6g}"
        print(
            f"# gen{c.generation} (vertices {c.parent}-{c.child}, k={c.distance_to_leaves}): "
            f"q*={q_half}, threshold d^-k w={c.threshold:.6g}"
        )
    sys.stdout.write(table.to_csv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
