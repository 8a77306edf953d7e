#!/usr/bin/env python3
"""Compare the compiled max-flow kernel against the pure-Python fallback.

Runs both on identical generated networks (grids plus random support graphs
shaped like the separation workload) and prints per-size timings.

    python benchmarks/maxflow_backends.py [--repeat 50]

Run from a checkout: the package is imported from the repository's ``src/``,
ahead of any installed copy.
"""

import argparse
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orienteer import _pushrelabel_py  # noqa: E402

try:
    from orienteer import _pushrelabel as compiled
except ImportError:
    compiled = None


def random_support(rng, n, arcs):
    tails, heads, caps = [], [], []
    for _ in range(arcs):
        u, v = rng.sample(range(n), 2)
        tails.append(u)
        heads.append(v)
        caps.append(rng.uniform(0.05, 1.0))
    return tails, heads, caps


def time_kernel(kernel, nets, repeat):
    t0 = time.perf_counter()
    value = 0.0
    for _ in range(repeat):
        for n, tails, heads, caps, s, t in nets:
            f, _ = kernel.max_flow(n, tails, heads, caps, s, t)
            value += f
    return (time.perf_counter() - t0) / repeat, value


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()

    rng = random.Random(99)
    sizes = [(12, 40), (25, 120), (50, 350), (110, 900), (110, 3000)]
    print(f"{'n':>5} {'arcs':>6} {'python (ms)':>12} {'compiled (ms)':>14} {'speedup':>8}")
    for n, m in sizes:
        nets = []
        for _ in range(10):
            tails, heads, caps = random_support(rng, n, m)
            nets.append((n, tails, heads, caps, 0, n - 1))
        t_py, v_py = time_kernel(_pushrelabel_py, nets, args.repeat)
        if compiled is None:
            print(f"{n:>5} {m:>6} {t_py*100:>12.3f} {'unavailable':>14} {'-':>8}")
            continue
        t_cy, v_cy = time_kernel(compiled, nets, args.repeat)
        assert abs(v_py - v_cy) < 1e-6 * max(1.0, abs(v_py)), "kernels disagree"
        print(
            f"{n:>5} {m:>6} {t_py*100:>12.3f} {t_cy*100:>14.3f} {t_py/t_cy:>8.1f}"
        )
    if compiled is None:
        print("\ncompiled kernel missing; build it with: python setup.py build_ext --inplace")


if __name__ == "__main__":
    main()
