"""Seeded Chao-style instance corpus for the solver benchmark.

Each workload is a fixed list of *slots*.  A slot fixes the shape of one
instance (vertex count, fleet size, time budget, mandatory fraction, and a
role); the seed fixes everything else: coordinates drawn uniformly from a
square, integer scores in Chao steps, and the ``generate_stop`` seed that picks
the mandatory vertices.  The same (workload, seed) always gives byte-identical
files.

Roles:

* ``free``      - an ordinary instance; when it has mandatory vertices the
                  draw is repeated until every one of them passes the
                  mandatory screen, so the search has work to do.
* ``screen``    - the mandatory draw is repeated until some mandatory vertex
                  cannot reach both route ends within the budget, so the
                  solvers' mandatory screen certifies infeasibility.
* ``exhausted`` - the mandatory draw is repeated until the mandatory set
                  passes the screen but holds more pairwise conflicting
                  vertices than there are vehicles, so no route set covers it
                  and a solver can only certify infeasibility by its relaxation
                  or by exhausting the search.

Only the written files reach the solver.

    python3 perfbench/corpus.py --workload cpa-solve --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from orienteer.instance import (  # noqa: E402
    generate_stop,
    min_time_matrix,
    parse_instance,
    serialize_instance,
)
from orienteer.separation import build_conflict_set  # noqa: E402

DEFAULT_SEED = 1

# Chao's sets draw scores from a handful of evenly spaced values.  The side
# of the square is set per tier so the slots' budgets reach a useful share of
# it: larger budgets made most instances too hard to close under the node cap.
SCORE_STEPS = {21: (10, 15, 20, 25, 30, 35, 40), 32: (5, 10, 15), 66: (5, 10, 15)}
SIDE = {21: 20.0, 32: 25.0, 66: 16.0}
MAX_DRAWS = 500


@dataclass(frozen=True)
class Slot:
    n: int
    m: int
    tmax: float
    fraction: float
    role: str = "free"

    def label(self, k):
        return f"s{k:02d}_n{self.n}_m{self.m}_t{self.tmax:g}_f{self.fraction:g}_{self.role}"


_CPA = (
    Slot(21, 2, 15.0, 0.0),
    Slot(21, 2, 20.0, 0.0),
    Slot(21, 2, 20.0, 0.1),
    Slot(21, 3, 20.0, 0.1),
    Slot(21, 3, 15.0, 0.25),
    Slot(21, 4, 15.0, 0.25),
    Slot(21, 4, 20.0, 0.0),
    Slot(32, 2, 20.0, 0.0),
    Slot(32, 3, 15.0, 0.0),
    Slot(32, 3, 20.0, 0.1),
    Slot(32, 4, 15.0, 0.0),
    Slot(32, 4, 20.0, 0.25),
    Slot(21, 2, 12.0, 0.25, "screen"),
    Slot(21, 2, 20.0, 0.25, "exhausted"),
    Slot(21, 3, 20.0, 0.25, "exhausted"),
)

_ROOT = (
    Slot(66, 3, 10.0, 0.0),
    Slot(66, 4, 10.0, 0.0),
    Slot(66, 2, 12.0, 0.0),
    Slot(66, 3, 12.0, 0.0),
    Slot(66, 4, 12.0, 0.0),
    Slot(66, 3, 10.0, 0.0),
)

# (slot index, slot) pairs; an index names the same instance in every
# workload that lists it
WORKLOADS = {
    "cpa-solve": tuple(enumerate(_CPA)),
    # the easier part of the cpa list: the smaller tier, which holds all
    # three infeasible slots
    "baseline-bc": tuple((k, s) for k, s in enumerate(_CPA) if s.n == 21),
    "root-cuts": tuple((100 + k, s) for k, s in enumerate(_ROOT)),
}


def _base_text(rng, slot):
    """Chao-layout file text with no mandatory line."""
    side = SIDE[slot.n]
    steps = SCORE_STEPS[slot.n]
    lines = [f"n {slot.n}", f"m {slot.m}", f"tmax {slot.tmax:g}"]
    for i in range(slot.n):
        # route ends sit in the middle band so short budgets still reach
        # a useful share of the square
        lo, hi = (0.35 * side, 0.65 * side) if i in (0, slot.n - 1) else (0.0, side)
        x = round(rng.uniform(lo, hi), 1)
        y = round(rng.uniform(lo, hi), 1)
        score = 0 if i in (0, slot.n - 1) else rng.choice(steps)
        lines.append(f"{x:.1f}\t{y:.1f}\t{score}")
    return "\n".join(lines) + "\n"


def _screened_out(inst, R):
    s, t = inst.origin, inst.destination
    return any(R[s, i] + R[i, t] > inst.time_limit for i in inst.mandatory)


def _conflict_clique(inst, R):
    """Size of a greedy pairwise-conflicting subset of the mandatory set."""
    conflicts = set(build_conflict_set(inst, R).pairs)
    clique = []
    for i in sorted(inst.mandatory):
        if all((min(i, j), max(i, j)) in conflicts for j in clique):
            clique.append(i)
    return len(clique)


def _accept(slot, inst, R):
    if _screened_out(inst, R):
        return slot.role == "screen"
    if slot.role == "exhausted":
        return _conflict_clique(inst, R) > inst.fleet_size
    return slot.role == "free"


def make_instance_text(slot, seed, k):
    """File text for slot ``k`` of a corpus drawn with ``seed``."""
    for draw in range(MAX_DRAWS):
        rng = random.Random(f"{seed}:{k}:{draw}")
        base = parse_instance(_base_text(rng, slot))
        inst = generate_stop(base, slot.fraction, rng.getrandbits(63))
        R = min_time_matrix(inst).values
        if _accept(slot, inst, R):
            return serialize_instance(inst)
    raise RuntimeError(f"no {slot.role} draw for slot {k} within {MAX_DRAWS} tries")


def write_corpus(workload, seed, out_dir):
    """Write the workload's instance files; returns their paths in slot order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, slot in WORKLOADS[workload]:
        text = make_instance_text(slot, seed, k)
        path = os.path.join(out_dir, slot.label(k) + ".txt")
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for path in write_corpus(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
