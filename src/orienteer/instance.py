"""Instance model for team orienteering with mandatory stops.

An instance lives on a digraph with an origin ``s``, a destination ``t``, a
set ``mandatory`` of vertices every solution must cover exactly once, and a
set ``profitable`` of optional vertices carrying integer rewards.  A fleet of
``fleet_size`` identical vehicles runs routes from ``s`` to ``t``, each within
the duration budget ``time_limit``.

Vertices keep stable integer ids for the lifetime of an instance: graph
reductions never re-index, they only clear entries of the arc presence mask
and move vertices into the ``removed`` set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np


class InstanceError(ValueError):
    """Malformed instance data or instance file."""


@dataclass(frozen=True)
class StopInstance:
    """Immutable instance description.

    travel_time is a dense (n, n) float matrix; arc_mask is the matching
    boolean presence matrix (diagonal always False).  ``rewards`` is defined
    exactly on ``profitable``.  ``min_times`` optionally carries the all-pairs
    minimum travel times of the graph the instance was derived from, so that
    model coefficients survive preprocessing unchanged.
    """

    vertex_count: int
    origin: int
    destination: int
    mandatory: frozenset
    profitable: frozenset
    rewards: dict
    travel_time: np.ndarray
    arc_mask: np.ndarray
    fleet_size: int
    time_limit: float
    coordinates: np.ndarray | None = None
    removed: frozenset = frozenset()
    min_times: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        n = self.vertex_count
        s, t = self.origin, self.destination
        if not (0 <= s < n and 0 <= t < n and s != t):
            raise InstanceError(f"bad origin/destination ({s}, {t}) for n={n}")
        special = {s, t}
        if self.mandatory & self.profitable:
            raise InstanceError("mandatory and profitable sets overlap")
        if special & (self.mandatory | self.profitable | self.removed):
            raise InstanceError("origin/destination cannot be mandatory, profitable or removed")
        everyone = self.mandatory | self.profitable | self.removed | special
        if everyone != frozenset(range(n)):
            raise InstanceError("vertex partition does not cover the vertex set")
        if set(self.rewards) != set(self.profitable):
            raise InstanceError("rewards must be defined exactly on the profitable set")
        for i, p in self.rewards.items():
            if p != int(p) or p < 0:
                raise InstanceError(f"reward of vertex {i} must be a nonnegative integer")
        if self.fleet_size < 1:
            raise InstanceError("fleet_size must be >= 1")
        if not self.time_limit > 0:
            raise InstanceError("time_limit must be positive")
        if self.travel_time.shape != (n, n) or self.arc_mask.shape != (n, n):
            raise InstanceError("travel_time/arc_mask shape mismatch")
        if np.any(self.travel_time[self.arc_mask] < 0):
            raise InstanceError("negative travel time")
        if np.any(np.diag(self.travel_time) != 0) or np.any(np.diag(self.arc_mask)):
            raise InstanceError("diagonal must be zero and loop-free")
        self.travel_time.setflags(write=False)
        self.arc_mask.setflags(write=False)

    # -- views -------------------------------------------------------------

    @property
    def inner(self):
        """Vertices that may appear strictly inside a route."""
        return self.mandatory | self.profitable

    @property
    def present(self):
        return frozenset(range(self.vertex_count)) - self.removed

    @cached_property
    def arc_arrays(self):
        """(tails, heads, by_head) of the present arcs: tails and heads in
        (tail, head) order, the order of ``arcs()``, and the permutation of
        that order that lists them in (head, tail) order.  Built on first
        use and kept; a reduced instance is a new object with its own."""
        tails, heads = np.nonzero(self.arc_mask)
        by_head = np.lexsort((tails, heads))
        for a in (tails, heads, by_head):
            a.setflags(write=False)
        return tails, heads, by_head

    def arcs(self):
        """Present arcs in lexicographic (tail, head) order."""
        tails, heads, _ = self.arc_arrays
        return list(zip(tails.tolist(), heads.tolist()))


@dataclass(frozen=True)
class MinTimeMatrix:
    """All-pairs minimum travel times, +inf where no directed path exists."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class PreprocessReport:
    removed_vertices: frozenset
    infeasible_mandatory: frozenset


# -- route validation ---------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    violations: list
    reward: int
    durations: list


def validate_solution(inst, routes):
    """Independent route-set check: every rule violation is listed.

    Rules: each route runs origin to destination over present arcs within the
    time limit; no inner vertex is visited twice across routes; every
    mandatory vertex is covered; the fleet size bounds the route count.
    """
    violations = []
    durations = []
    seen = {}
    if len(routes) > inst.fleet_size:
        violations.append(f"{len(routes)} routes exceed fleet size {inst.fleet_size}")
    for ridx, route in enumerate(routes):
        label = f"route {ridx}"
        if len(route) < 2 or route[0] != inst.origin or route[-1] != inst.destination:
            violations.append(f"{label} must run from the origin to the destination")
            durations.append(math.inf)
            continue
        dur = 0.0
        broken = False
        for a, b in zip(route, route[1:]):
            if not (0 <= a < inst.vertex_count and 0 <= b < inst.vertex_count) or not inst.arc_mask[a, b]:
                violations.append(f"{label} uses missing arc ({a}, {b})")
                broken = True
                break
            dur += float(inst.travel_time[a, b])
        durations.append(math.inf if broken else dur)
        if not broken and dur > inst.time_limit + 1e-9:
            violations.append(f"{label} duration {dur:.6f} exceeds limit {inst.time_limit}")
        for v in route[1:-1]:
            if v in (inst.origin, inst.destination):
                violations.append(f"{label} revisits an endpoint")
            if v in seen:
                violations.append(f"vertex {v} visited by {seen[v]} and {label}")
            seen[v] = label
            if v not in inst.inner:
                violations.append(f"{label} visits vertex {v} which is not routable")
    missing = sorted(inst.mandatory - set(seen))
    if missing:
        violations.append(f"mandatory vertices not covered: {missing}")
    reward = sum(inst.rewards.get(v, 0) for v in seen)
    return Verdict(not violations, violations, reward, durations)


# -- parsing / serialization -----------------------------------------------
#
# File format (the common team-orienteering benchmark layout):
#   n <vertices>
#   m <vehicles>
#   tmax <time limit>
#   <x> <y> <score>      one line per vertex; first is the origin, last the
#                        destination
#   M: <i1> <i2> ...     optional trailing line of zero-based mandatory ids
#
# Travel times are full-precision Euclidean distances; the graph is complete.


def _header_value(line, key, lineno, integer=False):
    parts = line.replace(";", " ").split()
    if len(parts) < 2 or parts[0].lower() != key:
        raise InstanceError(f"line {lineno}: expected '{key} <value>', got {line!r}")
    try:
        value = float(parts[1])
    except ValueError as exc:
        raise InstanceError(f"line {lineno}: non-numeric {key} value {parts[1]!r}") from exc
    if not math.isfinite(value):
        raise InstanceError(f"line {lineno}: non-finite {key} value {parts[1]!r}")
    if integer:
        if value != int(value):
            raise InstanceError(f"line {lineno}: non-integer {key} value {parts[1]!r}")
        return int(value)
    return value


def parse_instance(text, mandatory_spec=None, name=""):
    """Parse an instance file; ``mandatory_spec`` overrides any M: line."""
    if hasattr(text, "read"):
        text = text.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise InstanceError("truncated file: missing n/m/tmax header")
    n = _header_value(lines[0], "n", 1, integer=True)
    m = _header_value(lines[1], "m", 2, integer=True)
    tmax = _header_value(lines[2], "tmax", 3)
    if n < 2:
        raise InstanceError("need at least origin and destination")

    body = lines[3:]
    mandatory_line = None
    if body and body[-1].upper().startswith("M:"):
        mandatory_line = body[-1][2:]
        body = body[:-1]
    if len(body) != n:
        raise InstanceError(f"expected {n} vertex lines, found {len(body)}")

    coords = np.empty((n, 2))
    scores = np.empty(n)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) < 3:
            raise InstanceError(f"vertex line {i}: expected 'x y score', got {ln!r}")
        try:
            coords[i] = (float(parts[0]), float(parts[1]))
            scores[i] = float(parts[2])
        except ValueError as exc:
            raise InstanceError(f"vertex line {i}: non-numeric field in {ln!r}") from exc
        if not (np.all(np.isfinite(coords[i])) and math.isfinite(scores[i])):
            raise InstanceError(f"vertex line {i}: non-finite field in {ln!r}")

    if mandatory_spec is None and mandatory_line is not None:
        mandatory_spec = mandatory_line.split()
    try:
        mandatory = frozenset(int(i) for i in mandatory_spec or ())
    except ValueError as exc:
        ids = " ".join(map(str, mandatory_spec))
        raise InstanceError(f"non-integer mandatory id in {ids!r}") from exc
    for i in mandatory:
        if i in (0, n - 1) or not 0 <= i < n:
            raise InstanceError(f"mandatory index {i} out of range or origin/destination")

    diff = coords[:, None, :] - coords[None, :, :]
    travel = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(travel, 0.0)
    mask = ~np.eye(n, dtype=bool)

    profitable = frozenset(range(1, n - 1)) - mandatory
    for i in sorted(profitable):
        if scores[i] != int(scores[i]):
            raise InstanceError(f"vertex {i}: reward {scores[i]} is not an integer")
    rewards = {i: int(scores[i]) for i in sorted(profitable)}
    return StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=mandatory,
        profitable=profitable,
        rewards=rewards,
        travel_time=travel,
        arc_mask=mask,
        fleet_size=m,
        time_limit=tmax,
        coordinates=coords,
        name=name,
    )


def instance_name(path):
    """The file name of ``path`` with its ``.txt``, ``.top`` and ``.stop``
    suffixes stripped in that order; any other dot stays (``p1.2.a``)."""
    name = path.rsplit("/", 1)[-1]
    for suffix in (".txt", ".top", ".stop"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name


def read_instance(path, mandatory_spec=None):
    """``parse_instance`` on the file at ``path``, named by ``instance_name``."""
    with open(path) as fh:
        return parse_instance(fh.read(), mandatory_spec=mandatory_spec, name=instance_name(path))


def serialize_instance(inst):
    """Inverse of parse_instance (coordinates required, full float precision)."""
    if inst.coordinates is None:
        raise InstanceError("cannot serialize an instance without coordinates")
    out = [f"n {inst.vertex_count}", f"m {inst.fleet_size}", f"tmax {float(inst.time_limit)!r}"]
    for i in range(inst.vertex_count):
        x, y = inst.coordinates[i]
        score = inst.rewards.get(i, 0)
        out.append(f"{float(x)!r}\t{float(y)!r}\t{score}")
    if inst.mandatory:
        out.append("M: " + " ".join(str(i) for i in sorted(inst.mandatory)))
    return "\n".join(out) + "\n"


# -- mandatory-set generation -------------------------------------------------


def _splitmix64(state):
    # Published 64-bit mixing generator; fixed here so generated instances are
    # reproducible across platforms and implementations.
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, z ^ (z >> 31)


def generate_stop(base, fraction, seed):
    """Move floor(fraction * |profitable|) vertices into the mandatory set.

    Pure function of (base, fraction, seed): the selection is a partial
    Fisher-Yates shuffle over the profitable ids in ascending order, driven by
    splitmix64, so the same seed gives the same instance everywhere.
    Rewards of the moved vertices leave the objective.  Instances that become
    infeasible are kept; feasibility is the solver's job to certify.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InstanceError(f"fraction {fraction} outside [0, 1]")
    if base.mandatory:
        raise InstanceError("generate_stop expects an instance with no mandatory vertices")
    pool = sorted(base.profitable)
    k = int(fraction * len(pool))
    state = seed & 0xFFFFFFFFFFFFFFFF
    for pos in range(k):
        state, draw = _splitmix64(state)
        j = pos + draw % (len(pool) - pos)
        pool[pos], pool[j] = pool[j], pool[pos]
    chosen = frozenset(pool[:k])
    return replace(
        base,
        mandatory=chosen,
        profitable=base.profitable - chosen,
        rewards={i: p for i, p in base.rewards.items() if i not in chosen},
        name=f"{base.name}_{fraction:g}_{seed}" if base.name else base.name,
    )


# -- shortest times and graph reduction --------------------------------------


def min_time_matrix(inst):
    """Floyd-Warshall over the present arcs; +inf marks unreachable pairs."""
    n = inst.vertex_count
    dist = np.full((n, n), math.inf)
    dist[inst.arc_mask] = inst.travel_time[inst.arc_mask]
    np.fill_diagonal(dist, 0.0)
    for k in sorted(inst.present):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return MinTimeMatrix(dist)


def preprocess(inst):
    """Drop vertices and arcs that no feasible route can use.

    A vertex i dies when R[s,i] + R[i,t] > T; an arc (i,j) dies when
    R[s,i] + d_ij + R[j,t] > T.  Arcs entering the origin or leaving the
    destination are dropped as well (no route may use them).  R is computed
    on the graph as given and attached to the result so model coefficients
    refer to the original graph.  Mandatory vertices that die are reported,
    not raised: the caller certifies infeasibility.
    """
    R = min_time_matrix(inst).values
    n, s, t = inst.vertex_count, inst.origin, inst.destination
    T = inst.time_limit

    alive = R[s, :] + R[:, t] <= T
    alive[[s, t]] = True
    newly_removed = frozenset(np.nonzero(~alive)[0].tolist()) - inst.removed

    keep = inst.arc_mask.copy()
    with np.errstate(invalid="ignore"):
        keep &= R[s, :, None] + inst.travel_time + R[None, :, t] <= T
    keep[:, s] = False
    keep[t, :] = False
    keep[~alive, :] = False
    keep[:, ~alive] = False

    out = replace(
        inst,
        mandatory=inst.mandatory - newly_removed,
        profitable=inst.profitable - newly_removed,
        rewards={i: p for i, p in inst.rewards.items() if i not in newly_removed},
        arc_mask=keep,
        removed=inst.removed | newly_removed,
        min_times=R,
    )
    report = PreprocessReport(
        removed_vertices=newly_removed,
        infeasible_mandatory=frozenset(inst.mandatory & newly_removed),
    )
    return out, report
