"""Output checker: every request's stdout against an independent oracle.

A request fails when it exits nonzero, when its stdout holds ``nan`` or
``inf``, or when a value misses its oracle:

* exact values (``z``, exact ``corr`` rows, the ``exact`` column of
  ``sweep``) must match an oracle that takes another route than the CLI did:
  the adjacent-pair hitting formula (1 - p - r + pr) / (1 - pr) for a tree
  edge or a bottleneck bridge, else a closed form (path, cycle, complete,
  star, community star, bottleneck). The tolerance is 1e-9, on log Z for
  partition functions and absolute for probabilities;
* Monte Carlo estimates must lie within 5 standard errors of the oracle.
  The replica counts here are small enough that the normal band misjudges
  rare outcomes, so the band is applied as an exact binomial test at the
  two-sided 5-sigma level;
* ``sample`` must print a spanning forest of the graph and its trees as the
  blocks; ``verify`` must pass every check.

Oracles are evaluated outside the timed region and cached per input.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

from scipy.stats import binom

from lepart.closed_forms import bottleneck_quantities, path_correlation, z_complete, z_cycle, z_path
from lepart.errors import LepartError
from lepart.estimators import closed_form_correlation
from lepart.graphs import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    Path,
    Star,
    WeightedDigraph,
    is_tree,
    make_family,
    parse_family,
)
from lepart.spectral import hitting_prob

from workloads import Request

EXACT_TOL = 1e-9
#: Two-sided normal tail mass beyond 5 standard errors.
P_5SIGMA = math.erfc(5 / math.sqrt(2))

_NONFINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

#: A request whose stdout is ``nan`` with exit code 0 at the time of writing;
#: every run feeds it to the checker, which must count it as failed.
NAN_PROBE = Request(("z", "--family", "path:n=5", "--q", "inf"), "z", "path:n=5", None, math.inf)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    exact_values: int = 0  # exact numbers the request emitted
    forests: int = 0  # forests the request sampled


class CheckFailure(Exception):
    pass


@lru_cache(maxsize=256)
def _graph(family: str) -> WeightedDigraph:
    return make_family(parse_family(family))


@lru_cache(maxsize=4096)
def oracle_z(family: str, q: float) -> float:
    """log det(qI - L) from a closed form."""
    spec = parse_family(family)
    if isinstance(spec, Path):
        return z_path(spec.n, q, "closed").log()
    if isinstance(spec, Cycle):
        return z_cycle(spec.n, q).log()
    if isinstance(spec, Complete):
        return z_complete(spec.n, q).log()
    if isinstance(spec, Bottleneck):
        return bottleneck_quantities(spec.n, spec.m, spec.w, q).z.log()
    raise CheckFailure(f"no partition-function oracle for {family}")


@lru_cache(maxsize=8192)
def oracle_corr(family: str, x: int, y: int, q: float) -> float:
    """P(x and y in different trees), by a route the CLI does not take for these inputs."""
    spec = parse_family(family)
    g = _graph(family)
    bridge = isinstance(spec, Bottleneck) and {x, y} == {0, spec.n}
    if bridge or (g.weight(x, y) > 0.0 and is_tree(g)):
        # x and y are joined only through the edge xy; the CLI never takes this route
        p = hitting_prob(g, x, y, q)
        r = hitting_prob(g, y, x, q)
        return (1.0 - p - r + p * r) / (1.0 - p * r)
    if isinstance(spec, Path):
        return path_correlation(spec.n, min(x, y) + 1, max(x, y) + 1, q)
    if isinstance(spec, (Star, CommunityStar)):
        value = closed_form_correlation(spec, x, y, q)
        if value is not None:
            return value
    raise CheckFailure(f"no oracle for pair {x},{y} of {family}")


def _exact_ok(value: float, oracle: float, what: str) -> None:
    if not abs(value - oracle) <= EXACT_TOL:
        raise CheckFailure(f"{what}: {value!r} vs oracle {oracle!r}")


def _mc_ok(estimate: float, replicas: int, p: float, what: str) -> None:
    k = round(estimate * replicas)
    tail = min(binom.cdf(k, replicas, p), binom.sf(k - 1, replicas, p))
    if not min(1.0, 2.0 * tail) >= P_5SIGMA:
        raise CheckFailure(f"{what}: estimate {k}/{replicas} is beyond 5 sigma of {p!r}")


def _body(out: str) -> list[str]:
    return [line for line in out.splitlines() if line and not line.startswith("#")]


def _check_z(req: Request, lines: list[str]) -> Verdict:
    if lines[0] != "log_z,z" or len(lines) != 2:
        raise CheckFailure("malformed z output")
    _exact_ok(float(lines[1].split(",")[0]), oracle_z(req.family, req.q), "log_z")
    return Verdict(True, exact_values=1)


def _check_corr(req: Request, lines: list[str]) -> Verdict:
    if lines[0] != "method,value,stderr":
        raise CheckFailure("malformed corr output")
    x, y = req.pair
    oracle = oracle_corr(req.family, x, y, req.q)
    exact = forests = 0
    for line in lines[1:]:
        method, value, _ = line.split(",")
        if method == "mc":
            _mc_ok(float(value), req.replicas, oracle, "corr mc")
            forests += req.replicas
        else:
            _exact_ok(float(value), oracle, f"corr {method}")
            exact += 1
    method = req.argv[req.argv.index("--method") + 1]
    if forests != req.replicas or exact != (0 if method == "mc" else 1):
        raise CheckFailure("unexpected corr rows")
    return Verdict(True, exact_values=exact, forests=forests)


def _check_sweep(req: Request, lines: list[str]) -> Verdict:
    if lines[0] != "q,tag,exact,estimate,stderr,R,seed":
        raise CheckFailure("malformed sweep output")
    grid = req.argv[req.argv.index("--q-grid") + 1].split(":")
    if len(lines) - 1 != int(grid[3]):
        raise CheckFailure(f"expected {grid[3]} rows, got {len(lines) - 1}")
    x, y = req.pair
    forests = 0
    for line in lines[1:]:
        q, _, exact, estimate, _, replicas, _ = line.split(",")
        oracle = oracle_corr(req.family, x, y, float(q))
        if not exact:
            raise CheckFailure(f"no exact value at q={q}")
        _exact_ok(float(exact), oracle, f"sweep exact at q={q}")
        if req.replicas:
            _mc_ok(float(estimate), int(replicas), oracle, f"sweep mc at q={q}")
            forests += int(replicas)
        elif estimate:
            raise CheckFailure("estimate printed with --replicas 0")
    return Verdict(True, exact_values=len(lines) - 1, forests=forests)


def _check_sample(req: Request, lines: list[str]) -> Verdict:
    g = _graph(req.family)
    parent = json.loads(lines[0])
    if len(parent) != g.n:
        raise CheckFailure(f"forest on {len(parent)} vertices, graph has {g.n}")
    root = [-2] * g.n
    for v in range(g.n):
        trail = []
        u = v
        while root[u] == -2:
            p = parent[u]
            if p == -1:
                root[u] = u
                break
            if not (0 <= p < g.n and g.weight(u, p) > 0.0):
                raise CheckFailure(f"forest edge {u}->{p} is not a graph edge")
            trail.append(u)
            if len(trail) > g.n:
                raise CheckFailure("parent pointers contain a cycle")
            u = p
        for t in trail:
            root[t] = root[u]
    trees: dict[int, list[int]] = {}
    for v, r in enumerate(root):
        trees.setdefault(r, []).append(v)
    expected = ";".join("|".join(map(str, b)) for b in sorted(trees.values(), key=min))
    if lines[1] != "blocks," + expected:
        raise CheckFailure("blocks are not the trees of the forest")
    return Verdict(True, forests=1)


def _check_verify(lines: list[str], out: str) -> Verdict:
    if not lines or any(not line.startswith("PASS ") for line in lines):
        raise CheckFailure("a verification check did not pass")
    summary = out.rstrip("\n").splitlines()[-1]
    if summary != f"# {len(lines)}/{len(lines)} checks passed":
        raise CheckFailure(f"unexpected summary {summary!r}")
    return Verdict(True)


def check(req: Request, rc: int, out: str) -> Verdict:
    """Judge one request from its exit code and stdout."""
    if rc != 0:
        return Verdict(False, f"exit code {rc}")
    if _NONFINITE.search(out):
        return Verdict(False, "non-finite value in stdout")
    lines = _body(out)
    try:
        if not lines:
            raise CheckFailure("empty output")
        if req.command == "z":
            return _check_z(req, lines)
        if req.command == "corr":
            return _check_corr(req, lines)
        if req.command == "sweep":
            return _check_sweep(req, lines)
        if req.command == "sample":
            return _check_sample(req, lines)
        if req.command == "verify":
            return _check_verify(lines, out)
        raise CheckFailure(f"no checker for {req.command!r}")
    except (CheckFailure, LepartError, ValueError, IndexError, ArithmeticError) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}")
