"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of slots. A slot fixes the command, the graph
family with all its parameters, the replica count and a centre for the
killing rate q. The seed draws what leaves the cost of a request nearly
unchanged: q within 3% of the slot's centre, the vertex pair, the request's
own ``--seed`` and the order of the list. So the latency of each slot, and
with it every latency quantile, hardly depends on the seed, while every seed
still sends different inputs.

Only families and pairs with an exact oracle are generated, so every output
can be checked (see ``checker.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class Request:
    """One CLI call and what the checker needs to know about it."""

    argv: tuple[str, ...]
    command: str
    family: str | None = None
    pair: tuple[int, int] | None = None  # 0-based vertex ids
    q: float | None = None
    replicas: int = 0

    @property
    def samples(self) -> bool:
        """True when the request draws forests (an MC request)."""
        return self.command == "sample" or self.replicas > 0


#: Half-width, in natural-log units, of the window around a slot's centre
#: from which the seed draws q.
Q_JITTER = 0.03


def _slot_q(rng: Random, lo: float, hi: float, k: int, i: int) -> float:
    """q for slot i of k: the centre of one of k equal log-strata of [lo, hi], jittered.

    Strata are dealt to slots by a permutation that does not depend on the
    seed, so the seed moves q only by the factor exp(+-Q_JITTER).
    """
    order = list(range(k))
    Random(k).shuffle(order)
    a, b = math.log(lo), math.log(hi)
    centre = a + (order[i] + 0.5) * (b - a) / k
    return math.exp(centre + Q_JITTER * (2.0 * rng.random() - 1.0))


def _fmt(q: float) -> str:
    return f"{q:.6g}"


def _corr(family: str, pair: tuple[int, int], q: float, method: str, replicas: int, seed: int) -> Request:
    q = float(_fmt(q))
    argv = ["corr", "--family", family, "--pair", f"{pair[0] + 1},{pair[1] + 1}", "--q", _fmt(q), "--method", method]
    if replicas:
        argv += ["--replicas", str(replicas), "--seed", str(seed)]
    return Request(tuple(argv), "corr", family, pair, q, replicas)


def _sweep(family: str, pair: tuple[int, int], lo: float, hi: float, count: int, replicas: int, seed: int) -> Request:
    grid = f"log:{_fmt(lo)}:{_fmt(hi)}:{count}"
    argv = (
        "sweep", "--family", family, "--pair", f"{pair[0] + 1},{pair[1] + 1}",
        "--q-grid", grid, "--replicas", str(replicas), "--seed", str(seed),
    )
    return Request(argv, "sweep", family, pair, None, replicas)


def _z(family: str, q: float) -> Request:
    q = float(_fmt(q))
    return Request(("z", "--family", family, "--q", _fmt(q), "--method", "det"), "z", family, None, q)


def _sample(family: str, q: float, seed: int) -> Request:
    q = float(_fmt(q))
    return Request(("sample", "--family", family, "--q", _fmt(q), "--seed", str(seed)), "sample", family, None, q, 0)


# -- small graphs with an oracle for one pair ----------------------------------


def _hier_size(d: int, h: int) -> int:
    return sum(d**g for g in range(h + 1))


def _hier(d: int, h: int, weights: list[float]) -> str:
    return f"hier:d={d},h={h},weights=" + "+".join(f"{w:g}" for w in weights)


def _hier_adjacent_pair(rng: Random, d: int, h: int) -> tuple[int, int]:
    """A random parent-child pair of the breadth-first labelled tree."""
    child = rng.randrange(1, _hier_size(d, h))
    g = 1  # generation of the child
    while child >= _hier_size(d, g):
        g += 1
    return (_hier_size(d, g - 2) + (child - _hier_size(d, g - 1)) // d, child)


#: Longest path between a pair that the tree-exact method accepts (the CLI
#: exits 2 beyond it); sweeps on trees take that route.
MAX_TREE_DISTANCE = 30


def _small_graph(rng: Random, kind: str, n: int, slot: int) -> tuple[str, tuple[int, int]]:
    """A family string of about n vertices and a pair it has an oracle for.

    The family's parameters come from the slot number alone; the seeded
    ``rng`` draws only the pair.
    """
    fixed = Random(f"{kind}:{n}:{slot}")
    if kind == "path":
        d = rng.randint(1, min(n - 1, MAX_TREE_DISTANCE))
        x = rng.randrange(n - d)
        return f"path:n={n}", (x, x + d)
    if kind == "star":
        w = fixed.choice((0.5, 1.0, 2.0))
        leaf = rng.randrange(1, n)
        other = rng.choice([0] + [v for v in range(1, n) if v != leaf])
        return f"star:n={n},w={w:g}", (min(leaf, other), max(leaf, other))
    if kind == "commstar":
        k = fixed.randrange(2, n - 2)
        w = fixed.choice((0.1, 0.5, 2.0))
        x, y = sorted(rng.sample(range(n), 2))
        return f"commstar:n={n},k={k},w={w:g}", (x, y)
    if kind == "bottleneck":
        a = max(2, round(n * 0.6))
        b = max(2, n - a)
        w = fixed.choice((0.2, 0.5, 1.0))
        return f"bottleneck:n={a},m={b},w={w:g}", (0, a)  # the bridge
    if kind == "hier":
        d, h = min(((d, h) for d in (2, 3, 4, 5) for h in (2, 3, 4, 5)), key=lambda t: abs(_hier_size(*t) - n))
        weights = sorted(fixed.choice((1.0, 2.0, 4.0)) for _ in range(h))
        return _hier(d, h, weights), _hier_adjacent_pair(rng, d, h)
    raise ValueError(kind)


SMALL_KINDS = ("path", "star", "commstar", "bottleneck", "hier")


def mc_small(seed: int) -> list[Request]:
    """Many replicas on graphs of at most 40 vertices: per-replica cost dominates."""
    rng = Random(f"mc_small:{seed}")
    out: list[Request] = []
    sizes = (8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40)
    slots = len(sizes) * len(SMALL_KINDS)
    for k, kind in enumerate(SMALL_KINDS):
        for j, n in enumerate(sizes):
            slot = k * len(sizes) + j
            family, pair = _small_graph(rng, kind, n, slot)
            q = _slot_q(rng, 0.05, 20.0, slots, slot)
            out.append(_corr(family, pair, q, "mc", 300, rng.randrange(2**31)))
    # sweeps over a 20-fold q range; on n <= 8 the exact column comes from enumeration
    sizes = (6, 7, 8, 16, 24, 32, 40)
    slots = len(sizes) * len(SMALL_KINDS)
    for k, kind in enumerate(SMALL_KINDS):
        for j, n in enumerate(sizes):
            slot = k * len(sizes) + j
            family, pair = _small_graph(rng, kind, n, 100 + slot)
            lo = _slot_q(rng, 0.05, 1.0, slots, slot)
            out.append(_sweep(family, pair, lo, 20.0 * lo, 3, 80, rng.randrange(2**31)))
    out.append(Request(("verify", "--seed", str(rng.randrange(2**31))), "verify"))
    rng.shuffle(out)
    return out


def mc_long_walks(seed: int) -> list[Request]:
    """Few forests on large sparse graphs at q = c/n, 3 <= c <= 12: walk steps dominate.

    At smaller c one forest's walk count varies more from seed to seed, and
    a single Path(5000) forest takes a large part of a pass. Twelve Path(1000)
    requests of one cost sit around the tail quantile (the 11th-slowest
    request), so the tail does not hinge on a single request.
    """
    rng = Random(f"mc_long_walks:{seed}")
    out: list[Request] = []
    for i, n in enumerate((1000, 1500, 2000) * 2 + (3000, 3000, 5000)):
        out.append(_sample(f"path:n={n}", _slot_q(rng, 5.0, 10.0, 9, i) / n, rng.randrange(2**31)))
    for i in range(12):
        q = _slot_q(rng, 11.0, 13.0, 1, 0) / 1000
        if i < 10:  # an adjacent pair: the hitting formula checks the closed form
            x = rng.randrange(999)
            out.append(_corr("path:n=1000", (x, x + 1), q, "closed", 10, rng.randrange(2**31)))
        else:
            out.append(_corr("path:n=1000", tuple(sorted(rng.sample(range(1000), 2))), q, "mc", 10, rng.randrange(2**31)))
    # one forest's walk count on the bottleneck varies about as much as its
    # mean, so this request draws 40 and prints no exact row
    q = _slot_q(rng, 9.0, 11.0, 1, 0) / 220
    out.append(_corr("bottleneck:n=200,m=20,w=1", (0, 200), q, "mc", 40, rng.randrange(2**31)))
    for i, (d, h, replicas) in enumerate(((2, 8, 10), (3, 5, 20), (4, 4, 20)) * 8):
        n = _hier_size(d, h)
        q = _slot_q(rng, 3.0, 10.0, 24, i) / n
        out.append(_corr(_hier(d, h, [1.0] * h), _hier_adjacent_pair(rng, d, h), q, "mc", replicas, rng.randrange(2**31)))
    rng.shuffle(out)
    return out


def exact_dense(seed: int) -> list[Request]:
    """Dense determinants, solves and the tree recursion; a few tree requests also sample."""
    rng = Random(f"exact_dense:{seed}")
    out: list[Request] = []
    z_families = (
        [f"path:n={n}" for n in (300, 450, 600, 800, 1100, 2000)]
        + [f"cycle:n={n}" for n in (300, 450, 600, 800, 1000, 1200)]
        + [f"complete:n={n}" for n in (80, 110, 140, 170, 200, 230)]
        + [f"bottleneck:n={n},m={m},w={w:g}" for n, m, w in ((100, 10, 0.5), (120, 20, 1.0), (140, 30, 0.2), (160, 20, 0.5), (180, 40, 1.0), (200, 10, 0.2))]
    )
    for j, family in enumerate(z_families):
        out.append(_z(family, _slot_q(rng, 0.01, 10.0, len(z_families), j)))
    # tree-exact corr on paths, path distance d <= 30
    for i, d in enumerate((1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)):
        n = (200, 250)[i % 2]
        x = rng.randrange(0, n - d)
        out.append(_corr(f"path:n={n}", (x, x + d), _slot_q(rng, 0.01, 10.0, 16, i), "tree", 0, 0))
    # tree-exact corr on adjacent pairs of hierarchical and community-star
    # trees; the community-star requests also sample a few forests
    for i, (d, h) in enumerate(((3, 4), (2, 7), (4, 3)) * 2):
        q = _slot_q(rng, 0.01, 10.0, 6, i)
        out.append(_corr(_hier(d, h, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0][:h]), _hier_adjacent_pair(rng, d, h), q, "tree", 0, 0))
    for i, (n, k, w) in enumerate(((200, 40, 0.5), (300, 90, 2.0), (400, 150, 0.1), (200, 70, 2.0), (300, 30, 0.1), (400, 120, 0.5))):
        q = _slot_q(rng, 1.0, 10.0, 6, i)  # sampling cost grows like 1/q: keep it small and steady
        out.append(_corr(f"commstar:n={n},k={k},w={w:g}", (0, rng.randrange(1, n)), q, "tree", 8, rng.randrange(2**31)))
    # exact-only sweeps: trees by the tree recursion, bottlenecks by closed forms
    for i, (n, d) in enumerate(((200, 4), (250, 8), (200, 12), (250, 16), (200, 20), (250, 24))):
        x = rng.randrange(0, n - d)
        lo = _slot_q(rng, 0.01, 1.0, 6, i)
        out.append(_sweep(f"path:n={n}", (x, x + d), lo, 10.0 * lo, 3, 0, 0))
    for i, (n, k, w) in enumerate(((150, 30, 0.01), (200, 60, 0.1), (250, 100, 1.0), (150, 60, 1.0), (200, 25, 0.01), (250, 50, 0.1))):
        x, y = sorted(rng.sample(range(n), 2))
        lo = _slot_q(rng, 0.01, 1.0, 6, i)
        out.append(_sweep(f"commstar:n={n},k={k},w={w:g}", (x, y), lo, 100.0 * lo, 5, 0, 0))
    for i, (n, m, w) in enumerate(((80, 8, 0.2), (100, 10, 0.5), (120, 12, 1.0), (80, 8, 1.0), (100, 10, 0.2), (120, 12, 0.5))):
        lo = _slot_q(rng, 0.01, 1.0, 6, i)
        out.append(_sweep(f"bottleneck:n={n},m={m},w={w:g}", (0, n), lo, 100.0 * lo, 5, 0, 0))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "mc_small": mc_small,
    "mc_long_walks": mc_long_walks,
    "exact_dense": exact_dense,
}
