"""Command-line interface.

Subcommands: ``gen`` (emit a family as an edge list), ``z`` (partition
function), ``corr`` (pair separation probability), ``sample`` (one forest),
``sweep`` (exact + Monte Carlo table over a q-grid), ``verify`` (cross-oracle
suite). Every run prints its resolved configuration, seed included, before
any results. Vertices on the command line use 1-based labels (label i is
library vertex id i-1). Exit codes: 0 success, 2 usage error, 3 numeric
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .checks import run_checks
from .closed_forms import (
    bottleneck_quantities,
    community_star_quantities,
    star_quantities,
    z_complete,
    z_cycle,
    z_path,
)
from .enumeration import MAX_ENUM_VERTICES, brute_correlation, enumerate_forests
from .errors import FormatError, LepartError, NumericError, ParameterError, check_q
from .estimators import (
    CorrelationQuery,
    closed_form_correlation,
    exact_correlation,
    mc_correlation,
    sweep,
)
from .graphs import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    Path,
    Star,
    WeightedDigraph,
    family_to_string,
    is_tree,
    load_edge_list,
    make_family,
    parse_family,
    save_edge_list,
)
from .logvalue import LogValue
from .spectral import partition_function, tree_correlation
from .wilson import forest_to_json, partition_of, sample_forest

USAGE_ERROR = 2
NUMERIC_ERROR = 3
VERIFY_ERROR = 4


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="family string, e.g. path:n=10 or bottleneck:n=100,m=10,w=0.5")
    src.add_argument("--graph", help="edge-list TSV file")


def _add_common(p: argparse.ArgumentParser, replicas_default: int = 0) -> None:
    p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--replicas", type=int, default=replicas_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lepart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph as edge-list TSV")
    p.add_argument("--family", required=True)

    p = sub.add_parser("z", help="partition function det(qI - L)")
    _add_graph_args(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--method", choices=("det", "closed", "auto"), default="auto")
    _add_common(p)

    p = sub.add_parser("corr", help="P(two vertices land in different trees)")
    _add_graph_args(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--pair", required=True, help="1-based vertex labels, e.g. 1,5")
    p.add_argument("--method", choices=("enum", "tree", "closed", "mc", "auto"), default="auto")
    _add_common(p)

    p = sub.add_parser("sample", help="draw one forest and its partition")
    _add_graph_args(p)
    p.add_argument("--q", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("sweep", help="exact/MC separation table over a q-grid")
    _add_graph_args(p)
    p.add_argument("--q-grid", required=True, help="log:<lo>:<hi>:<count> or lin:<lo>:<hi>:<count>")
    p.add_argument("--pair", required=True, help="1-based vertex labels, e.g. 1,5")
    _add_common(p)

    p = sub.add_parser("verify", help="run the cross-oracle verification suite")
    p.add_argument("--seed", type=int, default=42)
    return parser


def _load_graph(args) -> tuple[WeightedDigraph, object | None]:
    if getattr(args, "family", None):
        spec = parse_family(args.family)
        return make_family(spec), spec
    with open(args.graph, encoding="utf-8") as fh:
        return load_edge_list(fh.read()), None


def _parse_pair(text: str, n: int) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"--pair wants two comma-separated labels, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParameterError(f"--pair labels must be integers: {exc}") from exc
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ParameterError(f"--pair labels must be distinct and in 1..{n}, got {text!r}")
    return a - 1, b - 1


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ParameterError(f"--q-grid wants log:<lo>:<hi>:<count> or lin:<lo>:<hi>:<count>, got {text!r}")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ParameterError(f"--q-grid: {exc}") from exc
    if not (0 < lo < hi < math.inf) or count < 2:
        raise ParameterError("--q-grid needs 0 < lo < hi < inf and count >= 2")
    if parts[0] == "log":
        return list(np.logspace(math.log10(lo), math.log10(hi), count))
    return list(np.linspace(lo, hi, count))


def _check_shared_args(args) -> None:
    if getattr(args, "q", None) is not None:
        check_q(args.q)
    if getattr(args, "replicas", 0) < 0:
        raise ParameterError(f"--replicas must be nonnegative, got {args.replicas}")


def _print_config(args, out, **extra) -> None:
    fields = {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}
    fields.update(extra)
    rendered = " ".join(f"{k.replace('_', '-')}={v}" for k, v in fields.items())
    print(f"# lepart {args.command} {rendered}", file=out)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _closed_form_z(spec, q: float) -> LogValue | None:
    if isinstance(spec, Path):
        return z_path(spec.n, q, "recurrence" if spec.n <= 10**6 else "closed")
    if isinstance(spec, Cycle):
        return z_cycle(spec.n, q)
    if isinstance(spec, Complete):
        return z_complete(spec.n, q)
    if isinstance(spec, Star) and spec.n >= 3:
        return star_quantities(spec.n, spec.w, q).z
    if isinstance(spec, CommunityStar) and spec.n >= 3:
        return community_star_quantities(spec.n, spec.k, spec.w, q).z
    if isinstance(spec, Bottleneck) and min(spec.n, spec.m) >= 2:
        return bottleneck_quantities(spec.n, spec.m, spec.w, q).z
    return None


def _cmd_gen(args, out) -> int:
    spec = parse_family(args.family)
    _print_config(args, out)  # '#'-prefixed, so the output stays loadable
    out.write(save_edge_list(make_family(spec)))
    return 0


def _cmd_z(args, out) -> int:
    g, spec = _load_graph(args)
    closed = _closed_form_z(spec, args.q) if spec is not None else None
    if args.method == "closed":
        if closed is None:
            raise ParameterError("--method closed needs a family with a closed form")
        value, resolved = closed, "closed"
    elif args.method == "det":
        value, resolved = partition_function(g, args.q), "det"
    elif closed is not None:
        value, resolved = closed, "closed"
    else:
        value, resolved = partition_function(g, args.q), "det"
    _print_config(args, out, resolved_method=resolved)
    z = value.to_float()
    if args.format == "json":
        payload = {"log_z": value.log(), "z": z if math.isfinite(z) else None}
        print(json.dumps(payload), file=out)
    else:
        print("log_z,z", file=out)
        print(f"{_fmt(value.log())},{_fmt(z) if math.isfinite(z) else ''}", file=out)
    return 0


def _cmd_corr(args, out) -> int:
    g, spec = _load_graph(args)
    x, y = _parse_pair(args.pair, g.n)
    method = args.method
    exact: float | None = None
    resolved = method
    if method == "enum":
        exact = brute_correlation(enumerate_forests(g), args.q, x, y)
    elif method == "tree":
        exact = tree_correlation(g, x, y, args.q)
    elif method == "closed":
        exact = closed_form_correlation(spec, x, y, args.q)
        if exact is None:
            raise ParameterError("--method closed needs a family pair with a closed form")
    elif method == "auto":
        exact = exact_correlation(g, x, y, args.q, spec)
        if exact is not None:
            resolved = "enum" if g.n <= MAX_ENUM_VERTICES else ("tree" if is_tree(g) else "closed")
        else:
            resolved = "mc"
    rows: list[tuple[str, float, float | None]] = []
    if exact is not None:
        rows.append((resolved, exact, None))
    if method == "mc" or (method == "auto" and exact is None) or args.replicas > 0:
        replicas = args.replicas if args.replicas > 0 else 100_000
        stats = mc_correlation(g, args.q, x, y, replicas, args.seed)
        rows.append(("mc", stats.estimate, stats.stderr))
    _print_config(args, out, resolved_method=resolved)
    if args.format == "json":
        payload = [
            {"method": m, "value": v, "stderr": s} for m, v, s in rows
        ]
        print(json.dumps(payload), file=out)
    else:
        print("method,value,stderr", file=out)
        for m, v, s in rows:
            print(f"{m},{_fmt(v)},{_fmt(s) if s is not None else ''}", file=out)
    return 0


def _cmd_sample(args, out) -> int:
    g, _ = _load_graph(args)
    _print_config(args, out)
    forest = sample_forest(g, args.q, args.seed)
    part = partition_of(forest)
    payload = {
        "parent": list(forest.parent),
        "roots": list(forest.roots),
        "blocks": [list(b) for b in part.blocks],
    }
    if args.format == "json":
        print(json.dumps(payload), file=out)
    else:
        print(forest_to_json(forest), file=out)
        print("blocks," + ";".join("|".join(str(v) for v in b) for b in part.blocks), file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    g, spec = _load_graph(args)
    x, y = _parse_pair(args.pair, g.n)
    grid = _parse_grid(args.q_grid)
    target = spec if spec is not None else g
    table = sweep(target, grid, [CorrelationQuery("corr", x, y)], args.replicas, args.seed)
    _print_config(args, out)
    if args.format == "json":
        payload = [row.__dict__ for row in table.rows]
        print(json.dumps(payload), file=out)
    else:
        out.write(table.to_csv())
    return 0


def _cmd_verify(args, out) -> int:
    _print_config(args, out)
    results = run_checks(seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failed += 1
        print(f"{status} {res.name}: {res.detail}", file=out)
    print(f"# {len(results) - failed}/{len(results)} checks passed", file=out)
    return 0 if failed == 0 else VERIFY_ERROR


_COMMANDS = {
    "gen": _cmd_gen,
    "z": _cmd_z,
    "corr": _cmd_corr,
    "sample": _cmd_sample,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _check_shared_args(args)
        return _COMMANDS[args.command](args, sys.stdout)
    except (ParameterError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except LepartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
