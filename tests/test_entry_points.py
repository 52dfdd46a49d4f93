"""Property tests: every exact entry point and CLI command on arbitrary small inputs.

Family strings, vertex pairs (out-of-range ids and x == y included) and
killing rates (0, negative, nan and inf included) are drawn at random. A
library call must return a probability in [0, 1] or None, or raise a
LepartError; a CLI run must exit 0 with finite numbers on stdout, or exit 2.
"""

import contextlib
import importlib
import io
import math
import pkgutil
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import lepart
from lepart import LepartError, make_family, parse_family
from lepart.cli import main
from lepart.estimators import (
    CorrelationQuery,
    closed_form_correlation,
    exact_route,
    sweep,
)

families = st.one_of(
    st.builds("path:n={}".format, st.integers(1, 12)),
    st.builds("cycle:n={}".format, st.integers(2, 10)),
    st.builds("complete:n={}".format, st.integers(1, 5)),
    st.builds("star:n={},w={}".format, st.integers(1, 12), st.sampled_from([0.3, 1.0, 4.0])),
    st.builds("commstar:n={},k={},w={}".format, st.integers(2, 12), st.integers(0, 12), st.sampled_from([0.2, 2.0])),
    st.builds("hier:d=2,h={},weights=1+4+16".format, st.integers(1, 3)),
    st.builds("bottleneck:n={},m={},w={}".format, st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.5, 3.0])),
)
vertices = st.integers(-1, 16)
rates = st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]), st.floats(1e-6, 1e3))
methods = st.sampled_from(["auto", "enum", "tree", "closed", "mc"])


def _probability_or_error(call) -> None:
    try:
        value = call()
    except LepartError:
        return
    assert value is None or 0.0 <= value <= 1.0, value


def _auto_at(g, x, y, q, spec):
    """The ``auto`` route's value at q, or None when no exact route applies."""
    route = exact_route(g, x, y, spec)
    return None if route is None else route.at(q)


def _sweep_values(spec, x, y, q, replicas):
    table = sweep(spec, [q], [CorrelationQuery("c", x, y)], replicas, 1)
    for row in table.rows:
        for value in (row.exact, row.estimate):
            assert value is None or 0.0 <= value <= 1.0, value


@settings(max_examples=80, deadline=None)
@given(families, vertices, vertices, rates, methods, st.integers(0, 5))
def test_library_entry_points(family, x, y, q, method, replicas):
    spec = parse_family(family)
    try:
        g = make_family(spec)
    except LepartError:
        return
    try:
        route = exact_route(g, x, y, spec, method)
    except LepartError:
        route = None
    else:
        assert route is None or route.method in ("enum", "tree", "closed")
    if route is not None:
        _probability_or_error(lambda: route.at(q))
    _probability_or_error(lambda: _auto_at(g, x, y, q, spec))
    _probability_or_error(lambda: closed_form_correlation(spec, x, y, q))
    try:
        _sweep_values(spec, x, y, q, replicas)
    except LepartError:
        pass


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(families, vertices, vertices, rates, methods, st.sampled_from(["det", "closed", "auto"]), st.integers(1, 50))
def test_cli_commands(family, x, y, q, method, z_method, replicas):
    pair, rate = f"{x + 1},{y + 1}", repr(q)
    runs = [
        _cli("corr", "--family", family, "--pair", pair, "--q", rate, "--method", method, "--replicas", str(replicas)),
        _cli("sweep", "--family", family, "--pair", pair, "--q-grid", f"log:{rate}:{q * 4!r}:2", "--replicas", str(replicas)),
        _cli("sweep", "--family", family, "--pair", pair, "--q-grid", f"lin:{rate}:{q * 4!r}:2", "--format", "json"),
        _cli("z", "--family", family, "--q", rate, "--method", z_method),
    ]
    for code, out in runs:
        assert code in (0, 2), (code, out)
        assert code == 2 or not re.search("nan|inf", out, re.IGNORECASE), out


def test_every_public_name_resolves():
    """Each name in each lepart module's ``__all__`` is an attribute of that module.

    Tracers and star imports read every listed name, so an entry left behind
    by a deletion fails here rather than at their ``getattr``.
    """
    names = ["lepart"] + [f"lepart.{m.name}" for m in pkgutil.iter_modules(lepart.__path__)]
    for name in names:
        mod = importlib.import_module(name)
        missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
        assert not missing, (name, missing)
