"""Self-tests of the benchmark's output checker and request generators.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lepart.cli  # noqa: E402

import checker  # noqa: E402
from layer_checks import expected_walk_steps  # noqa: E402
from lepart.graphs import Path as PathFamily, make_family  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lepart.cli.main(list(argv))
    return rc, out.getvalue()


def test_nan_output_counts_as_failed():
    rc, out = _run(checker.NAN_PROBE.argv)
    verdict = checker.check(checker.NAN_PROBE, rc, out)
    assert not verdict.ok


def test_exact_value_checked_against_closed_form():
    req = Request(("z", "--family", "path:n=300", "--q", "0.5", "--method", "det"), "z", "path:n=300", None, 0.5)
    rc, out = _run(req.argv)
    assert checker.check(req, rc, out) == checker.Verdict(True, exact_values=1)
    header, values = out.rstrip("\n").rsplit("\n", 1)
    log_z, z = values.split(",")
    tampered = f"{header}\n{float(log_z) + 1e-8!r},{z}\n"
    assert not checker.check(req, rc, tampered).ok


def test_mc_estimate_band():
    req = Request(
        ("corr", "--family", "path:n=10", "--pair", "2,7", "--q", "0.3", "--method", "mc", "--replicas", "400", "--seed", "5"),
        "corr", "path:n=10", (1, 6), 0.3, 400,
    )
    rc, out = _run(req.argv)
    assert checker.check(req, rc, out) == checker.Verdict(True, forests=400)
    exact = checker.oracle_corr("path:n=10", 1, 6, 0.3)
    far = min(1.0, exact + 0.2) if exact < 0.5 else exact - 0.2
    lines = out.splitlines()
    lines[-1] = f"mc,{far!r},0.01"
    assert not checker.check(req, rc, "\n".join(lines) + "\n").ok


def test_sample_must_be_a_spanning_forest():
    req = Request(("sample", "--family", "path:n=6", "--q", "0.4", "--seed", "3"), "sample", "path:n=6", None, 0.4)
    rc, out = _run(req.argv)
    assert checker.check(req, rc, out).ok
    bad = out.replace("blocks,", "blocks,0;", 1)
    assert not checker.check(req, rc, bad).ok
    cyclic = "[1, 0, -1, -1, -1, -1]\nblocks,0|1;2;3;4;5\n"
    assert not checker.check(req, 0, cyclic).ok


def test_nonzero_exit_fails():
    req = Request(("corr", "--family", "path:n=5", "--pair", "1,9", "--q", "1", "--method", "tree"), "corr", "path:n=5", (0, 8), 1.0)
    rc, out = _run(req.argv)
    assert rc != 0 and not checker.check(req, rc, out).ok


def test_workloads_are_seeded():
    for make in WORKLOADS.values():
        first = make(1)
        assert first == make(1)
        assert first != make(2)
        assert len(first) == len(make(2))  # the slots are fixed, only their draws vary


def test_expected_walk_steps_formula():
    # the Path(30), q=0.05 case of the walk-step identity: 148.9 steps per forest
    assert abs(expected_walk_steps(make_family(PathFamily(30)), 0.05) - 148.9) < 0.05
