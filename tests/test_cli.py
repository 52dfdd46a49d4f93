import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lepart
from lepart import cli, load_edge_list, make_family, parse_family, path_correlation
from lepart.cli import main
from lepart.wilson import RootedForest
from oracles import oracle_forests, z_path_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_bottleneck_edge_count(capsys):
    code, out, _ = run(capsys, "gen", "--family", "bottleneck:n=3,m=2,w=0.5")
    assert code == 0
    g = load_edge_list(out)
    assert len(g.edges) == 3 * 2 + 2 * 1 + 2
    assert g == make_family(parse_family("bottleneck:n=3,m=2,w=0.5"))


def test_z_path5(capsys):
    code, out, _ = run(capsys, "z", "--family", "path:n=5", "--q", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# lepart z")
    assert "seed=42" in lines[0]
    logz, z = lines[2].split(",")
    assert float(z) == pytest.approx(55.0, rel=1e-12)
    assert float(logz) == pytest.approx(4.00733318523247, rel=1e-12)


def test_z_det_vs_closed_agree(capsys):
    _, out_c, _ = run(capsys, "z", "--family", "cycle:n=40", "--q", "0.7", "--method", "closed")
    _, out_d, _ = run(capsys, "z", "--family", "cycle:n=40", "--q", "0.7", "--method", "det")
    zc = float(out_c.strip().splitlines()[2].split(",")[0])
    zd = float(out_d.strip().splitlines()[2].split(",")[0])
    assert zc == pytest.approx(zd, rel=1e-9)
    # n = 10^5: the sparse route needs no dense n x n matrix
    code, out_d, _ = run(capsys, "z", "--family", "path:n=100000", "--q", "0.01", "--method", "det")
    assert code == 0
    _, out_c, _ = run(capsys, "z", "--family", "path:n=100000", "--q", "0.01", "--method", "closed")
    zc = float(out_c.strip().splitlines()[2].split(",")[0])
    zd = float(out_d.strip().splitlines()[2].split(",")[0])
    assert abs(zc - zd) <= 1e-9


def test_z_path_closed_form_is_the_surd_form(capsys):
    # the O(1) surd form, not the O(n) recurrence, which drifts at small q
    code, out, _ = run(capsys, "z", "--family", "path:n=100000", "--q", "1e-9", "--method", "closed")
    assert code == 0
    log_z = float(out.strip().splitlines()[2].split(",")[0])
    assert abs(log_z - z_path_oracle(100000, 1e-9, "chebyshev").log()) <= 1e-9


def test_z_json_format(capsys):
    code, out, _ = run(capsys, "z", "--family", "path:n=3", "--q", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["z"] == pytest.approx(8.0)


def test_corr_auto_path2(capsys):
    code, out, _ = run(capsys, "corr", "--family", "path:n=2", "--pair", "1,2", "--q", "2", "--method", "auto")
    assert code == 0
    lines = out.strip().splitlines()
    method, value, _ = lines[2].split(",")
    assert method == "enum"
    assert float(value) == pytest.approx(0.5)


def test_corr_methods_cross_check(capsys):
    args = ("corr", "--family", "star:n=12", "--pair", "1,2", "--q", "1.5")
    _, out_t, _ = run(capsys, *args, "--method", "tree")
    _, out_c, _ = run(capsys, *args, "--method", "closed")
    vt = float(out_t.strip().splitlines()[2].split(",")[1])
    vc = float(out_c.strip().splitlines()[2].split(",")[1])
    assert vt == pytest.approx(vc, rel=1e-9)


def test_explicit_corr_method_does_no_extra_work(capsys, monkeypatch):
    import lepart.estimators as estimators
    import lepart.spectral as spectral

    calls = []

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

    counted(estimators, "is_tree")
    counted(spectral, "is_tree")
    counted(estimators, "enumerate_forests")
    counted(estimators, "TreePairCorrelation")
    args = ("corr", "--family", "star:n=12", "--pair", "1,2", "--q", "1.5", "--method")
    assert run(capsys, *args, "closed")[0] == 0
    assert calls == []
    assert run(capsys, *args, "tree")[0] == 0
    assert calls == ["TreePairCorrelation", "is_tree"]
    calls.clear()
    assert run(capsys, *args, "auto")[0] == 0
    assert calls == ["is_tree", "TreePairCorrelation", "is_tree"]


def test_corr_mc_with_replicas(capsys):
    code, out, _ = run(
        capsys, "corr", "--family", "path:n=4", "--pair", "1,4", "--q", "1",
        "--method", "auto", "--replicas", "4000", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    assert "enum" in rows and "mc" in rows
    exact = float(rows["enum"][1])
    est, err = float(rows["mc"][1]), float(rows["mc"][2])
    assert abs(est - exact) < 4 * max(err, 1e-3)


@pytest.mark.parametrize("replicas, drawn", [(None, 100_000), ("0", 100_000), ("7", 7)])
def test_corr_config_reports_replicas_drawn(capsys, monkeypatch, replicas, drawn):
    """With no exact route and no --replicas, corr draws 100 000 replicas and says so."""
    calls = []

    def fake_mc(g, q, x, y, replicas, seed):
        calls.append(replicas)
        return lepart.SampleStats.from_counts(1, replicas, seed)

    monkeypatch.setattr(cli, "mc_correlation", fake_mc)
    argv = ["corr", "--family", "cycle:n=30", "--pair", "1,5", "--q", "0.01"]
    code, out, _ = run(capsys, *argv, *(["--replicas", replicas] if replicas else []))
    assert code == 0 and calls == [drawn]
    assert out.splitlines()[0] == (
        "# lepart corr family=cycle:n=30 format=csv method=auto pair=1,5 q=0.01 "
        f"replicas={drawn} seed=42 resolved-method=mc"
    )


def test_corr_config_replicas_without_sampling(capsys):
    """An exact route with --replicas 0 draws nothing and prints replicas=0."""
    code, out, _ = run(capsys, "corr", "--family", "path:n=4", "--pair", "1,4", "--q", "1")
    assert code == 0
    assert out.splitlines()[0].endswith("replicas=0 seed=42 resolved-method=enum")
    assert [ln.split(",")[0] for ln in out.splitlines()[2:]] == ["enum"]


def test_corr_reproducible(capsys):
    args = ("corr", "--family", "cycle:n=12", "--pair", "1,6", "--q", "0.5", "--method", "mc", "--replicas", "2000")
    _, out1, _ = run(capsys, *args, "--seed", "5")
    _, out2, _ = run(capsys, *args, "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, *args, "--seed", "6")
    assert out3 != out1


def test_sample_json_and_partition(capsys):
    code, out, _ = run(capsys, "sample", "--family", "star:n=6", "--q", "1", "--seed", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    forest = RootedForest(tuple(payload["parent"]))
    forest.validate(make_family(parse_family("star:n=6")))
    assert set(payload["roots"]) == {v for v, p in enumerate(payload["parent"]) if p == -1}
    assert sorted(v for b in payload["blocks"] for v in b) == list(range(6))


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "path:n=12", "--q-grid", "log:0.01:10:4",
        "--pair", "1,6", "--replicas", "0", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "q,tag,exact,estimate,stderr,R,seed"
    assert len(lines) == 2 + 4
    vals = [float(ln.split(",")[2]) for ln in lines[2:]]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))  # monotone in q


def test_q_grid_starts_and_ends_at_its_endpoints(capsys):
    """A grid's first and last points are lo and hi exactly; 10 ** log10(0.3) rounds to 0.29999999999999993."""
    code, out, _ = run(capsys, "sweep", "--family", "path:n=5", "--pair", "1,5", "--q-grid", "log:0.3:3:3")
    assert code == 0
    assert [float(line.split(",")[0]) for line in out.splitlines()[2:]][::2] == [0.3, 3.0]
    rng = np.random.default_rng(5)
    for _ in range(2000):
        lo, hi = np.sort(10.0 ** rng.uniform(-12, 12, 2)).tolist()
        count = int(rng.integers(2, 9))
        for kind in ("log", "lin"):
            grid = cli._parse_grid(f"{kind}:{lo!r}:{hi!r}:{count}")
            assert (grid[0], grid[-1], len(grid)) == (lo, hi, count)


def test_sweep_builds_its_graph_once(capsys, monkeypatch):
    import lepart.estimators as estimators
    import lepart.graphs as graphs

    built = []

    def counted(spec, fn=graphs.make_family):
        built.append(spec)
        return fn(spec)

    for module in (graphs, cli, estimators):
        monkeypatch.setattr(module, "make_family", counted)
    code, out, _ = run(
        capsys, "sweep", "--family", "bottleneck:n=120,m=12,w=1", "--pair", "1,121",
        "--q-grid", "log:0.01:1:5", "--replicas", "0",
    )
    assert code == 0
    assert built == [parse_family("bottleneck:n=120,m=12,w=1")]
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 5 and all(row.split(",")[2] for row in rows)  # the bridge's closed form, at every q


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "corr", "--family", "path:n=2", "--pair", "1,3", "--q", "1")[0] == 2
    assert run(capsys, "z", "--family", "torus:n=3", "--q", "1")[0] == 2
    for family in ("path:n=abc", "star:n=5,w=x", "hier:d=2,h=2,weights=1+y"):
        assert run(capsys, "z", "--family", family, "--q", "1")[0] == 2
    assert run(capsys, "sweep", "--family", "path:n=4", "--q-grid", "log:1:0.1:5", "--pair", "1,2")[0] == 2
    assert run(capsys, "z", "--family", "path:n=4", "--q", "-1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "z", "--q", "1")[0] == 2  # neither --family nor --graph


@pytest.mark.parametrize("method", ["closed", "auto"])
@pytest.mark.parametrize(
    "family", ["path:n=0", "complete:n=0", "cycle:n=2", "star:n=0", "star:n=5,w=-1", "commstar:n=5,k=7", "bottleneck:n=3,m=2,w=0"]
)
def test_invalid_family_z_exits_2(capsys, family, method):
    code, out, err = run(capsys, "z", "--family", family, "--q", "1", "--method", method)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_closed_z_builds_no_graph(capsys, monkeypatch):
    import lepart.graphs as graphs

    def refuse(spec):
        raise AssertionError(f"make_family({spec}) called")

    monkeypatch.setattr(graphs, "make_family", refuse)
    monkeypatch.setattr(cli, "make_family", refuse)
    for method in ("closed", "auto"):
        code, out, _ = run(capsys, "z", "--family", "path:n=100000", "--q", "0.5", "--method", method)
        assert code == 0
        assert out.splitlines()[0].endswith("resolved-method=closed")


def test_non_finite_q_exits_2(capsys):
    for q in ("inf", "nan"):
        assert run(capsys, "z", "--family", "path:n=5", "--q", q)[0] == 2
        assert run(capsys, "corr", "--family", "path:n=40", "--pair", "1,40", "--q", q, "--method", "tree")[0] == 2
        assert run(capsys, "sample", "--family", "path:n=5", "--q", q)[0] == 2
    assert run(capsys, "sweep", "--family", "path:n=40", "--q-grid", "log:1:inf:3", "--pair", "1,2")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        "z --family path:n=5 --q 1e308",
        "corr --family star:n=5,w=1e308 --pair 1,2 --q 1",
        "sweep --family path:n=5 --pair 1,3 --q-grid log:1:1e308:3",
        "z --family star:n=5,w=1e308 --q 1",
        "corr --family commstar:n=5,k=2,w=1e-320 --pair 1,4 --q 1e-320 --method closed",
    ],
)
def test_overflowing_exact_values_exit_3(capsys, argv):
    # finite, positive inputs whose exact values leave double precision
    code, out, err = run(capsys, *argv.split())
    assert code == 3
    assert "nan" not in out
    assert err.startswith("numeric error:")


@pytest.mark.parametrize("q", ["1e-20", "1e-300"])
def test_det_exits_3_when_q_rounds_away_from_every_weight(capsys, q):
    """Every q + W(v) rounds to W(v) = 299, so the stored qI - L is -L, which is singular."""
    code, out, err = run(capsys, "z", "--family", "complete:n=300", "--q", q, "--method", "det")
    assert code == 3
    assert all(line.startswith("#") for line in out.splitlines())  # no value
    assert err.startswith("numeric error:") and "rounding" in err


def test_sample_ends_when_q_rounds_away_from_every_weight(capsys):
    """At q = 1e-320 the cemetery's walks cannot end; rooted at the hub, one forest is drawn."""
    code, out, _ = run(capsys, "sample", "--family", "complete:n=3", "--q", "1e-320")
    assert code == 0
    row = json.loads(out.strip().splitlines()[1])
    RootedForest(tuple(row)).validate(make_family(parse_family("complete:n=3")))
    assert row.count(-1) == 1


@pytest.mark.parametrize(
    "tsv, q, code",
    [
        ("# n=3\n0\t1\t1\n1\t2\t2\n2\t0\t0.5\n", "1e-320", 3),  # a one-way 3-cycle
        ("".join(f"{a}\t{b}\t1\n{b}\t{a}\t1\n" for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))), "1e-320", 3),
        ("# n=4\n" + "".join(f"{a}\t{b}\t1\n{b}\t{a}\t1\n" for a, b in ((0, 1), (1, 2), (0, 2))), "1e-20", 0),
    ],
    ids=["one-way-cycle", "two-triangles", "triangle+isolated"],
)
def test_sample_ends_where_q_rounds_away_somewhere(tmp_path, capsys, tsv, q, code):
    """Where q is lost to rounding in q + W(v), ``sample`` exits 3 when some walk could not end, as
    ``z --method det`` does, and otherwise roots the walks in the one component where q is lost."""
    path = tmp_path / "g.tsv"
    path.write_text(tsv)
    got, out, err = run(capsys, "sample", "--graph", str(path), "--q", q)
    assert got == code
    if code == 3:
        assert err.startswith("numeric error:") and "would not end" in err
        assert run(capsys, "z", "--graph", str(path), "--q", q, "--method", "det")[0] == 3
    else:
        row = json.loads(out.strip().splitlines()[1])
        RootedForest(tuple(row)).validate(load_edge_list(tsv))
        assert row[3] == -1


@pytest.mark.parametrize("family, q", [("complete:n=300", "1e-6"), ("cycle:n=300", "1e-9")])
def test_sample_ends_below_the_kill_floor(capsys, family, q):
    """Killed with probability below KILL_FLOOR at every vertex, the cemetery's walks would take over
    1e8 steps on these graphs of more than MAX_HUB_VERTICES vertices; rooted at the hub, one forest is drawn."""
    code, out, _ = run(capsys, "sample", "--family", family, "--q", q)
    assert code == 0
    row = json.loads(out.strip().splitlines()[1])
    RootedForest(tuple(row)).validate(make_family(parse_family(family)))
    assert row.count(-1) == 1


def test_sample_exits_3_on_a_digraph_below_the_kill_floor(tmp_path, capsys):
    """A one-way 3-cycle keeps the cemetery, and at q = 1e-9 no q + W(v) rounds, but each walk would
    need over 1e8 expected steps: ``sample`` exits 3 rather than run them."""
    path = tmp_path / "g.tsv"
    path.write_text("# n=3\n0\t1\t1\n1\t2\t2\n2\t0\t0.5\n")
    code, out, err = run(capsys, "sample", "--graph", str(path), "--q", "1e-9")
    assert code == 3
    assert err.startswith("numeric error:") and "would not end" in err


def test_negative_replicas_exit_2(capsys):
    assert run(capsys, "corr", "--family", "path:n=5", "--pair", "1,5", "--q", "1", "--method", "mc", "--replicas", "-5")[0] == 2
    assert run(capsys, "sweep", "--family", "path:n=5", "--q-grid", "log:0.1:1:3", "--pair", "1,5", "--replicas", "-3")[0] == 2


def test_tree_route_beyond_thirty_edges(capsys):
    want = path_correlation(40, 1, 40, 0.05)
    code, out, _ = run(capsys, "corr", "--family", "path:n=40", "--pair", "1,40", "--q", "0.05", "--method", "tree")
    assert code == 0
    assert float(out.strip().splitlines()[2].split(",")[1]) == pytest.approx(want, abs=1e-12)
    code, out, _ = run(capsys, "sweep", "--family", "path:n=40", "--q-grid", "lin:0.05:0.1:2", "--pair", "1,40")
    assert code == 0
    assert float(out.strip().splitlines()[2].split(",")[2]) == pytest.approx(want, abs=1e-12)


def test_graph_file_input(tmp_path, capsys):
    g = make_family(parse_family("commstar:n=7,k=2,w=0.5"))
    from lepart import save_edge_list

    path = tmp_path / "g.tsv"
    path.write_text(save_edge_list(g))
    code, out, _ = run(capsys, "corr", "--graph", str(path), "--pair", "1,2", "--q", "1", "--method", "tree")
    assert code == 0
    assert float(out.strip().splitlines()[2].split(",")[1]) == pytest.approx(
        __import__("lepart").tree_correlation(g, 0, 1, 1.0)
    )


def test_infinite_edge_weights_exit_2(tmp_path, capsys):
    path = tmp_path / "g.tsv"
    path.write_text("# n=2\n0\t1\tinf\n1\t0\tinf\n")
    assert run(capsys, "z", "--graph", str(path), "--q", "1")[0] == 2
    assert run(capsys, "corr", "--graph", str(path), "--pair", "1,2", "--q", "1", "--method", "tree")[0] == 2


def test_gen_prints_config_first(capsys):
    _, out, _ = run(capsys, "gen", "--family", "path:n=3")
    lines = out.splitlines()
    assert lines[0].startswith("# lepart gen")
    assert lines[1] == "# n=3"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# lepart verify")
    assert all(ln.startswith("PASS") for ln in lines[1:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("seed", [42, 1])
def test_sampler_law_check_counts_rows_as_a_tuple_dict_does(monkeypatch, seed):
    """verify's sampler-law check hands the chi-square the counts a dict of row tuples gives."""
    from lepart import checks, enumerate_forests, forest_sampler
    from lepart.wilson import ForestSampler

    replicas = 3000
    path3, complete4 = make_family(parse_family("path:n=3")), make_family(parse_family("complete:n=4"))
    want = []
    cases = [ForestSampler(path3, q) for q in (0.5, 2.0)] + [forest_sampler(checks._ASYMMETRIC_TREE, 0.7)]
    for sampler in cases + [forest_sampler(complete4, 0.1)]:
        ens = enumerate_forests(sampler.graph)
        index = {f.parent: i for i, f in enumerate(oracle_forests(ens))}
        counts = np.zeros(len(ens))
        for row in sampler.draw(seed, 0, replicas).tolist():
            counts[index[tuple(row)]] += 1
        want.append(counts)
    got = []
    chi_square_p = checks._chi_square_p
    monkeypatch.setattr(checks, "_chi_square_p", lambda obs, exp: got.append(obs) or chi_square_p(obs, exp))
    checks._check_sampler_law(seed, replicas)
    assert len(got) == len(want)
    assert all(a.dtype == b.dtype and (a == b).all() for a, b in zip(got, want))


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["directory", "not-utf8"])
def test_unreadable_graph_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "g.tsv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run(capsys, "z", "--graph", str(path), "--q", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter on this checkout's sources, with an 80-column help width."""
    src = str(Path(lepart.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


#: Exits nonzero, listing them, if any SciPy module is loaded; run after the code under test.
_NO_SCIPY = "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); sys.exit(f'loaded {scipy}' if scipy else 0)"


@pytest.mark.parametrize("module", ["lepart", "lepart.cli"])
def test_import_loads_no_scipy(module):
    proc = _fresh_python("-c", f"import sys, {module}; {_NO_SCIPY}")
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "bottleneck:n=3,m=2,w=0.5"],
        ["z", "--family", "path:n=100000", "--q", "0.5", "--method", "closed"],
        ["corr", "--family", "path:n=12", "--pair", "2,9", "--q", "0.5", "--method", "closed"],
        ["sample", "--family", "cycle:n=7", "--q", "1", "--seed", "7"],
        ["corr", "--family", "bottleneck:n=6,m=3,w=0.5", "--pair", "1,8", "--q", "1", "--method", "mc", "--replicas", "300"],
        # q lost to rounding in every q + W(v): the search for stranded walks runs in numpy
        ["sample", "--family", "bottleneck:n=6,m=3,w=0.5", "--q", "1e-320", "--seed", "7"],
        # family trees are labelled in breadth-first order, so their search is read off the labels
        ["sample", "--family", "path:n=2000", "--q", "0.01", "--seed", "7"],
        ["corr", "--family", "hier:d=2,h=5,weights=1+2+4+8+16", "--pair", "11,41", "--q", "0.3", "--method", "tree"],
        ["corr", "--family", "star:n=40,w=0.5", "--pair", "3,4", "--q", "0.5", "--method", "mc", "--replicas", "300"],
        ["sweep", "--family", "commstar:n=40,k=10,w=0.5", "--pair", "2,21", "--q-grid", "log:0.2:4:3", "--replicas", "80"],
        # a tree's log Z is the sum of the logs of its pivots
        ["z", "--family", "path:n=2000", "--q", "0.5", "--method", "det"],
    ],
    ids=[
        "gen", "z-closed", "corr-closed-path", "sample-cycle", "corr-mc-bottleneck", "sample-bottleneck-tiny-q",
        "sample-path", "corr-tree-hier", "corr-mc-star", "sweep-commstar", "z-det-path",
    ],
)
def test_commands_that_need_no_scipy_load_none(argv):
    script = f"import sys\nfrom lepart.cli import main\nif main(sys.argv[1:]): sys.exit('failed')\n{_NO_SCIPY}"
    proc = _fresh_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr.decode()


#: (argv, in-process calls, exit code); the first is a usage error.
_REUSE_ARGVS = [
    (["z", "--q", "1"], 1, 2),
    (["--help"], 1, 0),
    (["gen", "--family", "bottleneck:n=3,m=2,w=0.5"], 2, 0),
    (["z", "--family", "cycle:n=6", "--q", "0.7", "--method", "det", "--format", "json"], 2, 0),
    (["corr", "--family", "path:n=12", "--pair", "2,9", "--q", "0.5", "--replicas", "300", "--seed", "5"], 2, 0),
    (["sample", "--family", "star:n=6,w=2", "--q", "1", "--seed", "7"], 2, 0),
    (["sweep", "--family", "path:n=6", "--pair", "1,6", "--q-grid", "log:0.1:10:3", "--replicas", "50"], 2, 0),
    (["verify", "--seed", "3"], 2, 0),
]


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    capsys.readouterr()
    for argv, calls, want_code in _REUSE_ARGVS:
        fresh = _fresh_python("-m", "lepart.cli", *argv)
        assert fresh.returncode == want_code, fresh.stderr.decode()
        for _ in range(calls):
            code, out, _ = run(capsys, *argv)
            assert (code, out.encode()) == (want_code, fresh.stdout), argv
    assert cli.build_parser.cache_info().misses == 1


#: ``lepart sample --family <f> --q <q> --format <fmt> --seed 7`` is pinned by the SHA-256 of its
#: stdout, so a change in how the forest is drawn or its blocks are found cannot change what it prints.
SAMPLE_Q = {"path:n=5000": "0.003", "hier:d=2,h=5,weights=1+2+4+8+16": "0.1", "cycle:n=5": "0.5",
            "commstar:n=40,k=10,w=0.5": "0.2", "bottleneck:n=6,m=4,w=0.5": "0.1"}


@pytest.mark.parametrize(
    "family, fmt, digest",
    [
        ("path:n=5000", "csv", "74984518456f3ba53407155b6a8f0a813f448542fdfde92d3ca8bcd7bf0b6731"),
        ("path:n=5000", "json", "2be52ad454bb1b89b944da5842dff2a480180dac553d9b48df7f51661cd9da79"),
        ("hier:d=2,h=5,weights=1+2+4+8+16", "csv", "3b315ec0758f6198f35f5c90e5ca0bd18ddae8d01e6f59a06d51fd7d3f002004"),
        ("hier:d=2,h=5,weights=1+2+4+8+16", "json", "af6e250461bf8580647707ad90ffc0c00280ad7cfcdf064ee61e5397e3fb9a40"),
        ("cycle:n=5", "csv", "2338e002eec8ed2c2677e9e4b89d66e8bbb494cd4cfc354d3df0f9d6ad87c5a7"),
        ("cycle:n=5", "json", "9af6b2ea1fa50cf723920cde0224a440ff2338631aad19416b77e8121f0fb051"),
        ("commstar:n=40,k=10,w=0.5", "csv", "e3b455b9ccefee4ae296c22a151e33423e6ca754f016afc8345cb42e37bd4a39"),
        ("commstar:n=40,k=10,w=0.5", "json", "aede9951eded0b0fc483fd5aabffd63a7cd27cc66ffd027b0c5486a73a260607"),
        ("bottleneck:n=6,m=4,w=0.5", "csv", "9155686eb184630ecd5825866c2f6b88a62b7c3ab4fc0836f4e3b6453dbb60bf"),
        ("bottleneck:n=6,m=4,w=0.5", "json", "09e4a8f529a6e313faaa10936d1383f8c7ee242360caed2f4f0df4c9b66ecd6c"),
    ],
)
def test_sample_stdout_is_pinned(capsys, family, fmt, digest):
    code, out, _ = run(capsys, "sample", "--family", family, "--q", SAMPLE_Q[family], "--format", fmt, "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: Fixed-seed Monte Carlo output on four tree families, pinned by the SHA-256 of its stdout as it was
#: when every separation was counted from whole next-pointer rows and pointer jumping, so counting it
#: from the pair's ancestors alone cannot change what is printed. The digest of a sweep leaves out its
#: exact column, whose last digits moved when the tree recursion began to carry the separation as a
#: probability; the tree-exact tests hold those values.
MC_CASES = {
    "path:n=30": ("6,25", "0.1", "503cb49ca3bcaa806d374266475f2163bb4ca95c811ef65a0211a1e2e584e185",
                  "920f49df2948a1978220ea1bf701b944d08bb3907715a745a02f51e314cd1339"),
    "star:n=40,w=0.5": ("3,4", "0.5", "7bc1a36ea81fd54ca5fdbb0bb35ac791b2e8c0979368c3bd62f717276007feaa",
                        "8275cb09011b484117a261f5231f2373e3d43ea1e1f6cddd8b28ae01e33ee679"),
    "commstar:n=40,k=10,w=0.5": ("2,21", "0.2", "c1d3a5f29dc12220973376850177e0703135e100530a58ccb21b36925dee273d",
                                 "469c4b9a5bc81ae6c30afced9e4d886403de1f2b1005d51a8a8ca287064c3264"),
    "hier:d=2,h=5,weights=1+2+4+8+16": ("11,41", "0.3", "ba7cb92706f806b334654481d340677af8dcbfd9b7b6b73d7a7797539ad22941",
                                        "cbd6ee608f363806d6d61d8942b1a4b7a138033dbbae6d7cfee2e68c2e3eee16"),
}


@pytest.mark.parametrize("family", MC_CASES)
def test_mc_corr_and_sweep_stdout_is_pinned(capsys, family):
    pair, q, corr_digest, sweep_digest = MC_CASES[family]
    code, out, _ = run(capsys, "corr", "--family", family, "--pair", pair, "--q", q, "--method", "mc", "--replicas", "300", "--seed", "11")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == corr_digest
    grid = f"log:{q}:{float(q) * 20:g}:3"
    code, out, _ = run(capsys, "sweep", "--family", family, "--pair", pair, "--q-grid", grid, "--replicas", "80", "--seed", "11")
    assert code == 0
    lines = out.splitlines(keepends=True)
    rows = [",".join("" if i == 2 else field for i, field in enumerate(line.split(","))) for line in lines[2:]]
    assert len(rows) == 3 and all(line.split(",")[2] for line in lines[2:])
    assert hashlib.sha256("".join(lines[:2] + rows).encode()).hexdigest() == sweep_digest


def test_tree_corr_prints_a_separation_below_q_squared_underflow(capsys):
    code, out, _ = run(capsys, "corr", "--family", "path:n=3", "--pair", "1,3", "--q", "1e-200", "--method", "tree")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split(",")[1])
    assert value == pytest.approx(path_correlation(3, 1, 3, 1e-200), rel=1e-12, abs=0)
    assert value == pytest.approx(4e-200 / 3, rel=1e-12, abs=0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family", [*SAMPLE_Q, "complete:n=300"])
def test_sample_prints_replica_0(capsys, family, fmt):
    """``sample --seed 7`` prints row 0 of ``forest_sampler(g, q).draw(7, 0, 1)`` and that row's blocks.

    complete:n=300 has more than MAX_HUB_VERTICES vertices, so its walks are rooted at the cemetery.
    """
    q = SAMPLE_Q.get(family, "0.1")
    code, out, _ = run(capsys, "sample", "--family", family, "--q", q, "--format", fmt, "--seed", "7")
    assert code == 0
    g = make_family(parse_family(family))
    sampler = lepart.forest_sampler(g, float(q))
    if family == "complete:n=300":
        assert sampler.root == -1
    row = sampler.draw(7, 0, 1)[0].tolist()
    blocks = [list(b) for b in lepart.partition_of(RootedForest(tuple(row))).blocks]
    lines = out.strip().splitlines()
    assert len(lines) == (3 if fmt == "csv" else 2)
    if fmt == "json":
        payload = json.loads(lines[1])
        assert (payload["parent"], payload["blocks"]) == (row, blocks)
    else:
        assert json.loads(lines[1]) == row
        assert lines[2] == "blocks," + ";".join("|".join(map(str, b)) for b in blocks)
