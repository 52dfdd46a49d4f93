import json

import pytest

from lepart import load_edge_list, make_family, parse_family, path_correlation
from lepart.cli import main
from lepart.wilson import RootedForest


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


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "corr", "--family", "path:n=2", "--pair", "1,3", "--q", "1")[0] == 2
    assert run(capsys, "z", "--family", "torus:n=3", "--q", "1")[0] == 2
    assert run(capsys, "sweep", "--family", "path:n=4", "--q-grid", "log:1:0.1:5", "--pair", "1,2")[0] == 2
    assert run(capsys, "z", "--family", "path:n=4", "--q", "-1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "z", "--q", "1")[0] == 2  # neither --family nor --graph


def test_non_finite_q_exits_2(capsys):
    for q in ("inf", "nan"):
        assert run(capsys, "z", "--family", "path:n=5", "--q", q)[0] == 2
        assert run(capsys, "corr", "--family", "path:n=40", "--pair", "1,40", "--q", q, "--method", "tree")[0] == 2
        assert run(capsys, "sample", "--family", "path:n=5", "--q", q)[0] == 2
    assert run(capsys, "sweep", "--family", "path:n=40", "--q-grid", "log:1:inf:3", "--pair", "1,2")[0] == 2


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
