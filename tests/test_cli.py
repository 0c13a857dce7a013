import json
import os
import subprocess
import sys

import pytest

import polydiag
from polydiag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_n2(capsys):
    code, out, _ = run(capsys, "enumerate", "2")
    assert code == 0
    assert out.splitlines() == ["(a,a)", "(0,0)", "(a,b)", "(a,0)", "(0,a)", "(a,-a)"]


def test_enumerate_filter_count(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--filter", "evenly", "--count-only")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "enumerate", "0", "--count-only")
    assert code == 0 and out.strip() == "1"


def test_enumerate_bad_filter(capsys):
    code, _, err = run(capsys, "enumerate", "3", "--filter", "weird")
    assert code == 2 and "unknown filter" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "(a,-a,0)", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["evenly_tagged"] and rows[0]["label"] == "evenly tagged"
    code, _, err = run(capsys, "classify", "(b,a)")
    assert code == 2


def digraph_file(tmp_path, text, name="g.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DIRICHLET_JSON = (
    '{"n": 3, "arrows": [[1,1,"3"],[2,1,"-1"],[1,2,"-1"],[2,2,"2"],[3,2,"-1"],'
    '[2,3,"-1"],[3,3,"3"]]}'
)


def test_invariants_dirichlet(capsys, tmp_path):
    path = digraph_file(tmp_path, DIRICHLET_JSON)
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "(a,0,-a)  evenly tagged" in out


def test_invariants_laplacian_3v1e(capsys, tmp_path):
    path = digraph_file(tmp_path, '{"n":3,"edges":[[2,3]]}')
    code, out, _ = run(capsys, "invariants", path, "--matrix", "laplacian")
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_lattice_json(capsys, tmp_path):
    path = digraph_file(tmp_path, DIRICHLET_JSON)
    code, out, _ = run(capsys, "lattice", path)
    assert code == 0
    d = json.loads(out)
    assert {n["typical"] for n in d["nodes"]} >= {"(a,0,-a)", "(a,b,c)"}
    assert d["covers"]
    code, out, _ = run(capsys, "lattice", path, "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_orbits_text(capsys, tmp_path):
    from fractions import Fraction as F

    from polydiag import graph

    g = graph.cayley_digraph(graph.dihedral_group_table(3), [(3, F(1)), (4, F(1))])
    path = digraph_file(tmp_path, graph.to_json(g))
    code, out, _ = run(capsys, "orbits", path)
    assert code == 0
    assert out.splitlines()[0] == "31 subspaces in 15 orbits"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "3", "--format", "csv")
    assert code == 0
    assert "polydiagonal,1,2,6,24,ok" in out


def test_count_deterministic(capsys):
    _, out1, _ = run(capsys, "count", "4")
    _, out2, _ = run(capsys, "count", "4")
    assert out1 == out2


def test_simulate_writes_csv(capsys, tmp_path):
    path = digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,"1"],[2,2,"1"]]}')
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "--preset", "vanderpol", "--eps", "2",
        "--digraph", path, "--scale", "0.5",
        "--dt", "0.01", "--T", "0.5", "--seed", "1",
        "--output", str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4"
    assert len(lines) == 52


def test_attractor_blowup_is_a_failure_witness(capsys):
    code, out, err = run(capsys, "check", "dynamics-attractors", "--dt", "5")
    assert code == 1 and "Traceback" not in err
    assert out.startswith("dynamics-attractors: FAIL")
    assert "witness: vdp M=0.5A blew up at t=" in out


def test_simulate_x0_validation(capsys, tmp_path):
    path = digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,"1"]]}')
    code, _, err = run(
        capsys, "simulate", "--preset", "vanderpol", "--digraph", path, "--x0", "1,2"
    )
    assert code == 2 and "--x0 needs 4 values" in err


def test_check_suite(capsys):
    code, out, _ = run(capsys, "check", "conjecture53", "--n", "5", "--trials", "10", "--seed", "7")
    assert code == 0
    assert out.startswith("conjecture53: PASS")


def test_check_main_lemma_file(capsys, tmp_path):
    path = digraph_file(
        tmp_path, '{"n": 3, "arrows": [[1,1,"1"],[1,2,"1"],[2,3,"1"]]}'
    )
    code, out, _ = run(capsys, "check", "main-lemma", "--file", path, "--lambda", "0")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] and len(d["rows"]) == 6


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "nope")
    assert code == 2 and "unknown suite" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "/nonexistent.json")
    assert code == 2


PAIR = ["--preset", "vanderpol", "--digraph", "{pair}"]
BAD_ARGV = {
    "enumerate-negative-n": ["enumerate", "-1"],
    "count-negative-n": ["count", "-1"],
    "simulate-scale": ["simulate", *PAIR, "--scale", "abc"],
    "simulate-x0": ["simulate", *PAIR, "--x0", "a,b,c,d"],
    "simulate-dt-zero": ["simulate", *PAIR, "--dt", "0"],
    "simulate-T-negative": ["simulate", *PAIR, "--T", "-1"],
    "simulate-seed-negative": ["simulate", *PAIR, "--seed", "-1"],
    "conjecture53-n": ["check", "conjecture53", "--n", "1"],
    "conjecture53-trials": ["check", "conjecture53", "--trials", "-1"],
    "dynamics-vdp-seed-negative": ["check", "dynamics-vdp", "--seed", "-1"],
    "dynamics-vdp-tol-negative": ["check", "dynamics-vdp", "--tol", "-1"],
    "simulate-eps-nan": ["simulate", *PAIR, "--eps", "nan"],
    "simulate-eps-inf": ["simulate", *PAIR, "--eps", "inf"],
    "main-lemma-lambda-zero-denominator": ["check", "main-lemma", "--file", "{pair}", "--lambda", "1/0"],
    "invariants-float-weight": ["invariants", "{float}"],
    "column-sums-float-weight": ["check", "column-sums", "--file", "{float}"],
    "orbits-format-dot": ["orbits", "{pair}", "--format", "dot"],
    "lattice-format-text": ["lattice", "{pair}", "--format", "text"],
    "output-unwritable": ["enumerate", "2", "--output", "{missing}"],
}


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV.keys())
def test_bad_input_exits_2(capsys, tmp_path, argv):
    paths = {
        "pair": digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,"1"],[2,2,"1"]]}'),
        "float": digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,0.5]]}', "float.json"),
        "missing": str(tmp_path / "missing" / "out.txt"),
    }
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err


def test_import_loads_no_process_pool():
    probe = "import polydiag.cli, sys; print(sorted(set(sys.modules) & {'concurrent.futures', 'multiprocessing'}))"
    src = os.path.dirname(os.path.dirname(polydiag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
