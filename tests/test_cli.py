import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polydiag
from polydiag import checks, cli, counting
from polydiag.cli import main
from polydiag.partitions import KINDS


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
    code, _, err = run(capsys, "enumerate", "3", "--filter", "anti_synchrony")
    assert code == 2 and "anti-synchrony" in err


@pytest.mark.parametrize("kind", KINDS)
def test_every_filter_counts_what_the_census_counts(capsys, kind):
    for n in range(7):
        code, out, _ = run(capsys, "enumerate", str(n), "--filter", kind.replace("_", "-"), "--count-only")
        assert (code, out) == (0, "%d\n" % counting.enumeration_count(kind, n)), n


def test_polydiagonal_filter_keeps_every_line(capsys):
    assert run(capsys, "enumerate", "5", "--filter", "polydiagonal") == run(capsys, "enumerate", "5")


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


# The hit-heavy path: nearly every candidate of these digraphs is a hit.
HIT_HEAVY_DIGRAPHS = {
    "zero6": {"n": 6, "arrows": []},
    "K7": {"n": 7, "arrows": [[i, j, "1"] for i in range(1, 8) for j in range(1, 8) if i != j]},
    "directed_C8": {"n": 8, "arrows": [[i, i % 8 + 1, "1"] for i in range(1, 9)]},
    "C8": {"n": 8, "arrows": [[i, j, "1"] for i in range(1, 9) for j in (i % 8 + 1, (i - 2) % 8 + 1)]},
}
# sha256 of the stdout of each (digraph, command, --format)
HIT_HEAVY_SHA256 = {
    ("zero6", "lattice", "json"): "19e05779db7b15bff67a4b39d97e783e29c356661a9db8db636e83e3b12b748a",
    ("zero6", "lattice", "dot"): "791477e82b6ae26d6483d3579c1c0e611341b3c7047bdb42aeb5f45df440fb91",
    ("zero6", "orbits", "json"): "6e24b6af3f12f76af670dd86c4d168a42567adb4f8966e2498102c8038d4ef28",
    ("K7", "lattice", "json"): "d32e341bdc11a2436321365ef16b23e948f1f40beb065f1b2c6de26a747a11b5",
    ("K7", "lattice", "dot"): "42c34a2039e95e4b2dd581fff369ba87c7692feb7cfc058730b3344cd2f782ac",
    ("K7", "orbits", "json"): "eef045d4be41a1d2509fa06c53ec458188ec98f520afca9617842ec5136324de",
    ("directed_C8", "lattice", "json"): "bcf23627d4fe44854adec2de38f1ecbb83ba5b34e62366014afb8e8a757a3e47",
    ("directed_C8", "lattice", "dot"): "1da3dbec2c3d28d3f559908ac4522c5e5753e856e49c8804aeaae0b61d92e90b",
    ("directed_C8", "orbits", "json"): "03e4f9834f9ab5ba32d7535733fc85e211e3f4655cf11ce1f029c58e0a2d93ff",
    ("C8", "lattice", "json"): "2018b95274831b3c31dfadcccb927312c5845df2b4327ad7b298a81ece640cba",
    ("C8", "lattice", "dot"): "205165c06e1a5917d8f3fcd1fcfaaaf7e87f3e620890fa98002eb21ca1467108",
    ("C8", "orbits", "json"): "3764ef8133710fa28b6a7ec5dbb7af9b7fcb644b2ee17872e6ffe6a2392b6b33",
}


@pytest.mark.parametrize("name, command, fmt", HIT_HEAVY_SHA256)
def test_hit_heavy_outputs_are_pinned(capsys, tmp_path, name, command, fmt):
    path = digraph_file(tmp_path, json.dumps(HIT_HEAVY_DIGRAPHS[name]))
    code, out, _ = run(capsys, command, path, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HIT_HEAVY_SHA256[name, command, fmt]


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "3", "--format", "csv")
    assert code == 0
    assert "polydiagonal,1,2,6,24,ok" in out


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "rows": {"polydiagonal": [1, 2, 6, 24], "synchrony": [1, 1, 2, 5], "anti_synchrony": [0, 1, 4, 19],
                 "minimally": [0, 1, 3, 10], "fully": [1, 1, 2, 7], "evenly": [1, 1, 2, 4]},
        "cross_checked": dict.fromkeys(("polydiagonal", "synchrony", "anti_synchrony", "minimally", "fully",
                                        "evenly"), True),
    }


def test_check_column_sums_on_a_file(capsys):
    from polydiag import graph, invariance

    path = os.path.join(DEMO_DIR, "lapdirichlet.json")
    lap = graph.laplacian_matrix(graph.load_digraph(path))
    expected = invariance.report_to_json(invariance.check_constant_column_sums_theorem(lap)) + "\n"
    assert run(capsys, "check", "column-sums", "--file", path, "--matrix", "laplacian") == (0, expected, "")
    code, out, _ = run(capsys, "check", "column-sums", "--file", os.path.join(DEMO_DIR, "gandgt.json"))
    assert code == 1
    assert json.loads(out)["reason"] == "column sums are not constant"


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


def test_simulate_float_fault_is_a_blowup(capsys, tmp_path):
    path = digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,"1"],[2,2,"1"]]}')
    code, out, err = run(capsys, "simulate", "--preset", "singular_osc", "--digraph", path, "--x0=0,0.5,0,0.5")
    assert code == 1 and out == "" and "Traceback" not in err
    assert json.loads(err) == {"status": "blowup", "time": 0.001}


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


# The theorem suites from the CLI: each at seeds 0-11 with the benchmark's
# trial counts, each at its defaults, and two runs on two cells.
SUITE_TRIALS = (
    ("conjecture53", ["--trials", "6", "--n", "6"]),
    ("column-sums", ["--trials", "24"]),
    ("main-lemma", ["--trials", "24"]),
    ("input-output", ["--trials", "5"]),
    ("frobenius-perron", ["--trials", "7"]),
    ("strong-connectivity", ["--trials", "800"]),
)
THEOREM_SUITE_ARGVS = (
    [["check", name, "--seed", str(seed)] + extra for name, extra in SUITE_TRIALS for seed in range(12)]
    + [["check", name] for name, _ in SUITE_TRIALS]
    + [["check", "main-lemma", "--n", "2"], ["check", "input-output", "--n", "2"]]
)
# sha256 over each argv, its stdout and its exit code, in the order above
THEOREM_SUITES_SHA256 = "0d89a8523c196ca887bb09db460d1578eba93623629f1f8907e27ede3a3376ea"


def test_theorem_suite_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in THEOREM_SUITE_ARGVS:
        code, out, _ = run(capsys, *argv)
        digest.update(("%s\n%s%d\n" % (" ".join(argv), out, code)).encode())
    assert len(THEOREM_SUITE_ARGVS) == 80
    assert digest.hexdigest() == THEOREM_SUITES_SHA256


@pytest.mark.parametrize("name, checks_ran", [("dynamics-vdp", 2), ("dynamics-lorenz", 4)])
def test_dynamics_suites_count_the_checks_they_ran(capsys, name, checks_ran):
    code, out, _ = run(capsys, "check", name, "--T", "1")
    assert code == 0
    assert out.splitlines()[0] == "%s: PASS (%d trials)" % (name, checks_ran)


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
    "enumerate-empty-filter": ["enumerate", "2", "--filter", ""],
    "count-negative-n": ["count", "-1"],
    "simulate-scale": ["simulate", *PAIR, "--scale", "abc"],
    "simulate-scale-beyond-float": ["simulate", *PAIR, "--scale", "1e400"],
    "simulate-scaled-weight-beyond-float": ["simulate", "--preset", "vanderpol", "--digraph", "{heavy}",
                                            "--scale", "1e10"],
    "simulate-x0": ["simulate", *PAIR, "--x0", "a,b,c,d"],
    "simulate-x0-nan": ["simulate", *PAIR, "--T", "0.01", "--x0", "nan,0,0,0"],
    "simulate-x0-inf": ["simulate", *PAIR, "--T", "0.01", "--x0", "inf,0,0,0"],
    "simulate-dt-zero": ["simulate", *PAIR, "--dt", "0"],
    "simulate-T-negative": ["simulate", *PAIR, "--T", "-1"],
    "simulate-seed-negative": ["simulate", *PAIR, "--seed", "-1"],
    "conjecture53-n": ["check", "conjecture53", "--n", "1"],
    "conjecture53-trials": ["check", "conjecture53", "--trials", "-1"],
    "dynamics-vdp-seed-negative": ["check", "dynamics-vdp", "--seed", "-1"],
    "dynamics-vdp-tol-negative": ["check", "dynamics-vdp", "--tol", "-1"],
    "simulate-eps-nan": ["simulate", *PAIR, "--eps", "nan"],
    "simulate-eps-inf": ["simulate", *PAIR, "--eps", "inf"],
    "simulate-eps-for-lorenz": ["simulate", "--preset", "lorenz", "--digraph", "{pair}", "--eps", "2"],
    "simulate-coupling-size": ["simulate", "--preset", "lorenz", "--digraph", "{pair}", "--coupling", "vdp"],
    "simulate-empty-digraph": ["simulate", "--preset", "vanderpol", "--digraph", "{empty}"],
    "simulate-no-step": ["simulate", *PAIR, "--dt", "0.5", "--T", "0.2"],
    "simulate-steps-beyond-memory": ["simulate", *PAIR, "--dt", "1e-15"],
    "dynamics-vdp-no-step": ["check", "dynamics-vdp", "--dt", "0.5", "--T", "0.2"],
    "dynamics-vdp-steps-beyond-memory": ["check", "dynamics-vdp", "--dt", "1e-15", "--T", "1"],
    "main-lemma-lambda-zero-denominator": ["check", "main-lemma", "--file", "{pair}", "--lambda", "1/0"],
    "main-lemma-no-lambda": ["check", "main-lemma", "--file", "{pair}"],
    "main-lemma-lambda-not-simple": ["check", "main-lemma", "--file", "{pair}", "--lambda", "7"],
    "invariants-float-weight": ["invariants", "{float}"],
    "column-sums-float-weight": ["check", "column-sums", "--file", "{float}"],
    "orbits-format-dot": ["orbits", "{pair}", "--format", "dot"],
    "lattice-format-text": ["lattice", "{pair}", "--format", "text"],
    "invariants-above-n-cap": ["invariants", "{pair}", "--n-cap", "1"],
    "invariants-negative-n": ["invariants", "{negative_n}"],
    "invariants-fractional-n": ["invariants", "{fractional_n}"],
    "lattice-fractional-n": ["lattice", "{fractional_n}"],
    "orbits-fractional-n": ["orbits", "{fractional_n}"],
    "invariants-boolean-n": ["invariants", "{boolean_n}"],
    "invariants-fractional-endpoint": ["invariants", "{fractional_endpoint}"],
    "lattice-fractional-endpoint": ["lattice", "{fractional_endpoint}"],
    "orbits-fractional-endpoint": ["orbits", "{fractional_endpoint}"],
    "simulate-fractional-endpoint": ["simulate", "--preset", "vanderpol", "--digraph", "{fractional_endpoint}"],
    "invariants-boolean-endpoint": ["invariants", "{boolean_endpoint}"],
    "lattice-boolean-endpoint": ["lattice", "{boolean_endpoint}"],
    "orbits-boolean-endpoint": ["orbits", "{boolean_endpoint}"],
    "simulate-boolean-endpoint": ["simulate", "--preset", "vanderpol", "--digraph", "{boolean_endpoint}"],
    "invariants-string-endpoint": ["invariants", "{string_endpoint}"],
    "lattice-string-endpoint": ["lattice", "{string_endpoint}"],
    "invariants-boolean-weight": ["invariants", "{boolean_weight}"],
    "lattice-boolean-weight": ["lattice", "{boolean_weight}"],
    "simulate-boolean-weight": ["simulate", "--preset", "vanderpol", "--digraph", "{boolean_weight}"],
    "column-sums-boolean-weight": ["check", "column-sums", "--file", "{boolean_weight}"],
    "invariants-zero-denominator-weight": ["invariants", "{zero_denominator}"],
    "lattice-zero-denominator-weight": ["lattice", "{zero_denominator_edges}"],
    "orbits-zero-denominator-weight": ["orbits", "{zero_denominator}"],
    "simulate-zero-denominator-weight": ["simulate", "--preset", "vanderpol", "--digraph", "{zero_denominator_edges}"],
    "column-sums-zero-denominator-weight": ["check", "column-sums", "--file", "{zero_denominator}"],
    "main-lemma-zero-denominator-weight": ["check", "main-lemma", "--file", "{zero_denominator_edges}", "--lambda", "1"],
    "column-sums-above-scan-cap": ["check", "column-sums", "--file", "{cycle9}"],
    "column-sums-laplacian-above-scan-cap": ["check", "column-sums", "--file", "{cycle9}", "--matrix", "laplacian"],
    "invariants-huge-exponent-weight": ["invariants", "{huge_exponent}"],
    "column-sums-huge-exponent-weight": ["check", "column-sums", "--file", "{huge_exponent}"],
    "simulate-scale-huge-exponent": ["simulate", *PAIR, "--scale", "1e5000"],
    "output-unwritable": ["enumerate", "2", "--output", "{missing}"],
    "conjecture53-file": ["check", "conjecture53", "--file", "{missing}", "--trials", "1"],
    "column-sums-file-lambda": ["check", "column-sums", "--file", "{pair}", "--lambda", "5"],
    "dynamics-vdp-file-matrix": ["check", "dynamics-vdp", "--file", "{missing}", "--matrix", "laplacian"],
    "main-lemma-lambda-without-file": ["check", "main-lemma", "--lambda", "1"],
    "column-sums-matrix-without-file": ["check", "column-sums", "--matrix", "adjacency"],
    "main-lemma-file-trials": ["check", "main-lemma", "--file", "{pair}", "--lambda", "1", "--trials", "5"],
    "conjecture53-T": ["check", "conjecture53", "--T", "3"],
    "dynamics-attractors-tol": ["check", "dynamics-attractors", "--tol", "1"],
}


def input_paths(d):
    """Digraph files and output paths that argv templates name in braces."""
    paths = {"out": str(d / "out.txt"), "missing": str(d / "missing" / "out.txt")}
    for name, text in (
        ("pair", '{"n": 2, "arrows": [[1,2,"1"],[2,2,"1"]]}'),
        ("float", '{"n": 2, "arrows": [[1,2,0.5]]}'),
        ("garbled", '{"n": 2, "arrows": [[1,'),
        ("heavy", '{"n": 2, "arrows": [[1,2,"1e300"],[2,2,"1e300"]]}'),
        ("path13", json.dumps({"n": 13, "arrows": [[i, i + 1, str(i)] for i in range(1, 13)]})),
        # column sums 1, simple eigenvalue 1 with v = ones: the report reaches the scan
        ("cycle9", json.dumps({"n": 9, "arrows": [[i, i % 9 + 1, "1"] for i in range(1, 10)]})),
        ("negative_n", '{"n": -1, "arrows": []}'),
        ("fractional_n", '{"n": 2.5, "arrows": [[1,2,"1"]]}'),
        ("boolean_n", '{"n": true, "arrows": []}'),
        ("fractional_endpoint", '{"n": 2, "arrows": [[1.5, 2, "1"]]}'),
        ("boolean_endpoint", '{"n": 2, "arrows": [[true, 2, "1"]]}'),
        ("string_endpoint", '{"n": 2, "arrows": [["1", 2, "1"], [1, 2, "1"]]}'),
        ("boolean_weight", '{"n": 2, "arrows": [[1, 2, true]]}'),
        ("empty", '{"n": 0, "arrows": []}'),
        ("zero_denominator", '{"n": 2, "arrows": [[1, 2, "1/0"]]}'),
        # 10**5000 has more digits than Python prints an int with
        ("huge_exponent", '{"n": 2, "arrows": [[1, 2, "1e5000"], [2, 1, "1e5000"]]}'),
    ):
        paths[name] = digraph_file(d, text, name + ".json")
    paths["zero_denominator_edges"] = digraph_file(d, "n=2\n1 2 1/0\n", "zero_denominator.txt")
    return paths


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV.keys())
def test_bad_input_exits_2(capsys, tmp_path, argv):
    try:
        code = main([a.format(**input_paths(tmp_path)) for a in argv])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("name, flag", [("conjecture53-file", "--file"), ("column-sums-file-lambda", "--lambda"),
                                        ("dynamics-vdp-file-matrix", "--file"),
                                        ("main-lemma-lambda-without-file", "--lambda"),
                                        ("column-sums-matrix-without-file", "--matrix"),
                                        ("main-lemma-file-trials", "--trials"), ("conjecture53-T", "--T"),
                                        ("dynamics-attractors-tol", "--tol")])
def test_check_names_the_option_its_route_does_not_read(capsys, tmp_path, name, flag):
    argv = [a.format(**input_paths(tmp_path)) for a in BAD_ARGV[name]]
    assert unread_check_options(argv)[0] == flag
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: check %s" % argv[1])
    assert " does not read %s " % flag in err


def test_main_lemma_names_the_multiplicity_of_lambda(capsys, tmp_path):
    code, out, err = run(capsys, "check", "main-lemma", "--file", input_paths(tmp_path)["pair"], "--lambda", "7")
    assert (code, out, err) == (2, "", "error: eigenvalue 7 has geometric multiplicity 0, need 1\n")


def test_string_endpoint_reports_the_constructor_error(capsys, tmp_path):
    code, out, err = run(capsys, "invariants", input_paths(tmp_path)["string_endpoint"])
    assert code == 2 and out == "" and "endpoints must be integers in 1..2" in err


def test_simulate_names_the_empty_digraph(capsys, tmp_path):
    path = input_paths(tmp_path)["empty"]
    code, out, err = run(capsys, "simulate", "--preset", "vanderpol", "--digraph", path)
    assert code == 2 and out == ""
    assert err == "error: digraph %r has no vertices; a system needs n >= 1 cells\n" % path


def test_file_reports_give_the_scan_cap_as_an_input_error(capsys, tmp_path):
    """Refused before the report, so also where a hypothesis fails (path13
    has column sums that are not constant)."""
    paths = input_paths(tmp_path)
    for name, n in (("cycle9", 9), ("path13", 13)):
        for argv in (["column-sums"], ["main-lemma", "--lambda", "1"]):
            code, out, err = run(capsys, "check", *argv, "--file", paths[name])
            assert (code, out) == (2, "") and err.startswith("error: n=%d exceeds cap 8" % n)
            assert "n_cap" not in err and "--n-cap" not in err  # check has no such option


def test_orbits_beyond_twelve_cells_count_the_invariant_subspaces(capsys, tmp_path):
    """--n-cap bounds orbits as it bounds invariants; the automorphism
    search has no cell limit of its own.  path13's weights 1..12 are all
    different, so its group is trivial and every orbit has one member."""
    path = input_paths(tmp_path)["path13"]
    code, out, err = run(capsys, "orbits", path, "--n-cap", "13")
    assert (code, err) == (0, "")
    code, listed, _ = run(capsys, "invariants", path, "--n-cap", "13")
    subspaces = len(listed.splitlines())
    assert code == 0 and out.splitlines()[0] == "%d subspaces in %d orbits" % (subspaces, subspaces)
    assert [line.split()[0] for line in out.splitlines()[1:]] == [line.split()[0] for line in listed.splitlines()]


def test_orbits_above_the_n_cap_is_refused_before_the_search_and_the_scan(capsys, monkeypatch, tmp_path):
    """path13 at the default cap, and at 12, the cell limit orbits once
    had: the refusal is --n-cap's, and neither the automorphism search nor
    the scan runs."""
    from polydiag import graph, invariance

    def never(*args, **kwargs):
        raise AssertionError("ran before the refusal")

    monkeypatch.setattr(graph, "automorphism_generators", never)
    monkeypatch.setattr(invariance, "invariant_polydiagonals", never)
    path = input_paths(tmp_path)["path13"]
    for cap, cap_argv in ((cli.DEFAULT_SCAN_LIMIT, []), (12, ["--n-cap", "12"])):
        code, out, err = run(capsys, "orbits", path, *cap_argv)
        assert (code, out) == (2, "") and "n=13 exceeds cap %d; pass --n-cap to override" % cap in err
        assert "automorphism" not in err


@pytest.mark.parametrize("command", ["invariants", "lattice", "orbits"])
def test_cap_error_names_the_option(capsys, tmp_path, command):
    code, _, err = run(capsys, command, input_paths(tmp_path)["pair"], "--n-cap", "1")
    assert code == 2 and "pass --n-cap to override" in err


def test_import_loads_no_process_pool():
    probe = "import polydiag.cli, sys; print(sorted(set(sys.modules) & {'concurrent.futures', 'multiprocessing'}))"
    src = os.path.dirname(os.path.dirname(polydiag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


# every exact route, and each theorem suite at a few trials; {file} is a
# 3-cycle, whose column sums are 1 and whose eigenvalue 1 is simple
EXACT_ARGVS = {
    "enumerate": ["enumerate", "3"],
    "classify": ["classify", "(a,-a,0)"],
    "count": ["count", "4"],
    "invariants": ["invariants", "{file}"],
    "lattice": ["lattice", "{file}"],
    "orbits": ["orbits", "{file}"],
    "main-lemma-file": ["check", "main-lemma", "--file", "{file}", "--lambda", "1"],
    "column-sums-file": ["check", "column-sums", "--file", "{file}"],
} | {name: ["check", name, "--trials", "3"] for name, _ in SUITE_TRIALS}


# The modules of the package each route loads besides polydiag and
# polydiag.cli: a route imports only the layers it runs.  The named suites
# load whatever polydiag.checks imports.
PARSER_LAYERS = {"linalg", "partitions"}
SCAN_LAYERS = PARSER_LAYERS | {"graph", "invariance"}
SIMULATE_LAYERS = PARSER_LAYERS | {"graph", "dynamics", "_pcg64"}
LOADS = {"enumerate": PARSER_LAYERS, "classify": PARSER_LAYERS, "count": PARSER_LAYERS | {"counting"},
         "invariants": SCAN_LAYERS, "lattice": SCAN_LAYERS, "orbits": SCAN_LAYERS, "main-lemma-file": SCAN_LAYERS,
         "column-sums-file": SCAN_LAYERS, "simulate-seeded": SIMULATE_LAYERS}


def _run_in_fresh_process(argv):
    """main(argv) in a new interpreter: (its stdout, its stderr, the
    modules of the package it loaded, without the polydiag. prefix), where
    the probe writes the exit code and whether numpy was imported by the
    end to stderr, after anything main wrote there, and then the modules
    on a line of their own."""
    probe = (
        "import sys, polydiag.cli; code = polydiag.cli.main(%r); "
        "print(code, 'numpy' in sys.modules, file=sys.stderr); "
        "print(*sorted(m for m in sys.modules if m.startswith('polydiag')), file=sys.stderr)" % argv
    )
    src = os.path.dirname(os.path.dirname(polydiag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    err, _, modules = out.stderr.strip().rpartition("\n")
    return out.stdout, err, {m.removeprefix("polydiag.") for m in modules.split()}


def test_import_loads_no_module_of_the_package():
    src = os.path.dirname(os.path.dirname(polydiag.__file__))
    probe = "import sys, polydiag; print(*sorted(m for m in sys.modules if m.startswith('polydiag')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.split() == ["polydiag"]


@pytest.mark.parametrize("name, argv", EXACT_ARGVS.items(), ids=EXACT_ARGVS.keys())
def test_exact_commands_load_no_numpy(tmp_path, name, argv):
    path = digraph_file(tmp_path, '{"n": 3, "arrows": [[1,2,"1"],[2,3,"1"],[3,1,"1"]]}')
    out, err, loaded = _run_in_fresh_process([a.replace("{file}", path) for a in argv])
    assert out
    assert err == "0 False"
    if name in LOADS:
        assert loaded == {"polydiag", "cli"} | LOADS[name]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_simulate_with_x0_loads_no_numpy(tmp_path, to_file):
    """With --x0, simulate runs on floats from argv to CSV, written to
    stdout or to --output."""
    path = digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,"1"],[2,2,"1"]]}')
    argv = ["simulate", "--preset", "vanderpol", "--digraph", path, "--scale", "0.5", "--dt", "0.01", "--T", "1",
            "--x0=0.3,-0.2,-0.3,0.2"]
    csv = tmp_path / "traj.csv"
    out, err, loaded = _run_in_fresh_process(argv + ["--output", str(csv)] if to_file else argv)
    assert err == "0 False"
    assert loaded == {"polydiag", "cli"} | SIMULATE_LAYERS
    text = csv.read_text() if to_file else out
    assert text.startswith("t,x1,x2,x3,x4\n") and len(text.splitlines()) == 102
    if to_file:
        assert json.loads(out)["status"] == "ok"


# the routes that draw a seeded start or run the float dynamics, at short
# horizons; {file} is the van der Pol pair's digraph
DYNAMICS_ARGVS = {
    "simulate-seeded": ["simulate", "--preset", "vanderpol", "--digraph", "{file}", "--scale", "0.5", "--dt", "0.01",
                        "--T", "1", "--seed", "3"],
    "dynamics-vdp": ["check", "dynamics-vdp", "--T", "1"],
    "dynamics-lorenz": ["check", "dynamics-lorenz", "--T", "1"],
    "dynamics-attractors": ["check", "dynamics-attractors", "--dt", "0.05"],
}


@pytest.mark.parametrize("name, argv", DYNAMICS_ARGVS.items(), ids=DYNAMICS_ARGVS.keys())
def test_dynamics_routes_load_no_numpy(tmp_path, name, argv):
    path = digraph_file(tmp_path, '{"n": 2, "arrows": [[1,2,"1"],[2,2,"1"]]}')
    out, err, loaded = _run_in_fresh_process([a.replace("{file}", path) for a in argv])
    assert out
    assert err == "0 False"
    if name in LOADS:
        assert loaded == {"polydiag", "cli"} | LOADS[name]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value, or --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_fresh_processes(monkeypatch, tmp_path):
    """One process runs a mixed argv sequence through the one parser; each
    call gives the exit code, stdout, stderr and output file of a fresh
    ``python -m polydiag`` with the same argv.  Neighbouring calls of a
    subcommand give and omit the same options, so a value kept from an
    earlier call would show."""
    monkeypatch.setenv("COLUMNS", "80")  # --help and usage wrap to the same width
    paths = input_paths(tmp_path)
    pair, demo = paths["pair"], os.path.join(DEMO_DIR, "d3_cayley_equal.json")
    simulate = ["simulate", "--preset", "vanderpol", "--digraph", pair, "--T", "0.05"]
    sequence = [
        ["enumerate", "3", "--count-only"],
        ["enumerate", "3"],
        ["invariants", demo],
        ["orbits", demo, "--format", "json"],
        ["orbits", demo],
        ["invariants", "/nonexistent.json"],  # InputError
        ["count", "-1"],  # argparse rejects the value
        ["--help"],
        ["simulate", "--help"],
        ["bogus"],
        [],
        ["check", "dynamics-attractors", "--dt", "5"],  # a check FAIL
        ["check", "conjecture53", "--n", "4", "--trials", "3", "--seed", "7"],
        ["check", "conjecture53", "--n", "4", "--trials", "3"],
        simulate + ["--eps", "1", "--seed", "3", "--output", paths["out"]],
        simulate + ["--x0", "0.5,0,0,0"],
        ["simulate", "--preset", "vanderpol", "--digraph", pair, "--x0", "nan,0,0,0"],
    ]
    src = os.path.dirname(os.path.dirname(polydiag.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def written():
        if not os.path.exists(paths["out"]):
            return None
        with open(paths["out"]) as fh:
            text = fh.read()
        os.remove(paths["out"])
        return text

    for argv in sequence:
        ours = _in_process(argv) + (written(),)
        fresh = subprocess.run([sys.executable, "-m", "polydiag", *argv], capture_output=True, text=True, env=env)
        assert ours == (fresh.returncode, fresh.stdout, fresh.stderr, written()), argv


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "enumerate", "2", "--count-only") == (0, "6\n", "")
    assert run(capsys, "count", "3", "--format", "csv")[0] == 0
    assert built == []


SUITE_OPTIONS = {"--trials": ("trials", "2", 2), "--n": ("n_max", "3", 3), "--seed": ("seed", "5", 5),
                 "--dt": ("dt", "0.05", 0.05), "--T": ("T", "0.2", 0.2), "--tol": ("tol", "1", 1.0)}


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_check_passes_each_suite_only_its_options(capsys, monkeypatch, suite):
    """The options named in the suite's signature (--n as n_max) reach it
    as given; each other option is refused by name, before the suite
    runs."""
    fn = checks.SUITES[suite]
    taken = inspect.signature(fn).parameters
    kwargs = {param: value for param, _, value in SUITE_OPTIONS.values() if param in taken}
    report = fn(**kwargs)
    calls = []

    @functools.wraps(fn)
    def recorded(**got):
        calls.append(got)
        return fn(**got)

    monkeypatch.setitem(checks.SUITES, suite, recorded)
    read = [a for flag, (param, text, _) in SUITE_OPTIONS.items() if param in taken for a in (flag, text)]
    code, out, _ = run(capsys, "check", suite, *read)
    assert calls == [kwargs]
    assert (code, out) == (0 if report.passed else 1, report.summary() + "\n")
    for flag, (param, text, _) in SUITE_OPTIONS.items():
        if param not in taken:
            assert unread_check_options(["check", suite, flag, text]) == [flag]
            code, out, err = run(capsys, "check", suite, *read, flag, text)
            assert (code, out) == (2, "") and err.startswith("error: check %s does not read %s " % (suite, flag))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# fuzzed argv: the documented exit codes hold for any input

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
DIGRAPHS = (
    ["{pair}", "{cycle9}"]
    + [os.path.join(DEMO_DIR, n + ".json") for n in ("lapdirichlet", "directed_c3", "d3_cayley_equal")],
    ["{float}", "{garbled}", "{missing}", "{fractional_endpoint}", "{boolean_endpoint}", "{string_endpoint}",
     "{boolean_weight}", "{huge_exponent}"],
)
SEED = (["0", "5"], ["-1", "x", "1.5"])
MATRIX = ("--matrix", ["adjacency", "laplacian"], ["other"], False)


def unread_check_options(argv):
    """The options of a check argv that its route never reads: --file is
    for main-lemma and column-sums, --lambda for main-lemma --file and
    --matrix for either with --file, and a suite option for the suites
    whose signature takes it (--n as n_max), never with --file."""
    on_file = "--file" in argv and argv[1] in ("main-lemma", "column-sums")
    suite = checks.SUITES.get(argv[1])
    taken = () if on_file or suite is None else inspect.signature(suite).parameters
    reads = {"--file": on_file, "--lambda": on_file and argv[1] == "main-lemma", "--matrix": on_file}
    reads |= {flag: param in taken for flag, (param, _, _) in SUITE_OPTIONS.items()}
    return [flag for flag in argv if not reads.get(flag, True)]


# Value pools (valid, invalid) per subcommand: positional pools, then
# options as (flag, valid, invalid, always given); a switch has no pools.
# A check option that the route drawn so far does not read (see
# unread_check_options) is an invalid combination, drawn about as rarely
# as an invalid value.
# Horizons, sizes and trial counts are always given, where the suite drawn
# takes them, and small, so every example runs in well under a second.
CLI_GRAMMAR = {
    "enumerate": ([(["0", "3"], ["-1", "x"])], [("--filter", sorted(cli._FILTERS), ["weird", ""], False),
                                                 ("--count-only", None, None, False)]),
    "classify": ([(["(a,-a,0)", "(a,a)", "()"], ["(b,a)", "(a,b"])], [("--format", ["text", "json"], ["xml"], False)]),
    "count": ([(["0", "4"], ["-1", "x", "2.5"])], [("--format", ["md", "csv", "json"], ["yaml"], False)]),
    "simulate": ([], [
        ("--preset", ["vanderpol", "lorenz", "singular_osc", "zero", "cubic_odd"], ["bogus"], True),
        ("--digraph", *DIGRAPHS, True),
        ("--eps", ["2", "0"], ["nan", "x"], False),
        MATRIX,
        ("--scale", ["1/2", "0", "-3"], ["1/0", "x", "1e5000"], False),
        ("--coupling", ["vdp", "lorenz_w", "lorenz_v", "identity"], ["other"], False),
        ("--dt", ["0.01", "0.5"], ["0", "-1", "nan"], True),
        ("--T", ["0.05", "0.2"], ["0", "inf", "x"], True),
        ("--x0", ["1,2,3,4", "0.5"], ["a,b", "", "nan,0", "inf"], False),
        ("--seed", *SEED, False),
    ]),
    "check": ([(["conjecture53", "column-sums", "main-lemma", "input-output", "frobenius-perron",
                 "strong-connectivity", "dynamics-vdp", "dynamics-lorenz", "dynamics-attractors"], ["nope"])], [
        ("--file", *DIGRAPHS, False),
        MATRIX,
        ("--lambda", ["0", "1", "3", "1/2"], ["1/0", "x", "1e5000"], False),
        ("--n", ["2", "3"], ["1", "9", "x"], True),
        ("--trials", ["1", "2"], ["0", "x"], True),
        ("--seed", *SEED, False),
        ("--dt", ["0.5", "5"], ["0", "x"], True),
        ("--T", ["0.05", "0.2"], ["-1"], True),
        ("--tol", ["1e-6", "1"], ["-1", "nan"], False),
    ]),
}
for _name, _formats in (("invariants", None), ("lattice", ["json", "dot"]), ("orbits", ["text", "json"])):
    CLI_GRAMMAR[_name] = ([DIGRAPHS], [MATRIX, ("--n-cap", ["2", "8"], ["-1", "x"], False)]
                          + ([("--format", _formats, ["csv"], False)] if _formats else []))
for _, _options in CLI_GRAMMAR.values():
    _options.append(("--output", ["{out}"], ["{missing}"], False))


@st.composite
def cli_argv(draw):
    """A subcommand with some of its options; each value is invalid with
    probability about 1/8."""
    def value(valid, invalid):
        return draw(st.sampled_from(invalid if draw(st.integers(0, 7)) == 0 else valid))

    command = draw(st.sampled_from(sorted(CLI_GRAMMAR)))
    positional, options = CLI_GRAMMAR[command]
    argv = [command] + [value(*pools) for pools in positional]
    for flag, valid, invalid, always in options:
        rare = command == "check" and flag in unread_check_options(argv + [flag])
        if (always and not rare) or (draw(st.integers(0, 7)) == 0 if rare else draw(st.booleans())):
            argv += [flag] if valid is None else [flag, value(valid, invalid)]
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    return input_paths(tmp_path_factory.mktemp("fuzz"))


# the file reports, which the draw rarely reaches (the 9-cycle about once in
# 800 examples), the same with a suite option that no file report reads,
# and a --file that conjecture53 does not read; the options that are
# always given take their first valid value
ALWAYS_GIVEN = ["--n", "2", "--trials", "1", "--dt", "0.5", "--T", "0.05"]
FILE_REPORT = ["check", "column-sums", "--file", "{cycle9}"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=cli_argv())
@example(argv=FILE_REPORT)
@example(argv=FILE_REPORT + ["--matrix", "laplacian"])
@example(argv=["check", "main-lemma", "--file", "{pair}", "--lambda", "1"])
@example(argv=["check", "main-lemma", "--file", "{pair}", "--lambda", "1"] + ALWAYS_GIVEN)
@example(argv=["check", "conjecture53", "--file", "{missing}"] + ALWAYS_GIVEN[:4])
def test_fuzzed_argv_keeps_exit_codes(fuzz_paths, argv):
    """Exit 0, 1 or 2 and never a traceback (an exception escaping main);
    exit 1 only for a failed check: a FAIL summary, a report with
    "passed": false, or a simulation that blew up.  A check option its
    route does not read is exit 2."""
    argv = [a.format(**fuzz_paths) for a in argv]
    if os.path.exists(fuzz_paths["out"]):
        os.remove(fuzz_paths["out"])
    code, out, err = _in_process(argv)
    assert code in (0, 1, 2), argv
    if argv[0] == "check" and unread_check_options(argv):
        assert code == 2, argv
    if code == 1:
        text = out + err
        if os.path.exists(fuzz_paths["out"]):
            with open(fuzz_paths["out"]) as fh:
                text += fh.read()
        assert ": FAIL" in text or '"passed": false' in text or '"status": "blowup"' in text, argv
