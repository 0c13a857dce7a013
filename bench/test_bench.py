"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py -q

The last test runs every workload end to end once (about 2 minutes).
"""

import filecmp
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from polydiag import invariance, linalg, partitions  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _files(d):
    return sorted(os.listdir(d))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    ops_a = workloads.build(workload, 5, str(tmp_path / "a"))
    workloads.build(workload, 5, str(tmp_path / "b"))
    workloads.build(workload, 6, str(tmp_path / "c"))
    names = _files(tmp_path / "a")
    assert names == _files(tmp_path / "b") == _files(tmp_path / "c")
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert mismatch, "a different seed wrote the same inputs"
    assert len(ops_a) >= 100


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


# ---------------------------------------------------------------------------
# the independent references


def test_labelings_count_the_dowling_numbers():
    for n in range(7):
        labs = list(oracle.labelings(n))
        assert len(labs) == len(set(labs)) == oracle.DOWLING[n]
        assert all(oracle.canonical(lab) == lab for lab in labs)
        assert {oracle.typical(lab) for lab in labs} == {
            partitions.typical_element(p) for p in partitions.enumerate_tagged_partitions(n)
        }


def test_fast_reference_agrees_with_span_contains():
    rng = random.Random(4)
    for _ in range(12):
        n = rng.randint(2, 4)
        m = [[Fraction(rng.choice([-2, -1, 0, 0, 1, 2]), rng.choice([1, 2])) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            m = [[m[0][0] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        slow = set()
        for p in partitions.enumerate_tagged_partitions(n):
            b = partitions.basis(p)
            if all(linalg.span_contains(b, linalg.mat_vec(m, v)) for v in b):
                slow.add(partitions.typical_element(p))
        assert oracle.invariant_typicals(m) == slow


def test_covers_and_characteristic_polynomial_of_the_full_lattice():
    for n in range(1, 5):
        zero = [[Fraction(0)] * n for _ in range(n)]
        lat = invariance.build_lattice(invariance.invariant_polydiagonals(zero))
        labs = [oracle.parse_typical(partitions.typical_element(p)) for p, _ in lat.nodes]
        assert oracle.covers(labs) == sorted(lat.covers)
        assert oracle.characteristic_polynomial(labs, lat.covers) == oracle.type_b_polynomial(n)
    assert oracle.type_b_polynomial(2) == [3, -4, 1]


def test_reference_automorphisms_of_a_cycle():
    c5 = [[Fraction(1) if abs(i - j) in (1, 4) else Fraction(0) for j in range(5)] for i in range(5)]
    assert len(oracle.automorphisms(c5)) == 10


# ---------------------------------------------------------------------------
# tracing


def _sample(ops, workload):
    pick = {
        "scan": lambda op: "_n6" in op["path"],
        "lattice": lambda op: "demo_" in op["path"] or "4.json" in op["path"],
        "suites": lambda op: op["check"] != "count" or op["n"] == 7,
        "dynamics": lambda op: True,
    }[workload]
    return [op for op in ops if pick(op)][:12]


COUNT_SUFFIXES = (".calls", ".items")
EXACT = ("invariance.scan.hits", "invariance.lattice.nodes", "dynamics.rk4_steps")


def _traced_counts(tmp_path, workload):
    ops = _sample(workloads.build(workload, 3, str(tmp_path / "in")), workload)
    runner = run.Runner(ops, run.cache_clearers())
    with Tracer() as tr:
        lat, _ = runner.run_pass(tr)
    metrics = layers.metrics(tr, lat, lat, runner)
    assert not runner.failures
    return metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    a = _traced_counts(tmp_path, workload)
    b = _traced_counts(tmp_path, workload)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in a.items()} == per_layer
    counted = [k for k in a if k.endswith(COUNT_SUFFIXES) or k in EXACT]
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}
    assert sum(a[k][0] for k in counted) > 0


def test_tracer_restores_the_package():
    from polydiag import checks, cli, invariance as inv

    before = (inv.invariant_polydiagonals, cli.main, dict(checks.SUITES))
    with Tracer():
        assert inv.invariant_polydiagonals is not before[0]
    assert (inv.invariant_polydiagonals, cli.main, dict(checks.SUITES)) == before


def test_calibration_calls_nothing_in_the_package():
    with Tracer() as tr:
        tr.active = True
        run.calibration_chunk()
        tr.active = False
    assert not any(calls for calls, _, _ in tr.stats.values())
    cal = run.Calibration()
    for t in (0.0, 0.02, 0.001):
        cal.after(t)
    assert [k for k, _, _ in cal.samples] == [run.CAL_MIN_CHUNKS, math.ceil(run.CAL_SHARE * 0.02 / run.CHUNK_REF_S),
                                              run.CAL_MIN_CHUNKS]
    for cpu in (False, True):
        assert len(cal.factors(cpu)) == 3 and min(cal.factors(cpu)) > 0
    assert cal.factors()[0] == pytest.approx(cal.overall())


# ---------------------------------------------------------------------------
# end to end


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_without_failures(workload):
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
