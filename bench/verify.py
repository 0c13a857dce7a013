"""Output checks, one per op kind; each raises CheckFailed on a bad output.

They run outside the timed region (and with tracing paused) against the
references in :mod:`oracle`.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from polydiag import linalg, partitions

import oracle
from oracle import CheckFailed, require

DRIFT_TOL = 1e-6
# Relative agreement of a simulated final state with the plain-float RK4
# reference; the two differ only in summation order (and chaos in Lorenz
# amplifies that by at most ~1e2 over T = 5).
FINAL_RTOL = 1e-7


def _typicals(text):
    return [ln.split()[0] for ln in text.splitlines() if ln.strip()]


def check_scan(op, out):
    m = oracle.read_matrix(op["path"], op["matrix"])
    got = _typicals(out)
    require(len(got) == len(set(got)), "duplicate subspaces in output")
    for s in got:
        basis = partitions.basis(partitions.parse_typical_element(s))
        for b in basis:
            require(linalg.span_contains(basis, linalg.mat_vec(m, b)), "%s is not invariant" % s)
    if len(m) <= 6:
        require(set(got) == oracle.invariant_typicals(m), "hit list differs from the brute-force reference")


def _parse_lattice(op, out):
    if op["fmt"] == "json":
        d = json.loads(out)
        return [n["typical"] for n in d["nodes"]], sorted(tuple(c) for c in d["covers"])
    nodes = {}
    for idx, label in re.findall(r'^\s*n(\d+) \[label="([^"]*)"', out, re.M):
        nodes[int(idx)] = label
    require(sorted(nodes) == list(range(len(nodes))), "DOT node ids are not 0..k-1")
    edges = re.findall(r"^\s*n(\d+) -> n(\d+);", out, re.M)
    return [nodes[i] for i in range(len(nodes))], sorted((int(b), int(a)) for a, b in edges)


def check_lattice(op, out):
    m = oracle.read_matrix(op["path"])
    typs, cover_pairs = _parse_lattice(op, out)
    require(len(typs) == len(set(typs)), "duplicate lattice nodes")
    if "subspaces" in op:
        require(len(typs) == op["subspaces"], "expected %d subspaces, got %d" % (op["subspaces"], len(typs)))
    labs = [oracle.parse_typical(s) for s in typs]
    if "full" in op:
        n = op["full"]
        require(len(typs) == oracle.DOWLING[n], "scalar lattice has %d nodes, not p_%d" % (len(typs), n))
        chi = oracle.characteristic_polynomial(labs, cover_pairs)
        require(chi == oracle.type_b_polynomial(n), "characteristic polynomial %s" % chi)
    else:
        require(set(typs) == oracle.invariant_typicals(m), "node set differs from the brute-force reference")
    require(cover_pairs == oracle.covers(labs), "covers differ from the transitive reduction")


def check_orbits(op, out):
    m = oracle.read_matrix(op["path"])
    expected = oracle.invariant_typicals(m)
    group = oracle.automorphisms(m)
    if op["fmt"] == "json":
        d = json.loads(out)
        require(d["subspaces"] == len(expected), "subspace count")
        seen = set()
        for orb in d["orbits"]:
            members = set(orb["members"])
            require(orb["representative"] in members, "representative outside its orbit")
            rep = oracle.parse_typical(orb["representative"])
            require({oracle.typical(x) for x in oracle.orbit(rep, group)} == members, "wrong orbit")
            require(not seen & members, "orbits overlap")
            seen |= members
        require(seen == expected, "orbits do not cover the invariant set")
        n_orbits = len(d["orbits"])
    else:
        lines = out.splitlines()
        head = re.fullmatch(r"(\d+) subspaces in (\d+) orbits", lines[0])
        require(head is not None, "bad orbit header %r" % lines[0])
        require(int(head.group(1)) == len(expected), "subspace count")
        n_orbits = int(head.group(2))
        sizes = {}
        for ln in lines[1:]:
            rep, size = re.fullmatch(r"(\S+)  size (\d+)", ln).groups()
            sizes[rep] = int(size)
        require(len(sizes) == n_orbits, "orbit lines")
        for rep, size in sizes.items():
            require(rep in expected, "representative not invariant")
            require(len(oracle.orbit(oracle.parse_typical(rep), group)) == size, "orbit size of %s" % rep)
        require(sum(sizes.values()) == len(expected), "orbit sizes do not add up")
    if "orbits" in op:
        require(n_orbits == op["orbits"], "expected %d orbits, got %d" % (op["orbits"], n_orbits))
    if "subspaces" in op:
        require(len(expected) == op["subspaces"], "expected %d subspaces" % op["subspaces"])


def check_suite(op, out):
    head = out.splitlines()[0] if out else ""
    require(head.startswith("%s: PASS" % op["suite"]), "suite output %r" % head)


def check_count(op, out):
    n = op["n"]
    if op["fmt"] == "json":
        d = json.loads(out)
        rows, ok = d["rows"], all(d["cross_checked"].values())
    else:
        rows, ok = {}, True
        for ln in out.splitlines()[1:]:
            cells = [c.strip() for c in (ln.strip("|").split("|") if op["fmt"] == "md" else ln.split(","))]
            if op["fmt"] == "md":
                if cells[0].startswith("-"):
                    continue
                cells = [cells[0]] + cells[2:]
            rows[cells[0]] = [int(c) for c in cells[1:-1]]
            ok = ok and cells[-1] == "ok"
    require(ok, "table not cross-checked")
    for kind, vals in oracle.FIGURE.items():
        require(rows.get(kind) == vals[: n + 1], "%s row %s" % (kind, rows.get(kind)))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _eigen(m, lam, v, transpose=False):
    n = len(m)
    mv = [sum((m[j][i] if transpose else m[i][j]) * v[j] for j in range(n)) for i in range(n)]
    return any(v) and all(a == lam * b for a, b in zip(mv, v))


def check_main_lemma_file(op, out):
    m = oracle.read_matrix(op["path"], op["matrix"])
    d = json.loads(out)
    lam = Fraction(op["lam"])
    vr = [Fraction(x) for x in d["v_right"]]
    vl = [Fraction(x) for x in d["v_left"]]
    require(Fraction(d["lambda"]) == lam, "lambda")
    require(_eigen(m, lam, vr) and _eigen(m, lam, vl, transpose=True), "not eigenvectors")
    require(d["passed"], "report did not pass")
    rows = {r["typical"]: r for r in d["rows"]}
    require(set(rows) == oracle.invariant_typicals(m), "rows differ from the invariant set")
    for s, r in rows.items():
        lab = oracle.parse_typical(s)
        require(r["v_right_in_subspace"] == oracle.in_subspace(lab, vr), "v_right membership of %s" % s)
        perp = all(_dot(vl, b) == 0 for b in oracle.class_vectors(lab))
        require(r["v_left_in_perp"] == perp, "v_left orthogonality of %s" % s)


def check_column_sums_file(op, out):
    m = oracle.read_matrix(op["path"], op["matrix"])
    d = json.loads(out)
    require(d["hypotheses_met"] and d["passed"], "report did not pass")
    lam = Fraction(d["lambda"])
    v = [Fraction(x) for x in d["v"]]
    require(all(sum(row[j] for row in m) == lam for j in range(len(m))), "column sums")
    require(_eigen(m, lam, v), "v is not an eigenvector")
    rows = {r["typical"]: r for r in d["rows"]}
    require(set(rows) == oracle.invariant_typicals(m), "rows differ from the invariant set")
    for s, r in rows.items():
        require(r["contains_v"] == oracle.in_subspace(oracle.parse_typical(s), v), "v membership of %s" % s)


_H_SOURCE = {"vdp": [None, 0], "lorenz_v": [None, 1, None], "lorenz_w": [None, None, 2]}


def check_simulate(op, out):
    lines = out.splitlines()
    require(len(lines) == op["steps"] + 2, "CSV has %d rows, expected %d" % (len(lines) - 1, op["steps"] + 1))
    rows = [[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]]
    final = rows[-1]
    require(all(math.isfinite(x) for x in final), "final state is not finite")
    k = len(final) // 2
    twist = [-1.0] * k if op["preset"] == "vanderpol" else [-1.0, -1.0, 1.0]
    drift = 0.0
    for row in rows:
        norm = math.sqrt(sum(x * x for x in row))
        res = math.sqrt(sum((row[a] - twist[a] * row[k + a]) ** 2 for a in range(k)))
        drift = max(drift, res / (norm + 1.0))
    require(drift <= DRIFT_TOL, "invariance drift %.3g" % drift)
    scale = float(Fraction(op["scale"]))
    m = [[scale * float(x) for x in row] for row in oracle.read_matrix(op["path"], op["matrix"])]
    field = oracle.vdp_field(2.0) if op["preset"] == "vanderpol" else oracle.lorenz_field()
    ref = oracle.rk4_final(field, m, _H_SOURCE[op["coupling"]], op["x0"], k, op["dt"], op["steps"])
    err = math.sqrt(sum((a - b) ** 2 for a, b in zip(final, ref)))
    size = math.sqrt(sum(b * b for b in ref)) + 1.0
    require(err / size <= FINAL_RTOL, "final state differs from the reference by %.3g" % (err / size))
    return drift


CHECKS = {
    "scan": check_scan,
    "lattice": check_lattice,
    "orbits": check_orbits,
    "suite": check_suite,
    "count": check_count,
    "main_lemma_file": check_main_lemma_file,
    "column_sums_file": check_column_sums_file,
    "simulate": check_simulate,
}


def check(op, rc, out):
    """Raise CheckFailed unless the op exited 0 with a correct output.
    Returns the invariance drift of a simulated trajectory, else None."""
    require(rc == 0, "exit code %r" % (rc,))
    return CHECKS[op["check"]](op, out)
