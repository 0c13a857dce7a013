"""Per-layer metrics of a traced pass.

Each metric is read at the boundary of one package module; the comment on
each group says which end-to-end metric it should move, and on which
workload.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS, SUITE_PREFIX

ENUM = "partitions.enumerate_tagged_partitions"
SCAN = "invariance.invariant_polydiagonals"
EGF = ("egf", "egf_count", "series_exp", "exp_x", "bessel_like", "series")
BASELINE = ("scan_n8_s", "lattice_zero5_s", "count8_s", "orbits_k6_s")

# ROADMAP "Baseline" figures the traced run is set next to.
ROADMAP_BASELINE = {
    "scan_n8_s": "3.1-3.7 s (n=8 random connected Laplacian)",
    "lattice_zero5_s": "3.05 s",
    "count8_s": "2.3 s (count_table(8))",
    "orbits_k6_s": "1.0 s (earlier untraced measurement)",
    "rk4_us_per_step": "~105 us (van der Pol pair)",
}


def _ratio(a, b):
    return a / b if b else 0.0


def metrics(tr, lat, base_lat, runner):
    """name -> (value, unit) for one traced pass (latencies lat) and the
    untraced pass before it (base_lat)."""
    K = tr.counts
    zero = (0, 0.0, 0.0)

    def self_s(*names):
        return sum(tr.stats.get(n, zero)[1] for n in names)

    def calls(*names):
        return sum(tr.stats.get(n, zero)[0] for n in names)

    def prefixed(prefix):
        return [n for n in tr.stats if n.startswith(prefix)]

    suites = prefixed(SUITE_PREFIX)
    candidates = tr.items.get("%s<%s" % (ENUM, SCAN), 0)
    hits = K["invariance.scan.hits"]
    steps = K["dynamics.rk4_steps"]
    op_s = sum(lat)
    out = {
        # candidate loop: ops_per_s / op_p50_ms on scan, op_p90_ms on suites (census)
        "partitions.enumerate.items": (sum(v for k, v in tr.items.items() if k.startswith(ENUM + "<")), "count"),
        "partitions.enumerate.self_s": (self_s(ENUM), "s"),
        "partitions.classify.calls": (calls("partitions.classify"), "count"),
        "partitions.classify.self_s": (self_s("partitions.classify"), "s"),
        "partitions.contains.calls": (calls("partitions.contains"), "count"),
        # exact scan: ops_per_s on scan, op_p50_ms on suites
        "invariance.scan.calls": (calls(SCAN), "count"),
        "invariance.scan.self_s": (self_s(SCAN), "s"),
        "invariance.scan.candidates": (candidates, "count"),
        "invariance.scan.hits": (hits, "count"),
        "invariance.scan.hit_ratio": (_ratio(hits, candidates), "ratio"),
        # lattice, orbits, automorphisms: op_p90_ms and ops_per_s on lattice
        "invariance.lattice.self_s": (self_s("invariance.build_lattice"), "s"),
        "invariance.lattice.nodes": (K["invariance.lattice.nodes"], "count"),
        "invariance.lattice.covers": (K["invariance.lattice.covers"], "count"),
        "invariance.orbits.self_s": (self_s("invariance.orbits"), "s"),
        "graph.automorphisms.self_s": (self_s("graph.automorphisms"), "s"),
        "graph.automorphisms.found": (K["graph.automorphisms.found"], "count"),
        # exact eigendata and linear algebra: op_p50_ms on suites
        "invariance.eigendata.calls": (calls("invariance.eigendata"), "count"),
        "invariance.eigendata.self_s": (self_s("invariance.eigendata"), "s"),
        "invariance.reports.self_s": (
            self_s("invariance.check_main_lemma", "invariance.check_constant_column_sums_theorem"), "s"),
        "linalg.nullspace.calls": (calls("linalg.nullspace"), "count"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.self_s": (self_s(*prefixed("linalg.")), "s"),
        "graph.random.calls": (calls(*prefixed("graph.random_")), "count"),
        "graph.random.self_s": (self_s(*prefixed("graph.random_")), "s"),
        # counting: op_p90_ms on suites
        "counting.census.self_s": (self_s("counting._census", "counting.enumeration_count"), "s"),
        "counting.egf.self_s": (self_s(*("counting." + n for n in EGF)), "s"),
        "counting.recurrence.self_s": (self_s("counting.recurrence_count", "counting._rec_seq"), "s"),
        # property suites: ops_per_s on suites
        "checks.suite.calls": (calls(*suites), "count"),
        "checks.suite.self_s": (self_s(*suites), "s"),
        "checks.instances": (K["checks.instances"], "count"),
        "checks.attempts": (K["checks.attempts"], "count"),
        "checks.instance_ratio": (_ratio(K["checks.instances"], K["checks.attempts"]), "ratio"),
        # RK4: ops_per_s, op_p50_ms and peak_rss_mb on dynamics
        "dynamics.integrate.calls": (calls("dynamics.integrate"), "count"),
        "dynamics.rk4_steps": (steps, "count"),
        "dynamics.rhs.calls": (calls("dynamics.CoupledSystem.rhs"), "count"),
        "dynamics.integrate.self_s": (self_s("dynamics.integrate"), "s"),
        "dynamics.rhs.self_s": (self_s("dynamics.CoupledSystem.rhs"), "s"),
        "dynamics.us_per_step": (1e6 * _ratio(tr.stats.get("dynamics.integrate", zero)[2], steps), "us"),
        "dynamics.distance.self_s": (self_s("dynamics.subspace_distances", "dynamics.subspace_distance"), "s"),
        "dynamics.blowups": (K["dynamics.blowups"], "count"),
        "dynamics.max_drift": (runner.max_drift, "ratio"),
        # loading, parsing and output: op_p50_ms on lattice (export) and dynamics (CSV)
        "graph.load.self_s": (
            self_s("graph.load_digraph", "graph.from_json", "graph.from_json_dict", "graph.from_edgelist"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s(*prefixed("cli.")), "s"),
        "cli.output_bytes": (runner.output_bytes, "bytes"),
        "failed_ratio": (_ratio(len(runner.failures), runner.attempted), "ratio"),
    }
    attributed = 0.0
    for layer in LAYERS:
        share = _ratio(self_s(*prefixed(layer + ".")), op_s)
        attributed += share
        out["share.%s" % layer] = (share, "ratio")
    out["share.unattributed"] = (1.0 - attributed, "ratio")
    traced_rate = _ratio(len(lat), op_s)
    base_rate = _ratio(len(base_lat), sum(base_lat))
    out["trace.op_s"] = (op_s, "s")
    out["trace.ops_per_s"] = (traced_rate, "ops/s")
    out["trace.untraced_ops_per_s"] = (base_rate, "ops/s")
    out["trace.overhead_ops_per_s"] = (base_rate - traced_rate, "ops/s")
    out["trace.overhead_ratio"] = (_ratio(base_rate - traced_rate, base_rate), "ratio")
    for key in BASELINE:
        samples = tr.samples.get(key)
        out["baseline." + key] = (statistics.median(samples) if samples else 0.0, "s")
    out["baseline.rk4_us_per_step"] = out["dynamics.us_per_step"]
    return {k: (int(v) if u == "count" else v, u) for k, (v, u) in out.items()}


def report(tr, m):
    """Human-readable lines: layer shares, tracing overhead, baseline."""
    shares = ", ".join("%s %.1f%%" % (k[6:], 100 * v) for k, (v, _) in m.items() if k.startswith("share."))
    lines = [
        "# self-time share of traced op time (%.3f s): %s" % (m["trace.op_s"][0], shares),
        "# tracing overhead: %.3f ops/s = %.1f%% of the untraced %.3f ops/s (traced %.3f ops/s)"
        % (m["trace.overhead_ops_per_s"][0], 100 * m["trace.overhead_ratio"][0],
           m["trace.untraced_ops_per_s"][0], m["trace.ops_per_s"][0]),
    ]
    for key in BASELINE:
        if m["baseline." + key][0]:
            lines.append("# baseline %s: %.4g s (median of %d traced calls) vs ROADMAP %s"
                         % (key, m["baseline." + key][0], len(tr.samples[key]), ROADMAP_BASELINE[key]))
    if m["dynamics.rk4_steps"][0]:
        lines.append("# baseline rk4_us_per_step: %.4g (%d steps in %d integrate calls) vs ROADMAP %s"
                     % (m["baseline.rk4_us_per_step"][0], m["dynamics.rk4_steps"][0],
                        m["dynamics.integrate.calls"][0], ROADMAP_BASELINE["rk4_us_per_step"]))
    lines.append("# kept spans: %d" % len(tr.spans))
    return lines
