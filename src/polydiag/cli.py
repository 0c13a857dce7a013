"""Command-line interface.

Subcommands: enumerate, classify, invariants, lattice, orbits, count,
simulate, check.  Exit codes: 0 success, 1 assertion/check failure,
2 input error.  All randomized commands take a --seed, so identical
invocations produce byte-identical output.

``main(argv)`` may be called any number of times in one process.  Every
call parses with the one parser that ``build_parser`` builds at import
(``_PARSER``): its type converters are pure, its defaults immutable, and
each call gets a fresh namespace, so no call sees another's arguments.

Building the parser needs only ``partitions`` and ``linalg``.  Each route
imports the other layers it runs when it runs: ``counting`` for count,
``graph`` for the digraph routes, ``invariance`` for the scan and the
reports, ``dynamics`` and ``_pcg64`` for simulate and ``checks`` for the
named suites.  A one-shot run compiles no layer it does not call.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

from .linalg import frac
from .partitions import (
    DEFAULT_SCAN_LIMIT,
    KINDS,
    classify,
    enumerate_tagged_partitions,
    parse_typical_element,
    type_label,
    typical_element,
)


class InputError(Exception):
    pass


def _write(text, path=None):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write %r: %s" % (path, exc))
    else:
        sys.stdout.write(text)


def _checked(convert, expected, ok=lambda value: True):
    """argparse ``type=``: convert the text, then require ``ok(value)``."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))

    return parse


_NATURAL = _checked(int, "an integer >= 0", lambda n: n >= 0)
_TRIALS = _checked(int, "an integer >= 1", lambda n: n >= 1)
_SIZE = _checked(
    int,
    "an integer in 2..%d" % DEFAULT_SCAN_LIMIT,
    lambda n: 2 <= n <= DEFAULT_SCAN_LIMIT,
)
_POSITIVE = _checked(float, "a finite number > 0", lambda x: 0 < x < math.inf)
_FINITE = _checked(float, "a finite number", math.isfinite)
_FRACTION = _checked(frac, "a rational number such as 1/2 or 0.5")
_FLOATS = _checked(
    lambda text: [float(v) for v in text.split(",")], "comma-separated numbers", lambda xs: all(map(math.isfinite, xs))
)


def _load_digraph(path):
    from . import graph

    try:
        return graph.load_digraph(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError("cannot read digraph %r: %s" % (path, exc))


def _pick_matrix(g, which):
    from . import graph

    return graph.adjacency_matrix(g) if which == "adjacency" else graph.laplacian_matrix(g)


_FILTERS = {kind.replace("_", "-"): test for kind, (_, test, _) in KINDS.items()}


def cmd_enumerate(args):
    if args.filter is not None and args.filter not in _FILTERS:
        raise InputError("unknown filter %r (choose from %s)" % (args.filter, ", ".join(sorted(_FILTERS))))
    stream = enumerate_tagged_partitions(args.n, _FILTERS.get(args.filter))
    if args.count_only:
        _write("%d\n" % sum(1 for _ in stream), args.output)
        return 0
    lines = [typical_element(p) for p in stream]
    _write("".join(ln + "\n" for ln in lines), args.output)
    return 0


def cmd_classify(args):
    rows = []
    for s in args.typical:
        try:
            p = parse_typical_element(s)
        except ValueError as exc:
            raise InputError(str(exc))
        c = classify(p)
        rows.append({"typical": typical_element(p), "label": type_label(p, c), **c._asdict()})
    if args.format == "json":
        _write(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        _write("".join("%s: %s\n" % (r["typical"], r["label"]) for r in rows), args.output)
    return 0


def _invariant_set(args, g):
    from . import invariance

    if g.n > args.n_cap:
        raise InputError("n=%d exceeds cap %d; pass --n-cap to override" % (g.n, args.n_cap))
    return invariance.invariant_polydiagonals(_pick_matrix(g, args.matrix), n_cap=args.n_cap)


def cmd_invariants(args):
    inv = _invariant_set(args, _load_digraph(args.digraph))
    lines = ["%s  %s" % (typical_element(p), type_label(p, cls)) for p, cls in inv.subspaces]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_lattice(args):
    from . import invariance

    inv = _invariant_set(args, _load_digraph(args.digraph))
    lat = invariance.build_lattice(inv)
    if args.format == "dot":
        _write(invariance.lattice_to_dot(lat), args.output)
    else:
        _write(invariance.lattice_to_json(lat) + "\n", args.output)
    return 0


def cmd_orbits(args):
    from . import graph, invariance

    g = _load_digraph(args.digraph)
    inv = _invariant_set(args, g)
    groups = invariance.orbits(inv, graph.automorphism_generators(g)[0])
    reps = [typical_element(inv.subspaces[orb[0]][0]) for orb in groups]
    if args.format == "json":
        payload = {
            "subspaces": len(inv.subspaces),
            "orbits": [
                {"representative": rep, "members": [typical_element(inv.subspaces[i][0]) for i in orb]}
                for rep, orb in zip(reps, groups)
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = ["%d subspaces in %d orbits" % (len(inv.subspaces), len(groups))]
        lines += ["%s  size %d" % (rep, len(orb)) for rep, orb in zip(reps, groups)]
        _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_count(args):
    from . import counting

    table = counting.count_table(args.n)
    if args.format == "csv":
        _write(counting.table_to_csv(table), args.output)
    elif args.format == "json":
        _write(json.dumps({"rows": table.rows, "cross_checked": table.cross_checked}, indent=2) + "\n", args.output)
    else:
        _write(counting.table_to_markdown(table), args.output)
    return 0 if all(table.cross_checked.values()) else 1


# coupling name -> the matrix H in polydiag.dynamics; identity is eye(k)
_COUPLINGS = {"vdp": "VDP_H", "lorenz_w": "LORENZ_H_PLUS", "lorenz_v": "LORENZ_H_MINUS", "identity": None}

_DEFAULT_COUPLING = {"vanderpol": "vdp", "lorenz": "lorenz_w", "singular_osc": "vdp"}


def cmd_simulate(args):
    from . import dynamics
    from ._pcg64 import PCG64

    params = {}
    if args.eps is not None:
        params["eps"] = args.eps
    try:
        preset = dynamics.preset_f(args.preset, **params)
    except TypeError as exc:  # --eps given to a preset without one
        raise InputError("preset %s: %s" % (args.preset, exc))
    g = _load_digraph(args.digraph)
    if g.n == 0:
        raise InputError("digraph %r has no vertices; a system needs n >= 1 cells" % args.digraph)
    m = _pick_matrix(g, args.matrix)
    try:
        scale = float(args.scale)
        m_float = [[scale * float(x) for x in row] for row in m]
        finite = all(math.isfinite(x) for row in m_float for x in row)
    except OverflowError:  # the scale or a weight is beyond the float range
        finite = False
    if not finite:
        raise InputError("--scale %s times the weights of %s leaves the float range" % (args.scale, args.digraph))
    coupling = args.coupling or _DEFAULT_COUPLING.get(args.preset, "identity")
    k = preset.k
    h = ([[float(a == b) for b in range(k)] for a in range(k)] if _COUPLINGS[coupling] is None
         else getattr(dynamics, _COUPLINGS[coupling]))
    try:
        sys_ = dynamics.CoupledSystem(preset, h, m_float)
    except ValueError as exc:  # a coupling of the wrong size for the preset
        raise InputError("coupling %s: %s" % (coupling, exc))
    if args.x0:
        x0 = args.x0
        if len(x0) != g.n * k:
            raise InputError("--x0 needs %d values" % (g.n * k))
    else:
        x0 = PCG64(args.seed).uniform(-1, 1, g.n * k)
    try:
        traj = dynamics.integrate(sys_, x0, args.dt, args.T)
    except dynamics.BlowupError as exc:
        print(json.dumps({"status": "blowup", "time": exc.time}), file=sys.stderr)
        return 1
    except ValueError as exc:  # --T/--dt gives no step, or more than memory holds
        raise InputError(str(exc))
    _write(traj.to_csv(), args.output)
    summary = {
        "status": "ok",
        "preset": args.preset,
        "coupling": coupling,
        "steps": len(traj.times) - 1,
        "final_state": traj.state(-1),
    }
    if args.output:
        print(json.dumps(summary))
    return 0


# suite parameter -> the check option (its dest) that sets it
_SUITE_PARAMS = {"trials": "trials", "n_max": "n", "seed": "seed", "dt": "dt", "T": "T", "tol": "tol"}


def _refuse_unread(args, on_file, taken=()):
    """Options given where the route never reads them are input errors:
    --file, --lambda and --matrix off the file reports, and each suite
    option whose parameter is not in taken, the suite's signature (so
    every suite option on a file report)."""
    route = "check %s%s" % (args.suite, " --file" if on_file else "")
    for flag, given, read, readers in (
        ("--file", args.file, on_file, "main-lemma and column-sums"),
        ("--lambda", args.lam is not None, on_file and args.suite == "main-lemma", "main-lemma --file"),
        ("--matrix", args.matrix is not None, on_file, "main-lemma --file and column-sums --file"),
    ) + tuple(
        ("--" + dest, getattr(args, dest) is not None, param in taken, "the suites that take %s" % param)
        for param, dest in _SUITE_PARAMS.items()
    ):
        if given and not read:
            raise InputError("%s does not read %s (it is for %s)" % (route, flag, readers))


def cmd_check(args):
    if args.file and args.suite in ("main-lemma", "column-sums"):
        _refuse_unread(args, True)
        from . import invariance

        g = _load_digraph(args.file)
        cap = DEFAULT_SCAN_LIMIT  # the reports scan at the default cap
        if g.n > cap:
            raise InputError("n=%d exceeds cap %d, the most cells check --file scans" % (g.n, cap))
        m = _pick_matrix(g, args.matrix or "adjacency")
        if args.suite == "main-lemma" and args.lam is None:
            raise InputError("main-lemma on a file needs --lambda")
        try:
            if args.suite == "main-lemma":
                report = invariance.check_main_lemma(m, args.lam)
            else:
                report = invariance.check_constant_column_sums_theorem(m)
        except ValueError as exc:  # a lambda that is not simple
            raise InputError(str(exc))
        _write(invariance.report_to_json(report) + "\n", args.output)
        return 0 if report.passed else 1
    from . import checks

    if args.suite not in checks.SUITES:
        raise InputError("unknown suite %r (choose from %s)" % (args.suite, ", ".join(sorted(checks.SUITES))))
    suite = checks.SUITES[args.suite]
    _refuse_unread(args, False, inspect.signature(suite).parameters)
    kwargs = {param: getattr(args, dest) for param, dest in _SUITE_PARAMS.items() if getattr(args, dest) is not None}
    try:
        report = suite(**kwargs)
    except ValueError as exc:  # a --T/--dt without a step count
        raise InputError("suite %s: %s" % (args.suite, exc))
    _write(report.summary() + "\n", args.output)
    return 0 if report.passed else 1


def build_parser():
    # --help shows the first two paragraphs; the rest is for Python callers
    ap = argparse.ArgumentParser(prog="polydiag", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("enumerate", help="stream tagged partitions of {1..n}")
    p.add_argument("n", type=_NATURAL)
    p.add_argument("--filter", help="one of: %s" % ", ".join(sorted(_FILTERS)))
    p.add_argument("--count-only", action="store_true")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify typical-element strings")
    p.add_argument("typical", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    p.set_defaults(func=cmd_classify)

    for name, fn, formats, more in (
        ("invariants", cmd_invariants, (), ""),
        ("lattice", cmd_lattice, ("json", "dot"), ""),
        ("orbits", cmd_orbits, ("text", "json"), " under the weight-preserving automorphisms of the digraph. A "
         "base search finds generators of the group, which is never listed, so --n-cap alone bounds the cells"),
    ):
        about = "%s of the invariant polydiagonal subspaces" % name
        p = sub.add_parser(name, help=about, description=about.capitalize() + more + ".")
        p.add_argument("digraph", help="digraph file (.json or edge list)")
        p.add_argument("--matrix", choices=("adjacency", "laplacian"), default="adjacency")
        p.add_argument("--n-cap", type=int, default=DEFAULT_SCAN_LIMIT, help="most cells scanned (default %(default)s)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("count", help="subspace-type counting table")
    p.add_argument("n", type=_NATURAL)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("simulate", help="integrate a coupled cell system")
    p.add_argument("--preset", required=True, choices=("vanderpol", "lorenz", "singular_osc", "zero", "cubic_odd"))
    p.add_argument("--eps", type=_FINITE, help="van der Pol epsilon")
    p.add_argument("--digraph", required=True)
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), default="adjacency")
    p.add_argument("--scale", type=_FRACTION, default="1", help="rational scale for M, e.g. 0.5")
    p.add_argument("--coupling", choices=sorted(_COUPLINGS))
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)
    p.add_argument("--T", type=_POSITIVE, default=50.0)
    p.add_argument("--x0", type=_FLOATS, help="comma-separated initial state")
    p.add_argument("--seed", type=_NATURAL, default=0)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run a named property suite")
    p.add_argument("suite")
    p.add_argument("--file", help="digraph file for main-lemma / column-sums")
    p.add_argument("--matrix", choices=("adjacency", "laplacian"))  # adjacency when --file reads it
    p.add_argument("--lambda", dest="lam", type=_FRACTION, help="eigenvalue for main-lemma on a file")
    p.add_argument("--n", type=_SIZE, help="max instance size")
    p.add_argument("--trials", type=_TRIALS)
    p.add_argument("--seed", type=_NATURAL)
    p.add_argument("--dt", type=_POSITIVE, help="step size for dynamics suites")
    p.add_argument("--T", type=_POSITIVE, help="horizon for dynamics suites")
    p.add_argument("--tol", type=_POSITIVE, help="tolerance for dynamics suites")
    common(p)
    p.set_defaults(func=cmd_check)

    return ap


# The one parser of the program: built at import, reused by every main() call.
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
