"""polydiag benchmark.

    python3 bench/run.py --workload scan --seed 1 --seconds 27 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  Every op is one ``polydiag.cli.main(argv)`` call in this
process, with stdout captured, run as a closed loop (one client, one op
after another).  The inputs are generated from ``--seed`` and written as
digraph JSON files under ``.bench_work/``; the program only reads those.

A pass is the workload's fixed op list (at least 100 ops).  ``--trace 0``
times one whole pass, and more while the next one fits in ``--seconds``,
and prints the end-to-end metrics.  Its times are scaled to
a reference machine speed: after every op, calibration chunks (a fixed
piece of stdlib and numpy work that calls nothing in the package) run for
about a tenth of the op's time, and each op's time is divided by the mean
chunk time around it over CHUNK_REF_S.  This cancels most of the speed
drift of a shared host.  ``--trace 1`` runs each op of one pass twice, plain
and with spans around every call into the package modules, and prints the
per-layer metrics and the tracing overhead, unscaled.  Each op's output is
checked outside the timed region; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SPANS = os.path.join(ROOT, ".bench_out")
SETUP_PER_PASS = 4
# Calibration (see Calibration): the chunks take CAL_SHARE of a pass, at
# least CAL_MIN_CHUNKS after each op, and an op is scaled by the chunks
# after the CAL_WINDOW ops on either side of it and itself.  CHUNK_REF_S is
# about one chunk's time on an idle Intel Xeon vCPU with Python 3.11.
CAL_SHARE = 0.1
CAL_MIN_CHUNKS = 2
CAL_WINDOW = 10
CHUNK_REF_S = 6e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def import_program():
    """Import polydiag from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "polydiag", "__init__.py")):
        raise BenchError("no polydiag package under %s" % SRC)
    sys.path.insert(0, SRC)
    import polydiag

    if os.path.dirname(os.path.abspath(polydiag.__file__)) != os.path.join(SRC, "polydiag"):
        raise BenchError("polydiag imported from %s, not %s" % (polydiag.__file__, SRC))
    return polydiag


def cache_clearers():
    """cache_clear of every functools cache in the package, so no op reuses
    a result an earlier op cached in this process."""
    import importlib

    from tracer import LAYERS

    out = []
    for short in LAYERS:
        mod = importlib.import_module("polydiag." + short)
        for attr, obj in sorted(vars(mod).items()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                out.append(("%s.%s" % (short, attr), obj.cache_clear))
    return out


class Runner:
    def __init__(self, ops, clearers):
        from polydiag import cli

        import verify

        self.cli = cli
        self.verify = verify
        self.ops = ops
        self.clearers = [fn for _, fn in clearers]
        self.failures = []
        self.attempted = 0
        self.output_bytes = 0
        self.max_drift = 0.0

    def run_op(self, op, tracer=None):
        """Run one op; return (seconds, cpu seconds).  Checks its output."""
        for clear in self.clearers:
            clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.op = self.attempted
                    tracer.active = True
                rc = self.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = "raised %s: %s" % (type(exc).__name__, exc)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = sum(getattr(b, f) - getattr(a, f) for a, b in ((r0, r1), (c0, c1)) for f in ("ru_utime", "ru_stime"))
        text = out.getvalue()
        self.attempted += 1
        if tracer is not None:
            self.output_bytes += len(text.encode())
        try:
            drift = self.verify.check(op, rc, text)
            if drift is not None:
                self.max_drift = max(self.max_drift, drift)
        except self.verify.CheckFailed as exc:
            self.failures.append("%s: %s" % (" ".join(op["argv"]), exc))
        except Exception as exc:  # a malformed output that breaks the parser
            self.failures.append("%s: unreadable output (%s: %s)" % (" ".join(op["argv"]), type(exc).__name__, exc))
        return t1 - t0, cpu

    def run_pass(self, tracer=None, after=None):
        """Run every op once; `after(seconds)` is called after each op,
        outside its timing."""
        lat, cpu = [], []
        for op in self.ops:
            dt, c = self.run_op(op, tracer)
            lat.append(dt)
            cpu.append(c)
            if after is not None:
                after(dt)
        return lat, cpu


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def setup_probe(workload, seed, outdir):
    """Time one fresh process that imports the package and writes the
    inputs.  After its set-up the process runs calibration chunks on its
    own CPU and reports them; return the set-up seconds without them and
    the calibration sample."""
    env = dict(os.environ)
    env.pop("POLYDIAG_THREADS", None)
    target = tempfile.mkdtemp(prefix="setup-", dir=outdir)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", target,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("set-up process failed: %s" % proc.stderr.decode(errors="replace")[-500:])
    shutil.rmtree(target, ignore_errors=True)
    cal = json.loads(proc.stdout.decode().splitlines()[-1])
    return dt - cal["total_s"], tuple(cal["sample"])


def calibration_chunk():
    """A fixed piece of work in the program's style (Fraction arithmetic,
    dicts, sets, sorting, small numpy arrays) that calls nothing in the
    package, so no change to the program changes its time."""
    import numpy

    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        table[(i % 13, i % 5)] = acc
    ranked = sorted(table.items(), key=lambda kv: kv[1])
    keys = {k for k, _ in ranked if k[0] > 3}
    x = numpy.arange(6, dtype=float)
    for _ in range(30):
        x = x + 0.01 * (x * x - x)
    return len(keys), float(x[0])


class Calibration:
    """Tracks the machine's speed through a sequence of timed work.

    After each piece of work of t seconds, ``after(t)`` runs one untimed
    chunk, so no chunk is timed with cold caches, and then times at least
    CAL_MIN_CHUNKS chunks, about CAL_SHARE * t seconds of them, so they
    sample the sequence in proportion to where its time went.  A piece's
    factor is the mean chunk time over CHUNK_REF_S in the pieces within
    CAL_WINDOW of it: around that piece the machine ran that many times
    slower than the reference speed, and its time is divided by it.  Wall
    and CPU time have factors of their own: when the host takes the vCPU
    away, wall time grows but CPU time does not."""

    def __init__(self):
        self.samples = []  # (chunks, wall seconds, CPU seconds) after each piece of work

    def after(self, t):
        """Calibrate after t seconds of work."""
        k = max(CAL_MIN_CHUNKS, math.ceil(CAL_SHARE * t / CHUNK_REF_S))
        calibration_chunk()
        t0, c0 = time.perf_counter(), time.thread_time()
        for _ in range(k):
            calibration_chunk()
        self.samples.append((k, time.perf_counter() - t0, time.thread_time() - c0))

    def factors(self, cpu=False):
        """Each piece's wall-time factor, or its CPU-time factor."""
        s, col = self.samples, 2 if cpu else 1
        return [self._factor(s[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1], col) for i in range(len(s))]

    def overall(self):
        return self._factor(self.samples, 1)

    @staticmethod
    def _factor(samples, col):
        return sum(x[col] for x in samples) / sum(x[0] for x in samples) / CHUNK_REF_S


def environment(threads, clearers, n_ops):
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cache_hygiene": "before every op: cache_clear() on %s, then gc.collect()" % ", ".join(n for n, _ in clearers),
        "POLYDIAG_THREADS": "unset" if threads is None else "unset (was %r; removed)" % threads,
        "load": "closed loop, 1 client, in-process, ops back to back",
        "ops_per_pass": n_ops,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
    }


def end_to_end(runner, seconds, probe):
    """Time one whole pass, and more while the next one fits in `seconds`
    (output checks, calibration and set-up probes included).  Each pass
    starts with SETUP_PER_PASS set-up probes.  Every probe and op is
    followed by calibration chunks, and its times are divided by its
    calibration factors."""
    lat, cpu, setup, raw, factors = [], [], [], [], []
    wall0 = time.perf_counter()
    while True:
        probes, ops = Calibration(), Calibration()
        pass_setup = []
        for _ in range(SETUP_PER_PASS):
            t, sample = probe()
            pass_setup.append(t)
            probes.samples.append(sample)
        pass_lat, pass_cpu = runner.run_pass(after=ops.after)
        factors.append(ops.overall())
        raw += pass_lat
        setup += [t / g for t, g in zip(pass_setup, probes.factors())]
        lat.append([t / g for t, g in zip(pass_lat, ops.factors())])
        cpu.append([t / g for t, g in zip(pass_cpu, ops.factors(cpu=True))])
        elapsed = time.perf_counter() - wall0
        if elapsed * (len(lat) + 1) / len(lat) > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_op = [statistics.median(op) for op in zip(*lat)]
    n = len(per_op)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n * len(lat) / sum(map(sum, lat)),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p90_ms": 1e3 * percentile(per_op, 90),
        "cpu_s": sum(statistics.median(op) for op in zip(*cpu)),
        "peak_rss_mb": peak,
        "ok_ratio": 1.0 - len(runner.failures) / runner.attempted,
    }
    info = {
        "passes": len(lat),
        "ops_per_pass": n,
        "p90_rank": math.ceil(0.9 * n),
        "ops_beyond_p90": n - math.ceil(0.9 * n),
        "calibration_factors": ", ".join("%.4f" % f for f in factors),
        "unscaled_ops_per_s": len(raw) / sum(raw),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info, setup


def traced(runner, workload, seed):
    import layers
    from tracer import Tracer

    tr = Tracer()
    base, lat = [], []
    for i, op in enumerate(runner.ops):
        # Each op runs untraced and traced back to back, in alternating
        # order, so drift in machine speed cancels out of the overhead.
        for traced_run in (i % 2 == 1, i % 2 == 0):
            if traced_run:
                with tr:
                    lat.append(runner.run_op(op, tr)[0])
            else:
                base.append(runner.run_op(op)[0])
    metrics = layers.metrics(tr, lat, base, runner)
    os.makedirs(SPANS, exist_ok=True)
    with open(os.path.join(SPANS, "spans-%s-seed%d.jsonl" % (workload, seed)), "w") as fh:
        for sid, name, start, end, parent, op in tr.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
    return metrics, layers.report(tr, metrics)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help="only write the inputs to DIR (set-up timing)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = os.environ.pop("POLYDIAG_THREADS", None)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError("unknown workload %r (choose from %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.setup_only)
        t0 = time.perf_counter()
        cal = Calibration()
        cal.after(t0 - START)
        print(json.dumps({"sample": cal.samples[0], "total_s": time.perf_counter() - t0}))
        return 0
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        ops = workloads.build(args.workload, args.seed, os.path.join(workdir, "inputs"))
        if len(ops) < 100:
            raise BenchError("a pass needs at least 100 ops, %s has %d" % (args.workload, len(ops)))
        clearers = cache_clearers()
        runner = Runner(ops, clearers)
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, lines = traced(runner, args.workload, args.seed)
        else:
            probe = functools.partial(setup_probe, args.workload, args.seed, workdir)
            metrics, info, setup_times = end_to_end(runner, args.seconds, probe)
            lines = ["# %s: %s" % (k, v) for k, v in sorted(info.items())]
            lines.append("# setup_s runs: %s" % ", ".join("%.4f" % t for t in setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print("# env: " + json.dumps(environment(threads, clearers, len(ops))))
    for line in lines:
        print(line)
    for failure in runner.failures[:20]:
        print("# FAILED " + failure)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error: the set-up child is killed and waited
    # for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print("bench: error: %s" % exc, file=sys.stderr)
        sys.exit(2)
