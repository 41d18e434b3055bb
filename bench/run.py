#!/usr/bin/env python3
"""Benchmark of the ``dmy`` command line.

Run from the repository root:

    python3 bench/run.py --workload certify|spectrum|basin --seed N \
        --seconds S --trace 0|1 [--record FILE] [--dump FILE]

Every op is a real ``dmy`` command, run in-process through
``dmy.cli.main`` with ``--out`` into a scratch directory inside the
checkout.  One client runs ops back to back (a closed loop) in one process
with ``--workers 1`` and ``DMY_THREADS=1``, and every op's output is
checked; a failed check is counted, never raised.

``--trace 0`` times ops until ``--seconds`` have passed and reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics: it runs
the workload's first ops untraced and then traced (see ``tracing.py``),
then the untraced microbenchmarks of ``micro.py``, and writes the span dump
to ``--dump``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (environment, sample counts, op tail, failures) goes to
``--record`` when given.
"""

from __future__ import annotations

import argparse
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
import traceback
from collections import deque
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 11

# The reference kernel takes about REF_SECONDS on an unloaded core of the
# 2-CPU Intel Xeon machine the baseline was measured on.
REF_ITERATIONS = 5_800
REF_SECONDS = 0.010
# During a command, a timer runs 1/SAMPLE_DIVISOR of the kernel this often.
SAMPLE_EVERY_S = 0.025
SAMPLE_DIVISOR = 20


@dataclass(frozen=True, slots=True)
class _RefPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite reference point")


def reference_kernel(iterations: int = REF_ITERATIONS) -> float:
    """Fixed work shaped like the workloads: validated point objects, the
    cubic map's Jacobian with a 2x2 eigenvalue test, and a scan of recent
    iterates as in orbit classification.  It is a frozen copy, so no change
    to ``dmy`` changes its cost."""
    k = 1.01
    acc = 0.0
    tail = deque(maxlen=8)
    for i in range(iterations):
        p = _RefPoint(i * 1e-3 - 3.0, 1.5 - i * 1e-3)
        x, y = p.x, p.y
        d = 1.0 + x * x + y * y
        d2 = d * d
        j11 = 2.0 * k * x * y * y * y / d2
        j12 = -k * y * y * (3.0 + 3.0 * x * x + y * y) / d2
        j21 = k * x * x * (3.0 + x * x + 3.0 * y * y) / d2
        j22 = -2.0 * k * x * x * x * y / d2
        tr = j11 + j22
        det = j11 * j22 - j12 * j21
        nn = math.hypot(x, y)
        for bx, by, bn in tail:
            if abs(nn - bn) <= 1e-7 * nn and math.hypot(x - bx, y - by) <= 1e-7 * nn:
                acc += 1.0
        tail.append((x, y, nn))
        acc += math.sqrt(abs(tr * tr - 4.0 * det)) + abs(det)
    return acc


class SpeedProbe:
    """Tracks how fast the machine runs right now.

    On a shared machine the same op can take 30% longer from one minute to
    the next.  The probe times the reference kernel before and after each
    measured interval, and while a command runs a timer signal times a
    slice of it every ``SAMPLE_EVERY_S`` in the same thread.  ``scale``
    returns the factor that converts the interval's wall time to seconds at
    the reference speed.  No change to ``dmy`` can change the reference
    kernel, so the factor removes the machine's drift and keeps the code's
    cost.
    """

    def __init__(self):
        self.last = self._sample()
        self.factors = []
        self._inside = []  # kernel times sampled during the command, full-kernel scale
        self._pauses = []  # (start, end) of each timer sample

    @staticmethod
    def _sample() -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0

    def _on_timer(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_kernel(REF_ITERATIONS // SAMPLE_DIVISOR)
        t1 = time.perf_counter()
        self._inside.append((t1 - t0) * SAMPLE_DIVISOR)
        self._pauses.append((t0, t1))

    def timed_call(self, fn, *args):
        """(result, wall seconds of ``fn(*args)`` without the timer samples)."""
        self._inside, self._pauses = [], []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        paused = sum(e - b for b, e in self._pauses if t0 <= b and e <= t1)
        return result, t1 - t0 - paused

    def scale(self) -> float:
        now = self._sample()
        samples = [self.last, now] + self._inside
        self._inside = []
        factor = REF_SECONDS / statistics.fmean(samples)
        self.last = now
        self.factors.append(factor)
        return factor


def load_cli():
    """Import ``dmy.cli`` from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dmy", "cli.py")):
        sys.exit(f"bench: no dmy sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import dmy.cli
    if not os.path.realpath(dmy.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: imported dmy from {dmy.cli.__file__}, not from {SRC}")
    return dmy.cli


def _timed_call(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_op(cli, wl, op, workdir, probe=None):
    """Run one op; return (wall seconds, seconds at the reference speed or
    None without a probe, failure reason or None, bytes written).  The probe
    scales each command of the op separately."""
    paths = [os.path.join(workdir, f"out{i}.{op.ext}") for i in range(len(op.argvs))]
    timed_call = probe.timed_call if probe else _timed_call
    codes = []
    seconds = 0.0
    ref_seconds = 0.0 if probe else None
    for argv, path in zip(op.argvs, paths):
        crash = None
        t0 = time.perf_counter()
        try:
            code, dt = timed_call(cli.main, list(argv) + ["--out", path])
            codes.append(code)
        except Exception:
            crash = "crashed: " + traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
        seconds += dt
        if probe:
            ref_seconds += dt * probe.scale()
        if crash:
            return seconds, ref_seconds, crash, 0
    try:
        problem = wl.check(op, codes, paths)
    except Exception as exc:  # a malformed output is a failed check
        problem = f"check raised {exc!r}"
    written = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    return seconds, ref_seconds, problem, written


class Tally:
    """Ops attempted and failed, and the times and work of the timed ones."""

    def __init__(self, cli, wl, ops, workdir, probe=None):
        self.cli = cli
        self.wl = wl
        self._ops = ops
        self._workdir = workdir
        self.probe = probe
        self.attempted = 0
        self.failures = []
        self.times = []      # wall seconds
        self.ref_times = []  # seconds at the reference speed, when probed
        self.units = 0
        self.bytes_out = 0

    def run(self, index: int, timed: bool = True) -> float:
        """Run op ``index`` of the cycled list; return its wall seconds."""
        op = self._ops[index % len(self._ops)]
        seconds, ref_seconds, problem, written = run_op(self.cli, self.wl, op,
                                                        self._workdir, self.probe)
        self.attempted += 1
        self.bytes_out += written
        if problem is not None:
            self.failures.append({"op": index, "argv": [list(a) for a in op.argvs],
                                  "problem": problem})
        if timed:
            self.times.append(seconds)
            if ref_seconds is not None:
                self.ref_times.append(ref_seconds)
            if problem is None:
                self.units += op.units
        return seconds


def tail(times):
    """Highest whole percentile with at least 10 ops beyond it (nearest rank)."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n - rank


def measure_setup(workload, seed, probe):
    """Time of a fresh process that imports dmy and builds the op list, the
    set-up a user's run pays before its first op: (wall seconds, seconds at
    the reference speed), one per repeat."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    wall, ref = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls, which rounds the time up
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        ref.append(wall[-1] * probe.scale())
    return wall, ref


def environment(workload, seed, seconds, trace):
    def git(*args):
        if shutil.which("git") is None:
            return None
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    # a checkout outside git may sit inside some other repository
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": sha, "git_dirty": None if sha is None else bool(status),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "DMY_THREADS": os.environ.get("DMY_THREADS")}


def end_to_end(tally, seconds, setup):
    """Ops back to back, cycling the op list, until ``seconds`` have passed.

    Times are reported at the reference speed (see ``SpeedProbe``); the
    record keeps the wall-clock figures beside them.
    """
    tally.run(0, timed=False)  # warm-up
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tally.run(i)
        i += 1
        if time.perf_counter() >= deadline:
            break
    n = len(tally.times)
    setup_wall, setup_ref = setup
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_p50_s": (statistics.median(tally.ref_times), n),
        "units_per_s": (tally.units / sum(tally.ref_times), n),
        "setup_s": (statistics.median(setup_ref), len(setup_ref)),
        "peak_rss_mb": (rss_mb, 1),
    }
    tail_s, tail_pct, beyond = tail(tally.ref_times)
    wall_tail_s, _pct, _beyond = tail(tally.times)
    factors = tally.probe.factors
    extra = {
        "op_tail_s": {"value": tail_s, "unit": "s", "percentile": tail_pct,
                      "ops_beyond": beyond, "n": n},
        "failed_frac": {"value": len(tally.failures) / tally.attempted, "unit": "1",
                        "n": tally.attempted},
        "wall_clock": {"op_p50_s": statistics.median(tally.times),
                       "op_tail_s": wall_tail_s,
                       "units_per_s": tally.units / sum(tally.times),
                       "setup_s": statistics.median(setup_wall)},
        "speed_factor": {"median": statistics.median(factors), "min": min(factors),
                         "max": max(factors), "n": len(factors)},
        "unit_of_work": tally.wl.unit,
        "op_times_s": tally.ref_times,
    }
    return metrics, extra


def per_layer(tally, wl, ops, dump_path):
    """Untraced then traced runs of the first ops, then the microbenchmarks."""
    import micro
    from tracing import Tracer

    indices = range(wl.trace_ops)
    for i in indices:
        tally.run(i, timed=False)  # warm-up
    plain = [tally.run(i) for _ in range(wl.overhead_reps) for i in indices]
    tracer = Tracer()
    bytes_before = tally.bytes_out
    tracer.install()
    try:
        traced = []
        for i in indices:
            tracer.op = i
            traced.append(tally.run(i))
    finally:
        tracer.uninstall()
    n = len(traced)
    metrics = {k: (v, n) for k, v in tracer.layer_metrics(n).items()}
    metrics["cli.bytes_out"] = ((tally.bytes_out - bytes_before) / n, n)
    metrics["trace.op_p50_s"] = (statistics.median(traced), n)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                   len(plain))
    metrics.update(micro.run(wl.name, ops))
    os.makedirs(os.path.dirname(os.path.abspath(dump_path)), exist_ok=True)
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "traced_ops": list(indices),
                   "ops": [[list(a) for a in ops[i].argvs] for i in indices],
                   **tracer.dump()}, fh)
    return metrics, {"dump": os.path.relpath(dump_path, ROOT),
                     "untraced_op_p50_s": statistics.median(plain)}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="write the full result record (JSON) here")
    ap.add_argument("--dump", help="write the span dump of --trace 1 here "
                                   "(default: .bench_out/trace-WORKLOAD-SEED.json)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ["DMY_THREADS"] = "1"
    cli = load_cli()
    wl = WORKLOADS[args.workload]
    ops = wl.make_ops(args.seed)
    if args.setup_only:
        return 0

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace == 0:
            probe = SpeedProbe()
            setup = measure_setup(args.workload, args.seed, probe)
            tally = Tally(cli, wl, ops, workdir, probe)
            metrics, extra = end_to_end(tally, args.seconds, setup)
        else:
            dump = args.dump or os.path.join(ROOT, ".bench_out",
                                             f"trace-{args.workload}-{args.seed}.json")
            tally = Tally(cli, wl, ops, workdir)
            metrics, extra = per_layer(tally, wl, ops, dump)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        sys.exit(f"bench: measured metrics {sorted(set(metrics) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in units.items()}}
    record = {"env": environment(args.workload, args.seed, args.seconds, args.trace),
              "metrics": {k: {"value": metrics[k][0], "unit": u, "n": metrics[k][1]}
                          for k, u in units.items()},
              "extra": extra, "failures": tally.failures, "result": result}
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    for k, u in units.items():
        v, n = metrics[k]
        print(f"# {args.workload} {k} = {v:.6g} {u} (n={n})")
    for f in tally.failures:
        print(f"# failed op {f['op']}: {f['problem']}")
    print(json.dumps(result))
    return 0


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
