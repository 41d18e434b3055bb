#!/usr/bin/env python3
"""Run sets of benchmark runs and compare two result sets.

From the repository root:

    python3 bench/suite.py run [--workloads certify,spectrum,basin] [--seeds 0]
        [--trace 0,1] [--seconds 30] [--out FILE]
    python3 bench/suite.py compare BASE.json NEW.json

``run`` starts ``bench/run.py`` once per workload, seed and trace mode, one
after another, collects each run's full record into one result set, and
prints every metric by name and unit: the median over the seeds, the
quartiles, and the spread (quartile distance over the median) against the
metric's bound.  With the defaults it runs all three workloads at the
default seed, untraced and traced.

``compare`` prints, for each workload and metric, each side's median and
quartiles and the ratio of the new median to the base median.  A metric
with a bound is ``worse`` when its median moved the wrong way by more than
the bound, and ``unresolved`` when either side's spread is wider than the
bound, unless every new run beats every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_ints(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def run_set(workloads, seeds, traces, seconds) -> list[dict]:
    records = []
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            for trace in traces:
                fd, path = tempfile.mkstemp(dir=scratch, prefix="record-", suffix=".json")
                os.close(fd)
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                       "--record", path]
                print(f"== {workload} seed {seed} trace {trace}", flush=True)
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=600)
                try:
                    if proc.returncode != 0:
                        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
                    with open(path, "r", encoding="utf-8") as fh:
                        records.append(json.load(fh))
                finally:
                    os.unlink(path)
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def group(records) -> dict:
    """(workload, trace) -> metric -> (unit, [values]), extras included."""
    out = {}
    for rec in records:
        env = rec["env"]
        table = out.setdefault((env["workload"], env["trace"]), {})
        rows = dict(rec["metrics"])
        for name in ("op_tail_s", "failed_frac"):
            if name in rec["extra"]:
                rows[name] = rec["extra"][name]
        for name, value in rec["extra"].get("wall_clock", {}).items():
            rows["wall." + name] = {"value": value, "unit": "1/s" if "per_s" in name else "s"}
        for name, m in rows.items():
            table.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def bounds() -> dict:
    return {m["name"]: (m["bound"], m["better"]) for m in load_benchmark()["end_to_end"]}


def summarize(records) -> None:
    limits = bounds()
    for (workload, trace), table in sorted(group(records).items()):
        runs = len(next(iter(table.values()))[1])
        print(f"\n{workload} trace {trace}: {runs} run(s)")
        print(f"  {'metric':36} {'median':>13} {'q1':>13} {'q3':>13} unit    spread")
        for name, (unit, values) in table.items():
            q1, med, q3 = quartiles(values)
            note = ""
            if name in limits and runs > 1:
                bound = limits[name][0]
                s = spread(values)
                flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                note = f"{s:.3f} of bound {bound} ({flag})"
            print(f"  {name:36} {med:13.6g} {q1:13.6g} {q3:13.6g} {unit:7} {note}")
    failed = [r for r in records if r["failures"]]
    for rec in failed:
        env = rec["env"]
        for f in rec["failures"]:
            print(f"FAILED {env['workload']} seed {env['seed']} op {f['op']}: {f['problem']}")


def compare(base_path: str, new_path: str) -> None:
    limits = bounds()
    with open(base_path, "r", encoding="utf-8") as fh:
        base = group(json.load(fh)["runs"])
    with open(new_path, "r", encoding="utf-8") as fh:
        new = group(json.load(fh)["runs"])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} trace {trace}")
        print(f"  {'metric':36} {'base median [q1, q3]':>38} {'new median [q1, q3]':>38}"
              f" {'new/base':>9}  unit verdict")
        for name, (unit, bvals) in base[key].items():
            if name not in new[key]:
                continue
            nvals = new[key][name][1]
            bq1, bmed, bq3 = quartiles(bvals)
            nq1, nmed, nq3 = quartiles(nvals)
            ratio = nmed / bmed if bmed else float("nan")
            verdict = ""
            if name in limits:
                bound, better = limits[name]
                sign = 1.0 if better == "lower" else -1.0
                worse_by = sign * (nmed - bmed) / abs(bmed)
                every_run_better = all(sign * (n - b) < 0 for n in nvals for b in bvals)
                if max(spread(bvals), spread(nvals)) > bound and not every_run_better:
                    verdict = "unresolved"
                elif worse_by > bound:
                    verdict = "worse"
                elif every_run_better:
                    verdict = "better in every run"
                else:
                    verdict = "within bound"
            print(f"  {name:36} {bmed:12.6g} [{bq1:10.6g}, {bq3:10.6g}]"
                  f" {nmed:12.6g} [{nq1:10.6g}, {nq3:10.6g}] {ratio:9.4f}  {unit} {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("run", help="run workloads over seeds and summarize")
    rp.add_argument("--workloads", default="certify,spectrum,basin")
    rp.add_argument("--seeds", default="0", help="e.g. 0, 1-10 or 1,4,9")
    rp.add_argument("--trace", default="0,1", help="trace modes to run: 0, 1 or 0,1")
    rp.add_argument("--seconds", type=int, default=load_benchmark()["run_seconds"])
    rp.add_argument("--out", help="write the result set (JSON) here")
    cp = sub.add_parser("compare", help="compare two result sets")
    cp.add_argument("base")
    cp.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "compare":
        compare(args.base, args.new)
        return 0
    records = run_set(args.workloads.split(","), parse_ints(args.seeds),
                      parse_ints(args.trace), args.seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"benchmark": load_benchmark(), "runs": records}, fh, indent=1)
    summarize(records)
    return 1 if any(r["failures"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
