#!/usr/bin/env python3
"""Show that the benchmark's output checks catch tampered outputs.

From the repository root:

    python3 bench/selftest.py

Runs one real op of each workload, first as is (it must pass), then with
its output altered after the command wrote it and before the check reads
it, and once with a command that raises.  Each altered op must be counted
as one failed op, and the run must go on to the next case.  Exits 0 when
every case behaves, 1 otherwise.  Takes under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

from run import ROOT, Tally, load_cli
from workloads import WORKLOADS


def edit_json(fn):
    def mutate(path):
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        fn(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return mutate


def replace_text(old, new):
    def mutate(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new, 1))
    return mutate


def set_byte(offset_from_end, value):
    def mutate(path):
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-offset_from_end] = value
        with open(path, "wb") as fh:
            fh.write(bytes(data))
    return mutate


def truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _bump_orbit(obj):
    point = obj["checks"][4]["data"]["points"][0]
    point[0] = point[0] * (1.0 + 2.0 ** -52)


def _fail_one_check(obj):
    obj["checks"][2]["passed"] = False


def _set(key, value):
    def fn(obj):
        obj[key] = value
    return fn


# (workload, seed, op index, label, mutation of the op's first output file)
CASES = [
    ("certify", 0, 0, "report not passing", edit_json(_set("passed", False))),
    ("certify", 0, 0, "one check failing", edit_json(_fail_one_check)),
    ("certify", 0, 0, "orbit point off by one ulp", edit_json(_bump_orbit)),
    ("certify", 0, 0, "c_raw changed", edit_json(_set("c_raw", 1.5))),
    ("certify", 0, 0, "non-standard JSON", replace_text('"eps": 0.05', '"eps": NaN')),
    ("certify", 0, 0, "truncated report", truncate),
    ("spectrum", 0, 0, "sample count", edit_json(_set("samples", 40400))),
    ("spectrum", 0, 0, "max modulus", edit_json(_set("max_modulus", 0.8746852534744228))),
    ("spectrum", 0, 1, "overflow", edit_json(_set("overflows", 1))),
    ("basin", 0, 0, "one cell recoloured", set_byte(1, 0xAA)),
    ("basin", 7, 0, "undecided cell", set_byte(1, 0x00)),
]


def main() -> int:
    cli = load_cli()
    os.environ["DMY_THREADS"] = "1"
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    problems = []
    try:
        for name, seed, index in sorted({(c[0], c[1], c[2]) for c in CASES}):
            wl = WORKLOADS[name]
            tally = Tally(cli, wl, wl.make_ops(seed), workdir)
            tally.run(index)
            if tally.failures:
                problems.append(f"{name} seed {seed} op {index} failed untampered: "
                                f"{tally.failures[0]['problem']}")
        for name, seed, index, label, mutate in CASES:
            wl = WORKLOADS[name]

            def check(op, codes, paths, wl=wl, mutate=mutate):
                mutate(paths[0])
                return wl.check(op, codes, paths)

            tally = Tally(cli, dataclasses.replace(wl, check=check), wl.make_ops(seed), workdir)
            tally.run(index)
            caught = len(tally.failures) == 1 and tally.attempted == 1
            print(f"{'ok  ' if caught else 'MISS'} {name}: {label}: "
                  f"{tally.failures[0]['problem'] if tally.failures else 'not detected'}")
            if not caught:
                problems.append(f"{name}: {label} was not counted as a failure")

        class Raising:
            @staticmethod
            def main(argv):
                raise RuntimeError("simulated crash")

        wl = WORKLOADS["spectrum"]
        tally = Tally(Raising, wl, wl.make_ops(0), workdir)
        tally.run(0)
        crashed = len(tally.failures) == 1 and tally.failures[0]["problem"].startswith("crashed")
        print(f"{'ok  ' if crashed else 'MISS'} spectrum: command raising")
        if not crashed:
            problems.append("a raising command was not counted as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
