"""Seeded op lists and output checks for the three benchmark workloads.

Every op is a list of real ``dmy`` command lines; the runner appends
``--out PATH`` to each and calls ``dmy.cli.main`` in-process.  A check reads
the files the op wrote and returns ``None`` when they are correct, or a
one-line reason when they are not.

- ``certify``: ``dmy counterexample``.  Op 0 uses the paper's parameters;
  the rest draw k and a from a jittered 4x4 grid over k in [1.004, 1.0155]
  and log a in [log 0.005, log 0.1], four draws per block with each k row
  and each a column used once per block, so every block covers the whole
  parameter box and the mix of cheap ops and damping-halving ops varies
  little with the seed.
- ``spectrum``: the README's 201x201 szlenk grid sweep, alternating with a
  40,401-sample random sweep of the damped map seeded from ``--seed``.
- ``basin``: a composite-map raster dominated by cycles and a szlenk raster
  dominated by escapes, as one op.  Seed 0 uses L = 15 and L = 30 exactly;
  other seeds scale both windows by up to 1%, which keeps the per-op work
  within a few percent of seed 0 while still moving every cell center.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

DEFAULT_K = 1.01
DEFAULT_A = 0.005
EPS_INIT = "0.05"

K_RANGE = (1.004, 1.0155)
A_RANGE = (0.005, 0.1)
CERTIFY_BLOCKS = 4  # 16 drawn ops after op 0

CHECK_NAMES = ["origin-fixed", "spectral-radius-bound", "tail-contraction",
               "radial-orientation", "period-4-orbit", "profile-envelope"]

# Values the seed commit reports for `dmy counterexample` at k=1.01, a=0.005.
PAPER_REPORT = {
    "k": 1.01,
    "a": 0.005,
    "eps": 0.05,
    "c_raw": 1.5150123761602825,
}
PAPER_ORBIT = [
    [10.025220717944253, 0.050127356867641144],
    [-0.05012735686764115, 10.025220717944253],
    [-10.025220717944253, -0.05012735686764115],
    [0.05012735686764115, -10.025220717944253],
]

SPECTRUM_SAMPLES = 40401
GRID_ARGV = ["spectrum", "--map", "szlenk", "--k", "1.01", "--region", "-30:30:-30:30",
             "--grid", "201x201", "--check", "ball:0.8746857",
             "--check", "interval-free:0.5:0.9"]
GRID_MAX_MODULUS = 0.8746852534744229
GRID_REAL_COUNT = 401

BASIN_GRID = (16, 16)
BASIN_JITTER = 0.01
# (map, L at seed 0, sha256 of the seed commit's PGM, tag counts at seed 0)
BASIN_RASTERS = [
    ("counterexample", 15.0,
     "380124ed8a1d8b6e373b9671341541a1b77d272b3c6bd9a492fe3377fc5cc51e", (188, 68, 0, 0)),
    ("szlenk", 30.0,
     "933211a97864112fd47514632f722f1132ea66d039173136c20e998ed807b71f", (80, 0, 176, 0)),
]
# PGM shade for each tag code: converges, periodic, escaping, undecided
PGM_SHADES = (0xFF, 0xAA, 0x55, 0x00)


@dataclass(frozen=True)
class Op:
    """One user action: one or more command lines, timed together."""

    argvs: tuple[tuple[str, ...], ...]
    ext: str
    units: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str              # what one unit of work is, for units_per_s
    make_ops: object       # seed -> list[Op]
    check: object          # (op, exit codes, output paths) -> None | str
    trace_ops: int         # ops 0..trace_ops-1 make up the traced run
    overhead_reps: int     # untraced repeats of those ops for the overhead figure


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _strict_json(fh.read())


# --- certify ----------------------------------------------------------------

def certify_ops(seed: int) -> list[Op]:
    rng = random.Random(f"certify:{seed}")
    ops = [_certify_op(DEFAULT_K, DEFAULT_A, paper=True)]
    klo, khi = K_RANGE
    llo, lhi = math.log(A_RANGE[0]), math.log(A_RANGE[1])
    for block in range(CERTIFY_BLOCKS):
        rows = list(range(4))
        rng.shuffle(rows)
        for i in rows:
            j = (i + block) % 4
            k = klo + (i + rng.random()) / 4.0 * (khi - klo)
            a = math.exp(llo + (j + rng.random()) / 4.0 * (lhi - llo))
            ops.append(_certify_op(k, a, paper=False))
    return ops


def _certify_op(k: float, a: float, paper: bool) -> Op:
    argv = ("counterexample", "--k", repr(k), "--a", repr(a), "--eps-init", EPS_INIT)
    return Op(argvs=(argv,), ext="json", units=1, params={"k": k, "a": a, "paper": paper})


def check_certify(op: Op, codes, paths) -> str | None:
    if codes != [0]:
        return f"exit codes {codes}"
    rep = _read_json(paths[0])
    if rep.get("passed") is not True:
        return "report does not pass"
    names = [c["name"] for c in rep["checks"]]
    if names != CHECK_NAMES:
        return f"check names {names}"
    failed = [c["name"] for c in rep["checks"] if c["passed"] is not True]
    if failed:
        return f"failed checks {failed}"
    orbit = rep["checks"][CHECK_NAMES.index("period-4-orbit")]["data"]
    if orbit.get("hyperbolic") is not True or len(orbit.get("points", ())) != 4:
        return "period-4 orbit is not a hyperbolic 4-cycle"
    if rep["k"] != op.params["k"]:
        return f"k {rep['k']!r} differs from the request"
    halvings = _halvings(op.params["a"], rep["a"])
    if halvings is None:
        return f"a {rep['a']!r} is not the request halved"
    if op.params["paper"]:
        for key, want in PAPER_REPORT.items():
            if rep[key] != want:
                return f"{key} {rep[key]!r} differs from the seed commit's {want!r}"
        if orbit["points"] != PAPER_ORBIT:
            return "orbit points differ from the seed commit's"
    return None


def _halvings(requested: float, used: float) -> int | None:
    """Number of times the build halved the damping, or None if ``used`` is
    not ``requested`` halved a whole number of times."""
    for h in range(64):
        if used == requested / 2.0 ** h:
            return h
    return None


# --- spectrum ---------------------------------------------------------------

def spectrum_ops(seed: int) -> list[Op]:
    grid = Op(argvs=(tuple(GRID_ARGV),), ext="json", units=SPECTRUM_SAMPLES,
              params={"grid": True})
    rand_argv = ("spectrum", "--map", "ga", "--random", str(SPECTRUM_SAMPLES),
                 "--rng-seed", str(seed), "--check", "ball:0.9", "--check", "real-free")
    rand = Op(argvs=(rand_argv,), ext="json", units=SPECTRUM_SAMPLES,
              params={"grid": False, "rng_seed": seed})
    return [grid, rand]


def check_spectrum(op: Op, codes, paths) -> str | None:
    if codes != [0]:
        return f"exit codes {codes}"
    rep = _read_json(paths[0])
    if rep.get("passed") is not True:
        return "report does not pass"
    if rep["samples"] != SPECTRUM_SAMPLES:
        return f"{rep['samples']} samples, requested {SPECTRUM_SAMPLES}"
    if rep["overflows"] != 0:
        return f"{rep['overflows']} overflows"
    if op.params["grid"]:
        if rep["max_modulus"] != GRID_MAX_MODULUS:
            return f"max_modulus {rep['max_modulus']!r}, expected {GRID_MAX_MODULUS!r}"
        if rep["real_count"] != GRID_REAL_COUNT:
            return f"real_count {rep['real_count']}, expected {GRID_REAL_COUNT}"
    return None


# --- basin ------------------------------------------------------------------

def basin_ops(seed: int) -> list[Op]:
    rng = random.Random(f"basin:{seed}")
    w, h = BASIN_GRID
    argvs = []
    windows = []
    for variant, L0, _sha, _counts in BASIN_RASTERS:
        L = L0 if seed == 0 else L0 * (1.0 + rng.uniform(-BASIN_JITTER, BASIN_JITTER))
        windows.append(L)
        argvs.append(("basin", "--map", variant, "--L", repr(L), "--grid", f"{w}x{h}",
                      "--workers", "1"))
    return [Op(argvs=tuple(argvs), ext="pgm", units=w * h * len(argvs),
               params={"exact": seed == 0, "windows": windows})]


def pgm_counts(data: bytes) -> tuple[int, int, int, int]:
    w, h = BASIN_GRID
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + w * h:
        raise ValueError("not a 16x16 binary PGM")
    body = data[len(header):]
    counts = tuple(body.count(s) for s in PGM_SHADES)
    if sum(counts) != w * h:
        raise ValueError("PGM holds a shade that is no tag")
    return counts


def check_basin(op: Op, codes, paths) -> str | None:
    if codes != [0] * len(BASIN_RASTERS):
        return f"exit codes {codes}"
    for (variant, _L0, sha, want), path in zip(BASIN_RASTERS, paths):
        with open(path, "rb") as fh:
            data = fh.read()
        counts = pgm_counts(data)
        if op.params["exact"]:
            if hashlib.sha256(data).hexdigest() != sha:
                return f"{variant} raster differs from the seed commit's bytes"
            if counts != want:
                return f"{variant} tag counts {counts}, expected {want}"
        if counts[3]:
            return f"{variant} raster has {counts[3]} undecided cells"
        if variant == "counterexample" and counts[2]:
            return f"{variant} raster has {counts[2]} escaping cells"
    return None


WORKLOADS = {
    "certify": Workload("certify", "certificates", certify_ops, check_certify,
                        trace_ops=1, overhead_reps=3),
    "spectrum": Workload("spectrum", "Jacobian samples", spectrum_ops, check_spectrum,
                         trace_ops=2, overhead_reps=2),
    "basin": Workload("basin", "raster cells", basin_ops, check_basin,
                      trace_ops=1, overhead_reps=1),
}
