"""Command-line front end.

One executable, eight subcommands:

    dmy {spectrum|orbit|periodic|basin|counterexample|phi|ray|dissipativity}

Maps are selected with ``--map {linear|szlenk|ga|counterexample}`` plus
variant parameters (``--matrix a11,a12,a21,a22``, ``--k``, ``--a``).
Regions are ``xmin:xmax:ymin:ymax``, grids are ``NxM``.  Reports are strict
JSON written by one encoder, ``_finite_or_null`` (a point as [x, y], a
result record as its fields, a non-finite number as null), tables are CSV with
17-significant-digit floats, basin images are binary PGM; every file is
written atomically (temporary file, then rename).

Exit codes: 0 all checks passed, 1 a verdict failed, a Newton search failed
(``NewtonError``) or a value overflowed (``NumericOverflowError``), 2 usage or
parameter error (``ParameterError``), 3 I/O error (``OSError``).

A ``--config file.json`` supplies defaults for any flag of the subcommand
(keys are flag names with underscores); flags given on the command line win.
Every JSON report embeds the fully resolved configuration under ``config``,
and feeding that object back via ``--config`` reproduces the report.

Each subcommand is declared once, in ``_COMMANDS``: its run function, help
line and flags, each flag a ``(dest, default, help)`` row.  A run function
maps the resolved flags to its output (a JSON report as a dict, CSV text or
PGM bytes) and an exit code; ``main`` alone heads a report with ``config``,
encodes it once, writes the output to stdout or ``--out`` and maps errors to
exit codes in one ``except`` clause.  A report's keys are its result record's
field names (but not ``SpectrumReport.real_samples``) plus ``map``,
``checks``, ``passed`` and ``hyperbolic`` where they apply.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile

from .counterexample import DEFAULT_A, DEFAULT_EPS_INIT, build_counterexample, verify_counterexample
from .dynamics import (_MAX_CELLS, BasinGrid, NewtonConfig, OmegaConfig,
                       DissipativitySampling, basin_raster, dissipativity_bound, find_periodic,
                       verify_invariant_ray)
from .errors import NewtonError, NumericOverflowError, ParameterError
from .geometry import Mat2, Point2
from .phi import _phi_parts, build_phi
from .planar import (ESCAPE_RADIUS, DampedSzlenkMap, LinearMap, PlanarMap, SzlenkMap, iterate)
from .spectral import (GridStrategy, RandomStrategy, Rect, SpectrumReport, Verdict, _lerps,
                       _log_radii, check_ball, check_interval_free, check_real_free,
                       sample_spectrum)

# tokens that begin with a minus and a digit (or a decimal point) are values,
# not flags, so --region -30:30:-30:30 parses without an equals sign
_NEG_VALUE = re.compile(r"^-(\d|\.\d).*$")

# a flag row is (dest, default, help); its spelling (``_flag``), its type (the
# default's, or str for a None or list default) and help's "(default: ...)" are derived
_MAP_OPTS = [
    ("map", None, "map variant: linear | szlenk | ga | counterexample"),
    ("matrix", None, "entries a11,a12,a21,a22 of the linear map (with --map linear)"),
    ("k", 1.01,
     "cubic map parameter, in (1, 2/sqrt(3)); the counterexample map takes only "
     "(1, 0.88*2/sqrt(3)), and next to 1 (1.0001, say) its period-4 orbit is too near "
     "neutral and the run exits 2"),
    ("a", DEFAULT_A, "damping subtracted from the identity"),
    ("eps_init", DEFAULT_EPS_INIT,
     "slope budget of the counterexample map's profile, capped at 0.9/(8C)"),
]

_IO_OPTS = [
    ("out", None, "output file (default: JSON/CSV to stdout; required for basin images)"),
    ("config", None, "JSON file with defaults for this subcommand's flags; flags win"),
]


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then reused:
    each parse fills a fresh namespace, and every flag's default is suppressed."""
    parser = argparse.ArgumentParser(
        prog="dmy",
        description="planar map toolkit: spectra, orbits, basins, and the "
                    "squashed damped cubic construction",
        allow_abbrev=False)
    parser._negative_number_matcher = _NEG_VALUE
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name, (_run, hlp, opts) in _COMMANDS.items():
        sp = subs.add_parser(name, help=hlp, description=hlp, allow_abbrev=False)
        sp._negative_number_matcher = _NEG_VALUE
        for dest, default, flag_hlp in opts:
            multi = {"action": "append", "metavar": "SPEC"} if isinstance(default, list) else {}
            if default is not None and not multi:
                shown = default if isinstance(default, str) else format(default, "g")
                flag_hlp = f"{flag_hlp} (default: {shown})"
            sp.add_argument(_flag(dest), dest=dest,
                            type=str if default is None or multi else type(default),
                            default=argparse.SUPPRESS, help=flag_hlp, **multi)
    return parser


def _coerce(dest: str, default, value):
    if isinstance(default, list):
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ParameterError(f"config key {dest!r} must be a list of strings")
        return list(value)
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"config key {dest!r} must be an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"config key {dest!r} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:  # an integer past the doubles
            raise ParameterError(
                f"config key {dest!r} is a number too large for a double") from None
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)  # numeric spellings of string flags are accepted
    raise ParameterError(f"config key {dest!r} must be a string, got {value!r}")


def _merge_config(sub: str, provided: dict) -> dict:
    opts = _COMMANDS[sub][2]
    file_values: dict = {}
    path = provided.get("config")
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON or bytes that are not UTF-8
                raise ParameterError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ParameterError(f"config {path} must hold a JSON object")
        cfg_sub = raw.get("subcommand")
        if cfg_sub is not None and cfg_sub != sub:
            raise ParameterError(
                f"config {path} is for subcommand {cfg_sub!r}, not {sub!r}")
        known = {dest for dest, *_ in opts}
        unknown = sorted(set(raw) - known - {"subcommand"})
        if unknown:
            raise ParameterError(f"config {path} has unknown keys: {', '.join(unknown)}")
        file_values = raw
    resolved = {}
    for dest, default, _hlp in opts:
        if dest in provided:
            resolved[dest] = provided[dest]
        elif dest != "config" and file_values.get(dest) is not None:
            resolved[dest] = _coerce(dest, default, file_values[dest])
        else:
            resolved[dest] = default
    return resolved


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise ParameterError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"{what} has a non-numeric entry: {text!r}") from None


def _parse_point(text: str, what: str) -> Point2:
    x, y = _parse_floats(text, 2, what)
    return Point2(x, y)


def _parse_region(text: str) -> Rect:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(f"region must be xmin:xmax:ymin:ymax, got {text!r}")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts)
    except ValueError:
        raise ParameterError(f"region has a non-numeric bound: {text!r}") from None
    return Rect(xmin, xmax, ymin, ymax)


def _parse_grid(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise ParameterError(f"grid must be NxM, got {text!r}")
    try:
        nx, ny = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than int() converts
        raise ParameterError(f"--grid has an axis too long to read; "
                             f"the cap is {_MAX_CELLS} (4096x4096) cells") from None
    if nx * ny > _MAX_CELLS:
        raise ParameterError(
            f"--grid {text} has {nx * ny} cells, more than the {_MAX_CELLS} (4096x4096) cap")
    return nx, ny


def _capped(resolved: dict, dest: str, least: int | None = None) -> int:
    """The count flag ``dest``, refused above the 4096x4096 cell cap, then below ``least``."""
    n = resolved[dest]
    if n > _MAX_CELLS:
        raise ParameterError(f"{_flag(dest)} must be at most {_MAX_CELLS} "
                             f"(the 4096x4096 cell cap), got {n!r}")
    if least is not None and n < least:
        raise ParameterError(f"{_flag(dest)} must be >= {least}, got {n!r}")
    return n


def _make_map(resolved: dict):
    variant = resolved.get("map")
    if variant is None:
        raise ParameterError("--map is required for this subcommand")
    if variant == "linear":
        if resolved.get("matrix") is None:
            raise ParameterError("--map linear needs --matrix a11,a12,a21,a22")
        vals = _parse_floats(resolved["matrix"], 4, "--matrix")
        return LinearMap(Mat2(*vals)), None
    if variant == "szlenk":
        return SzlenkMap(resolved["k"]), None
    if variant == "ga":
        return DampedSzlenkMap(resolved["k"], resolved["a"]), None
    if variant == "counterexample":
        bundle = build_counterexample(resolved["k"], resolved["a"], resolved["eps_init"])
        return bundle.composite, bundle
    raise ParameterError(
        f"unknown map variant {variant!r}; pick linear, szlenk, ga, or counterexample")


def _write_atomic(path: str, data: bytes) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".dmy-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _finite_or_null(v):
    """v as strict JSON data: a Point2 as [x, y], a complex number as [re, im], any
    other record as its fields in field order, and every non-finite float as None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, Point2)):
        return [_finite_or_null(x) for x in v]
    if isinstance(v, complex):
        return [_finite_or_null(v.real), _finite_or_null(v.imag)]
    if hasattr(v, "_fields"):
        return {name: _finite_or_null(getattr(v, name)) for name in v._fields}
    return v


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


_PGM_SHADES = b"\xff\xaa\x55\x00"  # codes 0..3, white to black


def render_pgm(grid: BasinGrid) -> bytes:
    table = bytearray(256)
    table[:4] = _PGM_SHADES
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + grid.codes.translate(bytes(table))


def _run_spectrum_check(report: SpectrumReport, spec: str) -> Verdict:
    head, _, rest = spec.partition(":")
    if head == "real-free":
        if rest:
            raise ParameterError(f"real-free takes no arguments, got {spec!r}")
        return check_real_free(report)
    if head not in ("ball", "interval-free"):
        raise ParameterError(
            f"unknown check {spec!r}; use ball:RADIUS, interval-free:LO:HI, or real-free")
    lo_s, _, hi_s = rest.partition(":")
    try:  # the numbers alone: a check's own refusal is printed as it is
        args = (float(rest),) if head == "ball" else (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise ParameterError(f"bad check spec {spec!r}: {exc}") from None
    return check_ball(report, *args) if head == "ball" else check_interval_free(report, *args)


def _run_spectrum(resolved: dict):
    m, _ = _make_map(resolved)
    region = _parse_region(resolved["region"])
    if _capped(resolved, "random") != 0:  # RandomStrategy rejects a negative count
        strategy = RandomStrategy(resolved["random"], resolved["rng_seed"])
    else:
        nx, ny = _parse_grid(resolved["grid"])
        strategy = GridStrategy(nx, ny)
    report = sample_spectrum(m, region, strategy)
    verdicts = [_run_spectrum_check(report, spec) for spec in resolved["check"]]
    passed = all(v.passed for v in verdicts)
    fields = {name: getattr(report, name) for name in report._fields if name != "real_samples"}
    return {**fields, "checks": verdicts, "passed": passed}, 0 if passed else 1


def _run_orbit(resolved: dict):
    m, _ = _make_map(resolved)
    start = _parse_point(resolved["start"], "--start")
    orbit = iterate(m, start, _capped(resolved, "steps", 0), resolved["escape_radius"])
    rows = ((i, p.x, p.y, p.norm()) for i, p in enumerate(orbit.points))
    return _csv(["step", "x", "y", "norm"], rows), 0


def _run_periodic(resolved: dict):
    m, _ = _make_map(resolved)
    period = _capped(resolved, "period")
    orbit = find_periodic(m, period, _parse_point(resolved["seed"], "--seed"),
                          NewtonConfig(tol=resolved["tol"], max_steps=resolved["max_steps"]))
    return {"map": m.describe(), **_finite_or_null(orbit), "hyperbolic": orbit.hyperbolic}, 0


def _run_basin(resolved: dict):
    m, _ = _make_map(resolved)
    if resolved["out"] is None:
        raise ParameterError("basin writes a binary PGM image; --out is required")
    width, height = _parse_grid(resolved["grid"])
    omega = OmegaConfig(max_iter=resolved["max_iter"], origin_tol=resolved["origin_tol"],
                        escape_radius=resolved["escape_radius"], window=resolved["window"],
                        cycle_rel_tol=resolved["cycle_tol"])
    workers = resolved["workers"]
    grid = basin_raster(m, resolved["L"], width, height, omega,
                        None if workers == 0 else workers)
    return render_pgm(grid), 0


def _run_counterexample(resolved: dict):
    bundle = build_counterexample(resolved["k"], resolved["a"], resolved["eps_init"])
    report = verify_counterexample(bundle)
    return report.to_dict(), 0 if report.passed else 1


def _run_phi(resolved: dict):
    profile = build_phi(resolved["R"], resolved["C"], resolved["eps"])
    if (lo := profile.R / 10.0) == 0.0:
        raise ParameterError(f"--R {profile.R!r} is too small: the table starts at R / 10, "
                             f"which underflows to 0")
    n = _capped(resolved, "log_samples", 2)
    if not math.isfinite(hi := 10.0 * profile.r_tail):
        raise ParameterError(f"profile tail radius {profile.r_tail!r} times 10 overflows a "
                             f"double, so the table has no end; pick a smaller --R or a "
                             f"larger --eps")
    rows = [(r, *_phi_parts(profile, r)) for r in _log_radii(lo, hi, n)]
    return _csv(["r", "phi", "phi_prime_times_r"], rows), 0


def _run_ray(resolved: dict):
    m, _ = _make_map(resolved)
    n = _capped(resolved, "samples", 2)
    radius, angle = resolved["radius"], resolved["angle"]
    if not (math.isfinite(radius) and radius > 0.0):
        raise ParameterError(f"--radius must be positive and finite, got {radius!r}")
    if not math.isfinite(angle):
        raise ParameterError(f"--angle must be finite, got {angle!r}")
    t = math.radians(angle)
    cx, cy = math.cos(t), math.sin(t)
    radii = _lerps(0.0, radius, n)
    pts = [Point2(cx * r, cy * r) for r in radii]
    verdict = verify_invariant_ray(m, pts, resolved["tol"])
    return {"map": m.describe(), **_finite_or_null(verdict)}, 0 if verdict.passed else 1


def _run_dissipativity(resolved: dict):
    m, bundle = _make_map(resolved)
    raw = resolved["radius"]
    if raw == "tail":
        if bundle is None:
            raise ParameterError("--radius tail needs --map counterexample")
        radius = bundle.profile.r_tail
    else:
        try:
            radius = float(raw)
        except ValueError:
            raise ParameterError(f"--radius must be a number or 'tail', got {raw!r}") from None
    sampling = DissipativitySampling(ball_radii=_capped(resolved, "ball_radii"),
                                     angles=_capped(resolved, "angles"),
                                     outer_radii=_capped(resolved, "outer_radii"))
    bound = dissipativity_bound(m, radius, resolved["alpha"], sampling)
    return ({"map": m.describe(), **_finite_or_null(bound), "passed": bound.passed},
            0 if bound.passed else 1)


# a flag that fills a config record's field takes the record's default from these
_OMEGA, _NEWTON, _SAMPLING = OmegaConfig(), NewtonConfig(), DissipativitySampling()
# name -> (run function, help line, flags); every subcommand also takes the
# --out and --config flags, appended here
_COMMANDS = {name: (run, hlp, opts + _IO_OPTS) for name, run, hlp, opts in [
    ("spectrum", _run_spectrum, "sweep Jacobian eigenvalues over a region and test bounds",
     _MAP_OPTS + [
         ("region", "-30:30:-30:30", "sample region xmin:xmax:ymin:ymax"),
         ("grid", "201x201", "grid resolution NxM"),
         ("random", 0, "sample this many random points instead of the grid; 0 = grid"),
         ("rng_seed", 0, "seed for --random sampling"),
         ("check", [],
          "spectrum verdict, repeatable: ball:RADIUS | interval-free:LO:HI | real-free"),
     ]),
    ("orbit", _run_orbit, "iterate a map and write the orbit as CSV", _MAP_OPTS + [
        ("start", "10,0", "starting point x,y"),
        ("steps", 100, "iterations to record"),
        ("escape_radius", ESCAPE_RADIUS, "stop once the orbit norm passes this"),
    ]),
    ("periodic", _run_periodic, "newton search for a period-n orbit", _MAP_OPTS + [
        ("seed", "10,0", "newton starting point x,y"),
        ("period", 4, "orbit period to search for"),
        ("tol", _NEWTON.tol, "closure residual target"),
        ("max_steps", _NEWTON.max_steps, "newton step budget"),
    ]),
    ("basin", _run_basin, "rasterize omega-limit classes over a window into a PGM image",
     _MAP_OPTS + [
         ("L", 30.0, "window half-width, cells cover [-L,L]^2"),
         ("grid", "256x256", "raster resolution WxH"),
         ("max_iter", _OMEGA.max_iter, "classification budget per cell"),
         ("origin_tol", _OMEGA.origin_tol, "origin-ball radius for convergence"),
         ("escape_radius", _OMEGA.escape_radius, "norm beyond which a cell escapes"),
         ("window", _OMEGA.window, "tail length for cycle detection"),
         ("cycle_tol", _OMEGA.cycle_rel_tol, "relative tolerance for cycle detection"),
         ("workers", 0, "row workers, at most one per CPU; 0 = one per CPU"),
     ]),
    ("counterexample", _run_counterexample,
     "build the squashed damped cubic map and verify its claims",
     _MAP_OPTS[2:]),  # --k, --a and --eps-init: the map flags past --map and --matrix
    ("phi", _run_phi, "tabulate a radial squashing profile as CSV", [
        ("R", 20.0, "inner flat radius"),
        ("C", 2.0, "Jacobian norm bound; tail value is 1/(2C)"),
        ("eps", 0.05, "slope budget, in (0, 1/(8C))"),
        ("log_samples", 50, "data rows, log-spaced from R/10 to 10*r_tail"),
    ]),
    ("ray", _run_ray, "check that a map sends a sampled ray into itself", _MAP_OPTS + [
        ("angle", 0.0, "ray direction in degrees"),
        ("radius", 100.0, "outer sample radius"),
        ("samples", 101, "ray sample count"),
        ("tol", 1e-9,
         "max allowed image distance to the ray, as a fraction of the ray's length"),
    ]),
    ("dissipativity", _run_dissipativity,
     "sampled eventual-contraction certificate on large norms", _MAP_OPTS + [
         ("radius", "20",
          "ball radius for the norm bound; 'tail' uses the built profile's tail "
          "radius (counterexample map only)"),
         ("alpha", 0.5, "hypothesis constant, in (0,1)"),
         ("ball_radii", _SAMPLING.ball_radii, "radial samples inside the ball"),
         ("angles", _SAMPLING.angles, "angular samples per ring"),
         ("outer_radii", _SAMPLING.outer_radii, "radial samples outside the ball"),
     ]),
]}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    sub = ns.subcommand
    provided = {k: v for k, v in vars(ns).items() if k != "subcommand"}
    try:
        resolved = _merge_config(sub, provided)
        output, code = _COMMANDS[sub][0](resolved)
        if isinstance(output, dict):
            # a report is headed by the resolved flags, which replay it via --config
            config = {"subcommand": sub}
            config.update((k, v) for k, v in resolved.items() if k not in ("out", "config"))
            output = json.dumps(_finite_or_null({"config": config, **output}),
                                indent=2, allow_nan=False) + "\n"
        if resolved["out"] is None:
            sys.stdout.write(output)
        else:
            _write_atomic(resolved["out"],
                          output if isinstance(output, bytes) else output.encode("utf-8"))
        return code
    except (ParameterError, NewtonError, NumericOverflowError, OSError) as exc:
        print(f"dmy {sub}: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, ParameterError)
                else 1 if isinstance(exc, (NewtonError, NumericOverflowError)) else 3)


if __name__ == "__main__":
    sys.exit(main())
