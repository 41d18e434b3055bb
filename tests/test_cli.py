import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from dmy import BasinGrid
from dmy.cli import _COMMANDS, _merge_config, main, render_pgm


def run_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_strict_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def run_csv(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return code, out[:-1].split("\n")


# ---------------------------------------------------------------------- pgm


def test_render_pgm_exact_bytes():
    g = BasinGrid(half_width=1.0, width=2, height=2, codes=bytes([0, 1, 2, 3]))
    assert render_pgm(g) == b"P5\n2 2\n255\n\xff\xaa\x55\x00"
    tiny = BasinGrid(half_width=1.0, width=1, height=1, codes=bytes([3]))
    assert render_pgm(tiny) == b"P5\n1 1\n255\n\x00"


# -------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "SUBCOMMAND" in capsys.readouterr().out
    assert main(["spectrum", "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("sub", ["spectrum", "counterexample"])
def test_k_help_states_both_ranges(sub, capsys):
    # one --k declaration serves every map subcommand and counterexample
    assert main([sub, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "in (1, 2/sqrt(3))" in out
    assert "the counterexample map takes only (1, 0.88*2/sqrt(3))" in out
    assert "the run exits 2" in out


def test_reused_parser_carries_no_flags_over(capsys):
    # the parser is built once per process; clearing its cache makes the
    # reference run the first parse of a fresh parser
    from dmy.cli import _build_parser
    base = ["spectrum", "--map", "szlenk", "--grid", "11x11"]
    _build_parser.cache_clear()
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + ["--check", "ball:0.9", "--check", "real-free"]) == 1
    assert main(["spectrum", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert main(base) == 0
    last = capsys.readouterr().out
    assert last == first
    assert json.loads(last)["config"]["check"] == []


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["no-such-subcommand"]) == 2
    assert main(["orbit", "--no-such-flag", "1"]) == 2
    capsys.readouterr()


def test_parameter_error_exits_two(capsys):
    assert main(["spectrum", "--map", "szlenk", "--k", "2.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dmy spectrum:")


def test_newton_failure_exits_one(capsys):
    code = main(["periodic", "--map", "szlenk", "--seed", "9.5,0.1",
                 "--period", "4", "--max-steps", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("dmy periodic:")


def test_singular_newton_system_exits_one(capsys):
    # the shear's D(f) - I is exactly singular, and the report says so exactly
    code = main(["periodic", "--map", "linear", "--matrix", "1,1,0,1", "--seed", "10,1",
                 "--period", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dmy periodic: newton system for linear[[1.0,1.0],[0.0,1.0]] "
                            "is singular (|det| = 0.0)\n")


_REFUSALS = [
    (["spectrum", "--map", "szlenk", "--region", "1:2"],
     "region must be xmin:xmax:ymin:ymax, got '1:2'"),
    (["spectrum", "--map", "szlenk", "--region", "a:1:0:1"],
     "region has a non-numeric bound: 'a:1:0:1'"),
    (["spectrum", "--map", "szlenk", "--grid", "3by3"], "grid must be NxM, got '3by3'"),
    (["orbit"], "--map is required for this subcommand"),
    (["orbit", "--map", "linear"], "--map linear needs --matrix a11,a12,a21,a22"),
    (["orbit", "--map", "linear", "--matrix", "1,2,3"],
     "--matrix needs 4 comma-separated numbers, got '1,2,3'"),
    (["orbit", "--map", "linear", "--matrix", "a,b,c,d"],
     "--matrix has a non-numeric entry: 'a,b,c,d'"),
    (["orbit", "--map", "foo"],
     "unknown map variant 'foo'; pick linear, szlenk, ga, or counterexample"),
    (["orbit", "--map", "szlenk", "--steps", "-1"], "--steps must be >= 0, got -1"),
    (["ray", "--map", "szlenk", "--samples", "1"], "--samples must be >= 2, got 1"),
    (["dissipativity", "--map", "szlenk", "--radius", "abc"],
     "--radius must be a number or 'tail', got 'abc'"),
    (["orbit", "--map", "szlenk", "--config", "{array}"], "config {array} must hold a JSON object"),
]


@pytest.mark.parametrize("argv, err", _REFUSALS,
                         ids=["-".join(argv[-2:]).lstrip("-") for argv, _ in _REFUSALS])
def test_parameter_errors_print_one_line(argv, err, tmp_path, capsys):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    argv = [a.format(array=array) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dmy {argv[0]}: {err.format(array=array)}\n"


@pytest.mark.parametrize("argv, code, err", [
    (["phi", "--log-samples", "1"], 2, r"--log-samples must be >= 2, got 1"),
    (["phi", "--out", "{missing}"], 3, r"\[Errno 2\] No such file or directory: .*"),
], ids=["count-below-least", "out-in-missing-dir"])
def test_phi_refusals_print_one_line_with_their_code(argv, code, err, tmp_path, capsys):
    # a ParameterError exits 2 and an OSError 3, each as one stderr line
    # headed by the subcommand and with nothing on stdout
    argv = [a.format(missing=tmp_path / "missing" / "x.csv") for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"dmy phi: {err}\n", captured.err)


def test_unwritable_out_exits_three(capsys):
    code = main(["phi", "--out", "/no-such-dir-anywhere/x.csv"])
    assert code == 3
    capsys.readouterr()


def test_out_onto_a_directory_removes_the_temporary_file(tmp_path, capsys):
    # the temporary file is written, then its rename onto the directory fails
    target = tmp_path / "d"
    target.mkdir()
    assert main(["phi", "--out", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"dmy phi: \[Errno 21\] Is a directory: '%s/\.dmy-tmp-[^/']*' -> '%s'\n"
                        % (re.escape(str(tmp_path)), re.escape(str(target))), captured.err)
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


# ----------------------------------------------------------------- spectrum


def test_spectrum_grid_report(capsys):
    code, obj = run_json(["spectrum", "--map", "szlenk", "--grid", "21x21",
                          "--check", "ball:0.9", "--check", "interval-free:0.5:0.9"],
                         capsys)
    assert code == 0
    assert obj["map"] == "szlenk(k=1.01)"
    assert obj["strategy"] == "grid 21x21"
    assert obj["samples"] == 441
    assert obj["real_count"] == 41
    assert obj["min_real"] == 0.0 and obj["max_real"] == 0.0
    assert obj["passed"] is True
    assert [c["passed"] for c in obj["checks"]] == [True, True]
    assert obj["config"]["subcommand"] == "spectrum"


def test_spectrum_failing_check_exits_one(capsys):
    code, obj = run_json(["spectrum", "--map", "szlenk", "--grid", "11x11",
                          "--check", "ball:0.5"], capsys)
    assert code == 1
    assert obj["passed"] is False


def test_spectrum_real_free_fails_on_axes(capsys):
    # the cubic map has nilpotent axis Jacobians, so real spectra exist
    code, obj = run_json(["spectrum", "--map", "szlenk", "--grid", "11x11",
                          "--check", "real-free"], capsys)
    assert code == 1


def test_spectrum_random_strategy(capsys):
    args = ["spectrum", "--map", "szlenk", "--random", "50", "--rng-seed", "7"]
    code, obj = run_json(args, capsys)
    assert code == 0
    assert obj["strategy"] == "random n=50 seed=7"
    assert obj["samples"] == 50
    code2, obj2 = run_json(args, capsys)
    assert obj2 == obj


def test_spectrum_eigenvalue_overflow_is_counted(capsys):
    # finite Jacobian entries, but tr^2 - 4 det overflows to inf - inf
    code, obj = run_strict_json(["spectrum", "--map", "linear", "--matrix", "1e308,0,0,1",
                                 "--region", "1:2:1:2", "--grid", "3x3",
                                 "--check", "ball:1"], capsys)
    assert code == 1
    assert obj["samples"] == 9 and obj["overflows"] == 9
    assert obj["max_modulus"] is None and obj["max_modulus_at"] is None
    assert obj["checks"][0]["passed"] is False


def test_spectrum_composite_overflow_is_counted(capsys):
    # the damped cubic's image is NaN this far out; it must count as an
    # overflow, not reach the radial profile
    code, obj = run_strict_json(["spectrum", "--map", "counterexample",
                                 "--region", "1e200:2e200:1e200:2e200",
                                 "--grid", "3x3"], capsys)
    assert code == 0
    assert obj["samples"] == 9 and obj["overflows"] == 9
    assert obj["max_modulus"] is None


def test_spectrum_negative_random_count_exits_two(capsys):
    # a negative count is a usage error, not a request for the default grid
    assert main(["spectrum", "--map", "szlenk", "--random", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dmy spectrum: sample count must be >= 0, got -5\n"


@pytest.mark.parametrize("sampling, samples, overflows", [(["--grid", "3x3"], 9, 6),
                                                         (["--random", "3"], 3, 3)])
def test_spectrum_region_near_the_double_range_runs(capsys, sampling, samples, overflows):
    # finite bounds whose plain lerp or draw overflows still sample the region
    code, obj = run_strict_json(["spectrum", "--map", "szlenk",
                                 "--region", "-1e308:1e308:-1:1", *sampling], capsys)
    assert code == 0
    assert obj["samples"] == samples and obj["overflows"] == overflows


def test_spectrum_negative_region_tokens(capsys):
    code, obj = run_json(["spectrum", "--map", "linear", "--matrix", "0.5,0,0,0.5",
                          "--region", "-1:1:-1:1", "--grid", "3x3"], capsys)
    assert code == 0
    assert obj["max_modulus"] == 0.5


_CHECK_REFUSALS = [
    ("nonsense:1", "unknown check 'nonsense:1'; use ball:RADIUS, interval-free:LO:HI, "
                   "or real-free"),
    # a check's own refusal is printed as it is, not as a bad spec
    ("real-free:x", "real-free takes no arguments, got 'real-free:x'"),
    ("ball:-1", "ball radius must be positive, got -1.0"),
    ("interval-free:0.9:0.5", "interval must satisfy lo < hi, got [0.9, 0.5)"),
    # a number that does not parse is a bad spec
    ("ball:abc", "bad check spec 'ball:abc': could not convert string to float: 'abc'"),
    ("interval-free:a:1",
     "bad check spec 'interval-free:a:1': could not convert string to float: 'a'"),
]


@pytest.mark.parametrize("spec, err", _CHECK_REFUSALS, ids=[s for s, _ in _CHECK_REFUSALS])
def test_spectrum_bad_check_spec(spec, err, capsys):
    assert main(["spectrum", "--map", "szlenk", "--grid", "3x3", "--check", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dmy spectrum: {err}\n"


# -------------------------------------------------------------------- orbit


def test_orbit_csv_axis_cycle(capsys):
    code, lines = run_csv(["orbit", "--map", "szlenk", "--start", "10,0",
                           "--steps", "4"], capsys)
    assert code == 0
    assert lines[0] == "step,x,y,norm"
    assert lines[1] == "0,10,0,10"
    assert lines[2] == "1,-0,10,10"
    assert lines[3] == "2,-10,-0,10"
    assert lines[4] == "3,0,-10,10"
    assert lines[5] == "4,10,0,10"
    assert len(lines) == 6


def test_orbit_escape_truncates(capsys):
    code, lines = run_csv(["orbit", "--map", "szlenk", "--start", "20,0",
                           "--steps", "2000"], capsys)
    assert code == 0
    assert len(lines) == 1 + 1798  # header, start, then 1797 recorded steps
    assert float(lines[-1].split(",")[3]) > 1e9


def test_orbit_composite_overflow_keeps_start_row(capsys):
    code, lines = run_csv(["orbit", "--map", "counterexample", "--start", "1e200,1e200",
                           "--steps", "3"], capsys)
    assert code == 0
    assert len(lines) == 2  # header and the start row
    assert lines[1].startswith("0,")


# ----------------------------------------------------------------- periodic


def test_periodic_json(capsys):
    code, obj = run_json(["periodic", "--map", "szlenk", "--seed", "9.5,0.1",
                          "--period", "4"], capsys)
    assert code == 0
    assert obj["period"] == 4
    assert obj["residual"] < 1e-10
    assert obj["hyperbolic"] is True
    assert len(obj["points"]) == 4
    x0, y0 = obj["points"][0]
    assert abs(x0 - 10.0) < 1e-8 and abs(y0) < 1e-8


def test_periodic_multiplier_overflow_exits_one(capsys):
    # the orbit closes at once, but D(f^2) = diag(1e400, 1e-400) leaves the doubles
    code = main(["periodic", "--map", "linear", "--matrix", "1e200,0,0,1e-200",
                 "--period", "2", "--seed", "0,0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("dmy periodic: linear[[1e+200,0.0],[0.0,1e-200]] Jacobian product "
                   "along the 2-point orbit from (0.0, 0.0) overflowed\n")


def test_periodic_jacobian_overflow_exits_one(capsys):
    # the image of the seed is finite, its Jacobian is not
    code = main(["periodic", "--map", "szlenk", "--seed", "1e100,1e100", "--period", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "dmy periodic: szlenk(k=1.01) Jacobian overflowed at (1e+100, 1e+100)\n"


@pytest.mark.parametrize("matrix, mults", [
    ("1e200,0,0,1e200", [[1e200, 0.0], [1e200, 0.0]]),       # det overflows
    ("1.7e308,0,0,-1.7e308", [[-1.7e308, 0.0], [1.7e308, 0.0]]),
    ("1e300,2e300,-3e300,1e300",
     [[1e300, 2.4494897427831783e+300], [1e300, -2.4494897427831783e+300]]),
    ("1e308,1e308,1e308,1e308", [[0.0, 0.0], [None, 0.0]]),  # the eigenvalue 2e308 is inf
    ("0,-1e154,1e154,0", [[0.0, 1e154], [0.0, -1e154]]),       # 4 det overflows, tr^2 is 0
    ("1,-1e154,1e154,1", [[1.0, 1e154], [1.0, -1e154]]),
])
def test_periodic_multipliers_where_the_discriminant_overflows(matrix, mults, capsys):
    # the fixed point 0 closes at once; tr^2 or det of the multiplier matrix
    # overflows, but its eigenvalues are reported as they are, off the unit circle
    code, obj = run_strict_json(["periodic", "--map", "linear", "--matrix", matrix,
                                 "--period", "1", "--seed", "0,0"], capsys)
    assert code == 0
    assert obj["multipliers"] == mults
    assert obj["hyperbolic"] is True


# -------------------------------------------------------------------- basin


def test_basin_requires_out(capsys):
    assert main(["basin", "--map", "szlenk"]) == 2
    capsys.readouterr()


def test_basin_rejects_grid_over_cell_cap(tmp_path, capsys):
    out = tmp_path / "b.pgm"
    assert main(["basin", "--map", "szlenk", "--grid", "4097x4096",
                 "--out", str(out)]) == 2
    assert "cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no output, no temporary file


def test_basin_rejects_window_over_cap(tmp_path, capsys):
    out = tmp_path / "b.pgm"
    assert main(["basin", "--map", "linear", "--matrix", "0,-1,1,0", "--window", "100000000",
                 "--max-iter", "100000000", "--out", str(out)]) == 2
    assert "window cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no output, no temporary file


def test_basin_pgm_contraction_exact(tmp_path, capsys):
    out = tmp_path / "b.pgm"
    code = main(["basin", "--map", "linear", "--matrix", "0.5,0,0,0.5",
                 "--L", "10", "--grid", "8x8", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == b"P5\n8 8\n255\n" + b"\xff" * 64
    capsys.readouterr()


def test_basin_runs_are_bitwise_identical(tmp_path, capsys):
    args = ["basin", "--map", "szlenk", "--L", "30", "--grid", "16x16"]
    p1, p2 = tmp_path / "b1.pgm", tmp_path / "b2.pgm"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    d1 = p1.read_bytes()
    assert d1 == p2.read_bytes()
    assert d1.startswith(b"P5\n16 16\n255\n")
    body = d1[len(b"P5\n16 16\n255\n"):]
    assert len(body) == 256
    assert body.count(b"\xff") == 80 and body.count(b"\x55") == 176
    capsys.readouterr()


@pytest.mark.parametrize("argv, sha, counts", [
    (["--map", "szlenk", "--L", "30.17", "--max-iter", "1780"],
     "9969ace8c6d8b28024ffc44465f41eee397dfbb82cb9200dbbdff1b9cb4a3380", (80, 0, 48, 128)),
    (["--map", "counterexample", "--L", "15.09", "--max-iter", "2250"],
     "900e17e53b9c6955ad84efe9398a677a5e8b19817f55c54b9f660538a42807b3", (188, 48, 0, 20)),
], ids=["szlenk", "counterexample"])
def test_basin_bytes_at_windows_that_mirror_little(argv, sha, counts, tmp_path, capsys):
    # these centers are antisymmetric for few cells (32 and 50 of 256 are
    # copied); most other cells of the mirror rows (71 and 57) are classified
    # only up to where their orbit meets their mirror cell's negated orbit,
    # plus one window; the budgets cut through the escape and cycle times,
    # which pins iteration counts as well as tags
    _assert_basin_bytes(argv, sha, counts, tmp_path)
    capsys.readouterr()


@pytest.mark.parametrize("argv, sha, counts", [
    (["--map", "counterexample", "--L", "15.0"],
     "380124ed8a1d8b6e373b9671341541a1b77d272b3c6bd9a492fe3377fc5cc51e", (188, 68, 0, 0)),
    (["--map", "szlenk", "--L", "30.0"],
     "933211a97864112fd47514632f722f1132ea66d039173136c20e998ed807b71f", (80, 0, 176, 0)),
], ids=["counterexample", "szlenk"])
def test_basin_bytes_at_the_default_budgets(argv, sha, counts, tmp_path, capsys):
    # the bench's seed-0 rasters: every OmegaConfig flag at its default
    _assert_basin_bytes(argv, sha, counts, tmp_path)
    capsys.readouterr()


@pytest.mark.parametrize("argv, sha, counts", [
    (["--map", "counterexample", "--L", "14.958257401071155"],
     "6ab3c3ff4da4c550af1c2c9076a7c770f819255d18f46c00534b17d118fb40cb", (192, 64, 0, 0)),
    (["--map", "szlenk", "--L", "30.23361586000888"],
     "933211a97864112fd47514632f722f1132ea66d039173136c20e998ed807b71f", (80, 0, 176, 0)),
    (["--map", "counterexample", "--L", "14.962779822789347"],
     "6ab3c3ff4da4c550af1c2c9076a7c770f819255d18f46c00534b17d118fb40cb", (192, 64, 0, 0)),
    (["--map", "szlenk", "--L", "29.905831719714854"],
     "933211a97864112fd47514632f722f1132ea66d039173136c20e998ed807b71f", (80, 0, 176, 0)),
], ids=["counterexample-seed1", "szlenk-seed1", "counterexample-seed3", "szlenk-seed3"])
def test_basin_bytes_at_the_bench_jittered_windows(argv, sha, counts, tmp_path, capsys):
    # the bench's seed-1 and seed-3 windows at the default budgets, where few
    # centers are exact negations and most cells share a near-mirror verdict
    _assert_basin_bytes(argv, sha, counts, tmp_path)
    capsys.readouterr()


def _assert_basin_bytes(argv, sha, counts, tmp_path):
    """A 16x16 one-worker raster of ``argv`` has this sha256 and these shade counts."""
    out = tmp_path / "b.pgm"
    assert main(["basin", *argv, "--grid", "16x16", "--workers", "1", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha
    body = data[len(b"P5\n16 16\n255\n"):]
    assert tuple(body.count(bytes([shade])) for shade in (0xFF, 0xAA, 0x55, 0x00)) == counts


# ----------------------------------------------------------- counterexample


def test_counterexample_report(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["counterexample", "--out", str(out1)]) == 0
    assert main(["counterexample", "--out", str(out2)]) == 0
    d1 = out1.read_bytes()
    assert d1 == out2.read_bytes()
    obj = json.loads(d1)
    assert obj["passed"] is True
    assert len(obj["checks"]) == 6
    assert obj["k"] == 1.01 and obj["a"] == 0.005
    capsys.readouterr()


def test_counterexample_tail_span_overflow_exits_two(capsys):
    # the tail radius is finite, but far past the tail sampling cap, so the
    # bundle has no reach (sr_span * r_tail would overflow besides)
    assert main(["counterexample", "--eps-init", "0.00778"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy counterexample: profile tail radius 8.820622431328206e+307 is beyond the "
        "tail sampling cap 1e+60; pick a larger slope budget\n")


def test_counterexample_sweep_overflow_exits_two(capsys):
    # the first budget's tail is already past the tail sampling cap, and
    # halving eps only pushes it further out: refused before any sweep
    assert main(["counterexample", "--eps-init", "0.02"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy counterexample: profile tail radius 7.097125045365751e+120 is beyond the "
        "tail sampling cap 1e+60; pick a larger slope budget\n")


def test_counterexample_tail_beyond_the_verifier_cap_exits_two(capsys):
    # the budget builds a tail radius the tail-contraction sweep refuses
    assert main(["counterexample", "--eps-init", "0.04"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy counterexample: profile tail radius 1.9642803285233646e+61 is beyond the "
        "tail sampling cap 1e+60; pick a larger slope budget\n")


def test_counterexample_near_neutral_k_exits_two(capsys):
    # Newton closes the orbit at every damping, and the orbit check refuses
    # it each time: the message blames the check, not the search
    assert main(["counterexample", "--k", "1.0001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy counterexample: no damping down to 1.953125e-05 gave a period-4 orbit that "
        "passes its check: period-4 orbit fails its check: residual 4.336808689942018e-19, "
        "unit-circle gap 0.0008001538866517777, orbit radii "
        "100.00038151006527..100.00038151006527 inside disc of 200.00000000001103: True\n")
    assert "search" not in captured.err


def test_counterexample_newton_exhaustion_exits_two(capsys):
    # so close to k = 1 Newton never closes the orbit, at any damping: the
    # message carries the last search's failure
    assert main(["counterexample", "--k", "1.0000000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy counterexample: no damping down to 1.953125e-05 gave a period-4 orbit that "
        "passes its check: newton did not close a period-4 orbit of "
        "compose(radial(R=199999.99172596342, C=1.5750000003561966, eps=0.05) o "
        "ga(k=1.0000000001, a=1.953125e-05)) in 60 steps (last residual 1517.1169089649507)\n")


def test_counterexample_config_round_trip(tmp_path, capsys):
    direct = tmp_path / "direct.json"
    assert main(["counterexample", "--out", str(direct)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(json.loads(direct.read_bytes())["config"]))
    replay = tmp_path / "replay.json"
    assert main(["counterexample", "--config", str(cfg_path),
                 "--out", str(replay)]) == 0
    assert replay.read_bytes() == direct.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--map", "szlenk", "--grid", "11x11", "--check", "ball:0.9",
     "--check", "real-free"],
    ["periodic", "--map", "szlenk", "--seed", "9.5,0.1"],
    ["ray", "--map", "ga", "--angle", "30", "--samples", "21"],
    ["dissipativity", "--map", "linear", "--matrix", "2,0,0,2", "--radius", "5"],
])
def test_report_config_round_trip(argv, tmp_path, capsys):
    direct = tmp_path / "direct.json"
    code = main([*argv, "--out", str(direct)])
    obj = json.loads(direct.read_bytes())
    assert next(iter(obj)) == "config"
    assert obj["config"]["subcommand"] == argv[0]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj["config"]))
    replay = tmp_path / "replay.json"
    assert main([argv[0], "--config", str(cfg_path), "--out", str(replay)]) == code
    assert replay.read_bytes() == direct.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, sha", [
    (["spectrum", "--map", "szlenk", "--grid", "21x21", "--check", "ball:0.9",
      "--check", "interval-free:0.5:0.9"], 0,
     "41454fccb045ff102afa2c0418e91f96bef13e7bbd793234fc00c1216a41cf87"),
    (["spectrum", "--map", "szlenk", "--random", "50", "--rng-seed", "7",
      "--check", "real-free"], 0,
     "e8a070bfea338edb15a4a9092d1b57e42f2760c7077e18a82c15f3b171489930"),
    (["periodic", "--map", "counterexample"], 0,
     "905867785c5a95cc8b3004a94de3eba2087084e8bf023b24f98cea45a727bde5"),
    # a rotation's fixed point, whose multipliers are the complex pair +-i
    (["periodic", "--map", "linear", "--matrix", "0,-1,1,0", "--period", "1",
      "--seed", "3,1"], 0,
     "10eb2a6a483333a48981b8440ba9dc38c9b6dd694896363459a9c2ee264bbb32"),
    (["ray", "--map", "linear", "--matrix", "0.5,0,0,0.5", "--radius", "1e160",
      "--samples", "11"], 0,
     "027223a641784dd7ebfe3111c082a2dd3d1bbd08ab558e16985a5ef8610158d5"),
    (["dissipativity", "--map", "szlenk", "--radius", "1e100"], 1,
     "7061c8fce8ccad668208ed7fbcedc56a64faa83ed758d0f2d6ce54c7b8f93a73"),
    (["dissipativity", "--map", "counterexample", "--radius", "tail"], 0,
     "12194fefff95286c09e4f62d54be756eacc8344810c27eaf8fab0286357f3f6d"),
    (["counterexample"], 0,
     "7f477bdbf6e13df79b77db9fde85a1450659ce9aa0194fc63a06aaa0ce681abe"),
    (["phi"], 0, "31ecf0952f4b1929bf5cf49f0be66a11ee740591fb163266ab3fe46ce74e28ed"),
    (["orbit", "--map", "ga", "--start", "10,0", "--steps", "50"], 0,
     "81a88bd7bfa41e740f7c8bca7301853d2329c59fa4edd245baa725b79271a8ff"),
    # symmetric grids of every map, whose mirrored half is derived rather
    # than sampled, a strip with no mirror points, and draws past the doubles
    (["spectrum", "--map", "linear", "--matrix", "0,-1,1,0", "--grid", "21x21",
      "--check", "real-free"], 0,
     "649a302c12d1f43e95a84a3bebe16849b3deb505ab123b95220731e59edb2dd1"),
    (["spectrum", "--map", "szlenk", "--grid", "200x201", "--check", "interval-free:0.5:0.9"], 0,
     "84c74d3809b2b1c1196eb60ca71183a13003196bcce11362d20212a584ceb161"),
    (["spectrum", "--map", "ga", "--grid", "41x41", "--check", "ball:0.9",
      "--check", "real-free"], 1,
     "c7bcec027bc6762375f7c581969e7ec19e947c3a5c11a08047ed2afa0d86ec60"),
    (["spectrum", "--map", "counterexample", "--grid", "41x31", "--check", "ball:0.95"], 0,
     "7ae23f5c3b5866bf8525b8b862c4a307ae10230c134412a9ab86998c54e75959"),
    (["spectrum", "--map", "szlenk", "--grid", "1x5", "--check", "interval-free:0.5:0.9"], 0,
     "93dddf81d94f18edfd6111f1c8a183ff8362cb62ed61239ba630bc3624837fd8"),
    (["spectrum", "--map", "szlenk", "--region", "-1e308:1e308:-1:1", "--grid", "3x3",
      "--check", "ball:1"], 1,
     "ef032d87fee338c7550b4b84a33e91932595ce1c61d17ae61aaf711d70a1f5a1"),
    (["spectrum", "--map", "linear", "--matrix", "0.5,0,0,0.25", "--region",
      "-1e308:1e308:-1:1", "--random", "50", "--rng-seed", "3", "--check", "real-free"], 1,
     "82ed81ebd635fb095acedc3eb4adf30ba5fa8a9e2563aec48a51f8f4d98d84fe"),
    # the README grid and a 40401-draw random sweep, where most samples
    # cannot move the report and are not measured
    (["spectrum", "--map", "szlenk", "--k", "1.01", "--region", "-30:30:-30:30", "--grid",
      "201x201", "--check", "ball:0.8746857", "--check", "interval-free:0.5:0.9"], 0,
     "09661669d53074e5aebdf091b8aea634bcc7a1d1aa1b680aa4d745f8bc33a425"),
    (["spectrum", "--map", "ga", "--random", "40401", "--rng-seed", "3", "--check", "ball:0.9",
      "--check", "real-free"], 0,
     "756207b90c29039f29eda891d1f62dc012db18a2ee5fbedcd7c772310c882bcf"),
    # a mirrored grid whose four corner samples have raw NaN Jacobians, which
    # count as overflows, and a damping that is halved once
    (["spectrum", "--map", "szlenk", "--region", "-1e77:1e77:-1e77:1e77", "--grid", "3x3",
      "--check", "ball:1"], 1,
     "1c399ff431a54e1c2ca382551a5f60847db677841d52330da7434af14426e4b6"),
    (["counterexample", "--k", "1.0108361478612184", "--a", "0.08926466739278938",
      "--eps-init", "0.05"], 0,
     "2495c8793b3ecdf9cd6da5fd74280a3774c92218bfa27a25bfea8c8e1cf98653"),
], ids=["spectrum-grid", "spectrum-random", "periodic", "periodic-complex", "ray-1e160",
        "dissipativity-null", "dissipativity-counterexample-tail", "counterexample", "phi", "orbit", "spectrum-linear-grid", "spectrum-szlenk-200x201",
        "spectrum-ga-grid", "spectrum-counterexample-grid", "spectrum-strip-1x5",
        "spectrum-overflow-grid", "spectrum-random-double-range", "spectrum-readme-grid",
        "spectrum-ga-random-40401", "spectrum-nan-corners", "counterexample-halved"])
def test_report_bytes_are_pinned(argv, code, sha, capsys):
    # one command of each JSON and CSV shape, byte for byte: key order, float
    # spelling, null witnesses and the config header
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == sha


# ---------------------------------------------------------------------- phi


def test_phi_csv_slope_column(capsys):
    code, lines = run_csv(["phi", "--log-samples", "50"], capsys)
    assert code == 0
    assert lines[0] == "r,phi,phi_prime_times_r"
    assert len(lines) == 51
    budget = 0.05 / 8.0
    for line in lines[1:]:
        r, phi, slope = (float(tok) for tok in line.split(","))
        assert 0.0 < phi <= 1.0
        assert abs(slope) <= budget


def test_phi_rejects_tiny_sample_count(capsys):
    assert main(["phi", "--log-samples", "1"]) == 2
    capsys.readouterr()


def test_phi_table_end_overflow_exits_two(capsys):
    # the tail radius is finite, but the table's end 10 * r_tail is not
    assert main(["phi", "--eps", "0.00852"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy phi: profile tail radius 3.7714548808593454e+307 times 10 overflows a "
        "double, so the table has no end; pick a smaller --R or a larger --eps\n")


def test_phi_tail_overflow_from_a_large_R_exits_two(capsys):
    # the default slope budget is fine; R alone puts the tail past the doubles
    assert main(["phi", "--R", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dmy phi: tail radius R * exp(m_target + 1) overflows a double at R 1e+308, "
        "slope budget 0.05 (m_target 120.0); pick a smaller R or a larger slope budget\n")


def test_phi_table_start_underflow_exits_two(capsys):
    # the table starts at R / 10: 5e-323 / 10 is the least subnormal, 5e-324 / 10 is 0
    code, lines = run_csv(["phi", "--R", "5e-323", "--log-samples", "2"], capsys)
    assert code == 0 and float(lines[1].split(",")[0]) == 5e-324
    assert main(["phi", "--R", "5e-324"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dmy phi: --R 5e-324 is too small: the table starts at R / 10, "
                            "which underflows to 0\n")


_CAP = 4096 * 4096
_OVER = str(_CAP + 1)


@pytest.mark.parametrize("argv", [
    ["phi", "--log-samples", _OVER],
    ["ray", "--map", "szlenk", "--samples", _OVER],
    ["dissipativity", "--map", "szlenk", "--ball-radii", _OVER],
    ["dissipativity", "--map", "szlenk", "--outer-radii", _OVER],
    ["dissipativity", "--map", "szlenk", "--angles", _OVER],
    ["spectrum", "--map", "szlenk", "--random", _OVER],
    ["spectrum", "--map", "szlenk", "--grid", "4097x4096"],
    ["spectrum", "--map", "szlenk", "--grid", "1" * 5000 + "x1"],
    ["orbit", "--map", "szlenk", "--steps", _OVER],
    ["periodic", "--map", "szlenk", "--period", _OVER],
])
def test_count_flags_are_capped(argv, capsys):
    # every count that sizes a list is rejected above the basin's cell cap
    flag = next(a for a in argv if a.startswith("--") and a != "--map")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and str(_CAP) in captured.err


# ---------------------------------------------------------------------- ray


def test_ray_pass_and_fail(capsys):
    code, obj = run_json(["ray", "--map", "linear", "--matrix", "0.5,0,0,0.5",
                          "--radius", "100", "--samples", "11"], capsys)
    assert code == 0
    assert obj["passed"] is True and obj["max_deviation"] == 0.0

    code, obj = run_json(["ray", "--map", "linear", "--matrix", "0,-1,1,0",
                          "--radius", "100", "--samples", "101"], capsys)
    assert code == 1
    assert obj["max_deviation"] == pytest.approx(100.0, rel=1e-12)
    assert obj["worst_index"] == 100


def test_ray_tolerance_scales_with_the_radius(capsys):
    # an invariant ray passes at every radius: the deviation of 9.755e142 at
    # radius 1e160 is about 1e-17 of it, and --tol is a fraction of the radius
    argv = ["ray", "--map", "linear", "--matrix", "0.5,0,0,0.5", "--samples", "11"]
    for radius in ("1e-300", "1", "1e160", "1e308"):
        code, obj = run_strict_json([*argv, "--radius", radius], capsys)
        assert code == 0 and obj["passed"] is True, radius
    code, obj = run_strict_json([*argv, "--radius", "1e160"], capsys)
    assert obj["max_deviation"] == 9.755464219737476e+142
    # a deviation past the fraction still fails at that radius
    code, obj = run_strict_json([*argv, "--radius", "1e160", "--tol", "1e-18"], capsys)
    assert code == 1 and obj["passed"] is False


def test_ray_counterexample_axis_not_invariant(capsys):
    code, obj = run_json(["ray", "--map", "counterexample", "--radius", "15",
                          "--samples", "101"], capsys)
    assert code == 1
    assert obj["max_deviation"] == pytest.approx(15.083151069264147, rel=1e-9)


@pytest.mark.parametrize("flag, value", [("--angle", "inf"), ("--angle", "-inf"),
                                         ("--angle", "nan"), ("--radius", "inf"),
                                         ("--radius", "-inf"), ("--radius", "nan")])
def test_ray_rejects_non_finite_flags(flag, value, capsys):
    assert main(["ray", "--map", "szlenk", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "finite" in captured.err


@pytest.mark.parametrize("radius", ["1e308", "1.7976931348623157e308"])
def test_ray_radius_near_the_double_range(radius, capsys):
    # i * radius overflows although every sample radius is finite; the last
    # sample lies at --radius exactly
    code, obj = run_strict_json(["ray", "--map", "linear", "--matrix", "0.5,0,0,0.5",
                                 "--radius", radius, "--samples", "11"], capsys)
    assert code in (0, 1)
    assert obj["max_sample_radius"] == float(radius)
    assert obj["max_image_radius"] == 0.5 * float(radius)


@pytest.mark.parametrize("radius", [1e160, 1e300])
def test_ray_past_the_squared_range(radius, capsys):
    # the segment vectors' squares overflow above about 1.3e154; the distances
    # are those of the same ray scaled down by 2**520, scaled back up
    argv = ["ray", "--map", "linear", "--matrix", "0.5,0,0,0.5", "--samples", "11"]
    code, obj = run_strict_json([*argv, "--radius", repr(radius)], capsys)
    _, small = run_strict_json([*argv, "--radius", repr(math.ldexp(radius, -520))], capsys)
    assert obj["max_deviation"] == math.ldexp(small["max_deviation"], 520)
    assert obj["worst_index"] == small["worst_index"]
    assert obj["radius_ok"] is True
    if radius == 1e300:
        assert code == 0 and obj["passed"] is True and obj["max_deviation"] == 0.0


def test_ray_with_segments_whose_squares_underflow(capsys):
    # the images of a ray of radius 1e-160 reach 1e40, so each of its
    # segments has a squared length that underflows to 0 and is measured as a point
    code, obj = run_strict_json(["ray", "--map", "linear", "--matrix", "1e200,0,0,1e200",
                                 "--radius", "1e-160", "--samples", "101"], capsys)
    assert code == 1
    assert obj["max_deviation"] == 9.999999999999999e+39
    assert obj["passed"] is False and obj["radius_ok"] is False


def test_ray_sample_radii_match_the_unscaled_formula():
    # the ray's radii are _lerp(0, radius, i, n): where i * radius / (n - 1)
    # is finite it is an interior sample radius, near the double range the
    # scaled fallback gives what an unbounded exponent would, and the last
    # sample is radius itself, which (n - 1) * radius / (n - 1) can miss
    from dmy.spectral import _lerp
    for radius in (0.1, 15.0, 100.0, 191.744, 3e307, 1e308, 1.7976931348623157e308):
        for n in (2, 3, 7, 11, 101):
            for i in range(n - 1):
                got = _lerp(0.0, radius, i, n)
                plain = i * radius / (n - 1)
                if math.isfinite(plain):
                    assert got == plain
                else:
                    assert got == math.ldexp(i * math.ldexp(radius, -64) / (n - 1), 64)
            assert _lerp(0.0, radius, n - 1, n) == radius


# ------------------------------------------------------------ dissipativity


def test_dissipativity_exact_expanding_case(capsys):
    code, obj = run_json(["dissipativity", "--map", "linear", "--matrix", "2,0,0,2",
                          "--radius", "20", "--alpha", "0.5"], capsys)
    assert code == 1  # a doubling map is not eventually contracting
    assert obj["threshold_radius"] == 120.0
    assert obj["contraction_factor"] == 0.75
    assert obj["passed"] is False


def test_dissipativity_tail_radius(capsys):
    code, obj = run_json(["dissipativity", "--map", "counterexample",
                          "--radius", "tail", "--alpha", "0.5"], capsys)
    assert code == 0
    assert obj["passed"] is True
    assert obj["contraction_factor"] == 0.75
    assert obj["ball_radius"] == pytest.approx(2.407840247103163e+49, rel=1e-6)


def test_dissipativity_overflow_writes_strict_json(capsys):
    code, obj = run_strict_json(["dissipativity", "--map", "szlenk", "--radius", "1e75"],
                                capsys)
    assert code == 1
    assert obj["hypothesis_ok"] is False
    assert obj["hypothesis_max_ratio"] is None


def test_dissipativity_ball_overflow_writes_failing_report(capsys):
    # the ball sweep meets an overflowing Jacobian, so the threshold is infinite
    code, obj = run_strict_json(["dissipativity", "--map", "szlenk", "--radius", "1e100"],
                                capsys)
    assert code == 1
    assert obj["norm_sup"] is None and obj["threshold_radius"] is None
    assert obj["hypothesis_ok"] is False and obj["contraction_ok"] is False
    assert obj["hypothesis_worst_at"] is None and obj["contraction_worst_at"] is None
    assert obj["samples"] == 1 + 64 * 16  # the ball sweep only
    assert obj["passed"] is False


def test_dissipativity_product_overflow_writes_failing_report(capsys):
    # the threshold 4e301 is finite; Df(p) p overflows in the hypothesis sweep
    code, obj = run_strict_json(["dissipativity", "--map", "linear", "--matrix",
                                 "1e300,0,0,1", "--radius", "10"], capsys)
    assert code == 1
    assert obj["threshold_radius"] == 4e301
    assert obj["hypothesis_ok"] is False and obj["hypothesis_max_ratio"] is None
    assert obj["contraction_ok"] is False and obj["contraction_max_ratio"] is None
    assert obj["passed"] is False


def test_dissipativity_ball_sweep_start_underflow(capsys):
    # the ball sweep starts at radius / 1e48: 4e-276 / 1e48 is a subnormal
    # double, 1e-300 / 1e48 is 0 and has no logarithm
    argv = ["dissipativity", "--map", "linear", "--matrix", "0.5,0,0,0.5"]
    code, obj = run_strict_json([*argv, "--radius", "4e-276"], capsys)
    assert code == 1
    assert obj["ball_radius"] == 4e-276 and obj["norm_sup"] == 0.5
    assert main([*argv, "--radius", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dmy dissipativity: ball radius 1e-300 is too small")


def test_dissipativity_single_ball_radius(capsys):
    # one ball radius is the ball's own radius: the origin and one ring of 16
    code, obj = run_strict_json(["dissipativity", "--map", "ga", "--ball-radii", "1"], capsys)
    assert code == 1
    assert obj["ball_radius"] == 20.0 and obj["hypothesis_worst_at"] == [19.999999999999996, 0.0]
    assert obj["samples"] == 1 + 16 + 2 * 48 * 16 == 1553
    assert obj["passed"] is False


def test_dissipativity_tail_needs_counterexample_map(capsys):
    assert main(["dissipativity", "--map", "szlenk", "--radius", "tail"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dmy dissipativity: --radius tail needs --map counterexample\n"


# ------------------------------------------------------------------- config


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": "orbit", "map": "szlenk",
                               "start": "10,0", "steps": 3}))
    code, lines = run_csv(["orbit", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(lines) == 5  # header, start, three steps

    no_sub = tmp_path / "no_sub.json"  # "subcommand" is optional
    no_sub.write_text(json.dumps({"R": 20, "log_samples": 3}))
    code, lines = run_csv(["phi", "--config", str(no_sub)], capsys)
    assert code == 0
    assert len(lines) == 4


def test_config_flags_beat_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": "orbit", "map": "szlenk",
                               "start": "10,0", "steps": 3}))
    code, lines = run_csv(["orbit", "--config", str(cfg), "--steps", "1"], capsys)
    assert code == 0
    assert len(lines) == 3


def test_config_null_means_default(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": "phi", "log_samples": None}))
    code, lines = run_csv(["phi", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(lines) == 51


def test_config_rejections(tmp_path, capsys):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"subcommand": "phi"}))
    assert main(["orbit", "--map", "szlenk", "--config", str(wrong)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"subcommand": "orbit", "bogus": 1}))
    assert main(["orbit", "--map", "szlenk", "--config", str(unknown)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["orbit", "--map", "szlenk", "--config", str(broken)]) == 2

    assert main(["orbit", "--map", "szlenk",
                 "--config", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_config_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["phi", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"config {bad} is not valid JSON: 'utf-8' codec can't decode byte 0xff" in err


def test_config_type_errors(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": "orbit", "steps": "ten"}))
    assert main(["orbit", "--map", "szlenk", "--config", str(cfg)]) == 2
    capsys.readouterr()

    # a JSON integer past the doubles, given to a float flag
    big = tmp_path / "big.json"
    for sub, key in (("counterexample", "k"), ("phi", "R")):
        big.write_text('{"%s": 1%s}' % (key, "0" * 400))
        assert main([sub, "--config", str(big)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"dmy {sub}: config key {key!r} is a number too large "
                                f"for a double\n")


def test_config_numbers_for_string_flags(tmp_path, capsys):
    # a JSON number given to a string flag is read as its spelling
    cfg = tmp_path / "c.json"
    argv = ["dissipativity", "--map", "ga", "--out"]
    assert main([*argv, str(tmp_path / "plain.json")]) == 1
    cfg.write_text('{"radius": 20}')
    assert main([*argv, str(tmp_path / "cfg.json"), "--config", str(cfg)]) == 1
    assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    for sub, text, err in [
            ("dissipativity", '{"radius": 1e400}', "ball radius must be positive and finite, got inf"),
            ("periodic", '{"seed": 10}', "--seed needs 2 comma-separated numbers, got '10'")]:
        cfg.write_text(text)
        assert main([sub, "--map", "ga", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dmy {sub}: {err}\n"


# a value of the wrong JSON type for each flag kind, as read off the default
_WRONG_TYPE = {int: 1.5, float: "1", str: [1], list: "ball:0.9"}


@pytest.mark.parametrize("sub, dest, default", [
    (sub, dest, default) for sub, (_run, _hlp, opts) in _COMMANDS.items()
    for dest, default, _flag_hlp in opts if dest != "config"])
def test_config_values_take_the_type_of_the_default(sub, dest, default, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({dest: default}))
    got = _merge_config(sub, {"config": str(cfg)})[dest]
    assert got == default and type(got) is type(default)

    cfg.write_text(json.dumps({dest: _WRONG_TYPE[str if default is None else type(default)]}))
    assert main([sub, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dmy {sub}: config key {dest!r} must be ")


@pytest.mark.parametrize("sub", list(_COMMANDS))
def test_help_states_each_default(sub, capsys):
    assert main([sub, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    opts = _COMMANDS[sub][2]
    # each flag's entry runs from "--flag METAVAR " to the next flag's entry
    starts = [text.index(f"--{dest.replace('_', '-')} "
                         f"{'SPEC' if isinstance(default, list) else dest.upper()} ")
              for dest, default, _flag_hlp in opts]
    assert starts == sorted(starts)
    for (dest, default, _flag_hlp), lo, hi in zip(opts, starts, starts[1:] + [len(text)]):
        if default is None or isinstance(default, list):
            continue
        shown = re.search(r"\(default: ([^()]*)\) *$", text[lo:hi])
        assert shown, (dest, text[lo:hi])
        if isinstance(default, str):
            assert shown.group(1) == default
        else:
            assert float(shown.group(1)) == default


# -------------------------------------------------------------- entry point


def test_serial_raster_loads_no_pool_modules():
    # the pool's modules load only when a raster forks; the check compares
    # against a snapshot because site hooks vary
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import dmy, dmy.cli",
        "dmy.basin_raster(dmy.SzlenkMap(1.01), 30.0, 8, 8)",
        "added = set(sys.modules) - before",
        "assert 'dmy.dynamics' in added",
        "print(sorted(n for n in added if n.startswith(('multiprocessing', 'concurrent'))))",
    ])
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_imports_no_dataclasses():
    # pytest itself loads dataclasses, so the import runs in a fresh process
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = "import sys, dmy.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_imports_neither_fractions_nor_decimal():
    # pytest itself may load both, so the import runs in a fresh process
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = "import sys, dmy.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_installed_entry_point_smoke():
    exe = shutil.which("dmy")
    cmd = [exe] if exe else [sys.executable, "-m", "dmy.cli"]
    proc = subprocess.run(cmd + ["phi", "--log-samples", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("r,phi,phi_prime_times_r\n")


def test_basin_window_near_the_double_range(tmp_path, capsys):
    # (2i + 1) * L overflows at L = 1e308 although every cell center is finite
    out = tmp_path / "b.pgm"
    assert main(["basin", "--map", "linear", "--matrix", "0.5,0,0,0.5", "--L", "1e308",
                 "--grid", "4x4", "--out", str(out)]) == 0
    assert out.read_bytes() == b"P5\n4 4\n255\n" + b"\x55" * 16
    assert capsys.readouterr().err == ""

