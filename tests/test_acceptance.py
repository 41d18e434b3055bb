"""End-to-end acceptance checks.

Each test prints one "[acceptance NN] name: PASS/FAIL (detail)" line and then
asserts, so a bare pytest run doubles as the sign-off checklist.  Stated time
budgets are asserted with perf_counter around the workload only.
"""

import json
import math
import random
import time

from dmy import (DampedSzlenkMap, GridStrategy, LinearMap, Mat2, OmegaTag,
                 Point2, Rect, SzlenkMap, basin_raster, build_counterexample,
                 build_phi, classify_omega, dissipativity_bound, eig2,
                 fd_jacobian, phi_eval, phi_log_slope, sample_norm_sup,
                 sample_spectrum, verify_counterexample)
from dmy.cli import main as cli_main


def _diag(d1, d2):
    return Mat2(d1, 0.0, 0.0, d2)


def _max_abs(m):
    return max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_acceptance_01_axis_cycle_closure():
    f = SzlenkMap(1.01)
    start = Point2(10.0, 0.0)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        p = start
        for _ in range(4):
            p = f.eval(p)
        best = min(best, time.perf_counter() - t0)
    dist = math.hypot(p.x - start.x, p.y - start.y)
    ok = dist < 1e-9 and best < 1e-3
    _report(1, "axis-cycle-closure", ok,
            f"fourth-iterate distance {dist!r}, best time {best * 1e3:.4f} ms")


def test_acceptance_02_spectrum_sweep():
    t0 = time.perf_counter()
    rep = sample_spectrum(SzlenkMap(1.01), Rect(-30.0, 30.0, -30.0, 30.0),
                          GridStrategy(201, 201))
    elapsed = time.perf_counter() - t0
    bound = math.sqrt(3.0) * 1.01 / 2.0 + 1e-12
    in_ball = rep.max_modulus < bound
    # real eigenvalues only ever appear on the axes, where both are zero
    off_axis_complex = all(abs(s.x * s.y) <= 1e-9 for s in rep.real_samples)
    axis_zero = all(abs(s.lo) <= 1e-12 and abs(s.hi) <= 1e-12
                    for s in rep.real_samples if s.x * s.y == 0.0)
    ok = (rep.samples == 201 * 201 and rep.overflows == 0
          and in_ball and off_axis_complex and axis_zero and elapsed < 5.0)
    _report(2, "spectrum-sweep", ok,
            f"max modulus {rep.max_modulus!r} vs {bound!r}, "
            f"{rep.real_count} real samples all on axes and zero, {elapsed:.2f} s")


def test_acceptance_03_jacobians_match_finite_differences(bundle):
    variants = [SzlenkMap(1.01), DampedSzlenkMap(1.01, 0.005),
                LinearMap(Mat2(0.3, -1.2, 0.7, 0.4)),
                bundle.radial, bundle.composite]
    rng = random.Random(12345)
    pts = [Point2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
           for _ in range(1000)]
    t0 = time.perf_counter()
    worst = 0.0
    for m in variants:
        for p in pts:
            a = m.jacobian(p)
            err = _max_abs(a - fd_jacobian(m, p, 1e-6))
            tol = max(1e-6 * max(1.0, _max_abs(a)), 1e-9)
            worst = max(worst, err / tol)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    _report(3, "jacobians-match-finite-differences", ok,
            f"worst error/tolerance {worst:.4f} over {len(variants)}x1000 points, "
            f"{elapsed:.2f} s")


def test_acceptance_04_damping_shifts_spectrum():
    f = SzlenkMap(1.01)
    g = DampedSzlenkMap(1.01, 0.005)
    rng = random.Random(777)
    worst = 0.0
    for _ in range(1000):
        p = Point2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        ef = eig2(f.jacobian(p))
        eg = eig2(g.jacobian(p))
        worst = max(worst, abs(eg[0] - (ef[0] - 0.005)),
                    abs(eg[1] - (ef[1] - 0.005)))
    ok = worst <= 1e-10
    _report(4, "damping-shifts-spectrum", ok,
            f"max eigenvalue shift error {worst!r} over 1000 points")


def test_acceptance_05_pipeline_builds_and_verifies():
    t0 = time.perf_counter()
    bundle = build_counterexample(1.01, 0.005, 0.05)
    report = verify_counterexample(bundle)
    elapsed = time.perf_counter() - t0
    names = [c.name for c in report.checks]
    sr = next(c for c in report.checks if c.name == "spectral-radius-bound")
    ok = (report.passed and len(names) == 6 and len(set(names)) == 6
          and sr.data["samples"] >= 10_000 and elapsed < 60.0)
    _report(5, "pipeline-builds-and-verifies", ok,
            f"checks {names} all passed: {report.passed}, "
            f"{sr.data['samples']} spectral samples, {elapsed:.2f} s")


def test_acceptance_06_profile_envelope():
    prof = build_phi(20.0, 2.0, 0.05)
    budget = 0.00625
    lo, hi = math.log(prof.R * 1e-3), math.log(10.0 * prof.r_tail)
    n = 10_000
    slope_ok = True
    monotone_ok = True
    prev = None
    worst = 0.0
    for i in range(n):
        r = math.exp(((n - 1 - i) * lo + i * hi) / (n - 1))
        worst = max(worst, abs(phi_log_slope(prof, r)))
        if worst > budget:
            slope_ok = False
        val = phi_eval(prof, r)
        if prev is not None and val > prev:
            monotone_ok = False
        prev = val
    floor_ok = phi_eval(prof, 1e54) == 0.25 and phi_eval(prof, 1e60) == 0.25
    flat_ok = all(phi_eval(prof, 20.0 * i / 200.0) == 1.0 for i in range(201))
    ok = slope_ok and monotone_ok and floor_ok and flat_ok
    _report(6, "profile-envelope", ok,
            f"max |phi'(r) r| {worst!r} vs {budget}, monotone {monotone_ok}, "
            f"floor 0.25 at 1e54/1e60 {floor_ok}, flat on [0,20] {flat_ok}")


def test_acceptance_07_omega_desk_checks():
    t0 = time.perf_counter()
    contraction = LinearMap(_diag(0.5, 0.3))
    rng = random.Random(99)
    converged = all(
        classify_omega(contraction,
                       Point2(rng.uniform(-50.0, 50.0),
                              rng.uniform(-50.0, 50.0))).tag
        is OmegaTag.CONVERGES_TO_ORIGIN
        for _ in range(100))
    f = SzlenkMap(1.01)
    cyc = classify_omega(f, Point2(10.0, 0.0))
    esc = classify_omega(f, Point2(20.0, 0.0))
    elapsed = time.perf_counter() - t0
    ok = (converged and cyc.tag is OmegaTag.PERIODIC and cyc.period == 4
          and esc.tag is OmegaTag.ESCAPING and elapsed < 1.0)
    _report(7, "omega-desk-checks", ok,
            f"100 contraction seeds converged: {converged}, axis start "
            f"{cyc.tag.value} period {cyc.period}, outer start {esc.tag.value}, "
            f"{elapsed:.2f} s")


def test_acceptance_08_dissipativity_bounds(bundle):
    forced = dissipativity_bound(LinearMap(_diag(2.0, 2.0)), 20.0, 0.5)
    exact = (forced.norm_sup == 2.0 and forced.threshold_radius == 120.0
             and forced.contraction_factor == 0.75)
    tail = dissipativity_bound(bundle.composite, bundle.profile.r_tail, 0.5)
    ok = exact and tail.passed and tail.contraction_factor == 0.75
    _report(8, "dissipativity-bounds", ok,
            f"doubling map threshold {forced.threshold_radius!r} factor "
            f"{forced.contraction_factor!r}, composite tail passed {tail.passed} "
            f"factor {tail.contraction_factor!r}")


def test_acceptance_09_cli_determinism(tmp_path):
    basin_args = ["basin", "--map", "szlenk", "--L", "30", "--grid", "16x16"]
    b1, b2 = tmp_path / "b1.pgm", tmp_path / "b2.pgm"
    rc = [cli_main(basin_args + ["--out", str(b1)]),
          cli_main(basin_args + ["--out", str(b2)])]
    pgm_same = b1.read_bytes() == b2.read_bytes()

    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    rc += [cli_main(["counterexample", "--out", str(c1)]),
           cli_main(["counterexample", "--out", str(c2)])]
    v1, v2 = json.loads(c1.read_bytes()), json.loads(c2.read_bytes())
    verdicts_same = v1 == v2 and v1["passed"] is True

    ok = rc == [0, 0, 0, 0] and pgm_same and verdicts_same
    _report(9, "cli-determinism", ok,
            f"exit codes {rc}, identical basin images {pgm_same}, "
            f"identical verification reports {verdicts_same}")


def test_acceptance_10_global_contraction_case():
    m = LinearMap(_diag(0.6, 0.6))
    sup = sample_norm_sup(m, Rect(-100.0, 100.0, -100.0, 100.0),
                          GridStrategy(33, 33))
    grid = basin_raster(m, 100.0, 64, 64)
    ok = sup == 0.6 and sup < 1.0 and grid.counts() == (4096, 0, 0, 0)
    _report(10, "global-contraction-case", ok,
            f"sampled Jacobian norm sup {sup!r}, basin counts {grid.counts()}")
