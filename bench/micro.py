"""Untraced per-call timings of the building blocks, on each workload's inputs.

The points come from the workload itself: the composite map's
spectral-radius sweep rings and the period-4 orbit for ``certify``, the
README grid and the random sweep's samples for ``spectrum``, and the cell
centers of both rasters for ``basin``.  Every figure is the median over
repeated passes of the time per call.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from dmy import dynamics
from dmy.counterexample import SweepConfig, build_counterexample
from dmy.dynamics import NewtonConfig, OmegaConfig, classify_omega, find_periodic
from dmy.geometry import Point2
from dmy.phi import phi_eval
from dmy.planar import DampedSzlenkMap, SzlenkMap, step_function
from dmy.spectral import eig2, operator_norm

from tracing import MAP_CLASSES, TAGS
from workloads import BASIN_GRID, DEFAULT_A, DEFAULT_K

_ns = time.perf_counter_ns

PASSES = 7
MAX_POINTS = 256
CELLS_PER_TAG = 4
CLASSIFY_CANDIDATES = 40
CLASSIFY_REPS = 3
NEWTON_REPS = 5


def _per_call_ns(fn, arglist):
    """(median over passes of ns per call, number of calls timed)."""
    times = []
    for _ in range(PASSES):
        t0 = _ns()
        for args in arglist:
            fn(*args)
        times.append((_ns() - t0) / len(arglist))
    return statistics.median(times), PASSES * len(arglist)


def _spread(points, n=MAX_POINTS):
    step = max(1, len(points) // n)
    return points[::step][:n]


def _ring(lo, hi, radii, angles):
    llo, lhi = math.log(lo), math.log(hi)
    out = []
    for i in range(radii):
        r = math.exp(((radii - 1 - i) * llo + i * lhi) / (radii - 1))
        for j in range(angles):
            t = 2.0 * math.pi * j / angles
            out.append(Point2(r * math.cos(t), r * math.sin(t)))
    return out


def _inputs(workload: str, ops, bundle):
    """(points, maps for eig2/norm, (map, candidate points) for classify)."""
    if workload == "certify":
        cfg = SweepConfig()
        ring = _ring(bundle.flat_radius * 1e-6, cfg.sr_span * bundle.profile.r_tail,
                     cfg.sr_radii, cfg.sr_angles)
        seed = Point2(bundle.flat_radius / 2.0, 0.0)
        orbit = list(find_periodic(bundle.composite, 4, seed).points)
        pts = _spread(ring) + orbit
        inner = [p for p in ring if 1.0 <= p.norm() <= bundle.flat_radius]
        return pts, ["composite"], [("composite", _spread(inner, CLASSIFY_CANDIDATES))]
    if workload == "spectrum":
        grid = [Point2(((200 - i) * -30.0 + i * 30.0) / 200, ((200 - j) * -30.0 + j * 30.0) / 200)
                for j in range(201) for i in range(201)]
        rng = random.Random(ops[1].params["rng_seed"])
        rand = [Point2(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))
                for _ in range(MAX_POINTS // 2)]
        pts = _spread(grid, MAX_POINTS // 2) + rand
        return pts, ["szlenk", "ga"], [("szlenk", _spread(pts, CLASSIFY_CANDIDATES))]
    w, h = BASIN_GRID
    rasters = []
    for argv, L in zip(ops[0].argvs, ops[0].params["windows"]):
        variant = "composite" if argv[2] == "counterexample" else "szlenk"
        cells = [Point2(-L + (2 * i + 1) * L / w, L - (2 * j + 1) * L / h)
                 for j in range(h) for i in range(w)]
        rasters.append((variant, cells))
    pts = _spread([p for _v, cells in rasters for p in cells])
    candidates = [(v, _spread(cells, CLASSIFY_CANDIDATES // 2)) for v, cells in rasters]
    return pts, [v for v, _c in rasters], candidates


def run(workload: str, ops) -> dict:
    """Per-call figures for every map variant, the spectral queries, phi,
    classify_omega per tag and one Newton step, as name -> (value, samples)."""
    if workload == "certify":
        k, a = ops[0].params["k"], ops[0].params["a"]
    else:
        k, a = DEFAULT_K, DEFAULT_A
    bundle = build_counterexample(k, a, 0.05)
    maps = {"szlenk": SzlenkMap(k), "ga": DampedSzlenkMap(k, a),
            "radial": bundle.radial, "composite": bundle.composite}
    pts, jac_maps, candidates = _inputs(workload, ops, bundle)
    out = {}
    for variant, _cls in MAP_CLASSES:
        m = maps[variant]
        step = step_function(m)
        out[f"planar.{variant}.step_ns"] = _per_call_ns(step, [(p.x, p.y) for p in pts])
        out[f"planar.{variant}.eval_ns"] = _per_call_ns(m.eval, [(p,) for p in pts])
        out[f"planar.{variant}.jacobian_ns"] = _per_call_ns(m.jacobian, [(p,) for p in pts])
    jacs = [(maps[v].jacobian(p),) for v in jac_maps for p in pts]
    out["spectral.eig2_ns"] = _per_call_ns(eig2, jacs)
    out["spectral.operator_norm_ns"] = _per_call_ns(operator_norm, jacs)
    prof = bundle.profile
    out["phi.phi_eval_ns"] = _per_call_ns(phi_eval, [(prof, p.norm()) for p in pts])
    out.update(_classify_per_tag(maps, candidates))
    out["dynamics.newton_step_us"] = _newton_step_us(bundle)
    return out


def _classify_per_tag(maps, candidates) -> dict:
    """ns per step of classify_omega, split by the tag each cell ends with."""
    cfg = OmegaConfig()
    picked = {tag: [] for _short, tag in TAGS}  # tag -> [(median ns, iterations)]
    for variant, points in candidates:
        m = maps[variant]
        for p in points:
            times = []
            for _ in range(CLASSIFY_REPS):
                t0 = _ns()
                verdict = classify_omega(m, p, cfg)
                times.append(_ns() - t0)
                cells = picked[verdict.tag.value]
                if len(cells) >= CELLS_PER_TAG:
                    break
            else:
                cells.append((statistics.median(times), verdict.iterations))
    out = {}
    for short, tag in TAGS:
        cells = picked[tag]
        steps = sum(it for _t, it in cells)
        ns = sum(t for t, _it in cells) / steps if steps else 0.0
        out[f"dynamics.step_ns.{short}"] = (ns, steps)
    return out


def _newton_step_us(bundle) -> float:
    """Time of the build's period-4 search divided by its Newton steps."""
    seed = Point2(bundle.flat_radius / 2.0, 0.0)
    cfg = NewtonConfig(tol=1e-12, max_steps=60)
    orig = dynamics._newton_delta
    steps = 0

    def counting(*args, **kwargs):
        nonlocal steps
        steps += 1
        return orig(*args, **kwargs)

    dynamics._newton_delta = counting
    try:
        find_periodic(bundle.composite, 4, seed, cfg)
    finally:
        dynamics._newton_delta = orig
    times = []
    for _ in range(NEWTON_REPS):
        t0 = _ns()
        find_periodic(bundle.composite, 4, seed, cfg)
        times.append(_ns() - t0)
    return statistics.median(times) / max(steps, 1) / 1e3, NEWTON_REPS * steps
