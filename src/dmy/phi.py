"""Radial squashing profile.

``PhiProfile(R, C, eps)``, which ``build_phi(R, C, eps)`` returns, is a C^2
function phi on [0, inf) with

    phi(r) = 1         for r <= R,
    phi(r) = 1/(2C)    for r >= r_tail,
    phi nonincreasing, and |phi'(r) * r| <= eps/8 everywhere.

This is the shape needed to squash a map whose Jacobian norm never exceeds C:
scaling by phi leaves the disc of radius R untouched and multiplies the far
tail by 1/(2C), while the slope budget eps/8 keeps the scaling's Jacobian
within an eps-sized perturbation of a positive multiple of the identity.

The decay runs in log-radius.  With u = ln(r/R),

    phi(r) = 1 - (eps/8) * m(u),    m(u) = integral of sigma from 0 to u,

where sigma ramps 0 -> 1 through a quintic smoothstep over one unit of u,
holds at 1 until the accumulated decay reaches

    m_target = 8 * (1 - 1/(2C)) / eps,

and ramps back down to 0 over another unit.  Both ramps integrate to 1/2, so
m(inf) = m_target exactly and the floor 1/(2C) is attained identically for
r >= r_tail = R * exp(m_target + 1).  The slope in log-radius is
phi'(r) * r = -(eps/8) * sigma(u), which never exceeds eps/8 in magnitude
because sigma stays in [0, 1].

There is one evaluation path: ``_phi_parts`` gives phi(r) and phi'(r) * r
together from one range check, one log and one walk over the knots, and
``phi_eval``, ``phi_log_slope`` and ``phi_deriv`` are projections of it.
``phi_eval``, which ``RadialMap.xy`` calls on every step outside the flat
disc, takes the walk's value-only path and skips the slope.

A knot-by-knot construction of an equivalent envelope would need about
exp(m_target) knots (around 1e40 at desk parameters), which is why the
closed form in log-radius is used instead.  The quintic smoothstep makes the
profile C^2; nothing downstream needs more smoothness than one continuous
derivative of the Jacobian.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .geometry import DERIVED, record


@record
class PhiProfile:
    """One squashing profile: set by R, C and eps, which are validated first;
    the other four constants are derived from them and cannot be set."""

    R: float         # inner flat radius: phi == 1 on [0, R]
    C: float         # Jacobian norm bound being squashed; tail value is 1/(2C)
    eps: float       # slope budget; must satisfy 0 < eps < 1/(8C)
    floor: float = DERIVED     # 1/(2C)
    m_target: float = DERIVED  # total decay needed, in log-radius units
    r_tail: float = DERIVED    # phi == floor for all r >= r_tail
    ramp: float = DERIVED      # smoothstep width in log-radius (1 unless m_target < 1)

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ParameterError(f"flat radius must be positive and finite, got {self.R!r}")
        if not (math.isfinite(self.C) and self.C > 0.5):
            raise ParameterError(
                f"norm bound must exceed 1/2 so the floor 1/(2C) stays below 1, got {self.C!r}")
        if not (0.0 < self.eps < 1.0 / (8.0 * self.C)):
            raise ParameterError(
                f"slope budget must lie in (0, 1/(8C)) = (0, {1.0 / (8.0 * self.C)!r}), got {self.eps!r}")
        floor = 1.0 / (2.0 * self.C)
        m_target = 8.0 * (1.0 - floor) / self.eps
        try:
            r_tail = self.R * math.exp(m_target + 1.0)
        except OverflowError:
            r_tail = math.inf
        if not math.isfinite(r_tail):
            raise ParameterError(
                f"tail radius R * exp(m_target + 1) overflows a double at R {self.R!r}, "
                f"slope budget {self.eps!r} (m_target {m_target!r}); "
                f"pick a smaller R or a larger slope budget")
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "m_target", m_target)
        object.__setattr__(self, "r_tail", r_tail)
        object.__setattr__(self, "ramp", min(1.0, m_target))


def build_phi(R: float, C: float, eps: float) -> PhiProfile:
    return PhiProfile(R, C, eps)


def _smoothstep(t: float) -> float:
    # quintic 6t^5 - 15t^4 + 10t^3, flat to second order at t = 0 and t = 1
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _smoothstep_integral(t: float) -> float:
    # integral of the quintic from 0 to t; equals 1/2 at t = 1
    return t * t * t * t * (t * (t - 3.0) + 2.5)


def _phi_parts(profile: PhiProfile, r: float, slope: bool = True):
    """(phi(r), phi'(r) * r) from one range check, one log and one knot walk,
    or phi(r) alone when ``slope`` is false.

    The slope is the product in closed form, -(eps/8) * sigma(ln(r/R)):
    sigma lies in [0, 1], and scaling eps/8 by a factor <= 1 cannot round
    past eps/8.  The quotient form phi_deriv(r) * r can, by one ulp.
    """
    if not r >= 0.0:
        raise ParameterError(f"radius must be >= 0, got {r!r}")
    e8 = profile.eps / 8.0
    if r <= profile.R:
        val, s = 1.0, 0.0
    # compare against r_tail directly: log rounding must not push the exact
    # tail value off the floor branch
    elif (r >= profile.r_tail
          or (u := math.log(r / profile.R)) >= profile.m_target + profile.ramp):
        val, s = profile.floor, 0.0
    else:
        # the knot walk over ramp and m_target: (m(u), sigma(u)); r > R makes u > 0
        w, mt = profile.ramp, profile.m_target
        if u < w:
            t = u / w
            m, s = w * _smoothstep_integral(t), _smoothstep(t)
        elif u <= mt:
            m, s = u - 0.5 * w, 1.0
        else:
            t = (mt + w - u) / w
            m, s = mt - w * _smoothstep_integral(t), _smoothstep(t)
        val = 1.0 - e8 * m
        # rounding may graze the floor just before the tail branch takes over
        if not val > profile.floor:
            val = profile.floor
    if not slope:
        return val
    return val, -e8 * s if s else 0.0


def phi_eval(profile: PhiProfile, r: float) -> float:
    return _phi_parts(profile, r, False)


def phi_log_slope(profile: PhiProfile, r: float) -> float:
    """The product phi'(r) * r, exact to the slope budget (see ``_phi_parts``)."""
    return _phi_parts(profile, r)[1]


def phi_deriv(profile: PhiProfile, r: float) -> float:
    ls = phi_log_slope(profile, r)
    if ls == 0.0:
        return 0.0
    return ls / r
