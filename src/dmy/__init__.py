"""Planar map toolkit.

Constructs the damped cubic planar maps, their radially squashed
composition, and the numerical certificates (spectral sweeps, omega-limit
classification, dissipativity bounds) that back the package's claims.
"""

from .errors import (ConvergenceError, NewtonError, NumericOverflowError,
                     ParameterError, SingularSystemError)
from .geometry import Mat2, Point2
from .planar import (K_MAX, CompositeMap, DampedSzlenkMap, LinearMap, Orbit,
                     PlanarMap, RadialMap, SzlenkMap, compose, fd_jacobian,
                     iterate, step_function)
from .phi import PhiProfile, build_phi, phi_deriv, phi_eval, phi_log_slope
from .spectral import (GridStrategy, RandomStrategy, Rect, RealSpectrumSample,
                       SpectrumReport, Verdict, check_ball, check_interval_free,
                       check_real_free, eig2, operator_norm, sample_norm_sup,
                       sample_spectrum, spectral_radius)
from .dynamics import (BasinGrid, DissipativityBound,
                       DissipativitySampling, NewtonConfig, OmegaConfig,
                       OmegaTag, OmegaVerdict, PeriodicOrbit, RayVerdict,
                       basin_raster, classify_omega, dissipativity_bound,
                       find_periodic, orbit_multipliers, resolve_workers,
                       verify_invariant_ray)
from .counterexample import (K_CEIL, CheckRecord, CounterexampleBundle,
                             SweepConfig, VerificationReport,
                             build_counterexample, verify_counterexample)

__version__ = "0.1.0"

