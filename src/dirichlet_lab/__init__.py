"""Desk-scale laboratory for Dirichlet-improvability and shrinking targets.

Exact solvability checking for the system ||Aq - p||_alpha < psi(t),
||q||_beta < t; the time change to the diagonal flow on unimodular
lattices; target-set membership and orbit experiments; and Monte Carlo
measure estimation with deterministic substreams.
"""

__version__ = "0.1.0"

from .approx import (
    ConstantRatio,
    DimensionParams,
    LogDrift,
    MaxWithHalf,
    PowerDrift,
    PsiFunction,
    Tabulated,
    classify_series,
    critical_series_partial,
    f_psi,
    min_with_power,
    reduce_lower_bound,
    validate_psi,
)
from .cf import ContinuedFraction, cf_expand, cf_is_psi_dirichlet, cf_uncovered_intervals
from .dirichlet import ScanReport, dirichlet_solvable, psi_dirichlet_scan
from .errors import (
    BudgetError,
    BudgetExceeded,
    CapExceeded,
    DimensionTooLarge,
    DirichletLabError,
    DomainError,
    ValidationError,
)
from .exact2d import Exact2D
from .experiments import (
    ContrastReport,
    CrossvalReport,
    DisjointnessReport,
    HitSeries,
    construct_primed_lattice,
    cross_validate_dani,
    empirical_zero_one,
    orbit_hit_series,
    verify_disjointness,
)
from .lattice import (
    Box,
    UnimodularLattice,
    WeightPair,
    apply_flow,
    delta,
    enumerate_in_box,
    flowed_lattices,
    lattice_from_matrix,
    shortest_sup_norm,
    weighted_quasi_norm,
)
from .mc import (
    CoordinateRegion,
    FitReport,
    McEstimate,
    estimate_measure_equidist,
    fit_scaling,
    lower_bound_region_volume,
    measure_profile,
    pair_correlation,
    wilson_interval,
)
from .rate import RateFunction, clamp_rate, dani_rate, dani_time, rho_schedule
from .rng import (
    sample_torus,
    sample_torus_fixedpoint,
    substream,
    torus_samples,
    torus_samples_fixedpoint,
)
from .targets import TargetSpec, in_target, membership_profile
