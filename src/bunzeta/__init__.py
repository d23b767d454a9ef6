"""Exact zeta functions of curves over finite fields, stacky masses of
bundle moduli, and evaluation of the associated limit formulas.

All arithmetic is exact rational; binary64 appears only in base-q
logarithm reporting.
"""

from .arith import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    FiniteField,
    ext_field,
)
from .asymptotics import (
    ConvergenceReport,
    TVData,
    convergence_report,
    dominance_check,
    empirical_tv,
    lhs_sequence,
    rhs_general,
    rhs_group,
    rhs_pic,
    tv_bound,
)
from .curves import (
    CurveModel,
    HyperellipticCurve,
    PlaneCurve,
    PointCounts,
    ProjectiveLine,
    SingularModelError,
    WeilViolationError,
)
from .groups import GroupSpec, builtin_group, group_order, mass_ratio
from .mass import (
    MassValue,
    RouteMismatchError,
    hn_ss_mass,
    mass_bun,
    mass_gl_component,
    zagier_ss_mass,
)
from .zeta import (
    DegreeSpectrum,
    InconsistentCountsError,
    ZetaData,
    class_number,
    degree_spectrum,
    quasi_residue,
    regenerate_counts,
    special_value,
    zeta_from_counts,
)

__version__ = "0.1.0"
