"""ncphase: linear-form engine for noncommutative phase-space kinematics."""

from .algebra import (
    CanonicalVar,
    LinearForm,
    commutator,
    form_distance,
    p1,
    p2,
    variable,
    x1,
    x2,
)
from .composite import (
    CompositeSystem,
    com_canonical,
    compare_com_reps,
    compare_com_simple,
    effective_params,
)
from .errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    NCPhaseError,
    SingularMapError,
    StepError,
)
from .reports import CheckRecord, CheckReport
from .representation import (
    MassConditions,
    NCParams,
    Representation,
    branch_transform_residual,
    build_branch_rep,
    build_epsilon_rep,
    build_representation,
    build_simple_rep,
    check_commutative_limit,
    effective_planck,
    epsilon_factor,
    mass_invariance_report,
    params_from_conditions,
    primed_params,
    verify_nc_algebra,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalVar",
    "CheckRecord",
    "CheckReport",
    "CompositeSystem",
    "ConfigError",
    "DegenerateError",
    "DomainError",
    "LinearForm",
    "MassConditions",
    "NCParams",
    "NCPhaseError",
    "QuadraticHamiltonian",
    "Representation",
    "SingularMapError",
    "StepError",
    "Trajectory",
    "branch_transform_residual",
    "build_branch_rep",
    "build_epsilon_rep",
    "build_hamiltonian",
    "build_representation",
    "build_simple_rep",
    "check_commutative_limit",
    "com_canonical",
    "commutator",
    "compare_com_reps",
    "compare_com_simple",
    "effective_params",
    "effective_planck",
    "energy_drift",
    "epsilon_factor",
    "evolve",
    "form_distance",
    "mass_invariance_report",
    "nc_initial_state",
    "p1",
    "p2",
    "params_from_conditions",
    "primed_params",
    "variable",
    "verify_nc_algebra",
    "wep_deviation",
    "wep_deviation_fixed",
    "x1",
    "x2",
    "__version__",
]


# The names of ``__all__`` not imported above belong to ``dynamics``, which
# needs numpy; it loads on first use of one of them, so code that only does
# the algebra never imports numpy.
def __getattr__(name: str):
    if name in __all__:
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
