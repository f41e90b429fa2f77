"""ncphase: linear-form engine for noncommutative phase-space kinematics."""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.  A module loads on
# first use of one of its names, so ``import ncphase`` loads no submodule
# and code that only does the algebra never imports numpy.
_EXPORTS = {
    "algebra": ("CanonicalVar", "LinearForm", "commutator", "form_distance", "p1", "p2", "variable", "x1", "x2"),
    "composite": ("CompositeSystem", "com_canonical", "compare_com_reps", "compare_com_simple", "effective_params"),
    "dynamics": (
        "QuadraticHamiltonian", "Trajectory", "build_hamiltonian", "energy_drift", "evolve",
        "nc_initial_state", "wep_deviation", "wep_deviation_fixed",
    ),
    "errors": ("ConfigError", "DegenerateError", "DomainError", "NCPhaseError", "SingularMapError", "StepError"),
    "reports": ("CheckRecord", "CheckReport"),
    "representation": (
        "MassConditions", "NCParams", "Representation", "branch_transform_residual", "build_branch_rep",
        "build_epsilon_rep", "build_representation", "build_simple_rep", "check_commutative_limit",
        "effective_planck", "epsilon_factor", "mass_invariance_report", "params_from_conditions",
        "primed_params", "verify_nc_algebra",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


# Resolved on every access and never bound here, so a name always reads its
# module's current attribute, a patched or restored one included.
def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
