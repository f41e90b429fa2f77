"""Centre-of-mass kinematics for systems of noncommutative particles.

Each particle carries its own (theta_a, eta_a).  The mass-weighted
coordinates and total momenta

    xc_i = sum_a m_a x_i^(a) / M,    pc_i = sum_a p_i^(a),   M = sum_a m_a

are again canonically conjugate, and the centre of mass sees the effective
parameters

    theta_eff = sum_a m_a^2 theta_a / M^2,    eta_eff = sum_a eta_a.

Two distinct constructions of centre-of-mass noncommutative observables are
compared coefficient-by-coefficient in the per-particle basis:

* the *algebraic* route: apply a single-particle construction to
  (xc, pc) with (theta_eff, eta_eff);
* the *direct* route: mass-average the per-particle noncommutative
  coordinates and sum the per-particle noncommutative momenta.

The two routes coincide exactly when every particle's parameters follow
shared mass conditions theta_a = gamma/m_a, eta_a = alpha*m_a (then
theta_eff = gamma/M and eta_eff = alpha*M); for generic parameters they
differ, which is the whole point of the conditions.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import chain
from operator import mul, neg
from typing import Iterable, Sequence

from .algebra import _PAIRS, KINDS, CanonicalVar, LinearForm, _dyadic_sum, _exact_sum, check_tolerance
from .errors import ConfigError, DomainError
from .reports import CheckRecord, CheckReport
from .representation import (
    DEFAULT_TOL,
    MassConditions,
    NCParams,
    Representation,
    _coeff_distance,
    _commutator_checks,
    _diagonal,
    _shift_coeffs,
    _shift_terms,
    params_from_conditions,
    read_branch,
)

#: One centre-of-mass form: each kind it uses, in its term order, mapped to
#: one coefficient per particle in particle order.
_Columns = dict[str, Sequence[float]]


class CompositeSystem:
    """Particles stored as columns, in particle order.

    Particle a is ``NCParams(thetas[a], etas[a], masses[a])``, and its
    canonical variables carry id a.  ``masses``, ``thetas`` and ``etas`` are
    tuples with one entry per particle, and ``total_mass`` is the
    ``math.fsum`` of the masses, computed once.  ``CompositeSystem(particles)``
    reads the columns from a sequence of ``NCParams``.  ``from_conditions``
    and ``from_params`` share one checked path: a bulk check of the columns,
    which builds no ``NCParams``, or else the per-particle chain.  For every
    constructor, ``particles`` is built on first access and cached.
    """

    def __init__(self, particles: Sequence[NCParams], conditions: MassConditions | None = None) -> None:
        particles = tuple(particles)
        if not particles:
            raise ConfigError("a composite system needs at least one particle")
        self._set_columns(zip(*((p.mass, p.theta, p.eta) for p in particles)), conditions)

    def _set_columns(self, columns: Iterable[Iterable[float]], conditions: MassConditions | None) -> None:
        """Store the (masses, thetas, etas) columns as tuples, and their total mass."""
        self.masses, self.thetas, self.etas = map(tuple, columns)
        self.conditions = conditions
        try:
            self.total_mass = math.fsum(self.masses)  # fsum raises rather than return inf
        except OverflowError as exc:
            raise DomainError("the total mass overflows the float range") from exc

    def __len__(self) -> int:
        return len(self.masses)

    @cached_property
    def particles(self) -> tuple[NCParams, ...]:
        return tuple(NCParams(theta=t, eta=e, mass=m) for m, t, e in zip(self.masses, self.thetas, self.etas))

    @classmethod
    def from_conditions(cls, conditions: MassConditions, masses: Sequence[float]) -> "CompositeSystem":
        return cls._checked(masses, None, None, conditions)

    @classmethod
    def from_params(cls, masses: Sequence[float], thetas: Sequence[float], etas: Sequence[float]) -> "CompositeSystem":
        if not (len(masses) == len(thetas) == len(etas)):
            raise ConfigError(
                f"masses/thetas/etas must have equal lengths, got {len(masses)}/{len(thetas)}/{len(etas)}"
            )
        return cls._checked(masses, thetas, etas, None)

    @classmethod
    def _checked(
        cls, masses: Sequence[float], thetas: Sequence[float] | None, etas: Sequence[float] | None,
        conditions: MassConditions | None,
    ) -> "CompositeSystem":
        """The system of these columns if a bulk check passes, else of its particles built one by one.

        With ``conditions``, each theta and eta comes from its mass and
        ``thetas`` and ``etas`` are not read.  The particle chain validates
        each particle from its raw values, and so raises the first refusal
        with its own type and message.  The bulk check is never looser:
        ``array("d")`` reads each value as ``math.isfinite`` and the chain do,
        so it refuses a numeric string that ``float`` would take.  A float
        sum is finite only if every term is, since a NaN or an infinity
        spreads through it.  Anything else goes through the chain: a finite
        sum that overflows, no masses (``min`` raises) or a column that cannot
        be computed, such as an int past the float range.
        """
        try:
            ms = array("d", masses).tolist()
            if conditions is None:
                ts, es = array("d", thetas).tolist(), array("d", etas).tolist()
            else:
                ts, es = [conditions.gamma / m for m in ms], [conditions.alpha * m for m in ms]
            accepted = (
                min(ms) > 0.0
                and math.isfinite(sum(ms) + sum(ts) + sum(es))
                and (conditions is None or conditions.product < 1.0)
            )
        except (TypeError, ValueError, ArithmeticError):
            accepted = False
        if not accepted:
            if conditions is None:
                columns = zip(masses, thetas, etas)
                particles = (NCParams(theta=t, eta=e, mass=m) for m, t, e in columns)
            else:
                particles = (params_from_conditions(conditions, m) for m in masses)
            return cls(particles, conditions)
        system = cls.__new__(cls)
        system._set_columns((ms, ts, es), conditions)
        return system


def com_canonical(system: CompositeSystem) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-weighted coordinates and total momenta (xc1, xc2, pc1, pc2): the algebraic route of the identity row."""
    return _forms(_algebraic_columns(system, _shift_terms(1.0, 0.0, 0.0)), system, by_kind=True)


def _route_columns(system: CompositeSystem, columns: Iterable[Sequence[float]], direct: bool) -> tuple[_Columns, ...]:
    """The column forms X1, X2, P1, P2 of the shift rows' columns a, ..., h, laid out as in ``_coeff_forms``.

    Both routes weight by m_a/M and differ only in where.  The direct route
    mass-averages each particle's own map, so m_a/M weights the coordinate
    forms X1 and X2.  The algebraic route applies one map to
    (xc, pc) = (sum_a (m_a/M) x^(a), sum_a p^(a)), so its rows all repeat the
    effective pair's row and m_a/M weights the coordinate kinds x1 and x2.
    """
    M = system.total_mass
    w = [m / M for m in system.masses]
    a, b, c, d, e, f, g, h = columns

    def weighted(col: Sequence[float], weigh: bool = True) -> Sequence[float]:
        return list(map(mul, w, col)) if weigh else col

    return (
        {"x1": weighted(a), "p2": weighted(b, direct)},
        {"x2": weighted(c), "p1": weighted(d, direct)},
        {"p1": e, "x2": weighted(f, not direct)},
        {"p2": g, "x1": weighted(h, not direct)},
    )


def _algebraic_columns(system: CompositeSystem, row: Sequence[float]) -> tuple[_Columns, ...]:
    """The algebraic route: the effective pair's ``row`` repeated for every particle."""
    return _route_columns(system, [[v] * len(system) for v in row], direct=False)


def _direct(system: CompositeSystem, family: str, branch: str | None) -> tuple[_Columns, ...]:
    """The direct route: each particle's own shift row, read in particle order, so the first refused map raises."""
    rows = [_shift_terms(*_shift_coeffs(t, e, family, branch)) for t, e in zip(system.thetas, system.etas)]
    return _route_columns(system, zip(*rows), direct=True)


def _forms(columns: Sequence[_Columns], system: CompositeSystem, by_kind: bool) -> tuple[LinearForm, ...]:
    """The ``LinearForm`` of each column form, without its exact zeros.

    Keys run kind-major (all particles of one kind, then the next kind) when
    ``by_kind``, as the algebraic routes order them, else particle-major, as
    the direct routes do.
    """
    keys = {kind: [CanonicalVar(pid, kind) for pid in range(len(system))] for kind in KINDS}
    out = []
    for cols in columns:
        pairs = [zip(keys[kind], col) for kind, col in cols.items()]
        terms = dict(chain.from_iterable(pairs if by_kind else zip(*pairs)))
        out.append(LinearForm._trusted(terms))
    return tuple(out)


def _column_commutator(a: _Columns, b: _Columns) -> float:
    """``commutator(a, b)`` of two column forms over the same particles.

    The same signed products, summed exactly by the same :func:`_exact_sum`.
    """
    products = []
    for xkind, pkind in _PAIRS:
        if xkind in a and pkind in b:
            products += map(mul, a[xkind], b[pkind])
        if pkind in a and xkind in b:
            products += map(neg, map(mul, a[pkind], b[xkind]))
    return _exact_sum(products)


def effective_params(system: CompositeSystem) -> tuple[float, float]:
    """(theta_eff, eta_eff) seen by the centre of mass.

    The mass-weighted sums are accumulated exactly over the stored double
    values and rounded once, so the identities theta_eff = gamma/M and
    eta_eff = alpha*M under shared mass conditions survive at the last-ulp
    level.  Every double is an integer over a power of two, so each sum is
    an integer over the largest denominator, and one integer true division,
    which Python rounds correctly, gives the float.
    """
    masses = [m.as_integer_ratio() for m in system.masses]
    thetas = [t.as_integer_ratio() for t in system.thetas]
    M, M_den = _dyadic_sum(masses)
    num, num_den = _dyadic_sum([(m * m * t, d * d * td) for (m, d), (t, td) in zip(masses, thetas)])
    eta_eff = _exact_sum(list(system.etas))
    if not math.isfinite(eta_eff):  # theta_eff is at most the largest |theta_a|
        raise DomainError("eta_eff, the sum of the particles' eta, overflows the float range")
    return (num * M_den * M_den) / (num_den * M * M), eta_eff


def com_params(system: CompositeSystem) -> NCParams:
    theta_eff, eta_eff = effective_params(system)
    return NCParams(theta=theta_eff, eta=eta_eff, mass=system.total_mass)


def _algebraic(system: CompositeSystem, family: str, branch: str | None) -> Representation:
    p = com_params(system)
    row = _shift_terms(*_shift_coeffs(p.theta, p.eta, family, branch))
    forms = _forms(_algebraic_columns(system, row), system, by_kind=True)
    return Representation(*forms, family, p, read_branch(family, branch), particle_id=None)


def com_rep_algebraic(system: CompositeSystem, branch: str = "minus") -> Representation:
    """Branch construction applied to the centre-of-mass pair (xc, pc).

    The resulting forms are expanded in the per-particle basis so they can
    be compared term-by-term with the direct route.
    """
    return _algebraic(system, "branch", branch)


def com_simple_algebraic(system: CompositeSystem) -> Representation:
    """Simple (unscaled shift) construction applied to (xc, pc)."""
    return _algebraic(system, "simple", None)


def com_rep_direct(
    system: CompositeSystem, branch: str = "minus"
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-average the per-particle branch coordinates, sum the momenta.

    Every particle uses the same branch; mixing branches (or families)
    across particles is not representable here on purpose.
    """
    return _forms(_direct(system, "branch", branch), system, by_kind=False)


def com_simple_direct(
    system: CompositeSystem,
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Direct route through per-particle simple representations."""
    return _forms(_direct(system, "simple", None), system, by_kind=False)


def _compare(system: CompositeSystem, family: str, branch: str | None, tol: float) -> CheckReport:
    """Coefficient-wise comparison of a family's two routes, over their columns."""
    p = com_params(system)
    row = _shift_terms(*_shift_coeffs(p.theta, p.eta, family, branch))
    routes = {"algebraic": _algebraic_columns(system, row), "direct": _direct(system, family, branch)}
    tol = check_tolerance(tol)  # a float in the route records, as in the table's
    # Both routes hold the same kinds in the same order, so a form's distance
    # is the largest gap between its matching columns.
    checks = [
        CheckRecord.within(f"routes.{name}", 0.0, max(map(_coeff_distance, alg.values(), dir_.values())), tol)
        for name, alg, dir_ in zip(Representation.form_names(), *routes.values())
    ]
    # Both routes must reproduce their commutator tables regardless of
    # whether they agree with each other.  The routes only share a diagonal
    # for the simple family when every particle carries the same parameter
    # product: the algebraic route is built from the effective pair, so its
    # diagonal is 1 + theta_eff*eta_eff/4, while summing per-particle forms
    # gives the mass-weighted mean of the individual products instead.
    M = p.mass
    products = {"algebraic": p.product, "direct": p.product}
    if family == "simple":
        products["direct"] = math.fsum((m / M) * (t * e) for m, t, e in zip(system.masses, system.thetas, system.etas))
    for label, columns in routes.items():
        table = (p.theta, p.eta, _diagonal(family, products[label]))
        checks += _commutator_checks(columns, _column_commutator, table, tol, f"table.{label}.")
    # Coefficient of xc2 inside P1c for the algebraic route: slot f (P1's x2,
    # k*m) of the effective row; grows linearly with the total mass under
    # shared conditions.  An exact zero reads +0.0, as an absent term does.
    coeff = row[5] + 0.0
    if not math.isfinite(coeff / M):
        raise DomainError("the momentum-coordinate coefficient over the total mass overflows the float range")
    meta = {
        "family": family,
        "branch": read_branch(family, branch),
        "theta_eff": p.theta,
        "eta_eff": p.eta,
        "total_mass": M,
        "conditioned": system.conditions is not None,
        "routes_equal": all(c.passed for c in checks[:4]),
        "momentum_coordinate_coeff": coeff,
        "momentum_coordinate_coeff_over_mass": coeff / M,
    }
    return CheckReport(kind="comparison", checks=tuple(checks), meta=meta)


def compare_com_reps(
    system: CompositeSystem, branch: str = "minus", tol: float = DEFAULT_TOL
) -> CheckReport:
    """Coefficient-wise comparison of the two branch-family routes."""
    return _compare(system, "branch", branch, tol)


def compare_com_simple(system: CompositeSystem, tol: float = DEFAULT_TOL) -> CheckReport:
    """Coefficient-wise comparison of the two simple-family routes."""
    return _compare(system, "simple", None, tol)
