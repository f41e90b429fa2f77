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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .algebra import KINDS, CanonicalVar, LinearForm, form_distance, p1, p2, x1, x2
from .errors import ConfigError, DomainError
from .reports import CheckRecord, CheckReport
from .representation import (
    DEFAULT_TOL,
    MassConditions,
    NCParams,
    Representation,
    _shift_coeffs,
    _shift_map,
    build_branch_rep,
    build_representation,
    build_simple_rep,
    params_from_conditions,
    verify_nc_algebra,
)


@dataclass(frozen=True)
class Particle:
    """One particle: an id for its canonical variables, a mass, parameters."""

    id: int
    mass: float
    params: NCParams

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ConfigError(f"particle id must be nonnegative, got {self.id}")
        if not self.mass > 0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.params.mass != self.mass:
            raise ConfigError(
                f"particle {self.id}: params.mass = {self.params.mass} disagrees with mass = {self.mass}"
            )


@dataclass(frozen=True)
class CompositeSystem:
    particles: tuple[Particle, ...]
    conditions: MassConditions | None = None

    def __post_init__(self) -> None:
        if not self.particles:
            raise ConfigError("a composite system needs at least one particle")
        ids = [p.id for p in self.particles]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"particle ids must be unique, got {ids}")
        hbars = {p.params.hbar for p in self.particles}
        if len(hbars) != 1:
            raise ConfigError(f"all particles must share one hbar, got {sorted(hbars)}")
        try:
            self.total_mass  # fsum raises rather than return inf
        except OverflowError as exc:
            raise DomainError("the total mass overflows the float range") from exc

    @property
    def hbar(self) -> float:
        return self.particles[0].params.hbar

    @property
    def total_mass(self) -> float:
        return math.fsum(p.mass for p in self.particles)

    @classmethod
    def from_conditions(
        cls, conditions: MassConditions, masses: Sequence[float], hbar: float = 1.0
    ) -> "CompositeSystem":
        particles = tuple(
            Particle(id=i, mass=float(m), params=params_from_conditions(conditions, float(m), hbar))
            for i, m in enumerate(masses)
        )
        return cls(particles=particles, conditions=conditions)

    @classmethod
    def from_params(
        cls,
        masses: Sequence[float],
        thetas: Sequence[float],
        etas: Sequence[float],
        hbar: float = 1.0,
    ) -> "CompositeSystem":
        if not (len(masses) == len(thetas) == len(etas)):
            raise ConfigError(
                f"masses/thetas/etas must have equal lengths, got {len(masses)}/{len(thetas)}/{len(etas)}"
            )
        particles = tuple(
            Particle(
                id=i,
                mass=float(m),
                params=NCParams(theta=float(t), eta=float(e), hbar=hbar, mass=float(m)),
            )
            for i, (m, t, e) in enumerate(zip(masses, thetas, etas))
        )
        return cls(particles=particles, conditions=None)


def com_canonical(system: CompositeSystem) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-weighted coordinates and total momenta (xc1, xc2, pc1, pc2)."""
    return _expand_com((x1(), x2(), p1(), p2()), system)


def _expand_com(template: Sequence[LinearForm], system: CompositeSystem) -> tuple[LinearForm, ...]:
    """Rewrite forms over one particle's (x1, x2, p1, p2) in the per-particle basis.

    Each coordinate kind spreads as sum_a (m_a/M) kind[a], each momentum kind
    as sum_a kind[a].  Every coefficient is one product, coeff*(m_a/M) or
    coeff*1.0, taken over the template's terms in order with the particles
    inner, and exact zeros are dropped.  For a template with finite
    coefficients and constant 0.0, as every one here, that is bit for bit
    what chained ``acc + coeff * xc`` over the mass-weighted sums xc computes.
    """
    M = system.total_mass
    spread = {
        kind: [(CanonicalVar(part.id, kind), part.mass / M if kind[0] == "x" else 1.0) for part in system.particles]
        for kind in KINDS
    }
    out = []
    for form in template:
        terms = {}
        for (_, kind), coeff in form.terms.items():
            for key, w in spread[kind]:
                terms[key] = coeff * w
        out.append(LinearForm._trusted(terms, form.constant))
    return tuple(out)


def _com_sum(
    system: CompositeSystem, family: str, branch: str | None = None
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-weighted sum of each particle's two coordinate forms, plain sum of its momenta.

    One pass into four coefficient dicts, linear in N, where chained
    ``acc = acc + w * form`` copies a growing dict per particle.  Each
    particle's forms come from its shift triple (``branch`` defaulting to
    minus) and hold only its own variables, so each coefficient is written
    once; exact zeros are dropped and every constant is 0.0, bit-identical
    to that sum.
    """
    M = system.total_mass
    branch = branch or "minus"
    terms = ({}, {}, {}, {})
    for part in system.particles:
        w = part.mass / M
        forms = _shift_map(part.id, *_shift_coeffs(part.params, family, branch)).values()
        for acc, form, scale in zip(terms, forms, (w, w, 1.0, 1.0)):
            for var, coeff in form.terms.items():
                acc[var] = scale * coeff
    return tuple(LinearForm._trusted(t, 0.0) for t in terms)


def effective_params(system: CompositeSystem) -> tuple[float, float]:
    """(theta_eff, eta_eff) seen by the centre of mass.

    The mass-weighted sums are accumulated exactly over the stored double
    values (rational arithmetic) and rounded once, so the identities
    theta_eff = gamma/M and eta_eff = alpha*M under shared mass conditions
    survive at the last-ulp level.
    """
    M = Fraction(0)
    num = Fraction(0)
    eta_sum = Fraction(0)
    for part in system.particles:
        fm = Fraction(part.mass)
        M += fm
        num += fm * fm * Fraction(part.params.theta)
        eta_sum += Fraction(part.params.eta)
    try:
        return float(num / (M * M)), float(eta_sum)
    except OverflowError as exc:  # only the eta sum can leave the float range
        raise DomainError("eta_eff, the sum of the particles' eta, overflows the float range") from exc


def com_params(system: CompositeSystem) -> NCParams:
    theta_eff, eta_eff = effective_params(system)
    return NCParams(theta=theta_eff, eta=eta_eff, hbar=system.hbar, mass=system.total_mass)


def com_rep_algebraic(system: CompositeSystem, branch: str = "minus") -> Representation:
    """Branch construction applied to the centre-of-mass pair (xc, pc).

    The resulting forms are expanded in the per-particle basis so they can
    be compared term-by-term with the direct route.
    """
    return _substitute_com(build_branch_rep(com_params(system), branch), system)


def com_simple_algebraic(system: CompositeSystem) -> Representation:
    """Simple (unscaled shift) construction applied to (xc, pc)."""
    return _substitute_com(build_simple_rep(com_params(system)), system)


def _substitute_com(template: Representation, system: CompositeSystem) -> Representation:
    """A single-particle template rewritten over the centre-of-mass pair (xc, pc)."""
    forms = _expand_com(template.forms(), system)
    return replace(template, **dict(zip(template.form_names(), forms)), particle_id=None)


def com_rep_direct(
    system: CompositeSystem, branch: str = "minus"
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-average the per-particle branch coordinates, sum the momenta.

    Every particle uses the same branch; mixing branches (or families)
    across particles is not representable here on purpose.
    """
    return _com_sum(system, "branch", branch)


def com_simple_direct(
    system: CompositeSystem,
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Direct route through per-particle simple representations."""
    return _com_sum(system, "simple")


def _compare_routes(
    system: CompositeSystem,
    algebraic: Representation,
    direct: tuple[LinearForm, ...],
    tol: float,
) -> CheckReport:
    checks = [
        CheckRecord.within(f"routes.{name}", 0.0, form_distance(alg_form, dir_form), tol)
        for name, alg_form, dir_form in zip(algebraic.form_names(), algebraic.forms(), direct)
    ]
    # Both routes must reproduce their commutator tables regardless of
    # whether they agree with each other.  The routes only share a diagonal
    # for the simple family when every particle carries the same parameter
    # product: the algebraic route is built from the effective pair, so its
    # diagonal is 1 + theta_eff*eta_eff/4, while summing per-particle forms
    # gives the mass-weighted mean of the individual products instead.
    p = algebraic.params
    M = p.mass
    diag_direct = None
    if algebraic.family == "simple":
        diag_direct = 1.0 + math.fsum(
            (part.mass / M) * part.params.product for part in system.particles
        ) / 4.0
    direct_rep = Representation(
        *direct, family=algebraic.family, params=p, branch=algebraic.branch, particle_id=None
    )
    for label, rep, diag in (("algebraic", algebraic, None), ("direct", direct_rep, diag_direct)):
        table = verify_nc_algebra(rep, expect_diag=diag, tol=tol)
        checks.extend(replace(c, name=f"table.{label}.{c.name}") for c in table.checks)
    # Coefficient of xc2 inside P1c for the algebraic route; grows linearly
    # with the total mass under shared conditions.
    coeff = build_representation(p, algebraic.family, algebraic.branch).P1.coefficient(
        CanonicalVar(0, "x2")
    )
    meta = {
        "family": algebraic.family,
        "branch": algebraic.branch,
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
    algebraic = com_rep_algebraic(system, branch)
    direct = com_rep_direct(system, branch)
    return _compare_routes(system, algebraic, direct, tol)


def compare_com_simple(system: CompositeSystem, tol: float = DEFAULT_TOL) -> CheckReport:
    """Coefficient-wise comparison of the two simple-family routes."""
    algebraic = com_simple_algebraic(system)
    direct = com_simple_direct(system)
    return _compare_routes(system, algebraic, direct, tol)
