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

from .algebra import CanonicalVar, LinearForm, form_distance, p1, p2, x1, x2
from .errors import ConfigError, DomainError
from .reports import CheckRecord, CheckReport
from .representation import (
    DEFAULT_TOL,
    MassConditions,
    NCParams,
    Representation,
    branch_sign,
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
    return _com_sum(system, lambda part: (x1(part.id), x2(part.id), p1(part.id), p2(part.id)))


def _com_sum(
    system: CompositeSystem, forms_for_particle
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-weighted sum of each particle's two coordinate forms, plain sum of its momenta.

    One pass into four running coefficient dicts, linear in N, where chained
    ``acc = acc + w * form`` copies a growing dict per particle.  Terms and
    constants are added in that sum's order and zero products dropped as it
    drops them, so every coefficient is bit-identical to it.
    """
    M = system.total_mass
    terms = ({}, {}, {}, {})
    constants = [0.0, 0.0, 0.0, 0.0]
    for part in system.particles:
        w = part.mass / M
        for i, (form, scale) in enumerate(zip(forms_for_particle(part), (w, w, 1.0, 1.0))):
            acc = terms[i]
            for var, coeff in form.terms.items():
                scaled = scale * coeff
                if scaled != 0.0:
                    acc[var] = acc.get(var, 0.0) + scaled
            constants[i] += scale * form.constant
    return tuple(LinearForm(t, c) for t, c in zip(terms, constants))


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
    return float(num / (M * M)), float(eta_sum)


def com_params(system: CompositeSystem) -> NCParams:
    theta_eff, eta_eff = effective_params(system)
    return NCParams(theta=theta_eff, eta=eta_eff, hbar=system.hbar, mass=system.total_mass)


def com_rep_algebraic(system: CompositeSystem, branch: str = "minus") -> Representation:
    """Branch construction applied to the centre-of-mass pair (xc, pc).

    The resulting forms are expanded in the per-particle basis so they can
    be compared term-by-term with the direct route.
    """
    p = com_params(system)
    branch_sign(branch)
    template = build_branch_rep(p, branch, particle_id=0)
    return _substitute_com(template, system, p, "branch", branch)


def com_simple_algebraic(system: CompositeSystem) -> Representation:
    """Simple (unscaled shift) construction applied to (xc, pc)."""
    p = com_params(system)
    template = build_simple_rep(p, particle_id=0)
    return _substitute_com(template, system, p, "simple", None)


def _substitute_com(
    template: Representation,
    system: CompositeSystem,
    p: NCParams,
    family: str,
    branch: str | None,
) -> Representation:
    # Rewrite a single-particle template over (x1[0]..p2[0]) in terms of the
    # centre-of-mass forms of the system.
    xc1, xc2, pc1, pc2 = com_canonical(system)
    basis = {"x1": xc1, "x2": xc2, "p1": pc1, "p2": pc2}
    out = []
    for form in template.forms():
        acc = LinearForm(constant=form.constant)
        for var, coeff in form.terms.items():
            acc = acc + coeff * basis[var.kind]
        out.append(acc)
    return Representation(
        X1=out[0],
        X2=out[1],
        P1=out[2],
        P2=out[3],
        family=family,
        params=p,
        branch=branch,
        particle_id=None,
    )


def com_rep_direct(
    system: CompositeSystem, branch: str = "minus"
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Mass-average the per-particle branch coordinates, sum the momenta.

    Every particle uses the same branch; mixing branches (or families)
    across particles is not representable here on purpose.
    """
    branch_sign(branch)
    return _com_sum(
        system, lambda part: build_branch_rep(part.params, branch, particle_id=part.id).forms()
    )


def com_simple_direct(
    system: CompositeSystem,
) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """Direct route through per-particle simple representations."""
    return _com_sum(
        system, lambda part: build_simple_rep(part.params, particle_id=part.id).forms()
    )


def _compare_routes(
    system: CompositeSystem,
    algebraic: Representation,
    direct: tuple[LinearForm, ...],
    tol: float,
) -> CheckReport:
    checks = []
    for name, alg_form, dir_form in zip(algebraic.form_names(), algebraic.forms(), direct):
        dist = form_distance(alg_form, dir_form)
        checks.append(
            CheckRecord(
                name=f"routes.{name}",
                expected=0.0,
                measured=dist,
                tol=tol,
                passed=dist <= tol,
            )
        )
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
