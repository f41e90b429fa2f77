"""Centre-of-mass construction and the two-route comparison."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pytest

from ncphase import (
    CanonicalVar,
    CompositeSystem,
    ConfigError,
    DomainError,
    MassConditions,
    NCParams,
    LinearForm,
    Particle,
    com_canonical,
    com_rep_algebraic,
    com_rep_direct,
    com_simple_direct,
    commutator,
    compare_com_reps,
    compare_com_simple,
    effective_params,
    form_distance,
    build_representation,
    form_equal,
    p1,
    p2,
    x1,
    x2,
)

SEED = int(os.environ.get("NCPS_SEED", "20260814"))

COND = MassConditions(gamma=0.3, alpha=0.2)


def conditioned(masses):
    return CompositeSystem.from_conditions(COND, masses)


def ulps_apart(a: float, b: float, cap: int = 64) -> int:
    """Number of representable doubles strictly between a and b (capped)."""
    n = 0
    x = a
    while x != b and n < cap:
        x = math.nextafter(x, b)
        n += 1
    return n


# --- system construction -----------------------------------------------------


def test_particle_mass_must_match_params():
    with pytest.raises(ConfigError):
        Particle(id=0, mass=2.0, params=NCParams(0.1, 0.1, mass=1.0))
    with pytest.raises(DomainError):
        Particle(id=0, mass=-1.0, params=NCParams(0.1, 0.1, mass=-1.0))


def test_system_needs_particles_and_unique_ids():
    with pytest.raises(ConfigError):
        CompositeSystem(particles=())
    p = Particle(id=0, mass=1.0, params=NCParams(0.1, 0.1))
    with pytest.raises(ConfigError):
        CompositeSystem(particles=(p, p))


def test_system_rejects_mixed_hbar():
    a = Particle(id=0, mass=1.0, params=NCParams(0.1, 0.1, hbar=1.0))
    b = Particle(id=1, mass=1.0, params=NCParams(0.1, 0.1, hbar=2.0))
    with pytest.raises(ConfigError):
        CompositeSystem(particles=(a, b))


def test_from_params_length_check():
    with pytest.raises(ConfigError):
        CompositeSystem.from_params([1.0, 2.0], [0.1], [0.1, 0.1])


# --- centre-of-mass canonical pair ---------------------------------------------


def test_single_particle_com_is_the_particle():
    sys_ = CompositeSystem.from_params([1.5], [0.2], [0.3])
    xc1, _, pc1, _ = com_canonical(sys_)
    assert form_equal(xc1, x1(0), tol=0.0)
    assert form_equal(pc1, p1(0), tol=0.0)


def test_equal_masses_give_half_weights():
    sys_ = CompositeSystem.from_params([1.0, 1.0], [0.1, 0.2], [0.1, 0.2])
    xc1, _, _, _ = com_canonical(sys_)
    assert xc1.coefficient(CanonicalVar(0, "x1")) == 0.5
    assert xc1.coefficient(CanonicalVar(1, "x1")) == 0.5


def test_com_pair_is_canonical_for_one_two():
    # weights 1/3 and 2/3: their float sum rounds back to exactly 1
    xc1, xc2, pc1, pc2 = com_canonical(conditioned([1.0, 2.0]))
    assert commutator(xc1, pc1).scalar == 1.0
    assert commutator(xc2, pc2).scalar == 1.0
    assert commutator(xc1, pc2).scalar == 0.0
    assert commutator(xc1, xc2).scalar == 0.0


@pytest.mark.parametrize("masses", [[0.7, 1.3], [1.0, 2.0, 5.0], [0.2, 0.2, 0.2, 0.2]])
def test_com_pair_canonical_generic(masses):
    xc1, xc2, pc1, pc2 = com_canonical(
        CompositeSystem.from_params(masses, [0.1] * len(masses), [0.1] * len(masses))
    )
    assert commutator(xc1, pc1).scalar == pytest.approx(1.0, abs=1e-15)
    assert commutator(xc2, pc2).scalar == pytest.approx(1.0, abs=1e-15)


# --- effective parameters --------------------------------------------------------


def test_effective_params_documented_pair():
    te, ee = effective_params(conditioned([1.0, 2.0]))
    # frozen: exact rational accumulation of the stored doubles
    assert te == 0.09999999999999999
    assert ee == 0.6000000000000001
    # ... which is bit-identical to gamma/M and alpha*M
    assert te == 0.3 / 3.0
    assert ee == 0.2 * 3.0
    # and one ulp away from the decimal literals
    assert ulps_apart(te, 0.1) <= 1
    assert ulps_apart(ee, 0.6) <= 1


def test_effective_params_single_particle():
    sys_ = CompositeSystem.from_params([2.0], [0.25], [0.125])
    assert effective_params(sys_) == (0.25, 0.125)


def test_effective_params_match_slow_fraction_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        masses = [float(m) for m in rng.uniform(0.1, 10.0, size=n)]
        thetas = [float(t) for t in rng.uniform(-0.5, 0.5, size=n)]
        etas = [float(e) for e in rng.uniform(-0.5, 0.5, size=n)]
        sys_ = CompositeSystem.from_params(masses, thetas, etas)
        te, ee = effective_params(sys_)
        # independent exact-rational recomputation
        M = sum(Fraction(m) for m in masses)
        want_t = float(sum(Fraction(m) ** 2 * Fraction(t) for m, t in zip(masses, thetas)) / M**2)
        want_e = float(sum(Fraction(e) for e in etas))
        assert te == want_t
        assert ee == want_e


def test_conditioned_effective_params_depend_only_on_total_mass():
    for masses in ([3.0], [1.0, 2.0], [0.5, 0.5, 2.0], [0.75, 0.75, 0.75, 0.75]):
        te, ee = effective_params(conditioned(masses))
        assert ulps_apart(te, 0.3 / 3.0) <= 1
        assert ulps_apart(ee, 0.2 * 3.0) <= 1


# --- route comparison: branch family ---------------------------------------------


def test_routes_agree_under_conditions():
    report = compare_com_reps(conditioned([1.0, 2.0]), branch="minus")
    assert report.overall
    assert report.meta["routes_equal"]
    for name in ("X1", "X2", "P1", "P2"):
        assert report.record(f"routes.{name}").measured <= 1e-12


def test_routes_differ_without_conditions():
    # same (theta, eta) on both particles but unequal masses: theta_a*m_a
    # is no longer constant, so the two constructions cannot coincide
    sys_ = CompositeSystem.from_params([1.0, 2.0], [0.3, 0.3], [0.2, 0.2])
    report = compare_com_reps(sys_, branch="minus")
    dists = [report.record(f"routes.{n}").measured for n in ("X1", "X2", "P1", "P2")]
    assert max(dists) > 1e-6
    assert not report.meta["routes_equal"]
    # the commutator table checks still pass: closure holds unconditionally
    for rec in report:
        if rec.name.startswith("table."):
            assert rec.passed


def test_single_particle_routes_trivially_equal():
    sys_ = CompositeSystem.from_params([1.0], [0.5], [0.5])
    report = compare_com_reps(sys_)
    assert report.meta["routes_equal"]


def test_direct_route_table_matches_effective_params_randomly():
    # closure is unconditional: arbitrary per-particle parameters still
    # produce the effective commutator table
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        masses = [float(m) for m in rng.uniform(0.2, 5.0, size=n)]
        thetas = [float(t) for t in rng.uniform(-0.4, 0.4, size=n)]
        etas = [float(e) for e in rng.uniform(-0.4, 0.4, size=n)]
        sys_ = CompositeSystem.from_params(masses, thetas, etas)
        te, ee = effective_params(sys_)
        if not (-5.0 < te * ee < 1.0) or te * ee == 0.0:
            continue
        X1c, X2c, P1c, P2c = com_rep_direct(sys_, "minus")
        assert commutator(X1c, X2c).scalar == pytest.approx(te, abs=1e-12)
        assert commutator(P1c, P2c).scalar == pytest.approx(ee, abs=1e-12)
        assert commutator(X1c, P1c).scalar == pytest.approx(1.0, abs=1e-12)
        assert commutator(X2c, P2c).scalar == pytest.approx(1.0, abs=1e-12)
        assert commutator(X1c, P2c).scalar == pytest.approx(0.0, abs=1e-12)


def test_algebraic_route_rejects_large_effective_product():
    sys_ = CompositeSystem.from_params([1.0, 1.0], [1.5, 1.5], [0.9, 0.9])
    te, ee = effective_params(sys_)
    assert te * ee > 1.0
    with pytest.raises(DomainError):
        com_rep_algebraic(sys_, "minus")


def test_momentum_coordinate_coefficient_doubles_with_total_mass():
    small = compare_com_reps(conditioned([1.0, 2.0]))
    big = compare_com_reps(conditioned([2.0, 4.0]))
    ratio = big.meta["momentum_coordinate_coeff"] / small.meta["momentum_coordinate_coeff"]
    assert ratio == pytest.approx(2.0, rel=1e-12)
    # per unit mass the coefficient is a constant of the conditions alone
    assert big.meta["momentum_coordinate_coeff_over_mass"] == pytest.approx(
        small.meta["momentum_coordinate_coeff_over_mass"], rel=1e-12
    )


def test_equal_particles_halve_direct_coefficients():
    sys_ = CompositeSystem.from_params([1.0, 1.0], [0.5, 0.5], [0.5, 0.5])
    X1c, _, _, _ = com_rep_direct(sys_, "minus")
    single = CompositeSystem.from_params([1.0], [0.5], [0.5])
    X1s, _, _, _ = com_rep_direct(single, "minus")
    for pid in (0, 1):
        got = X1c.coefficient(CanonicalVar(pid, "x1"))
        assert got == pytest.approx(0.5 * X1s.coefficient(CanonicalVar(0, "x1")), rel=1e-15)


# --- route comparison: simple family ----------------------------------------------


def test_simple_routes_agree_under_conditions():
    report = compare_com_simple(conditioned([1.0, 2.0]))
    assert report.overall
    # both routes reduce to xc1 - gamma/(2M) * pc2: check the documented
    # coefficient on each particle's p2
    X1c, _, _, _ = com_simple_direct(conditioned([1.0, 2.0]))
    for pid in (0, 1):
        assert X1c.coefficient(CanonicalVar(pid, "p2")) == pytest.approx(-0.05, abs=1e-15)


def test_simple_routes_differ_without_conditions():
    sys_ = CompositeSystem.from_params([1.0, 2.0], [0.3, 0.3], [0.2, 0.2])
    report = compare_com_simple(sys_)
    dists = [report.record(f"routes.{n}").measured for n in ("X1", "X2", "P1", "P2")]
    assert max(dists) > 1e-6
    # the violation lives in the momentum shifts, not the bare coordinates
    X1c, _, _, _ = com_simple_direct(sys_)
    assert X1c.coefficient(CanonicalVar(0, "p2")) != X1c.coefficient(CanonicalVar(1, "p2"))


def test_simple_routes_single_particle():
    sys_ = CompositeSystem.from_params([1.0], [0.5], [0.5])
    assert compare_com_simple(sys_).meta["routes_equal"]


def test_simple_diagonal_uses_effective_product():
    report = compare_com_simple(conditioned([1.0, 2.0]))
    rec = report.record("table.direct.[X1,P1]")
    te, ee = effective_params(conditioned([1.0, 2.0]))
    assert rec.expected == 1.0 + te * ee / 4.0
    assert rec.passed


def test_simple_diagonals_diverge_without_conditions():
    # Summing per-particle forms averages the individual parameter products
    # by mass, while the algebraic route carries the effective pair's
    # product; the mass-scaling conditions are what make those agree.
    system = CompositeSystem.from_params([1.0, 3.0], [0.4, 0.06], [0.1, 0.8])
    report = compare_com_simple(system)
    direct = report.record("table.direct.[X1,P1]")
    alg = report.record("table.algebraic.[X1,P1]")
    weighted = (1.0 * 0.4 * 0.1 + 3.0 * 0.06 * 0.8) / 4.0
    te, ee = effective_params(system)
    assert direct.expected == pytest.approx(1.0 + weighted / 4.0, rel=1e-15)
    assert alg.expected == pytest.approx(1.0 + te * ee / 4.0, rel=1e-15)
    assert direct.expected != alg.expected
    assert direct.passed and alg.passed
    # The cross-route agreement checks are what fail for this system.
    assert not report.overall


@pytest.mark.parametrize("family,branch", [("branch", "minus"), ("branch", "plus"), ("simple", None)])
def test_momentum_coordinate_coefficient_matches_closed_form(family, branch):
    # Closed forms of the xc2 coefficient inside P1c for the effective pair.
    system = conditioned([1.0, 2.0, 7.0])
    if family == "simple":
        report = compare_com_simple(system)
    else:
        report = compare_com_reps(system, branch)
    theta, eta = effective_params(system)
    s = math.sqrt(1.0 - theta * eta)
    want = {
        "simple": 0.5 * eta,
        "minus": math.sqrt((1.0 + s) / 2.0) * (eta / (1.0 + s)),
        "plus": math.sqrt(theta * eta / (2.0 * (1.0 + s))) * ((1.0 + s) / theta),
    }[branch or family]
    assert report.meta["momentum_coordinate_coeff"] == want


def _chained_sum(system, forms_for_particle):
    # The plain reference: one LinearForm + per particle and form.
    M = system.total_mass
    acc = [LinearForm()] * 4
    for part in system.particles:
        X1, X2, P1, P2 = forms_for_particle(part)
        w = part.mass / M
        acc = [acc[0] + w * X1, acc[1] + w * X2, acc[2] + P1, acc[3] + P2]
    return acc


@pytest.mark.parametrize("is_conditioned", [True, False])
def test_one_pass_sums_equal_chained_form_addition(is_conditioned):
    rng = np.random.default_rng(SEED)
    masses = 10 ** rng.uniform(-1.0, 2.0, size=50)
    if is_conditioned:
        system = conditioned(masses)
    else:
        system = CompositeSystem.from_params(
            masses, rng.uniform(0.001, 0.05, size=50), rng.uniform(-0.05, 0.05, size=50)
        )
    cases = [
        (com_canonical(system), lambda part: (x1(part.id), x2(part.id), p1(part.id), p2(part.id))),
        (com_rep_direct(system, "minus"),
         lambda part: build_representation(part.params, "branch", "minus", part.id).forms()),
        (com_simple_direct(system),
         lambda part: build_representation(part.params, "simple", None, part.id).forms()),
    ]
    for got, forms_for_particle in cases:
        for g, w in zip(got, _chained_sum(system, forms_for_particle), strict=True):
            assert form_equal(g, w, tol=0.0)
            assert list(g.terms) == list(w.terms)
