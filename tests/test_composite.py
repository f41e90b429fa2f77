"""Centre-of-mass construction and the two-route comparison."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncphase import (
    CanonicalVar,
    CompositeSystem,
    ConfigError,
    DegenerateError,
    DomainError,
    MassConditions,
    NCParams,
    LinearForm,
    com_canonical,
    commutator,
    compare_com_reps,
    compare_com_simple,
    effective_params,
    form_distance,
    mass_invariance_report,
    build_representation,
    p1,
    p2,
    params_from_conditions,
    verify_nc_algebra,
    x1,
    x2,
)
from ncphase.composite import (
    _column_commutator,
    com_params,
    com_rep_algebraic,
    com_rep_direct,
    com_simple_algebraic,
    com_simple_direct,
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


def test_system_needs_particles():
    with pytest.raises(ConfigError):
        CompositeSystem(particles=())
    with pytest.raises(ConfigError):
        CompositeSystem(particles=iter(()))


def test_from_params_length_check():
    with pytest.raises(ConfigError):
        CompositeSystem.from_params([1.0, 2.0], [0.1], [0.1, 0.1])


# --- the bulk build against the per-particle chain --------------------------------

#: Masses the chain refuses, or that break it through gamma/m, alpha*m or the
#: total mass: NaN, infinities, zeros of both signs, a negative, 1e-10 and
#: 1e10 (theta or eta overflows under constants of 1e300) and 1e308.
BAD_MASSES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 1e-10, 1e10, 1e308]
#: Parameters that are not finite, and 1e308, whose sum with another overflows.
BAD_PARAMS = [math.nan, math.inf, -math.inf, 1e308]
#: gamma*alpha in (-1, 1) half of the time, else >= 1 or NaN, or 1e300
#: against 1e-301: a small product while theta = gamma/m or eta = alpha*m
#: overflows.
CONDITIONS = st.one_of(
    st.builds(MassConditions, gamma=st.sampled_from([0.3, -0.2]), alpha=st.sampled_from([0.2, -0.1])),
    st.builds(
        MassConditions,
        gamma=st.sampled_from([0.3, 1e300, 1e-301, math.nan]),
        alpha=st.sampled_from([5.0, 1e300, 1e-301, math.nan]),
    ),
)


@st.composite
def columns(draw, bads, n):
    """n good values per column, with up to two cells made bad: in the first, middle or last row."""
    cols = [draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)) for _ in bads]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        c = draw(st.integers(0, len(bads) - 1))
        cols[c][draw(st.sampled_from([0, n // 2, n - 1]))] = draw(st.sampled_from(bads[c]))
    return cols


def _outcome(build):
    """What ``build()`` gives (particles, total mass, length), or the type and message it raises."""
    try:
        system = build()
    except Exception as exc:  # every refusal must match, whatever its type
        return type(exc), str(exc)
    return system.particles, system.total_mass, len(system)


@settings(max_examples=80, deadline=None)
@given(CONDITIONS, st.integers(0, 5).flatmap(lambda n: columns([BAD_MASSES], n).map(lambda cols: cols[0])))
@example(MassConditions(0.3, 0.2), [])
@example(MassConditions(0.3, 0.2), [1e308, 1e308])
@example(MassConditions(1e300, 1e-301), [1.0, 1e-10])
@example(MassConditions(1e-301, 1e300), [1e10, 1.0])
@example(MassConditions(0.3, 0.2), [1.0, 2.0])
@example(MassConditions(0.3, 0.2), [math.nan, -1.5, 2.0])
@example(MassConditions(0.3, 0.2), [1.0, -1.5, 2.0])
@example(MassConditions(0.3, 0.2), [1.0, 2.0, -0.0])
def test_from_conditions_refuses_like_the_per_particle_chain(conditions, masses):
    def chain():
        particles = tuple(params_from_conditions(conditions, float(m)) for m in masses)
        return CompositeSystem(particles=particles, conditions=conditions)

    assert _outcome(lambda: CompositeSystem.from_conditions(conditions, masses)) == _outcome(chain)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: columns([BAD_MASSES, BAD_PARAMS, BAD_PARAMS], n)))
@example([[], [], []])
@example([[1e308, 1e308], [0.1, 0.2], [0.1, 0.2]])
@example([[1.0, 2.0], [0.1, 0.2], [0.1, 1e308]])
@example([[1.0, 2.0], [0.1, 0.2], [0.1, 0.2]])
def test_from_params_refuses_like_the_per_particle_chain(cols):
    masses, thetas, etas = cols

    def chain():
        particles = tuple(
            NCParams(theta=float(t), eta=float(e), mass=float(m)) for m, t, e in zip(masses, thetas, etas)
        )
        return CompositeSystem(particles=particles)

    assert _outcome(lambda: CompositeSystem.from_params(masses, thetas, etas)) == _outcome(chain)


#: String columns, alone and beside a cell the bulk check refuses anyway.
STRING_COLUMNS = [
    (["1"], ["0.1"], ["0.1"]),
    ([1.0, 2.0], ["0.1", "0.2"], [0.1, 0.2]),
    (["1", "2"], [0.1, math.nan], [0.1, 0.2]),
    (["1", "-2"], [0.1, 0.2], [0.1, 0.2]),
]


@pytest.mark.parametrize("masses,thetas,etas", STRING_COLUMNS)
def test_a_string_column_is_refused_as_the_particle_chain_refuses_it(masses, thetas, etas):
    # float reads "1", but NCParams and params_from_conditions raise a
    # TypeError, so the bulk check must not accept what the chain refuses.
    conditions = MassConditions(0.3, 0.2)
    cases = [
        (lambda: CompositeSystem.from_params(masses, thetas, etas),
         lambda: CompositeSystem(NCParams(theta=t, eta=e, mass=m) for m, t, e in zip(masses, thetas, etas))),
        (lambda: CompositeSystem.from_conditions(conditions, masses),
         lambda: CompositeSystem((params_from_conditions(conditions, m) for m in masses), conditions)),
    ]
    for build, chain in cases[: 1 + isinstance(masses[0], str)]:
        assert _outcome(chain)[0] is TypeError
        assert _outcome(build) == _outcome(chain)


def test_bulk_constructors_build_no_particle_when_the_columns_pass(monkeypatch):
    # The bulk check is the fast path; with the per-particle chain broken,
    # columns that pass it must still build their systems.
    def refuse(*args, **kwargs):
        raise AssertionError("the per-particle chain ran")

    conditions = MassConditions(0.3, 0.2)
    monkeypatch.setattr("ncphase.composite.NCParams", refuse)
    monkeypatch.setattr("ncphase.composite.params_from_conditions", refuse)
    system = CompositeSystem.from_conditions(conditions, [1.0, 2.0, 5.0])
    assert (system.masses, system.thetas, system.etas) == ((1.0, 2.0, 5.0), (0.3, 0.15, 0.06), (0.2, 0.4, 1.0))
    assert (system.total_mass, system.conditions) == (8.0, conditions)
    system = CompositeSystem.from_params([1.0, 2.0], [0.1, 0.2], [0.3, 0.4])
    assert (system.masses, system.thetas, system.etas) == ((1.0, 2.0), (0.1, 0.2), (0.3, 0.4))
    assert (system.total_mass, system.conditions) == (3.0, None)


def test_a_commutator_past_the_float_range_is_refused():
    # eta = 1.797e308 is the largest double: the exact [P1,P2] of the table
    # lies past the float range, so it is refused rather than recorded as inf.
    rep = build_representation(NCParams(-5.562684646268003e-309, 1.7976931348623157e308), "branch", "minus")
    with pytest.raises(DomainError, match=r"the commutator \[P1,P2\] overflows the float range"):
        verify_nc_algebra(rep)
    system = CompositeSystem.from_conditions(MassConditions(-1.0, 1.0), [1.7976931348623157e308])
    with pytest.raises(DomainError, match=r"the commutator table\.algebraic\.\[P1,P2\] overflows the float range"):
        compare_com_reps(system)


def _typed(values):
    return [(type(v), float.hex(v)) for v in values]


def _result(fn):
    """What ``fn()`` returns, or the type and message it raises."""
    try:
        return fn()
    except Exception as exc:  # every refusal must match, whatever its type
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "gamma,alpha,masses",
    [(0.3, 0.2, [1.0, 2.0, 5.0]), (1e-301, 1e300, [1e10, 1.0]), (1e300, 1e-301, [1.0, 1e-10]),
     (0.9, 2.0, [1.0, 2.0]), (math.nan, 0.2, [1.0, 2.0])],
)
def test_numpy_scalars_give_what_floats_give(gamma, alpha, masses):
    # Each number is a float from where it enters, so no numpy overflow
    # warning, an error in this suite, comes before a refusal.
    def run(number):
        c = MassConditions(number(gamma), number(alpha))
        ms = [number(m) for m in masses]

        def columns():
            system = CompositeSystem.from_conditions(c, ms)
            return [_typed(col) for col in (system.masses, system.thetas, system.etas)]

        def forms():
            reps = [build_representation(params_from_conditions(c, m), "branch", "minus") for m in ms]
            return [(var, *_typed([k])) for rep in reps for form in rep.forms() for var, k in form.terms.items()]

        return (
            _typed([c.gamma, c.alpha]),
            _result(columns),
            _result(forms),
            _result(lambda: repr(compare_com_reps(CompositeSystem.from_conditions(c, ms)).to_dict())),
            _result(lambda: repr(mass_invariance_report(c, ms).to_dict())),
        )

    assert run(np.float64) == run(float)
    with pytest.raises(TypeError):
        MassConditions("0.3", 0.2)


def test_general_constructor_keeps_the_particle_ids_in_order():
    masses, thetas, etas = [1.0, 2.0, 4.0], [1e200, 2e200, 3e200], [1e-201, 2e-201, 1e-201]
    particles = tuple(NCParams(theta=t, eta=e, mass=m) for m, t, e in zip(masses, thetas, etas))
    system = CompositeSystem(particles=particles)
    assert len(system) == 3
    assert system.particles is system.particles == particles
    # Particle a's canonical variables carry id a.
    coordinates = [CanonicalVar(pid, "x1") for pid in range(3)]
    assert list(com_canonical(system)[0].terms) == coordinates
    assert list(com_rep_direct(system)[0].terms) == [
        key for pid in range(3) for key in (CanonicalVar(pid, "x1"), CanonicalVar(pid, "p2"))
    ]
    report = compare_com_reps(system)
    bulk = CompositeSystem.from_params(masses, thetas, etas)
    assert "particles" not in vars(bulk)  # built on first access only
    assert report.to_dict() == compare_com_reps(bulk).to_dict()
    assert bulk.particles is bulk.particles == particles
    one_pass = CompositeSystem(iter(particles))
    assert (one_pass.masses, one_pass.thetas, one_pass.etas) == tuple(map(tuple, (masses, thetas, etas)))
    assert one_pass.particles == particles
    assert report.to_dict() == compare_com_reps(one_pass).to_dict()


# --- centre-of-mass canonical pair ---------------------------------------------


def test_single_particle_com_is_the_particle():
    sys_ = CompositeSystem.from_params([1.5], [0.2], [0.3])
    xc1, _, pc1, _ = com_canonical(sys_)
    assert form_distance(xc1, x1(0)) == 0.0
    assert form_distance(pc1, p1(0)) == 0.0


def test_equal_masses_give_half_weights():
    sys_ = CompositeSystem.from_params([1.0, 1.0], [0.1, 0.2], [0.1, 0.2])
    xc1, _, _, _ = com_canonical(sys_)
    assert xc1.coefficient(CanonicalVar(0, "x1")) == 0.5
    assert xc1.coefficient(CanonicalVar(1, "x1")) == 0.5


def test_com_pair_is_canonical_for_one_two():
    # weights 1/3 and 2/3: their float sum rounds back to exactly 1
    xc1, xc2, pc1, pc2 = com_canonical(conditioned([1.0, 2.0]))
    assert commutator(xc1, pc1) == 1.0
    assert commutator(xc2, pc2) == 1.0
    assert commutator(xc1, pc2) == 0.0
    assert commutator(xc1, xc2) == 0.0


@pytest.mark.parametrize("masses", [[0.7, 1.3], [1.0, 2.0, 5.0], [0.2, 0.2, 0.2, 0.2]])
def test_com_pair_canonical_generic(masses):
    xc1, xc2, pc1, pc2 = com_canonical(
        CompositeSystem.from_params(masses, [0.1] * len(masses), [0.1] * len(masses))
    )
    assert commutator(xc1, pc1) == pytest.approx(1.0, abs=1e-15)
    assert commutator(xc2, pc2) == pytest.approx(1.0, abs=1e-15)


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


def _fraction_effective_params(masses, thetas, etas):
    # independent exact-rational recomputation
    M = sum(Fraction(m) for m in masses)
    theta = float(sum(Fraction(m) ** 2 * Fraction(t) for m, t in zip(masses, thetas)) / M**2)
    return theta, float(sum(Fraction(e) for e in etas))


def test_effective_params_match_slow_fraction_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        masses = [float(m) for m in rng.uniform(0.1, 10.0, size=n)]
        thetas = [float(t) for t in rng.uniform(-0.5, 0.5, size=n)]
        etas = [float(e) for e in rng.uniform(-0.5, 0.5, size=n)]
        sys_ = CompositeSystem.from_params(masses, thetas, etas)
        assert effective_params(sys_) == _fraction_effective_params(masses, thetas, etas)
    # extreme magnitudes: masses from the least subnormal to 1e300, signed
    # parameters from 1e-300 to 1e300, and an exact zero
    for _ in range(50):
        n = int(rng.integers(1, 8))
        masses = [float(m) for m in 10.0 ** rng.uniform(-300.0, 300.0, size=n)]
        masses[0] = float(rng.choice([5e-324, masses[0], 1e300]))
        thetas = [float(t) for t in rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300.0, 300.0, size=n)]
        etas = [float(e) for e in rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300.0, 300.0, size=n)]
        etas[-1] = float(rng.choice([-0.0, etas[-1]]))
        sys_ = CompositeSystem.from_params(masses, thetas, etas)
        assert effective_params(sys_) == _fraction_effective_params(masses, thetas, etas)
    # an eta sum beyond the float range: the oracle cannot round it either
    etas = [1.5e308, 1.5e308]
    with pytest.raises(OverflowError):
        _fraction_effective_params([1.0, 2.0], [0.1, 0.1], etas)
    with pytest.raises(DomainError, match="eta_eff, the sum of the particles' eta, overflows the float range"):
        effective_params(CompositeSystem.from_params([1.0, 2.0], [0.1, 0.1], etas))


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
        assert commutator(X1c, X2c) == pytest.approx(te, abs=1e-12)
        assert commutator(P1c, P2c) == pytest.approx(ee, abs=1e-12)
        assert commutator(X1c, P1c) == pytest.approx(1.0, abs=1e-12)
        assert commutator(X2c, P2c) == pytest.approx(1.0, abs=1e-12)
        assert commutator(X1c, P2c) == pytest.approx(0.0, abs=1e-12)


def test_direct_route_refuses_a_none_branch_like_the_algebraic_route():
    sys_ = conditioned([1.0, 2.0])
    for route in (com_rep_direct, com_rep_algebraic, compare_com_reps):
        with pytest.raises(ConfigError, match="unknown branch None"):
            route(sys_, None)


#: Conditioned N = 1000 systems that once missed the 1e-12 [P1,P2] check:
#: numpy seeds 1-3, masses log-uniform in [0.1, 100], alpha*M ~ 3e3.
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_conditioned_systems_pass_every_check(seed):
    rng = np.random.default_rng(seed)
    masses = np.exp(rng.uniform(math.log(0.1), math.log(100.0), 1000))
    report = compare_com_reps(conditioned(masses.tolist()), "minus", 1e-12)
    assert report.overall
    assert 2.5e3 < report.meta["eta_eff"] < 3.1e3


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


def test_momentum_coordinate_coefficient_of_an_underflowing_shift_reads_positive_zero():
    # eta_eff = -5e-324 gives each family a momentum shift k*m of -0.0, which
    # P1c drops like any zero term: the coefficient reads +0.0.
    system = CompositeSystem.from_params([1.0, 2.0], [0.1, 0.2], [-5e-324, 0.0])
    assert effective_params(system)[1] == -5e-324
    for report in (compare_com_reps(system, "minus"), compare_com_simple(system)):
        assert report.meta["momentum_coordinate_coeff"].hex() == (0.0).hex()
        assert report.meta["momentum_coordinate_coeff_over_mass"].hex() == (0.0).hex()


def _chained_sum(system, forms_for_particle):
    # The plain reference: one LinearForm + per particle and form.
    M = system.total_mass
    acc = [LinearForm()] * 4
    for pid, part in enumerate(system.particles):
        X1, X2, P1, P2 = forms_for_particle(pid, part)
        w = part.mass / M
        acc = [acc[0] + w * X1, acc[1] + w * X2, acc[2] + P1, acc[3] + P2]
    return acc


def _canonical_forms(pid, part):
    return (x1(pid), x2(pid), p1(pid), p2(pid))


def _chained_substitution(system, family, branch):
    # The two-pass reference for an algebraic route: the chained sums give
    # (xc, pc), then one LinearForm + per term of the single-particle template.
    template = build_representation(com_params(system), family, branch)
    basis = dict(zip(("x1", "x2", "p1", "p2"), _chained_sum(system, _canonical_forms)))
    out = []
    for form in template.forms():
        acc = LinearForm()
        for var, coeff in form.terms.items():
            acc = acc + coeff * basis[var.kind]
        out.append(acc)
    return out


@pytest.mark.parametrize("params", [True, False, "thetas", "etas"])
def test_one_pass_sums_equal_chained_form_addition(params):
    # True: shared mass conditions.  False: fixed parameters.  "thetas" or
    # "etas": fixed parameters with that one all 0.0, so an effective
    # parameter vanishes and the routes' shift rows hold zero columns, which
    # the forms must drop as the chained single-particle forms never hold them.
    rng = np.random.default_rng(SEED)
    masses = 10 ** rng.uniform(-1.0, 2.0, size=50)
    if params is True:
        system = conditioned(masses)
    else:
        columns = {"thetas": rng.uniform(0.001, 0.05, size=50), "etas": rng.uniform(-0.05, 0.05, size=50)}
        if params:
            columns[params] = [0.0] * 50
        system = CompositeSystem.from_params(masses, columns["thetas"], columns["etas"])
    cases = [
        (com_canonical(system), _chained_sum(system, _canonical_forms)),
        (com_rep_direct(system, "minus"), _chained_sum(
            system, lambda pid, part: build_representation(part, "branch", "minus", pid).forms())),
        (com_simple_direct(system), _chained_sum(
            system, lambda pid, part: build_representation(part, "simple", None, pid).forms())),
        (com_rep_algebraic(system, "minus").forms(), _chained_substitution(system, "branch", "minus")),
        (com_simple_algebraic(system).forms(), _chained_substitution(system, "simple", None)),
    ]
    theta_eff, eta_eff = effective_params(system)
    if theta_eff * eta_eff > 0.0:
        cases.append((com_rep_algebraic(system, "plus").forms(), _chained_substitution(system, "branch", "plus")))
    for got, want in cases:
        for g, w in zip(got, want, strict=True):
            assert form_distance(g, w) == 0.0
            assert list(g.terms) == list(w.terms)
    if params == "etas":
        # no xc2 term inside P1c: the coefficient reads +0.0, as an absent term does
        for report in (compare_com_reps(system, "minus"), compare_com_simple(system)):
            assert report.meta["momentum_coordinate_coeff"].hex() == (0.0).hex()


# --- centre-of-mass and relative motion -------------------------------------------


def _com_and_relative(params_a, params_b, family, branch):
    """(X1_c, X2_c, P1_c, P2_c) and (dX1, dX2, dP1, dP2) of two particles' own representations."""
    a, b = (build_representation(q, family, branch, pid) for pid, q in enumerate((params_a, params_b)))
    ma, mb = params_a.mass, params_b.mass
    M, mu = ma + mb, ma * mb / (ma + mb)
    com = (a.X1 * (ma / M) + b.X1 * (mb / M), a.X2 * (ma / M) + b.X2 * (mb / M), a.P1 + b.P1, a.P2 + b.P2)
    rel = (a.X1 - b.X1, a.X2 - b.X2, (a.P1 / ma - b.P1 / mb) * mu, (a.P2 / ma - b.P2 / mb) * mu)
    return com, rel


_MOTION_CASES = [("branch", "minus"), ("branch", "plus"), ("simple", None), ("epsilon_general", "minus"),
                 ("epsilon_general", "plus")]


@pytest.mark.parametrize(
    "family,branch,gamma,alpha",
    [(f, b, g, a) for f, b in _MOTION_CASES for g, a in [(0.3, 0.2), (0.5, -0.4), (0.9, 0.9)]
     if b != "plus" or g * a > 0],  # the plus branch needs theta*eta = gamma*alpha > 0
)
@pytest.mark.parametrize("masses", [(1e-3, 1e3), (1.0, 3.0), (0.7, 40.0), (2.5, 2.5)])
def test_conditions_make_com_and_relative_motion_independent(family, branch, gamma, alpha, masses):
    # The paper's third claim: under theta_a*m_a = gamma and eta_a/m_a = alpha
    # every commutator between the centre-of-mass and the relative operators
    # vanishes, so the two motions separate.
    c = MassConditions(gamma, alpha)
    com, rel = _com_and_relative(*(params_from_conditions(c, m) for m in masses), family, branch)
    assert max(abs(commutator(u, v)) for u in com for v in rel) <= 1e-15


@pytest.mark.parametrize("family,branch", _MOTION_CASES)
@pytest.mark.parametrize("theta,eta,masses", [(0.5, 0.5, (1.0, 3.0)), (0.3, 0.6, (2.5, 0.5)), (-0.4, -0.9, (4.0, 1.0))])
def test_fixed_parameters_couple_com_and_relative_motion(family, branch, theta, eta, masses):
    # Without the conditions [X1_c, dX2] = (theta_a m_a - theta_b m_b)/M and
    # [P1_c, dP2] = mu (eta_a/m_a - eta_b/m_b), both nonzero for unequal masses.
    pa, pb = (NCParams(theta, eta, mass=m) for m in masses)
    (X1c, _, P1c, _), (_, dX2, _, dP2) = _com_and_relative(pa, pb, family, branch)
    M, mu = pa.mass + pb.mass, pa.mass * pb.mass / (pa.mass + pb.mass)
    coupling = ((pa.theta * pa.mass - pb.theta * pb.mass) / M, mu * (pa.eta / pa.mass - pb.eta / pb.mass))
    assert min(abs(v) for v in coupling) >= 0.15
    assert commutator(X1c, dX2) == pytest.approx(coupling[0], abs=1e-12)
    assert commutator(P1c, dP2) == pytest.approx(coupling[1], abs=1e-12)


# --- column primitives ------------------------------------------------------------

#: Coefficients with exact zeros of both signs, subnormals and any finite
#: magnitude, with products and sums that overflow.
column_coeffs = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1.5e308, -1.5e308, 1e200, -1e200]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@st.composite
def column_forms(draw, ids):
    """A form over some of ``ids`` with some kinds: its coefficient per (particle, kind), zeros kept."""
    kinds = draw(st.lists(st.sampled_from(["x1", "x2", "p1", "p2"]), unique=True, max_size=4))
    own = draw(st.lists(st.sampled_from(ids), unique=True, min_size=1))
    return {(pid, kind): draw(column_coeffs) for kind in kinds for pid in own}


def _as_columns(coeffs, ids):
    kinds = dict.fromkeys(kind for _, kind in coeffs)
    return {kind: [coeffs.get((pid, kind), 0.0) for pid in ids] for kind in kinds}


def _as_form(coeffs):
    return LinearForm({CanonicalVar(pid, kind): c for (pid, kind), c in coeffs.items()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_primitives_equal_the_form_primitives_bit_for_bit(data):
    # Two forms over random, possibly disjoint particle sets and kind sets;
    # the columns run over the union of their particles and hold the zeros.
    ids = data.draw(st.lists(st.integers(0, 50), unique=True, min_size=1, max_size=6))
    a, b = data.draw(column_forms(ids)), data.draw(column_forms(ids))
    ca, cb = _as_columns(a, ids), _as_columns(b, ids)
    fa, fb = _as_form(a), _as_form(b)
    assert _column_commutator(ca, cb).hex() == commutator(fa, fb).hex()
    assert _column_commutator(cb, ca).hex() == commutator(fb, fa).hex()


#: A magnitude across e^-5 .. e^5, of either sign.
signed_scales = st.builds(lambda sign, x: sign * math.exp(x), st.sampled_from([1.0, -1.0]), st.floats(-5.0, 5.0))
#: Per family: its comparison, its algebraic route and its direct route.
ROUTE_FAMILIES = {
    branch: (
        lambda s, b=branch: compare_com_reps(s, b),
        lambda s, b=branch: com_rep_algebraic(s, b),
        lambda s, b=branch: com_rep_direct(s, b),
    )
    for branch in ("minus", "plus")
}
ROUTE_FAMILIES["simple"] = (compare_com_simple, com_simple_algebraic, com_simple_direct)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(ROUTE_FAMILIES)),
    st.booleans(),
    signed_scales,
    signed_scales,
    st.lists(st.floats(-5.0, 5.0).map(math.exp), min_size=1, max_size=8),
)
def test_route_distances_are_the_form_distances_of_the_routes(family, tied, u, v, masses):
    # Under conditions (gamma, alpha) = (u, v), else every particle carries (theta, eta) = (u, v).
    compare, algebraic, direct = ROUTE_FAMILIES[family]
    try:
        if tied:
            system = CompositeSystem.from_conditions(MassConditions(gamma=u, alpha=v), masses)
        else:
            system = CompositeSystem.from_params(masses, [u] * len(masses), [v] * len(masses))
        report = compare(system)
    except (DomainError, DegenerateError):
        return  # no such system, or no such route
    pairs = zip(algebraic(system).forms(), direct(system))
    for name, (alg, dir_) in zip(("X1", "X2", "P1", "P2"), pairs):
        assert report.record(f"routes.{name}").measured.hex() == form_distance(alg, dir_).hex()
