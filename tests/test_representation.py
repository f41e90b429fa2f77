"""Single-particle representations: construction, inversion, limits, duality."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncphase import (
    CanonicalVar,
    ConfigError,
    DegenerateError,
    DomainError,
    MassConditions,
    NCParams,
    branch_transform_residual,
    build_branch_rep,
    build_epsilon_rep,
    build_representation,
    build_simple_rep,
    check_commutative_limit,
    commutator,
    effective_planck,
    epsilon_factor,
    form_distance,
    mass_invariance_report,
    p1,
    p2,
    params_from_conditions,
    primed_params,
    verify_nc_algebra,
    x1,
    x2,
)
from ncphase.representation import BRANCHES, DEFAULT_TOL, _kinematic_invariance, check_branch_transform

# Frozen reference values, recomputed with 50-digit arithmetic (mpmath)
# before being pinned here.  The matched auxiliary pair for theta = eta = 0.5
# on the minus branch is 4 - 2*sqrt(3); its plus twin is 4 + 2*sqrt(3); the
# minus prefactor and shifted-coefficient happen to be cos(pi/12) and
# -sin(pi/12).
EPS_AT_UNMATCHED_PAIR = 0.8814124477965176  # 1/sqrt(1 + 0.5358984*2.1435928/4)
PRIMED_MINUS_HALF = 0.5358983848622454  # 4 - 2*sqrt(3)
PRIMED_PLUS_HALF = 7.464101615137754  # 4 + 2*sqrt(3)
PREFACTOR_MINUS_HALF = 0.9659258262890683  # cos(pi/12)
X1_P2_COEFF_MINUS_HALF = -0.25881904510252074  # -sin(pi/12)


def table(rep):
    f = {n: v for n, v in zip(rep.form_names(), rep.forms())}
    return (
        commutator(f["X1"], f["X2"]).scalar,
        commutator(f["P1"], f["P2"]).scalar,
        commutator(f["X1"], f["P1"]).scalar,
        commutator(f["X2"], f["P2"]).scalar,
        commutator(f["X1"], f["P2"]).scalar,
        commutator(f["X2"], f["P1"]).scalar,
    )


# --- scale factor ------------------------------------------------------------


def test_epsilon_factor_identity_point():
    assert epsilon_factor(0.0, 0.0) == 1.0


def test_epsilon_factor_matched_two_two():
    assert epsilon_factor(2.0, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=0)


def test_epsilon_factor_frozen_value():
    assert epsilon_factor(0.5358984, 2.1435928) == EPS_AT_UNMATCHED_PAIR


def test_epsilon_factor_matched_minus_pair():
    # The same scale evaluated at the *matched* minus-branch pair for
    # theta = eta = 0.5 equals the branch prefactor; the two float routes
    # (1/sqrt(1 + t'e'/4) vs sqrt((1+s)/2)) land one ulp apart.
    tp, ep = primed_params(NCParams(0.5, 0.5), "minus")
    assert epsilon_factor(tp, ep) == pytest.approx(PREFACTOR_MINUS_HALF, abs=math.ulp(1.0))


def test_epsilon_factor_domain():
    with pytest.raises(DomainError):
        epsilon_factor(4.0, -4.0)  # radicand 1 - 4 < 0
    with pytest.raises(DomainError):
        epsilon_factor(2.0, -2.0)  # radicand exactly 0


# --- auxiliary-parameter inversion -------------------------------------------


def test_primed_params_frozen_values():
    tp, ep = primed_params(NCParams(0.5, 0.5), "minus")
    assert tp == PRIMED_MINUS_HALF
    assert ep == PRIMED_MINUS_HALF
    tp, ep = primed_params(NCParams(0.5, 0.5), "plus")
    assert tp == pytest.approx(PRIMED_PLUS_HALF, rel=1e-15)
    assert ep == pytest.approx(PRIMED_PLUS_HALF, rel=1e-15)


def test_primed_params_branches_coincide_at_product_one():
    for branch in ("minus", "plus"):
        tp, ep = primed_params(NCParams(1.0, 1.0), branch)
        assert tp == 2.0
        assert ep == 2.0


def test_primed_params_product_above_one_rejected():
    with pytest.raises(DomainError):
        primed_params(NCParams(1.5, 1.0), "minus")


def test_primed_params_plus_degenerate_at_zero():
    with pytest.raises(DegenerateError):
        primed_params(NCParams(0.0, 0.5), "plus")
    with pytest.raises(DegenerateError):
        primed_params(NCParams(0.5, 0.0), "plus")
    with pytest.raises(DegenerateError):
        primed_params(NCParams(1e-310, 1e-310), "plus")


def test_primed_params_minus_total_at_zero():
    assert primed_params(NCParams(0.0, 0.0), "minus") == (0.0, 0.0)
    tp, ep = primed_params(NCParams(0.3, 0.0), "minus")
    assert tp == 0.3 and ep == 0.0


@pytest.mark.parametrize("theta,eta", [(0.5, 0.5), (0.1, 0.9), (-0.4, 0.7), (2.0, -1.3), (0.01, 0.01)])
@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_round_trip(theta, eta, branch):
    tp, ep = primed_params(NCParams(theta, eta), branch)
    back_theta = tp / (1.0 + tp * ep / 4.0)
    back_eta = ep / (1.0 + tp * ep / 4.0)
    assert back_theta == pytest.approx(theta, rel=1e-12)
    assert back_eta == pytest.approx(eta, rel=1e-12)


# --- construction -------------------------------------------------------------


def test_epsilon_rep_identity_at_zero():
    rep = build_epsilon_rep(NCParams(0.0, 0.0), 0.0, 0.0)
    for built, target in zip(rep.forms(), (x1(), x2(), p1(), p2())):
        assert form_distance(built, target) == 0.0


def test_epsilon_rep_matched_pair_table():
    tp, ep = primed_params(NCParams(0.5, 0.5), "minus")
    rep = build_epsilon_rep(NCParams(0.5, 0.5), tp, ep)
    t = table(rep)
    assert t[0] == pytest.approx(0.5, abs=1e-15)
    assert t[1] == pytest.approx(0.5, abs=1e-15)
    assert t[2] == pytest.approx(1.0, abs=1e-15)


def test_epsilon_rep_diagonal_at_two_two():
    # eps^2 * (1 + t'e'/4) = 1 algebraically; rounding eps = fl(1/sqrt(2))
    # leaves the measured diagonal one ulp under 1.
    rep = build_epsilon_rep(NCParams(1.0, 1.0), 2.0, 2.0)
    assert commutator(rep.X1, rep.P1).scalar == pytest.approx(1.0, abs=math.ulp(1.0))


def test_branch_rep_frozen_coefficients():
    rep = build_branch_rep(NCParams(0.5, 0.5), "minus")
    assert rep.X1.coefficient(CanonicalVar(0, "x1")) == PREFACTOR_MINUS_HALF
    assert rep.X1.coefficient(CanonicalVar(0, "p2")) == X1_P2_COEFF_MINUS_HALF
    # the other three forms carry the same two magnitudes; for theta = eta
    # the coordinate and momentum shifts coincide
    assert rep.P2.coefficient(CanonicalVar(0, "x1")) == X1_P2_COEFF_MINUS_HALF
    assert rep.P1.coefficient(CanonicalVar(0, "x2")) == -X1_P2_COEFF_MINUS_HALF
    assert rep.P1.coefficient(CanonicalVar(0, "p1")) == PREFACTOR_MINUS_HALF


def test_branch_rep_coincides_with_epsilon_route():
    for branch in ("minus", "plus"):
        for theta, eta in [(0.5, 0.5), (0.2, 0.8), (-0.3, -0.6)]:
            p = NCParams(theta, eta)
            direct = build_branch_rep(p, branch)
            via = build_epsilon_rep(p, *primed_params(p, branch))
            dist = max(form_distance(a, b) for a, b in zip(direct.forms(), via.forms()))
            assert dist <= 1e-12


def test_branch_rep_coincide_at_product_one():
    # sqrt(1 - theta*eta) = 0 kills the branch distinction; the forms must
    # be identical down to the bit for dyadic inputs.
    minus = build_branch_rep(NCParams(1.0, 1.0), "minus")
    plus = build_branch_rep(NCParams(1.0, 1.0), "plus")
    for a, b in zip(minus.forms(), plus.forms()):
        assert form_distance(a, b) == 0.0
    half = build_branch_rep(NCParams(0.5, 2.0), "minus")
    half_p = build_branch_rep(NCParams(0.5, 2.0), "plus")
    for a, b in zip(half.forms(), half_p.forms()):
        assert form_distance(a, b) == 0.0


def test_branch_rep_domain_errors():
    with pytest.raises(DomainError):
        build_branch_rep(NCParams(1.5, 1.0), "minus")
    with pytest.raises(DegenerateError):
        build_branch_rep(NCParams(0.0, 0.5), "plus")
    with pytest.raises(DomainError):
        build_branch_rep(NCParams(0.5, -0.5), "plus")


def test_branch_rep_minus_is_identity_at_zero():
    rep = build_branch_rep(NCParams(0.0, 0.0), "minus")
    for built, target in zip(rep.forms(), (x1(), x2(), p1(), p2())):
        assert form_distance(built, target) == 0.0


def test_branch_rep_negative_product_matches_table():
    rep = build_branch_rep(NCParams(-2.0, 2.0), "minus")
    report = verify_nc_algebra(rep)
    assert report.overall


def test_simple_rep_tables():
    rep = build_simple_rep(NCParams(0.5, 0.5))
    t = table(rep)
    assert t[0] == 0.5 and t[1] == 0.5  # coordinate and momentum tables exact
    assert t[2] == 1.0625 and t[3] == 1.0625  # rescaled diagonal, exact dyadics
    assert t[4] == 0.0 and t[5] == 0.0
    rep = build_simple_rep(NCParams(0.3, 0.2))
    assert commutator(rep.X1, rep.X2).scalar == 0.3


def test_simple_rep_identity_at_zero():
    rep = build_simple_rep(NCParams(0.0, 0.0))
    assert form_distance(rep.X1, x1()) == 0.0
    assert form_distance(rep.P2, p2()) == 0.0


def test_simple_rep_unrestricted_product():
    # no theta*eta < 1 requirement for the unscaled shift
    rep = build_simple_rep(NCParams(3.0, 4.0))
    assert commutator(rep.X1, rep.X2).scalar == pytest.approx(3.0, abs=1e-12)


def test_simple_rep_rejects_overflowing_product():
    # each parameter is finite, but theta*eta and the diagonal 1 + theta*eta/4 are not
    with pytest.raises(DomainError, match="overflows"):
        build_simple_rep(NCParams(1e200, 1e200))
    with pytest.raises(DomainError, match="overflows"):
        build_representation(NCParams(-1e200, 1e200), "simple")


def test_build_representation_dispatch():
    p = NCParams(0.5, 0.5)
    assert build_representation(p, "branch").branch == "minus"  # physical default
    assert build_representation(p, "simple").family == "simple"
    eps = build_representation(p, "epsilon_general")
    assert eps.family == "epsilon_general"
    dist = max(
        form_distance(a, b)
        for a, b in zip(eps.forms(), build_branch_rep(p, "minus").forms())
    )
    assert dist <= 1e-12


# --- verification reports -----------------------------------------------------


def test_verify_passes_against_family_table():
    rep = build_branch_rep(NCParams(0.5, 0.5), "minus")
    report = verify_nc_algebra(rep)
    assert report.overall
    assert {c.name for c in report} == {
        "[X1,X2]", "[P1,P2]", "[X1,P1]", "[X2,P2]", "[X1,P2]", "[X2,P1]",
    }
    assert report.record("[X1,X2]").measured == pytest.approx(0.5, abs=1e-12)


def test_verify_flags_rescaled_diagonal():
    # Asking the simple family for an ordinary diagonal must fail loudly on
    # exactly the two diagonal entries.
    rep = build_simple_rep(NCParams(0.5, 0.5))
    report = verify_nc_algebra(rep, expect_diag=1.0)
    assert not report.overall
    failing = {c.name for c in report if not c.passed}
    assert failing == {"[X1,P1]", "[X2,P2]"}
    assert report.record("[X1,P1]").measured == 1.0625


def test_verify_identity_rep():
    rep = build_simple_rep(NCParams(0.0, 0.0))
    assert verify_nc_algebra(rep, 0.0, 0.0, 1.0).overall


# --- effective Planck scale ---------------------------------------------------


def test_effective_planck_values():
    assert effective_planck(NCParams(0.0, 0.7)) == 1.0
    assert effective_planck(NCParams(0.5, 0.5)) == 1.0625


def test_effective_planck_mass_independent_under_conditions():
    c = MassConditions(gamma=0.3, alpha=0.2)
    values = {
        effective_planck(params_from_conditions(c, m)) for m in (0.5, 1.0, 2.0, 5.0, 10.0)
    }
    assert values == {1.015}


# --- branch duality -----------------------------------------------------------


def test_branch_transform_frozen_residuals():
    assert branch_transform_residual(NCParams(0.5, 0.5)) <= 5e-16
    assert branch_transform_residual(NCParams(0.1, 0.9)) <= 5e-16
    assert check_branch_transform(NCParams(0.5, 0.5), tol=1e-12)
    assert check_branch_transform(NCParams(0.1, 0.9), tol=1e-12)


def test_branch_transform_at_degenerate_point():
    # Branches coincide at theta*eta = 1, so the residual measures how far
    # the common rep is from being self-dual under the swap; for the
    # symmetric point theta = eta = 1 it is exactly self-dual.
    assert branch_transform_residual(NCParams(1.0, 1.0)) == 0.0


def test_branch_transform_requires_positive_ratio():
    with pytest.raises(DomainError):
        branch_transform_residual(NCParams(-0.5, 0.5))
    with pytest.raises(DomainError):
        branch_transform_residual(NCParams(0.5, 0.0))


# --- commutative limit ----------------------------------------------------------


def test_commutative_limit_documented_scales():
    report = check_commutative_limit(
        (1e-2, 1e-4, 1e-6), NCParams(0.5, 0.5), (1e-2, 1e-4, 1e-6)
    )
    assert report.overall
    minus = report.meta["minus_distances"]
    plus = report.meta["plus_distances"]
    assert minus[0] > minus[1] > minus[2]
    assert plus[0] > plus[1] > plus[2]
    assert minus[-1] < 1e-6 and plus[-1] < 1e-6
    # both branches shrink at the same first-order rate scale*theta0/2
    for m, p_, scale in zip(minus, plus, (1e-2, 1e-4, 1e-6)):
        assert m == pytest.approx(scale * 0.25, rel=1e-4)
        assert p_ == pytest.approx(scale * 0.25, rel=1e-4)


def test_commutative_limit_zero_scale_recorded_not_raised():
    report = check_commutative_limit((1e-2, 0.0), NCParams(0.5, 0.5), (1e-2, 1e-6))
    rec = report.record("limit.plus.scale=0")
    assert not rec.passed
    assert "DegenerateError" in rec.detail
    assert report.record("limit.minus.scale=0").passed  # identity exactly
    assert not report.record("limit.plus.monotone").passed


def test_commutative_limit_asymmetric_ratio():
    report = check_commutative_limit((1e-3, 1e-5), NCParams(0.9, 0.1), (1e-3, 1e-5))
    assert report.overall


@pytest.mark.parametrize("tol", [-1e-9, math.inf, math.nan])
@pytest.mark.parametrize(
    "check",
    [
        lambda tol: verify_nc_algebra(build_branch_rep(NCParams(0.5, 0.5), "minus"), tol=tol),
        lambda tol: check_branch_transform(NCParams(0.5, 0.5), tol=tol),
        lambda tol: check_commutative_limit([1e-2, 1e-4], NCParams(0.5, 0.5), [1e-2, tol]),
        # Unchecked, a negative or nan tol would fail every coefficient group and inf pass every one.
        lambda tol: _kinematic_invariance(
            [(m, build_representation(params_from_conditions(MassConditions(0.3, 0.2), m), "branch"))
             for m in (1.0, 2.0)],
            tol,
        ),
        lambda tol: mass_invariance_report(MassConditions(0.3, 0.2), [1.0, 2.0], tol=tol),
    ],
    ids=["verify_nc_algebra", "check_branch_transform", "check_commutative_limit",
         "kinematic_invariance", "mass_invariance_report"],
)
def test_tolerance_outside_zero_to_inf_rejected(check, tol):
    with pytest.raises(ConfigError):
        check(tol)


def test_commutative_limit_needs_one_tolerance_per_scale():
    with pytest.raises(ConfigError, match="one tolerance per scale"):
        check_commutative_limit([1e-2, 1e-4], NCParams(0.5, 0.5), [1e-2])


def test_commutative_limit_needs_a_scale():
    # an empty track would pass both monotone checks over no distances
    with pytest.raises(ConfigError, match="at least one scale"):
        check_commutative_limit([], NCParams(0.5, 0.5), [])


def test_commutative_limit_needs_positive_ratio():
    with pytest.raises(DomainError):
        check_commutative_limit((1e-2,), NCParams(-0.5, 0.5), (1e-2,))


# --- unknown names ---------------------------------------------------------------


def test_representation_refuses_an_unknown_family_or_branch():
    rep = build_branch_rep(NCParams(0.5, 0.5), "minus")
    with pytest.raises(ConfigError, match="unknown family 'bogus'"):
        dataclasses.replace(rep, family="bogus")
    with pytest.raises(ConfigError, match="unknown branch 'sideways'"):
        dataclasses.replace(rep, branch="sideways")


@pytest.mark.parametrize("build", [build_branch_rep, primed_params])
def test_unknown_branch_refused(build):
    with pytest.raises(ConfigError, match="unknown branch 'sideways'"):
        build(NCParams(0.5, 0.5), "sideways")


def test_build_representation_refuses_an_unknown_family():
    with pytest.raises(ConfigError, match="unknown family 'bogus'"):
        build_representation(NCParams(0.5, 0.5), "bogus")


# --- mass conditions ------------------------------------------------------------


def test_params_from_conditions_values():
    c = MassConditions(gamma=0.3, alpha=0.2)
    p = params_from_conditions(c, 1.0)
    assert (p.theta, p.eta) == (0.3, 0.2)
    p = params_from_conditions(c, 2.0)
    assert (p.theta, p.eta) == (0.15, 0.4)
    assert p.product == pytest.approx(0.06, abs=1e-15)


def test_params_from_conditions_domain():
    with pytest.raises(DomainError):
        params_from_conditions(MassConditions(1.5, 1.5), 1.0)
    with pytest.raises(DomainError):
        params_from_conditions(MassConditions(0.3, 0.2), 0.0)


def test_nc_params_validation():
    with pytest.raises(DomainError):
        NCParams(0.1, 0.1, mass=-1.0)
    # a value math.isfinite cannot read keeps its own error type
    with pytest.raises(TypeError):
        NCParams("0.1", 0.1)
    with pytest.raises(OverflowError):
        NCParams(10**400, 0.1)


def test_nc_params_store_floats():
    p = NCParams(np.float64(1e200), np.float64(1e200), mass=np.float32(2.0))
    assert all(type(v) is float for v in (p.theta, p.eta, p.mass))
    assert p.product == math.inf  # a float product overflows without a numpy warning


@pytest.mark.parametrize("family,branch", [("branch", "minus"), ("simple", None), ("simple", "minus")])
def test_mass_invariance_under_conditions(family, branch):
    c = MassConditions(gamma=0.3, alpha=0.2)
    report = mass_invariance_report(c, (1.0, 2.0, 5.0), family=family, branch=branch)
    assert report.overall
    assert report.meta["branch"] == (None if family == "simple" else branch)  # the branch the build read
    for rec in report:
        assert rec.measured <= 1e-12


def test_reports_give_the_branch_a_build_read():
    # A branch of None reads the minus default, and the report says so.
    report = mass_invariance_report(MassConditions(0.3, 0.2), [1, 2, 5], "branch", None)
    assert report.meta["branch"] == "minus"
    p = NCParams(0.5, 0.5)
    for branch in BRANCHES:
        assert verify_nc_algebra(build_representation(p, "epsilon_general", branch)).meta["branch"] == branch
    # Explicit auxiliary parameters read no branch.
    assert build_epsilon_rep(p, 0.5, 0.5).branch is None


def test_simple_family_momentum_shift_is_gamma_over_2m():
    c = MassConditions(gamma=0.3, alpha=0.2)
    for m in (1.0, 2.0, 5.0):
        rep = build_simple_rep(params_from_conditions(c, m))
        coeff = rep.X1.coefficient(CanonicalVar(0, "p2"))
        assert coeff == -0.5 * (0.3 / m)


def test_invariance_fails_without_conditions():
    # Same (theta, eta) for every mass: the p/m scaling check must break.
    reps = [
        (m, build_branch_rep(NCParams(0.5, 0.5, mass=m), "minus"))
        for m in (1.0, 2.0)
    ]
    report = _kinematic_invariance(reps, DEFAULT_TOL)
    assert not report.overall
    assert not report.record("X1.momentum.p2").passed
    # ... while the raw coordinate parts still agree (the rep does not
    # depend on mass at all, which is exactly the problem).
    assert report.record("X1.coordinate.x1").passed


def test_invariance_fails_a_coefficient_missing_for_some_masses():
    # theta = gamma/m underflows to 0.0 for the heavy mass, so its coordinate
    # forms hold no momentum term: the light mass's coefficient alone spreads
    # 0.0, and the group still fails.
    report = mass_invariance_report(MassConditions(1e-300, 0.2), [1.0, 1e100])
    missing = "coefficient missing for some masses"
    assert {rec.name: rec.detail for rec in report if not rec.passed} == {
        "X1.momentum.p2": missing, "X2.momentum.p1": missing,
    }
    assert report.record("X1.momentum.p2").measured == 0.0
    assert report.meta == {"masses": [1.0, 1e100], "gamma": 1e-300, "alpha": 0.2, "family": "branch", "branch": "minus"}


def test_momentum_x_part_scales_linearly_in_mass():
    c = MassConditions(gamma=0.3, alpha=0.2)
    coeffs = {}
    for m in (1.0, 2.0, 5.0):
        rep = build_branch_rep(params_from_conditions(c, m), "minus")
        coeffs[m] = rep.P1.coefficient(CanonicalVar(0, "x2"))
    base = coeffs[1.0]
    for m, v in coeffs.items():
        assert v == pytest.approx(m * base, rel=1e-12)


def test_kinematic_invariance_needs_two_masses():
    rep = build_representation(params_from_conditions(MassConditions(0.3, 0.2), 2.0), "branch")
    with pytest.raises(ConfigError, match="at least two masses"):
        _kinematic_invariance([(2.0, rep)], DEFAULT_TOL)
    with pytest.raises(ConfigError, match="at least two masses"):
        mass_invariance_report(MassConditions(0.3, 0.2), [])


# --- randomized closure ---------------------------------------------------------


def test_random_closure_spot_check():
    rng = np.random.default_rng(99)
    for _ in range(50):
        product = float(rng.uniform(-5.0, 1.0)) or 0.1
        ratio = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        ta = math.sqrt(abs(product) * ratio)
        ea = math.sqrt(abs(product) / ratio)
        theta, eta = (ta, ea) if product > 0 else (ta, -ea)
        p = NCParams(theta, eta)
        assert verify_nc_algebra(build_branch_rep(p, "minus")).overall
        if product > 0:
            assert verify_nc_algebra(build_branch_rep(p, "plus")).overall


# --- builders against the operator expressions they replaced ----------------


def _operator_forms(p, family, branch, i):
    """The four forms as chained ``LinearForm`` operators: the builders' reference."""
    if family == "simple":
        return (
            x1(i) - 0.5 * p.theta * p2(i),
            x2(i) + 0.5 * p.theta * p1(i),
            p1(i) + 0.5 * p.eta * x2(i),
            p2(i) - 0.5 * p.eta * x1(i),
        )
    if family == "epsilon_general":
        tp, ep = primed_params(p, branch)
        return _scaled_shift_operators(i, epsilon_factor(tp, ep), 0.5 * tp, 0.5 * ep)
    s = math.sqrt(1.0 - p.product)
    if branch == "minus":
        return _scaled_shift_operators(
            i, math.sqrt((1.0 + s) / 2.0), p.theta / (1.0 + s), p.eta / (1.0 + s)
        )
    return _scaled_shift_operators(
        i, math.sqrt(p.product / (2.0 * (1.0 + s))), (1.0 + s) / p.eta, (1.0 + s) / p.theta
    )


def _scaled_shift_operators(i, k, c, m):
    return (
        k * (x1(i) - c * p2(i)),
        k * (x2(i) + c * p1(i)),
        k * (p1(i) + m * x2(i)),
        k * (p2(i) - m * x1(i)),
    )


def _bits(form):
    """Key order, exact coefficients (with the sign of zero), value types."""
    return [(type(v), v, type(c), float.hex(c)) for v, c in form.terms.items()]


_nc_values = st.just(0.0) | st.just(-0.0) | st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(theta=_nc_values, eta=_nc_values, particle_id=st.integers(0, 5), as_numpy=st.booleans())
@example(theta=0.0, eta=0.0, particle_id=0, as_numpy=False)
@example(theta=-0.0, eta=0.5, particle_id=5, as_numpy=True)
@example(theta=1e300, eta=5e-324, particle_id=2, as_numpy=False)  # plus-branch shift overflows to inf
def test_builders_match_their_operator_expressions_bit_for_bit(theta, eta, particle_id, as_numpy):
    if as_numpy:
        theta, eta = np.float64(theta), np.float64(eta)
    p = NCParams(theta, eta)
    for family, branch in [("branch", "minus"), ("branch", "plus"), ("simple", None),
                           ("epsilon_general", "minus"), ("epsilon_general", "plus")]:
        try:
            rep = build_representation(p, family, branch, particle_id)
        except (DomainError, DegenerateError):
            continue
        for got, want in zip(rep.forms(), _operator_forms(p, family, branch, particle_id)):
            assert _bits(got) == _bits(want)
            assert all(type(c) is float for c in got.terms.values())


@settings(max_examples=300, deadline=None)
@given(theta_prime=st.floats(), eta_prime=st.floats(), particle_id=st.integers(0, 5))
@example(theta_prime=math.inf, eta_prime=0.0, particle_id=0)  # nan scale, zero momentum shift
@example(theta_prime=1e308, eta_prime=1e308, particle_id=1)  # zero scale, finite shifts
def test_epsilon_builder_matches_its_operator_expression_for_any_auxiliary_pair(
    theta_prime, eta_prime, particle_id
):
    try:
        rep = build_epsilon_rep(NCParams(0.1, 0.2), theta_prime, eta_prime, particle_id)
    except DomainError:
        return
    want = _scaled_shift_operators(
        particle_id, epsilon_factor(theta_prime, eta_prime), 0.5 * theta_prime, 0.5 * eta_prime
    )
    for got, ref in zip(rep.forms(), want):
        assert _bits(got) == _bits(ref)
