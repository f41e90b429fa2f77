"""Single-particle representations: construction, inversion, limits, duality."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncphase import (
    CanonicalVar,
    CheckRecord,
    CheckReport,
    CompositeSystem,
    ConfigError,
    DegenerateError,
    DomainError,
    LinearForm,
    MassConditions,
    NCParams,
    Representation,
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
from ncphase.representation import (
    BRANCHES,
    DEFAULT_TOL,
    _coeff_forms,
    _commutator_checks,
    _kinematic_invariance,
    _TABLE,
    _layout_row,
    _row_table,
    _swap_scale,
    branch_transform_duality,
    check_branch_transform,
    random_param_batch,
)

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
        commutator(f["X1"], f["X2"]),
        commutator(f["P1"], f["P2"]),
        commutator(f["X1"], f["P1"]),
        commutator(f["X2"], f["P2"]),
        commutator(f["X1"], f["P2"]),
        commutator(f["X2"], f["P1"]),
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
    assert commutator(rep.X1, rep.P1) == pytest.approx(1.0, abs=math.ulp(1.0))


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
    assert commutator(rep.X1, rep.X2) == 0.3


def test_simple_rep_identity_at_zero():
    rep = build_simple_rep(NCParams(0.0, 0.0))
    assert form_distance(rep.X1, x1()) == 0.0
    assert form_distance(rep.P2, p2()) == 0.0


def test_simple_rep_unrestricted_product():
    # no theta*eta < 1 requirement for the unscaled shift
    rep = build_simple_rep(NCParams(3.0, 4.0))
    assert commutator(rep.X1, rep.X2) == pytest.approx(3.0, abs=1e-12)


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


#: Ways out of the shift layout of particle 0: a term the layout lacks, another
#: particle's variable, and centre-of-mass forms, zero forms among them.
_OFF_LAYOUT = {
    "extra_term": lambda rep: dataclasses.replace(rep, X1=rep.X1 + p1()),
    "second_particle": lambda rep: dataclasses.replace(rep, P2=rep.P2 + x1(1)),
    "centre_of_mass": lambda rep: dataclasses.replace(rep, particle_id=None),
    "zero_centre_of_mass": lambda rep: dataclasses.replace(
        rep, X1=LinearForm(), X2=LinearForm(), P1=LinearForm(), P2=LinearForm(), particle_id=None
    ),
}


@pytest.mark.parametrize("leave", [None, *_OFF_LAYOUT], ids=lambda leave: leave or "built")
@pytest.mark.parametrize("family,branch", [("branch", "minus"), ("branch", "plus"), ("simple", None), ("epsilon_general", None)])
def test_verify_calls_the_module_commutator_only_off_the_shift_layout(monkeypatch, family, branch, leave):
    # The benchmark's algebra.commutator span wraps this binding and its
    # reports.checks count wraps CheckRecord.__init__.  A built family's
    # table is read from its row and calls no commutator; forms off the
    # layout take all six entries through it.  Each table makes six records.
    import ncphase.representation as rp

    calls, records = [], []
    init = CheckRecord.__init__

    def counting(a, b):
        calls.append((a, b))
        return commutator(a, b)

    def counting_init(self, *args, **kwargs):
        records.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rp, "commutator", counting)
    monkeypatch.setattr(CheckRecord, "__init__", counting_init)
    rep = build_representation(NCParams(0.5, 0.5), family, branch)
    if leave is not None:
        rep = _OFF_LAYOUT[leave](rep)
    report = verify_nc_algebra(rep)
    assert len(records) == len(report.checks) == 6
    assert len(calls) == (0 if leave is None else 6)


_MAX = 1.7976931348623157e308
#: Shift-row coefficients: signed zeros, which the forms drop, subnormals,
#: magnitudes whose products overflow, mixed signs and any finite float.
_row_values = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, _MAX])
    | st.floats(-2.0, 2.0)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=1000, deadline=None)
@given(row=st.lists(_row_values, min_size=8, max_size=8), particle_id=st.integers(0, 5))
@example(row=[1e300, 1e300, 1e300, 1e300, 1.0, 1.0, 1.0, 1.0], particle_id=0)  # inf - inf: nan
@example(row=[1e300, -1e300, 1e300, 1e300, 1.0, 1.0, 1.0, 1.0], particle_id=0)  # inf + inf: inf
@example(row=[_MAX, -(2.0**970), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], particle_id=1)  # exact sum a half ulp past the max
@example(row=[_MAX, -(2.0**969), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], particle_id=1)  # a quarter ulp: rounds to the max
@example(row=[-5e-324, 0.0, 1.0, 0.5, 0.5, -0.0, 1.0, 1.0], particle_id=2)  # products underflow to -0.0
@example(row=[0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0], particle_id=0)  # every term dropped
def test_row_table_is_the_commutator_of_the_row_forms_bit_for_bit(row, particle_id):
    forms, names = _coeff_forms(particle_id, row), Representation.form_names()
    table = _row_table(row)
    assert sorted((i, j) for _, i, j in _TABLE) == list(itertools.combinations(range(4), 2))
    assert len(table) == len(_TABLE)
    for (name, i, j), value in zip(_TABLE, table):
        assert name == f"[{names[i]},{names[j]}]"
        assert float.hex(value) == float.hex(commutator(forms[i], forms[j])), name


def _records(verify, rep):
    """A report's records with their measured value as hex, or the DomainError message it raised."""
    try:
        report = verify(rep)
    except DomainError as exc:
        return str(exc)
    return [(c.name, c.expected, float.hex(c.measured), c.tol, c.passed, c.detail) for c in report.checks]


#: The six commutators as form indices, in the record order of every verification report.
_PAIR_ORDER = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def _commutator_path(rep):
    forms = rep.forms()
    measured = [commutator(forms[i], forms[j]) for i, j in _PAIR_ORDER]
    return CheckReport("verification", tuple(_commutator_checks(measured, rep.expected_table(), DEFAULT_TOL)))


@settings(max_examples=500, deadline=None)
@given(
    row=st.lists(_row_values | st.sampled_from([math.inf, -math.inf, math.nan]), min_size=8, max_size=8),
    leave=st.sampled_from([None, *_OFF_LAYOUT]),
)
@example(row=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0], leave="extra_term")
@example(row=[1.0, math.inf, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0], leave=None)  # inf meets an absent partner
@example(row=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, math.nan], leave=None)
@example(row=[1e300, 1e300, 1e300, 1e300, 1.0, 1.0, 1.0, 1.0], leave="second_particle")
def test_verify_reports_the_commutator_path_record_by_record(row, leave):
    rep = Representation(*_coeff_forms(0, row), "branch", NCParams(0.3, 0.2), "minus")
    if leave is not None:
        rep = _OFF_LAYOUT[leave](rep)
    on_layout = leave is None and all(map(math.isfinite, row))
    assert (_layout_row(rep) is not None) == on_layout
    assert _records(verify_nc_algebra, rep) == _records(_commutator_path, rep)


def test_the_readme_overflow_is_refused_from_the_row_with_its_message():
    # --gamma=-1 --alpha 1 --mass 1.7976931348623157e308: the row is finite,
    # and the exact [P1,P2] lies past the float range.
    rep = build_representation(params_from_conditions(MassConditions(-1.0, 1.0), _MAX), "branch", "minus")
    row = _layout_row(rep)
    assert row is not None and _row_table(row)[1] == math.inf  # [P1,P2]
    with pytest.raises(DomainError) as info:
        verify_nc_algebra(rep)
    assert str(info.value) == "the commutator [P1,P2] overflows the float range"


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


def _form_residual(p):
    """The residual as form arithmetic on both built branches: the reference of the row residual."""
    r = _swap_scale(p)
    X1, X2, P1, P2 = build_branch_rep(p, "minus").forms()
    Y1, Y2, Q1, Q2 = build_branch_rep(p, "plus").forms()
    return max(form_distance(a, b) for a, b in [(X1, -r * Q2), (X2, r * Q1), (P1, Y2 / r), (P2, -Y1 / r)])


def _outcome(f, p):
    try:
        return float.hex(f(p))
    except (DomainError, DegenerateError) as exc:
        return type(exc), str(exc)


#: Magnitudes from the subnormals to the largest float; the signs are drawn apart.
_duality_values = st.floats(0.0, 2.0) | st.floats(0.0, 1e-300) | st.floats(0.0, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(theta=_duality_values, eta=_duality_values, sign=st.sampled_from([1.0, -1.0]), on_domain=st.booleans())
@example(theta=1.0, eta=1.0, sign=1.0, on_domain=False)  # the branches coincide
@example(theta=1e-160, eta=1e160, sign=-1.0, on_domain=False)  # subnormal ratio
@example(theta=5e-324, eta=0.5, sign=1.0, on_domain=False)  # product underflows: the plus row is refused
@example(theta=0.1, eta=1e-309, sign=1.0, on_domain=False)  # the plus shift (1 + s)/eta overflows
@example(theta=1e300, eta=5e-324, sign=1.0, on_domain=False)  # the ratio overflows
@example(theta=1e200, eta=1e-200, sign=1.0, on_domain=True)
@example(theta=0.5, eta=-0.5, sign=1.0, on_domain=False)  # no swap map
@example(theta=2.0, eta=2.0, sign=1.0, on_domain=False)  # theta*eta > 1
def test_residual_matches_the_form_residual_bit_for_bit(theta, eta, sign, on_domain):
    if on_domain and 0.0 < theta and math.isfinite(1.0 / theta):
        eta = eta % 1.0 / theta  # lands the draw on 0 <= theta*eta < 1
    p = NCParams(sign * theta, sign * eta)
    assert _outcome(branch_transform_residual, p) == _outcome(_form_residual, p)


def test_duality_pairs_are_the_built_forms_and_their_swap():
    p = NCParams(-0.3, -2.0)
    r = _swap_scale(p)
    pairs = branch_transform_duality(p)
    Y1, Y2, Q1, Q2 = build_branch_rep(p, "plus").forms()
    want = zip(build_branch_rep(p, "minus").forms(), (-r * Q2, r * Q1, Y2 / r, -Y1 / r))
    assert list(pairs) == ["X1", "X2", "P1", "P2"]
    for (minus, mapped), (ref_minus, ref_mapped) in zip(pairs.values(), want):
        assert dict(minus.terms) == dict(ref_minus.terms)
        assert {v: float.hex(c) for v, c in mapped.terms.items()} == {v: float.hex(c) for v, c in ref_mapped.terms.items()}


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
    rec = report.record("limit.plus.scale=0.0")
    assert not rec.passed
    assert "DegenerateError" in rec.detail
    assert report.record("limit.minus.scale=0.0").passed  # identity exactly
    assert not report.record("limit.plus.monotone").passed


def test_commutative_limit_equal_distances_are_not_monotone():
    # Both minus rows are the identity to the last bit, so the distances tie at 0.0.
    report = check_commutative_limit((1e-323, 5e-324), NCParams(0.5, 0.5), (1.0, 1.0))
    assert report.meta["minus_distances"] == [0.0, 0.0]
    assert report.record("limit.minus.scale=1e-323").passed and report.record("limit.minus.scale=5e-324").passed
    assert not report.record("limit.minus.monotone").passed


@pytest.mark.parametrize("p0, name", [(NCParams(1e10, 1e-10), "theta"), (NCParams(1e-10, 1e10), "eta")])
def test_commutative_limit_refuses_a_scale_that_overflows_a_parameter_naming_it(p0, name):
    with pytest.raises(DomainError) as info:
        check_commutative_limit((1e-2, 1e300), p0, (1e-2, 1e-2))
    assert str(info.value) == f"commutative-limit scale 1e+300 overflows scale*{name}0 = 1e+300*10000000000.0"


def test_commutative_limit_asymmetric_ratio():
    report = check_commutative_limit((1e-3, 1e-5), NCParams(0.9, 0.1), (1e-3, 1e-5))
    assert report.overall


def test_commutative_limit_names_scales_that_print_alike_apart():
    # Both scales print as 0.01 under "g"; each check needs a name of its own.
    scales = (1.000001e-2, 1e-2)
    report = check_commutative_limit(scales, NCParams(0.5, 0.5), (1e-2, 1e-2))
    for branch in ("minus", "plus"):
        names = [f"limit.{branch}.scale={scale!r}" for scale in scales]
        assert len({c.name for c in report.checks if c.name in names}) == 2
        measured = [report.record(name).measured for name in names]
        assert measured == report.meta[f"{branch}_distances"]
        assert measured[0] > measured[1]


def test_commutative_limit_and_duality_residual_build_no_form(monkeypatch):
    def no_form(*args, **kwargs):
        raise AssertionError("built a LinearForm")

    monkeypatch.setattr(LinearForm, "__init__", no_form)
    monkeypatch.setattr(LinearForm, "_trusted", no_form)
    p0 = NCParams(0.4, 0.3)
    report = check_commutative_limit([1e-2, 1e-4, 0.0], p0, [1e-2, 1e-4, 1e-6])
    assert report.record("limit.minus.scale=0.0").passed
    assert "DegenerateError" in report.record("limit.plus.scale=0.0").detail
    assert branch_transform_residual(p0) <= DEFAULT_TOL


@pytest.mark.parametrize("p0", [NCParams(0.9, 0.1), NCParams(-0.3, -2.0), NCParams(1e-3, 7.0)])
def test_commutative_limit_distances_are_the_form_distances(p0):
    scales = (1e-1, 1e-3, 1e-6, 0.0)
    report = check_commutative_limit(scales, p0, (1.0,) * len(scales))
    r = _swap_scale(p0)
    targets = {"minus": (x1(), x2(), p1(), p2()), "plus": (-r * p2(), r * p1(), x2() / r, -x1() / r)}
    for branch, target in targets.items():
        want = []
        for scale in scales:
            try:
                rep = build_branch_rep(NCParams(scale * p0.theta, scale * p0.eta), branch)
            except (DomainError, DegenerateError):
                want.append(None)
                continue
            want.append(float.hex(max(form_distance(f, t) for f, t in zip(rep.forms(), target))))
        got = [None if d is None else float.hex(d) for d in report.meta[f"{branch}_distances"]]
        assert got == want
        # each scale's record carries its distance, so measured is None where want is
        records = [report.record(f"limit.{branch}.scale={scale!r}") for scale in scales]
        assert [record.measured for record in records] == report.meta[f"{branch}_distances"]
    # scale by scale, minus before plus, then the two monotone verdicts
    names = [f"limit.{branch}.scale={scale!r}" for scale in scales for branch in ("minus", "plus")]
    assert [c.name for c in report.checks] == names + ["limit.minus.monotone", "limit.plus.monotone"]


@pytest.mark.parametrize("tol", [-1e-9, math.inf, math.nan, 10**400])
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


def test_tolerance_is_converted_before_it_is_compared():
    rep = build_branch_rep(NCParams(0.5, 0.5), "minus")
    # An int past the float range does not convert; it raised OverflowError.
    with pytest.raises(ConfigError) as info:
        verify_nc_algebra(rep, tol=10**400)
    assert str(info.value) == "tolerance must be finite and nonnegative, got an int past the float range"
    # An np.float32 compared with a Python float would warn, and warnings are errors here.
    for tol in (np.float32(1e-9), 10**300, np.float32(np.inf)):
        if math.isfinite(tol):
            report = verify_nc_algebra(rep, tol=tol)
            assert {(type(c.tol), c.tol) for c in report.checks} == {(float, float(tol))}
        else:
            with pytest.raises(ConfigError, match="^tolerance must be finite and nonnegative, got inf$"):
                verify_nc_algebra(rep, tol=tol)


def test_commutative_limit_needs_one_tolerance_per_scale():
    with pytest.raises(ConfigError, match="one tolerance per scale"):
        check_commutative_limit([1e-2, 1e-4], NCParams(0.5, 0.5), [1e-2])


def test_commutative_limit_needs_a_scale():
    # an empty track would pass both monotone checks over no distances
    with pytest.raises(ConfigError, match="at least one scale"):
        check_commutative_limit([], NCParams(0.5, 0.5), [])


@pytest.mark.parametrize("scale", [-1e-2, -5e-324, math.nan, math.inf, -math.inf])
def test_commutative_limit_refuses_a_scale_outside_zero_to_inf_before_its_tolerance(scale):
    # A negative scale flips both parameters, and its plus branch would be
    # measured against the wrong swap map: 2 sqrt(theta/eta) at -1e-2.  The
    # CLI's default tolerances are the scales, so the scale is named first.
    with pytest.raises(ConfigError) as info:
        check_commutative_limit([1e-2, scale], NCParams(0.5, 0.3), [1e-2, scale])
    assert str(info.value) == f"commutative-limit scale must be finite and nonnegative, got {scale}"


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


def test_representation_init_builds_what_the_fields_say():
    p = NCParams(0.5, 0.5)
    rep = build_branch_rep(p, "plus", particle_id=2)
    fields = dict(zip(("X1", "X2", "P1", "P2"), rep.forms()), family="branch", params=p, branch="plus", particle_id=2)
    twin = Representation(**fields)
    assert type(rep) is Representation
    assert rep == twin and hash(rep) == hash(twin) and repr(rep) == repr(twin)
    assert vars(rep) == vars(twin) == fields
    assert repr(rep).startswith("Representation(X1=LinearForm(") and repr(rep).endswith(", branch='plus', particle_id=2)")
    assert dataclasses.replace(rep, particle_id=3) == Representation(*rep.forms(), "branch", p, "plus", 3)
    com = Representation(*rep.forms(), "simple", p, None, particle_id=None)
    assert (com.branch, com.particle_id) == (None, None)
    assert Representation(*rep.forms(), "simple", p) == dataclasses.replace(com, particle_id=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.branch = "minus"  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rep.X1


def test_builders_refuse_a_negative_particle_id():
    with pytest.raises(ConfigError, match="particle_id must be nonnegative"):
        build_representation(NCParams(0.5, 0.5), "simple", particle_id=-1)


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
    with pytest.raises(DomainError):
        NCParams(10**400, 0.1)


#: The parameter constructors, each with one field set to ``big``, and the field's name.
BIG_INT_CASES = [
    (lambda big: NCParams(theta=big, eta=0.1), "theta"),
    (lambda big: NCParams(0.1, 0.1, mass=big), "mass"),
    (lambda big: MassConditions(big, 0.1), "gamma"),
    (lambda big: params_from_conditions(MassConditions(0.3, 0.2), big), "mass"),
    (lambda big: CompositeSystem.from_params([big], [0.1], [0.1]), "mass"),
    (lambda big: CompositeSystem.from_conditions(MassConditions(0.3, 0.2), [big]), "mass"),
]


@pytest.mark.parametrize("build,field", BIG_INT_CASES)
@pytest.mark.parametrize("big", [10**400, -(10**5000)], ids=["10**400", "-10**5000"])
def test_an_int_past_the_float_range_is_refused_by_field(build, field, big):
    # The message names the field and not the int, which Python refuses to
    # format past 4300 digits.
    with pytest.raises(DomainError, match=rf"^{field} is an int past the float range$"):
        build(big)


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


class _ScriptedGenerator:
    """A stand-in for numpy's generator: ``uniform`` returns scripted draws and logs its bounds."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.calls = []

    def uniform(self, *bounds):
        self.calls.append(bounds)
        return self.draws.pop(0)


def test_random_param_batch_skips_a_zero_product_after_one_draw(monkeypatch):
    # A zero product, then (product, log-ratio, coin) for a positive and a negative product.
    rng = _ScriptedGenerator([0.0, 0.25, 0.0, 0.1, -0.5, 0.0, 0.9])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    batch = random_param_batch(2, seed=0)
    product, ratio, coin = (-5.0, 1.0), (np.log(0.1), np.log(10.0)), ()
    assert rng.calls == [product, product, ratio, coin, product, ratio, coin]
    assert not rng.draws
    half = math.sqrt(0.5)
    assert [(q.theta, q.eta) for q in batch] == [(0.5, 0.5), (-half, half)]


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
@given(theta_prime=st.floats(), eta_prime=st.floats(), particle_id=st.integers(0, 5), as_numpy=st.booleans())
@example(theta_prime=math.inf, eta_prime=0.0, particle_id=0, as_numpy=False)  # nan scale, zero momentum shift
@example(theta_prime=1e308, eta_prime=1e308, particle_id=1, as_numpy=False)  # zero scale, finite shifts
@example(theta_prime=1e200, eta_prime=1e200, particle_id=0, as_numpy=True)  # a numpy product would warn
def test_epsilon_builder_matches_its_operator_expression_for_any_auxiliary_pair(
    theta_prime, eta_prime, particle_id, as_numpy
):
    # numpy arguments give the bits, or the refusal, of float ones, with no warning.
    number = np.float64 if as_numpy else float
    args = number(theta_prime), number(eta_prime)
    try:
        rep = build_epsilon_rep(NCParams(0.1, 0.2), *args, particle_id)
    except DomainError:
        with pytest.raises(DomainError):
            build_epsilon_rep(NCParams(0.1, 0.2), theta_prime, eta_prime, particle_id)
        return
    want = _scaled_shift_operators(particle_id, epsilon_factor(*args), 0.5 * theta_prime, 0.5 * eta_prime)
    for got, ref in zip(rep.forms(), want):
        assert _bits(got) == _bits(ref)
