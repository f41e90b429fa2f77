"""Linear-form arithmetic and the canonical commutator.

The commutator tests are checked against ``oracle_commutator`` below, a
deliberately naive reimplementation that walks every (term, term) pair and
looks the sign up in an explicit table.  It shares no code with the
package, so agreement is meaningful.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase import (
    CanonicalVar,
    CompositeSystem,
    ConfigError,
    LinearForm,
    NCParams,
    build_representation,
    commutator,
    form_distance,
    p1,
    p2,
    variable,
    x1,
    x2,
)
from ncphase.algebra import KINDS, _exact_sum
from ncphase.composite import com_rep_algebraic, com_rep_direct, com_simple_algebraic, com_simple_direct
from test_composite import column_coeffs


def oracle_commutator(a: LinearForm, b: LinearForm) -> float:
    """Brute-force sum of coeff_a(u) * coeff_b(v) * sigma(u, v) over all pairs."""
    total = 0.0
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if u.particle_id != v.particle_id or u.kind[1] != v.kind[1]:
                sign = 0.0
            elif u.is_coordinate and not v.is_coordinate:
                sign = 1.0
            elif not u.is_coordinate and v.is_coordinate:
                sign = -1.0
            else:
                sign = 0.0
            total += cu * cv * sign
    return total


def pair_loop_commutator(a: LinearForm, b: LinearForm) -> float:
    """The exhaustive pair loop: both signed products of every (particle, component) pair.

    The pairs are those either form touches.  An absent coefficient reads
    0.0, so an infinite or nan coefficient meets a 0.0 and gives nan.
    ``commutator`` must match it bit for bit (nan matching nan).
    """
    ta, tb = a._terms, b._terms
    pairs = {(pid, kind[1]) for pid, kind in ta} | {(pid, kind[1]) for pid, kind in tb}
    products = []
    for pid, comp in pairs:
        xv, pv = (pid, "x" + comp), (pid, "p" + comp)
        products.append(ta.get(xv, 0.0) * tb.get(pv, 0.0))
        products.append(-(ta.get(pv, 0.0) * tb.get(xv, 0.0)))
    return _exact_sum(products)


# --- hypothesis strategies -------------------------------------------------

coeffs = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def linear_forms(draw, max_particles: int = 3):
    n = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n):
        var = CanonicalVar(
            particle_id=draw(st.integers(min_value=0, max_value=max_particles - 1)),
            kind=draw(st.sampled_from(["x1", "x2", "p1", "p2"])),
        )
        terms[var] = draw(coeffs)
    return LinearForm(terms)


#: Every coefficient class the sum treats apart: signed zeros, subnormals,
#: products and sums that overflow, infinities and nan.
special_coeffs = column_coeffs | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def special_forms(draw):
    """A form over particles 0-3 whose coefficients may be non-finite."""
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(KINDS)), unique=True, max_size=8))
    return LinearForm({CanonicalVar(pid, kind): draw(special_coeffs) for pid, kind in keys})


# --- commutator values -----------------------------------------------------


def test_defining_pair():
    assert commutator(x1(), p1()) == 1.0
    assert commutator(x2(), p2()) == 1.0


def test_coordinates_commute():
    assert commutator(x1(), x2()) == 0.0
    assert commutator(p1(), p2()) == 0.0


def test_mixed_component_pairs_vanish():
    assert commutator(x1(), p2()) == 0.0
    assert commutator(x2(), p1()) == 0.0


def test_cross_particle_pairs_vanish():
    assert commutator(x1(0), p1(1)) == 0.0
    assert commutator(x1(7), p1(7)) == 1.0


def test_documented_mixed_form_example():
    # [2*x1 + 3*p2, x2 - p1] = 2*(-0) ... expanded by hand and by the oracle:
    # only (x1, p1) -> 2*(-1)*1 = -2 and (p2, x2) -> 3*1*(-1) = -3 survive.
    a = 2.0 * x1() + 3.0 * p2()
    b = x2() - p1()
    assert oracle_commutator(a, b) == -5.0
    assert commutator(a, b) == -5.0


def test_commutator_returns_a_float():
    assert type(commutator(x1(), p1())) is float


def test_nesting_is_a_type_error():
    inner = commutator(x1(), p1())
    with pytest.raises(TypeError):
        commutator(inner, x2())  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        commutator(x2(), inner)  # type: ignore[arg-type]


# --- commutator properties -------------------------------------------------


@given(linear_forms(), linear_forms())
def test_matches_oracle(a, b):
    got = commutator(a, b)
    want = oracle_commutator(a, b)
    assert got == pytest.approx(want, abs=1e-12)


@given(linear_forms(), linear_forms())
def test_antisymmetry_is_exact(a, b):
    assert commutator(a, b) == -commutator(b, a)


@settings(max_examples=200, deadline=None)
@given(special_forms(), special_forms())
def test_matches_the_pair_loop_bit_for_bit(a, b):
    assert commutator(a, b).hex() == pair_loop_commutator(a, b).hex()


@settings(deadline=None)
@given(special_forms(), special_forms())
def test_antisymmetry_is_bitwise_for_any_coefficient(a, b):
    # A zero result is +0.0 both ways (test_all_zero_products_give_positive_zero).
    ab, ba = commutator(a, b), commutator(b, a)
    assert ab.hex() == (-ba if ab != 0.0 else ba).hex()


@settings(max_examples=200)
@given(coeffs, linear_forms(), linear_forms(), linear_forms())
def test_bilinearity(alpha, a, b, c):
    lhs = commutator(alpha * a + b, c)
    rhs = alpha * commutator(a, c) + commutator(b, c)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(linear_forms())
def test_commutator_with_self_vanishes(a):
    assert commutator(a, a) == 0.0


# --- linear form arithmetic ------------------------------------------------


def test_zero_coefficients_are_dropped():
    f = x1() - x1()
    assert not f.terms
    g = LinearForm({CanonicalVar(0, "p2"): 0.0})
    assert not g.terms


def test_forms_are_immutable():
    f = x1()
    with pytest.raises(AttributeError):
        f._terms = {}  # type: ignore[misc]
    with pytest.raises(TypeError):
        f.terms[CanonicalVar(0, "x2")] = 1.0  # type: ignore[index]


def test_forms_carry_no_constant():
    assert not hasattr(x1(), "constant")
    with pytest.raises(TypeError):
        LinearForm({CanonicalVar(0, "x1"): 1.0}, constant=2.0)  # type: ignore[call-arg]


def test_linear_arithmetic():
    f = 2.0 * x1()
    g = f / 2.0
    assert g.coefficient(CanonicalVar(0, "x1")) == 1.0
    assert form_distance(-f, f * -1.0) == 0.0


@pytest.mark.parametrize(
    "combine",
    [lambda f: f + 1.0, lambda f: 1.0 + f, lambda f: 1.0 - f, lambda f: f - 2],
    ids=["form+1.0", "1.0+form", "1.0-form", "form-2"],
)
def test_a_number_is_not_a_form(combine):
    # A form is linear: adding or subtracting a number is a type error.
    with pytest.raises(TypeError):
        combine(x1())


@pytest.mark.parametrize(
    "combine",
    [lambda f: f * f, lambda f: f / f, lambda f: f + "a", lambda f: f - "a", lambda f: "a" * f],
    ids=["form*form", "form/form", "form+str", "form-str", "str*form"],
)
def test_operators_refuse_other_operands(combine):
    with pytest.raises(TypeError):
        combine(x1())


def test_repr_lists_terms_in_particle_and_kind_order():
    f = 0.5 * p2(1) - 2.0 * x1(1) + 3.0 * x2()
    assert repr(f) == "LinearForm(+3*x2[0] -2*x1[1] +0.5*p2[1])"
    assert repr(x1() - x1()) == "LinearForm(0)"


def test_scalar_times_form_commutes():
    f = x1() + 0.5 * p2()
    assert form_distance(3 * f, f * 3) == 0.0


def test_variable_factories_agree():
    assert form_distance(variable("x2", 5), x2(5)) == 0.0
    with pytest.raises(ConfigError):
        variable("q1")
    with pytest.raises(ConfigError):
        CanonicalVar(-1, "x1")


def test_numpy_scalars_become_python_floats():
    # A numpy scalar must not reach a coefficient: its repr differs in reports.
    np = pytest.importorskip("numpy")
    half = np.float64(0.5)
    forms = [half * x1(), x1() * half, x1() / half, -(half * x1()), LinearForm({CanonicalVar(0, "x1"): half})]
    for f in forms:
        assert all(type(c) is float for c in f.terms.values())


def test_no_two_forms_share_a_term_dict():
    # A form adopts the dict it is built from, so each builder and operator
    # must hand over a fresh one.  The forms below stay alive together, so
    # their dicts' ids are distinct exactly when no dict is shared.
    a = x1() + 0.5 * p2() - 2.0 * x2(1)
    b = LinearForm({CanonicalVar(0, "x1"): -1.0, CanonicalVar(1, "p1"): 3.0})
    zero = x1() - x1()
    forms = [a, b, zero, x1(), x1(), variable("p1", 2), LinearForm(b.terms)]
    forms += [a + b, b + a, a + zero, zero + a, a - b, a - zero, zero - a, -a, -zero]
    forms += [a * 2.0, 2.0 * a, a * 1.0, a * 0.0, a / 4.0, a / 1.0, zero * 3.0]
    p = NCParams(0.3, 0.2)
    for family, branch in (("branch", "minus"), ("branch", "plus"), ("simple", None), ("epsilon_general", None)):
        for particle_id in (0, 0, 3):
            forms += build_representation(p, family, branch, particle_id=particle_id).forms()
    system = CompositeSystem([NCParams(0.3, 0.2, mass=1.0), NCParams(0.1, 0.4, mass=2.0)])
    forms += com_rep_algebraic(system).forms() + com_simple_algebraic(system).forms()
    forms += com_rep_direct(system) + com_simple_direct(system)
    assert len({id(f._terms) for f in forms}) == len(forms)
    # The dict a caller passes to the constructor stays the caller's.
    given_terms = {CanonicalVar(0, "x2"): 1.5}
    f = LinearForm(given_terms)
    given_terms[CanonicalVar(0, "x2")] = 7.0
    assert f.terms == {CanonicalVar(0, "x2"): 1.5}


def test_trusted_forms_drop_exact_zeros_and_keep_their_key_order():
    xs = [CanonicalVar(0, kind) for kind in KINDS]
    for coeffs in ([1.0, 0.0, -2.0, 4.0], [2.0, -0.0, 1.0, 3.0], [-0.0, math.nan, 0.0, math.inf],
                   [math.nan, -1.0, 2.0, 5e-324]):
        terms = dict(zip(reversed(xs), coeffs))
        want = [(v, c) for v, c in terms.items() if c != 0.0]
        got = list(LinearForm._trusted(dict(terms))._terms.items())
        assert [v for v, _ in got] == [v for v, _ in want]
        assert [c.hex() for _, c in got] == [c.hex() for _, c in want]
    # A dict without an exact zero becomes the form's terms as it is.
    terms = {xs[2]: math.nan, xs[0]: -1.5}
    assert LinearForm._trusted(terms)._terms is terms


@given(linear_forms(), linear_forms(), coeffs)
def test_arithmetic_keeps_the_key_order_of_its_terms(a, b, s):
    # The order the dict comprehensions and the merge produce, zeros dropped.
    def kept(pairs):
        return [v for v, c in pairs if c != 0.0]

    merged = dict(a.terms)
    for v, c in b.terms.items():
        merged[v] = merged.get(v, 0.0) + c
    assert list((a + b).terms) == kept(merged.items())
    assert list((-a).terms) == kept(a.terms.items())
    assert list((a * s).terms) == kept((v, s * c) for v, c in a.terms.items())


@given(linear_forms(), linear_forms(), linear_forms())
def test_addition_associates_to_tolerance(a, b, c):
    assert form_distance((a + b) + c, a + (b + c)) <= 1e-14 * 30.0


# --- comparison helpers ----------------------------------------------------


def test_form_distance_reflexive():
    assert form_distance(x1(), x1()) == 0.0


def test_form_distance_is_the_subtolerance_term():
    a = x1() + 1e-16 * p2()
    assert form_distance(a, x1()) == 1e-16


def test_form_distance_distinguishes_basis_variables():
    assert form_distance(x1(), x2()) == 1.0


def test_form_distance_is_the_largest_coefficient_gap():
    assert form_distance(x1(), p1()) == 1.0
    assert math.isclose(form_distance(2.0 * x1(), x1() + 0.25 * p2()), 1.0)


def test_form_distance_needs_two_forms():
    with pytest.raises(TypeError, match="two LinearForm operands"):
        form_distance(x1(), 1.0)  # type: ignore[arg-type]


def test_sum_is_exact_under_cancellation():
    # The products 1e16, 1 and -1e16 lose the 1 in any left-to-right sum.
    a = 1e16 * x1(0) + x1(1) - 1e16 * x1(2)
    b = p1(0) + p1(1) + p1(2)
    assert commutator(a, b) == 1.0
    assert commutator(b, a) == -1.0


def test_opposite_infinite_products_give_nan():
    a = LinearForm({CanonicalVar(0, "x1"): math.inf, CanonicalVar(0, "p1"): math.inf})
    b = x1() + p1()
    assert math.isnan(commutator(a, b))


_huge = st.sampled_from([1.5e308, -1.5e308, sys.float_info.max, -sys.float_info.max])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | _huge, max_size=6))
def test_exact_sum_is_order_free_and_correctly_rounded(values):
    # The oracle is the exact rational sum, rounded once; beyond the float
    # range it reads inf with its sign.
    exact = sum(map(Fraction, values))
    try:
        want = float(exact)
    except OverflowError:
        want = math.inf if exact > 0 else -math.inf
    got = {_exact_sum(list(order)).hex() for order in permutations(values)}
    assert len(got) == 1
    assert float.fromhex(got.pop()) == want


@pytest.mark.parametrize(
    "values,want",
    [
        ([1e308, 1e308, -math.inf], -math.inf),
        ([1e308, math.inf, 1e308], math.inf),
        ([math.inf, -1e308, -math.inf], math.nan),
        ([1.5e308, math.nan, 1.5e308], math.nan),
    ],
)
def test_exact_sum_of_non_finite_values_is_order_free(values, want):
    got = {_exact_sum(list(order)).hex() for order in permutations(values)}
    assert got == {want.hex()}


# --- canonical variables ---------------------------------------------------


def test_canonical_var_validates_its_fields():
    with pytest.raises(ConfigError, match="particle_id must be nonnegative"):
        CanonicalVar(-1, "x1")
    with pytest.raises(ConfigError, match="unknown canonical variable kind"):
        CanonicalVar(0, "q1")
    with pytest.raises(ConfigError, match="unknown canonical variable kind"):
        CanonicalVar(particle_id=-1, kind="q1")  # the kind is checked first


def test_canonical_var_accessors():
    v = CanonicalVar(3, "p2")
    assert (v.particle_id, v.kind) == (3, "p2")
    assert v.is_coordinate is False
    assert CanonicalVar(0, "x1").is_coordinate is True
    assert str(v) == "p2[3]"


def test_canonical_var_is_its_field_tuple():
    # A key hashes and compares as its plain (particle_id, kind) tuple, so
    # dict order and lookups match the tuple's.
    v = CanonicalVar(3, "p2")
    assert hash(v) == hash((3, "p2"))
    assert v == (3, "p2")
    assert {(3, "p2"): 1.0}[v] == 1.0
    assert v != (3, "x2")


def test_plain_tuple_keys_are_rejected():
    with pytest.raises(TypeError, match="term keys must be CanonicalVar"):
        LinearForm({(0, "x1"): 1.0})


def test_tuple_api_validates_too():
    v = CanonicalVar(3, "p2")
    with pytest.raises(ConfigError):
        v._replace(kind="q1")
    with pytest.raises(ConfigError):
        CanonicalVar._make((-2, "x1"))
    w = v._replace(particle_id=1)
    assert type(w) is CanonicalVar and w == CanonicalVar(1, "p2")


def test_particle_variables_are_the_constructed_ones():
    got = CanonicalVar._particle(4)
    assert got == tuple(CanonicalVar(4, kind) for kind in KINDS)
    assert all(type(v) is CanonicalVar for v in got)
    with pytest.raises(ConfigError) as direct:
        CanonicalVar(-1, "x1")
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ConfigError) as batch:
            CanonicalVar._particle(-1)
        assert str(batch.value) == str(direct.value) == "particle_id must be nonnegative, got -1"
    # Built once per id and shared; an id keeps its own type.
    assert CanonicalVar._particle(4) is got
    assert [type(v.particle_id) for v in CanonicalVar._particle(True)] == [bool] * 4
    assert [type(v.particle_id) for v in CanonicalVar._particle(1)] == [int] * 4


# --- commutator edge semantics ---------------------------------------------


def test_infinite_coefficient_against_a_missing_variable_gives_nan():
    # The absent partner coefficient is 0.0, and inf * 0.0 is nan.
    a = LinearForm({CanonicalVar(0, "x1"): math.inf})
    for partnerless in (x2(), p1(1)):
        assert math.isnan(commutator(a, partnerless))
        assert math.isnan(commutator(partnerless, a))


@pytest.mark.parametrize(
    "a,b",
    [
        (x1(), x2()),
        (-x1(), x2()),
        (p2(), -x1()),
        (-x1(), -x1()),
        (-x1(), p1(1)),
        (-2.0 * x1() - p2(), x1() + p2() - p1(1)),
        (LinearForm(), LinearForm()),
    ],
)
def test_all_zero_products_give_positive_zero(a, b):
    for r in (commutator(a, b), commutator(b, a)):
        assert r == 0.0
        assert math.copysign(1.0, r) == 1.0
