"""Symbolic proofs of the branch closed forms, as identities in theta and eta.

The closed forms of ``representation.primed_params`` and
``representation._shift_coeffs`` are restated in sympy with
s = sqrt(1 - theta*eta), and the identities they rest on are proved for
symbolic theta and eta, not sampled:

* ``primed_params`` inverts theta = theta'/(1 + theta'*eta'/4) and its eta
  twin, on both branches;
* the epsilon scaled shift (eps, theta'/2, eta'/2) of the primed pair, with
  eps = 1/sqrt(1 + theta'*eta'/4), is each branch's (k, c, m); k is compared
  as k^2, which holds the same fact without nested roots;
* the branch swap map (X1, X2, P1, P2) -> (-r*P2, r*P1, X2/r, -X1/r),
  r = sign(theta)*sqrt(theta/eta), carries the plus branch's shift row onto
  the minus branch's, coefficient by coefficient, for 0 < theta*eta <= 1.

A few float points tie each restatement to the code it restates.
"""

from __future__ import annotations

import pytest
import sympy as sp

from ncphase import NCParams, primed_params
from ncphase.representation import _row_coeffs, _shift_coeffs, _shift_terms, _swap_row, _swap_scale

THETA, ETA = sp.symbols("theta eta", real=True)
S = sp.sqrt(1 - THETA * ETA)

#: (theta', eta') of each branch, as ``primed_params`` documents them.
PRIMED = {
    "minus": (2 * THETA / (1 + S), 2 * ETA / (1 + S)),
    "plus": (2 / ETA * (1 + S), 2 / THETA * (1 + S)),
}
#: (k^2, c, m) of each branch's shift map, as ``_shift_coeffs`` computes them.
SHIFT = {
    "minus": ((1 + S) / 2, THETA / (1 + S), ETA / (1 + S)),
    "plus": (THETA * ETA / (2 * (1 + S)), (1 + S) / ETA, (1 + S) / THETA),
}
#: (theta, eta) points inside each branch's domain: minus theta*eta < 1, plus 0 < theta*eta <= 1.
POINTS = {
    "minus": [(0.5, 0.5), (-0.3, 2.0), (1e-3, 7.0), (0.0, 0.4)],
    "plus": [(0.5, 0.5), (-0.3, -2.0), (4.0, 0.25), (1e-3, 7.0)],
}


def _is_zero(expr) -> bool:
    return sp.simplify(expr) == 0


def _at(expr, theta: float, eta: float) -> float:
    return float(expr.subs({THETA: theta, ETA: eta}))


@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_primed_params_invert_the_target_pair(branch):
    tp, ep = PRIMED[branch]
    scale = 1 + tp * ep / 4
    assert _is_zero(tp / scale - THETA)
    assert _is_zero(ep / scale - ETA)
    for theta, eta in POINTS[branch]:
        got = primed_params(NCParams(theta, eta), branch)
        assert got == pytest.approx((_at(tp, theta, eta), _at(ep, theta, eta)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_epsilon_shift_of_the_primed_pair_is_the_branch_shift(branch):
    tp, ep = PRIMED[branch]
    k2, c, m = SHIFT[branch]
    assert _is_zero(1 / (1 + tp * ep / 4) - k2)
    assert _is_zero(tp / 2 - c)
    assert _is_zero(ep / 2 - m)
    for theta, eta in POINTS[branch]:
        k, c_got, m_got = _shift_coeffs(theta, eta, "branch", branch)
        want = (_at(k2, theta, eta), _at(c, theta, eta), _at(m, theta, eta))
        assert (k * k, c_got, m_got) == pytest.approx(want, rel=1e-15, abs=0.0)


def _row(k2, c, m):
    """(k, k*-c, k*c, k*m, k*-m) of a (k^2, c, m) triple, as ``_shift_terms`` lays it out."""
    k = sp.sqrt(k2)
    return (k, -k * c, k * c, k * m, -k * m)


def _eight(row):
    """The eight coefficients of a row's forms, as ``_row_coeffs`` lays them out."""
    k, k_mc, k_c, k_m, k_mm = row
    return (k, k_mc, k, k_c, k, k_m, k, k_mm)


def _swap(row, r):
    """(X1, X2, P1, P2) -> (-r*P2, r*P1, X2/r, -X1/r) on a row's forms, as ``_swap_row`` lays it out."""
    k, k_mc, k_c, k_m, k_mm = row
    return (-r * k_mm, -r * k, r * k_m, r * k, k_c / r, k / r, -k_mc / r, -k / r)


#: The minus row's coefficients, and the swap map's image of the plus row.
MINUS_EIGHT = _eight(_row(*SHIFT["minus"]))
SWAPPED_PLUS = _swap(_row(*SHIFT["plus"]), sp.sign(THETA) * sp.sqrt(THETA / ETA))


@pytest.mark.parametrize("sign", [1, -1])
def test_swap_map_carries_the_plus_row_onto_the_minus_row(sign):
    # Every (theta, eta) of one sign with 0 < theta*eta <= 1 is
    # theta = sign*a, eta = sign*4t^2/(a(1 + t^2)^2) for some a > 0 and
    # 0 < t <= 1, where s = (1 - t^2)/(1 + t^2) >= 0 is sqrt(1 - theta*eta).
    a, t = sp.symbols("a t", positive=True)
    s = (1 - t**2) / (1 + t**2)
    point = {THETA: sign * a, ETA: sign * 4 * t**2 / (a * (1 + t**2) ** 2)}
    assert _is_zero(s**2 - (1 - THETA * ETA).subs(point))
    for want, got in zip(MINUS_EIGHT, SWAPPED_PLUS):
        # factor(deep=True) writes sqrt(t^4 + 2t^2 + 1) as t^2 + 1.
        assert _is_zero(sp.factor((got - want).xreplace({S: s}).subs(point), deep=True))
    for theta, eta in (pt for pt in POINTS["plus"] if pt[0] * sign > 0):
        r = _swap_scale(NCParams(theta, eta))
        minus = _row_coeffs(_shift_terms(*_shift_coeffs(theta, eta, "branch", "minus")))
        swapped = _swap_row(_shift_terms(*_shift_coeffs(theta, eta, "branch", "plus")), r)
        assert minus == pytest.approx([_at(e, theta, eta) for e in MINUS_EIGHT], rel=1e-15, abs=0.0)
        assert swapped == pytest.approx([_at(e, theta, eta) for e in SWAPPED_PLUS], rel=1e-15, abs=0.0)
