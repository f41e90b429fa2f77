"""Symbolic proofs of the branch closed forms, as identities in theta and eta.

The closed forms of ``representation.primed_params`` and
``representation._shift_coeffs`` are restated in sympy with
s = sqrt(1 - theta*eta), and the identities they rest on are proved for
symbolic theta and eta, not sampled:

* ``primed_params`` inverts theta = theta'/(1 + theta'*eta'/4) and its eta
  twin, on both branches;
* the epsilon scaled shift (eps, theta'/2, eta'/2) of the primed pair, with
  eps = 1/sqrt(1 + theta'*eta'/4), is each branch's (k, c, m); k is compared
  as k^2, which holds the same fact without nested roots.

A few float points tie each restatement to the code it restates.
"""

from __future__ import annotations

import pytest
import sympy as sp

from ncphase import NCParams, primed_params
from ncphase.representation import _shift_coeffs

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
