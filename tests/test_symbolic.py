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
  the minus branch's, coefficient by coefficient, for 0 < theta*eta <= 1;
* the eight coefficients a, ..., h of each family's shift row give its
  commutator table exactly: (theta, eta, 1) on both branches,
  (theta, eta, 1 + theta*eta/4) for the simple family and
  (eps^2*theta', eps^2*eta', 1) for the scaled shift;
* under theta_a = gamma/m_a and eta_a = alpha*m_a the algebraic and direct
  centre-of-mass routes have equal columns, entry by entry, for N = 2 and
  3 symbolic masses;
* Heisenberg's equations of free fall, derived from the table
  [X1, X2] = theta, [P1, P2] = eta, [Xi, Pi] = d, hold no mass under the
  conditions and do at fixed (theta, eta), and the closed form that
  ``tests/test_oracle.py`` holds the integrator against solves them;
* for two particles, with dX = X^(a) - X^(b), dP = mu*(P^(a)/m_a - P^(b)/m_b)
  and mu = m_a*m_b/M, all 16 brackets of (X_c, P_c) with (dX, dP) vanish
  under the conditions; without them [X1_c, dX2] = (theta_a*m_a -
  theta_b*m_b)/M and [P1_c, dP2] = mu*(eta_a/m_a - eta_b/m_b); and the
  kinetic energy sum_a P^(a)^2/(2m_a) is P_c^2/(2M) + dP^2/(2mu);
* the closed-form flow of ``dynamics._flow`` solves dw/dt = C w + c: for a
  generic 2x2 C, E = e^(tau t) [cosh(delta t) I + sinh(delta t)/delta (C - tau I)]
  with delta^2 = ((C00 - C11)/2)^2 + C01 C10 has E' = C E and E(0) = I; for
  C = u v^T, so that C^2 = (tr C) C, F = t c + t^2 phi2(t tr C) C c has
  F' = C F + c and F(0) = 0.

A few float points tie each restatement to the code it restates.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
import sympy as sp

from ncphase import CompositeSystem, MassConditions, NCParams, build_representation, commutator, primed_params
from ncphase.dynamics import _flow
from ncphase.composite import com_rep_algebraic, com_rep_direct, com_simple_algebraic, com_simple_direct
from ncphase.representation import _coeff_forms, _epsilon_coeffs, _shift_coeffs, _shift_terms, _swap_row, _swap_scale
from test_oracle import _free_fall

THETA, ETA = sp.symbols("theta eta", real=True)
S = sp.sqrt(1 - THETA * ETA)

#: (theta', eta') of each branch, as ``primed_params`` documents them.
PRIMED = {
    "minus": (2 * THETA / (1 + S), 2 * ETA / (1 + S)),
    "plus": (2 / ETA * (1 + S), 2 / THETA * (1 + S)),
}
#: (k^2, c, m) of each branch's shift map and of the simple family's, as ``_shift_coeffs`` computes them.
SHIFT = {
    "minus": ((1 + S) / 2, THETA / (1 + S), ETA / (1 + S)),
    "plus": (THETA * ETA / (2 * (1 + S)), (1 + S) / ETA, (1 + S) / THETA),
    "simple": (1, THETA / 2, ETA / 2),
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
    """(k, k*-c, k, k*c, k, k*m, k, k*-m) of a (k^2, c, m) triple, as ``_shift_terms`` lays them out."""
    k = sp.sqrt(k2)
    return (k, -k * c, k, k * c, k, k * m, k, -k * m)


def _swap(row, r):
    """(X1, X2, P1, P2) -> (-r*P2, r*P1, X2/r, -X1/r) on a row's forms, as ``_swap_row`` lays it out."""
    a, b, c, d, e, f, g, h = row
    return (-r * h, -r * g, r * f, r * e, d / r, c / r, -b / r, -a / r)


#: The minus row's coefficients, and the swap map's image of the plus row.
MINUS_EIGHT = _row(*SHIFT["minus"])
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
        minus = _shift_terms(*_shift_coeffs(theta, eta, "branch", "minus"))
        swapped = _swap_row(_shift_terms(*_shift_coeffs(theta, eta, "branch", "plus")), r)
        assert minus == pytest.approx([_at(e, theta, eta) for e in MINUS_EIGHT], rel=1e-15, abs=0.0)
        assert swapped == pytest.approx([_at(e, theta, eta) for e in SWAPPED_PLUS], rel=1e-15, abs=0.0)


# --- the commutator table of the eight coefficients ---------------------------------

#: The slots a, ..., h of each form, in the layout of ``_coeff_forms``:
#: X1 = a*x1 + b*p2, X2 = c*x2 + d*p1, P1 = e*p1 + f*x2, P2 = g*p2 + h*x1.
LAYOUT = ({"x1": 0, "p2": 1}, {"x2": 2, "p1": 3}, {"p1": 4, "x2": 5}, {"p2": 6, "x1": 7})
#: The six independent commutators, as ``_commutator_checks`` orders them.
PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def _commutator(u: dict, v: dict):
    """[u, v]/(i*hbar) of two forms given as kind -> coefficient: [xi, pj] = delta_ij, all else commutes."""
    return sum(u.get("x" + i, 0) * v.get("p" + i, 0) - u.get("p" + i, 0) * v.get("x" + i, 0) for i in "12")


def _table(coeffs) -> list:
    """The six commutators of the forms of eight coefficients, in the order of ``PAIRS``."""
    forms = [{kind: coeffs[slot] for kind, slot in form.items()} for form in LAYOUT]
    return [_commutator(forms[i], forms[j]) for i, j in PAIRS]


TP, EP = sp.symbols("theta_p eta_p", real=True)
EPS2 = 1 / (1 + TP * EP / 4)
#: Per family: its (theta, eta)-like symbols, its (k^2, c, m), its
#: (coordinate, momentum, diagonal) table, the code's (k, c, m) at a float
#: point, and points where the row is real.
FAMILIES = {
    "minus": (
        (THETA, ETA), SHIFT["minus"], (THETA, ETA, 1),
        lambda x, y: _shift_coeffs(x, y, "branch", "minus"), POINTS["minus"],
    ),
    "plus": (
        (THETA, ETA), SHIFT["plus"], (THETA, ETA, 1),
        lambda x, y: _shift_coeffs(x, y, "branch", "plus"), POINTS["plus"],
    ),
    "simple": (
        (THETA, ETA), SHIFT["simple"], (THETA, ETA, 1 + THETA * ETA / 4),
        lambda x, y: _shift_coeffs(x, y, "simple", None), [(0.5, 0.5), (-0.3, 2.0), (3.0, -5.0), (0.0, 0.4)],
    ),
    "epsilon": (
        (TP, EP), (EPS2, TP / 2, EP / 2), (EPS2 * TP, EPS2 * EP, 1),
        _epsilon_coeffs, [(0.5, 0.5), (1.0, -2.0), (-3.0, 1.0), (2.0, 7.0)],
    ),
}


def test_table_of_the_eight_coefficients():
    a, b, c, d, e, f, g, h = slots = sp.symbols("a:h")
    want = [a * d - b * c, f * g - e * h, a * e - b * f, c * g - d * h, 0, 0]
    assert [sp.expand(v) for v in _table(slots)] == want


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_row_gives_its_table(family):
    (x, y), shift, (coordinate, momentum, diagonal), code, points = FAMILIES[family]
    table = _table(_row(*shift))
    want = [coordinate, momentum, diagonal, diagonal, 0, 0]
    for got, expected in zip(table, want):
        assert _is_zero(got - expected)
    for px, py in points:
        forms = _coeff_forms(0, _shift_terms(*code(px, py)))
        measured = [commutator(forms[i], forms[j]) for i, j in PAIRS]
        exact = [float(sp.sympify(v).subs({x: px, y: py})) for v in want]
        assert measured == pytest.approx(exact, rel=1e-15, abs=0.0)


# --- the two centre-of-mass routes as expressions ------------------------------------

GAMMA, ALPHA = sp.symbols("gamma alpha", real=True)
#: The slots m_a/M weights on each route, as ``_route_columns`` places it:
#: the direct route weights the X1 and X2 slots, the algebraic route the
#: x-kind slots.
WEIGHTED = {"direct": {0, 1, 2, 3}, "algebraic": {0, 2, 5, 7}}
#: Per route family: its (k^2, c, m) of (theta, eta), and the code's two routes' forms.
ROUTES = {
    "minus": (SHIFT["minus"], lambda s: com_rep_algebraic(s, "minus").forms(), lambda s: com_rep_direct(s, "minus")),
    "plus": (SHIFT["plus"], lambda s: com_rep_algebraic(s, "plus").forms(), lambda s: com_rep_direct(s, "plus")),
    "simple": (SHIFT["simple"], lambda s: com_simple_algebraic(s).forms(), com_simple_direct),
}


#: Float masses for each symbolic particle count.
MASS_POINTS = {2: (1.0, 3.0), 3: (0.5, 2.0, 7.0)}


def _columns(rows, weights, route):
    """The eight columns of one row per particle, weighted by m_a/M on the route's slots."""
    return [
        [w * row[j] if j in WEIGHTED[route] else row[j] for row, w in zip(rows, weights)] for j in range(8)
    ]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ROUTES)
def test_conditioned_routes_agree_as_expressions(family, n):
    shift, algebraic, direct = ROUTES[family]
    masses = sp.symbols(f"m1:{n + 1}", positive=True)
    M = sum(masses)
    thetas = [GAMMA / m for m in masses]
    etas = [ALPHA * m for m in masses]
    # effective_params: theta_eff = sum m_a^2 theta_a / M^2, eta_eff = sum eta_a.
    theta_eff = sp.cancel(sum(m * m * t for m, t in zip(masses, thetas)) / M**2)
    eta_eff = sp.factor(sum(etas))
    assert _is_zero(theta_eff - GAMMA / M) and _is_zero(eta_eff - ALPHA * M)

    def row(theta, eta):
        return _row(*(sp.sympify(v).xreplace({THETA: theta, ETA: eta}) for v in shift))

    weights = [m / M for m in masses]
    routes = {
        "algebraic": _columns([row(theta_eff, eta_eff)] * n, weights, "algebraic"),
        "direct": _columns([row(t, e) for t, e in zip(thetas, etas)], weights, "direct"),
    }
    for alg, dir_ in zip(*routes.values()):
        for u, v in zip(alg, dir_):
            assert _is_zero(u - v)
    # alpha*gamma > 0, so both branches exist.
    point = MASS_POINTS[n]
    values = {route: sp.lambdify([*masses, GAMMA, ALPHA], cols, "mpmath") for route, cols in routes.items()}
    for cond in (MassConditions(gamma=0.3, alpha=0.2), MassConditions(gamma=-2.0, alpha=-0.1)):
        system = CompositeSystem.from_conditions(cond, point)
        for route, forms in (("algebraic", algebraic(system)), ("direct", direct(system))):
            with mpmath.workdps(30):
                exact = values[route](*point, cond.gamma, cond.alpha)
            for form, slots in zip(forms, LAYOUT):
                got = {(var.particle_id, var.kind): c for var, c in form.terms.items()}
                want = {(a, kind): float(exact[j][a]) for kind, j in slots.items() for a in range(n)}
                assert got == pytest.approx(want, rel=1e-15, abs=0.0)


# --- (d) free fall from the table -----------------------------------------------------

MASS, G, D, T = sp.symbols("m g d t", real=True)
X1, X2, P1, P2, V1, V2 = sp.symbols("X1 X2 P1 P2 V1 V2")
#: Initial data: X(0) and dX/dt at t = 0.
X10, X20, U1, U2 = sp.symbols("X10 X20 U1 U2", real=True)


def _free_fall_rates(theta, eta, d) -> list:
    """d/dt of (X1, X2, V1, V2), V = P/m, under H = (P1^2 + P2^2)/(2m) + m*g*X2, in X and V.

    dA/dt = [A, H]/(i*hbar).  H is a sum of words in the generators, and by
    the Leibniz rule [A, w1 w2] = [A, w1] w2 + w1 [A, w2], where each
    [A, wk]/(i*hbar) is a number of the table, so every rate is linear in
    the generators.
    """
    table = {(X1, X2): theta, (P1, P2): eta, (X1, P1): d, (X2, P2): d}

    def bracket(a, b):
        return table.get((a, b), 0) - table.get((b, a), 0)

    words = [(1 / (2 * MASS), (P1, P1)), (1 / (2 * MASS), (P2, P2)), (MASS * G, (X2,))]

    def rate(a):
        return sum(k * bracket(a, w[i]) * sp.Mul(*w[:i], *w[i + 1:]) for k, w in words for i in range(len(w)))

    rates = [rate(X1), rate(X2), rate(P1) / MASS, rate(P2) / MASS]
    return [sp.expand(r.subs({P1: MASS * V1, P2: MASS * V2})) for r in rates]


#: d of each family's table under the conditions: 1, or 1 + theta*eta/4 = 1 + alpha*gamma/4.
DIAGONALS = {"branch": sp.Integer(1), "simple": 1 + ALPHA * GAMMA / 4}


@pytest.mark.parametrize("family", DIAGONALS)
def test_free_fall_equations_hold_no_mass_under_the_conditions(family):
    d = DIAGONALS[family]
    rates = _free_fall_rates(GAMMA / MASS, ALPHA * MASS, d)
    want = [d * V1 + GAMMA * G, d * V2, ALPHA * V2, -ALPHA * V1 - d * G]
    assert [sp.expand(r - w) for r, w in zip(rates, want)] == [0, 0, 0, 0]
    assert not any(MASS in r.free_symbols for r in rates)
    # At fixed (theta, eta) the mass stays: dX1/dt = d*V1 + theta*m*g, dV1/dt = eta*V2/m.
    fixed = _free_fall_rates(THETA, ETA, D)
    assert [MASS in r.free_symbols for r in fixed] == [True, False, True, True]


def _closed_form(d):
    """(X1, X2, V1, V2) at time T: V - V* turns at rate alpha about V* = (-d*g/alpha, 0), X integrates it."""
    w1, w2 = (U1 - GAMMA * G) / d + d * G / ALPHA, U2 / d  # V(0) - V*
    s, c = sp.sin(ALPHA * T), sp.cos(ALPHA * T)
    v = (-d * G / ALPHA + w1 * c + w2 * s, -w1 * s + w2 * c)
    x = (X10 + d * (w1 * s + w2 * (1 - c)) / ALPHA + (GAMMA - d * d / ALPHA) * G * T,
         X20 + d * (w1 * (c - 1) + w2 * s) / ALPHA)
    return (*x, *v)


@pytest.mark.parametrize("family", DIAGONALS)
def test_closed_form_solves_the_free_fall_equations(family):
    d = DIAGONALS[family]
    path = _closed_form(d)
    rates = _free_fall_rates(GAMMA / MASS, ALPHA * MASS, d)
    at_path = dict(zip((X1, X2, V1, V2), path))
    for z, r in zip(path, rates):
        assert sp.expand(sp.diff(z, T) - r.xreplace(at_path)) == 0
    # The initial data: X(0), and dX/dt(0) through the equations.
    start = [sp.expand(v.subs(T, 0)) for v in path]
    assert start[:2] == [X10, X20]
    assert [sp.cancel(r.xreplace(dict(zip((X1, X2, V1, V2), start)))) for r in rates[:2]] == [U1, U2]
    # Float points tie it to the oracle's closed form (alpha != 0).
    x = sp.lambdify([GAMMA, ALPHA, G, X10, X20, U1, U2, T], path[:2], "mpmath")
    for gamma, alpha, g, data, t in [(0.3, 0.2, 2.0, (0.2, 0.1, 1.0, -0.5), 7.0),
                                     (-0.5, -0.4, 1.0, (0.0, 1.0, 0.3, 0.7), 3.25)]:
        with mpmath.workdps(30):
            dd = 1 + mpmath.mpf(alpha) * mpmath.mpf(gamma) / 4 if family == "simple" else mpmath.mpf(1)
            want = _free_fall(gamma, alpha, dd, g, data, t)
            got = x(gamma, alpha, g, *data, t)
        assert [float(v) for v in got] == pytest.approx([float(v) for v in want], rel=1e-15, abs=0.0)


# --- (e) centre of mass and relative motion --------------------------------------------

MA, MB = sp.symbols("m_a m_b", positive=True)
M_AB = MA + MB
MU = MA * MB / M_AB
#: Each particle's generators (X1, X2, P1, P2); the two particles' generators commute.
GENERATORS = {a: sp.symbols(f"X1_{a} X2_{a} P1_{a} P2_{a}") for a in "ab"}
XA, XB = GENERATORS["a"], GENERATORS["b"]
#: (X1_c, X2_c, P1_c, P2_c): the mass-weighted coordinates and the summed momenta.
COM = (*((MA * XA[i] + MB * XB[i]) / M_AB for i in (0, 1)), *(XA[i] + XB[i] for i in (2, 3)))
#: (dX1, dX2, dP1, dP2): dX = X^(a) - X^(b) and dP = mu*(P^(a)/m_a - P^(b)/m_b).
RELATIVE = (*(XA[i] - XB[i] for i in (0, 1)), *(MU * (XA[i] / MA - XB[i] / MB) for i in (2, 3)))
THETA_A, THETA_B, ETA_A, ETA_B = sp.symbols("theta_a theta_b eta_a eta_b", real=True)


def _pair_bracket(u, v, tables):
    """[u, v]/(i*hbar) of two linear combinations of both particles' generators.

    ``tables[a]`` is particle a's (theta, eta, d): [X1, X2] = theta,
    [P1, P2] = eta and [Xi, Pi] = d; the particles' generators commute.
    """
    u, v = sp.expand(u), sp.expand(v)
    total = 0
    for a, (x1, x2, p1, p2) in GENERATORS.items():
        theta, eta, d = tables[a]
        for (g, h), c in {(x1, x2): theta, (p1, p2): eta, (x1, p1): d, (x2, p2): d}.items():
            total += c * (u.coeff(g) * v.coeff(h) - u.coeff(h) * v.coeff(g))
    return sp.cancel(total)


#: Each family's diagonal d of (theta, eta): 1 on the branches, 1 + theta*eta/4 for the simple family.
DIAGONAL_OF = {"branch": lambda theta, eta: sp.Integer(1), "simple": lambda theta, eta: 1 + theta * eta / 4}


@pytest.mark.parametrize("family", DIAGONAL_OF)
def test_centre_of_mass_commutes_with_the_relative_motion_under_the_conditions(family):
    d = DIAGONAL_OF[family]
    tables = {a: (GAMMA / m, ALPHA * m, d(GAMMA / m, ALPHA * m)) for a, m in (("a", MA), ("b", MB))}
    brackets = [[_pair_bracket(u, v, tables) for v in RELATIVE] for u in COM]
    # Every bracket is a number, so [P_c^2, dP^2] = sum of 2 [P_ci, dP_j] (P_ci dP_j + dP_j P_ci)
    # vanishes with them: the two kinetic terms below commute as well.
    assert brackets == [[0] * 4] * 4


def test_centre_of_mass_and_relative_motion_couple_without_the_conditions():
    d_a, d_b = sp.symbols("d_a d_b", real=True)
    tables = {"a": (THETA_A, ETA_A, d_a), "b": (THETA_B, ETA_B, d_b)}
    x1_c, _, p1_c, _ = COM
    _, dx2, _, dp2 = RELATIVE
    assert _is_zero(_pair_bracket(x1_c, dx2, tables) - (THETA_A * MA - THETA_B * MB) / M_AB)
    assert _is_zero(_pair_bracket(p1_c, dp2, tables) - MU * (ETA_A / MA - ETA_B / MB))


def test_kinetic_energy_splits_into_centre_of_mass_and_relative_terms():
    # Each square holds one momentum component of the two particles, and
    # those commute, so commuting symbols prove the operator identity.
    total = sum((g[2] ** 2 + g[3] ** 2) / (2 * m) for g, m in ((XA, MA), (XB, MB)))
    split = (COM[2] ** 2 + COM[3] ** 2) / (2 * M_AB) + (RELATIVE[2] ** 2 + RELATIVE[3] ** 2) / (2 * MU)
    assert sp.cancel(total - split) == 0


@pytest.mark.parametrize(
    "system",
    [
        CompositeSystem([NCParams(0.3, 0.2, mass=1.5), NCParams(-0.1, 0.4, mass=2.5)]),
        CompositeSystem.from_conditions(MassConditions(gamma=0.3, alpha=0.2), (1.5, 2.5)),
    ],
    ids=["fixed", "conditioned"],
)
def test_centre_of_mass_brackets_are_the_code_brackets(system):
    # The code's X1_c and P1_c against dX2 and dP2 built from each particle's own forms.
    (ma, mb), (ta, tb), (ea, eb) = system.masses, system.thetas, system.etas
    x1_c, _, p1_c, _ = com_rep_direct(system)
    rep_a, rep_b = (build_representation(p, "branch", "minus", particle_id=a) for a, p in enumerate(system.particles))
    mu = ma * mb / system.total_mass
    point = {MA: ma, MB: mb, THETA_A: ta, THETA_B: tb, ETA_A: ea, ETA_B: eb}
    want = [float(((THETA_A * MA - THETA_B * MB) / M_AB).subs(point)),
            float((MU * (ETA_A / MA - ETA_B / MB)).subs(point))]
    got = [commutator(x1_c, rep_a.X2 - rep_b.X2), commutator(p1_c, rep_a.P2 * (mu / ma) - rep_b.P2 * (mu / mb))]
    assert got == pytest.approx(want, rel=1e-14, abs=1e-16)


# --- the closed-form flow -------------------------------------------------------

T = sp.symbols("t", real=True)


def _exp_flow(C, delta):
    """E(t) of ``dynamics._flow`` for a 2x2 C and a symbol or value delta with delta^2 = h^2 + C01 C10."""
    tau = C.trace() / 2
    return sp.exp(tau * T) * (sp.cosh(delta * T) * sp.eye(2) + sp.sinh(delta * T) / delta * (C - tau * sp.eye(2)))


def _affine_flow(C, c):
    """F(t) of ``dynamics._flow``: t c + t^2 phi2(t tr C) C c."""
    y = C.trace() * T
    return T * c + T**2 * (sp.exp(y) - 1 - y) / y**2 * C * c


def test_exponential_flow_solves_the_linear_equation():
    # delta is a symbol tied to C by eliminating C10 = (delta^2 - h^2)/C01,
    # which covers every C with C01 != 0, and the rest by continuity.
    c00, c01, c10, c11, delta = sp.symbols("C00 C01 C10 C11 delta")
    C = sp.Matrix([[c00, c01], [c10, c11]])
    E = _exp_flow(C, delta)
    h = (c00 - c11) / 2
    residual = (E.diff(T) - C * E).subs(c10, (delta**2 - h**2) / c01)
    assert all(sp.simplify(x) == 0 for x in residual)
    assert E.subs(T, 0) == sp.eye(2)


def test_affine_flow_solves_the_affine_equation_for_a_rank_one_C():
    u0, u1, v0, v1, c0, c1 = sp.symbols("u0 u1 v0 v1 c0 c1")
    C, c = sp.Matrix([[u0 * v0, u0 * v1], [u1 * v0, u1 * v1]]), sp.Matrix([c0, c1])
    assert sp.expand(C * C - C.trace() * C) == sp.zeros(2, 2)
    F = _affine_flow(C, c)
    assert all(sp.simplify(x) == 0 for x in F.diff(T) - C * F - c)
    assert [sp.limit(x, T, 0) for x in F] == [0, 0]


def test_flow_is_the_code_flow():
    # A rank-one C, as free and gravity drifts give, and a rank-two one, as
    # the oscillator gives; times inside and past the series cut-off.
    for C, c in ((np.array([[0.3j, 0.5], [-0.18, 0.3j]]), np.array([0.25 - 1j, 2.0])),
                 (np.array([[-0.1j, 0.5], [-2.0, -0.1j]]), np.zeros(2, complex))):
        times = np.array([0.0, 0.01, 0.7, 5.0])
        E, F, _ = _flow(C[None], c[None], times)
        Cs, cs = sp.Matrix(C.tolist()), sp.Matrix(c.tolist())
        delta = sp.sqrt(((Cs[0, 0] - Cs[1, 1]) / 2) ** 2 + Cs[0, 1] * Cs[1, 0])
        for k, t in enumerate(times):
            want_E = _exp_flow(Cs, delta).subs(T, t).evalf(30) if t else sp.eye(2)
            want_F = _affine_flow(Cs, cs).subs(T, t).evalf(30) if t and c.any() else sp.zeros(2, 1)
            assert np.abs(E[0, k] - np.array(want_E.tolist(), dtype=complex)).max() <= 1e-15
            assert np.abs(F[0, k] - np.array(want_F.tolist(), dtype=complex).ravel()).max() <= 1e-15
