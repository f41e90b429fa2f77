"""Accuracy claims checked against an independent mpmath oracle.

The oracle evaluates the textbook formulas, not the rewrites the package
uses: the branch coefficients through (1 -+ s) with s = sqrt(1 - theta*eta),
and the effective parameters as plain sums.  Its precision is raised for
tiny products, where 1 - s needs as many digits as the product has
leading zeros.  Errors are measured in units in the last place of the
value the package returns.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ncphase import CompositeSystem, MassConditions, NCParams, build_branch_rep, build_representation
from ncphase.algebra import CanonicalVar
from ncphase.composite import effective_params
from ncphase.dynamics import wep_trajectories
from ncphase.representation import epsilon_factor, params_from_conditions, primed_params

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

#: First-order rounding bound of the branch coefficients: s = sqrt(1 - q)
#: (two roundings), 1 +- s, one quotient and one square root for k, one
#: quotient for c or m and the product k*c or k*m, summed with the error
#: each inherits, stays under 4 ulp.  The minus-branch oracle divides by
#: eta where the code divides by (1 + s)/theta, which adds at most the
#: half ulp of the rounded product.
BRANCH_ULPS = 4.0


def ulps(got: float, exact) -> float:
    """|got - exact| in units of the last place of ``got``."""
    return float(abs(mpf(got) - exact) / mpf(math.ulp(got)))


def _digits(q: float) -> int:
    # 1 - s is about q/2: keep 50 significant digits after its leading zeros.
    return 50 + max(0, -math.floor(math.log10(abs(q))))


def _oracle(theta: float, eta: float, q: float, branch: str) -> dict[str, object]:
    """k, k*c, k*m and (theta', eta') from the paper's formulas, at the rounded product q."""
    with mpmath.workdps(_digits(q)):
        s = mpmath.sqrt(1 - mpf(q))
        w = 1 - s if branch == "minus" else 1 + s
        k = mpmath.sqrt(mpf(q) / (2 * w))
        return {
            "k": +k,
            "kc": k * w / mpf(eta),
            "km": k * w / mpf(theta),
            "theta'": 2 * w / mpf(eta),
            "eta'": 2 * w / mpf(theta),
        }


def _measured(p: NCParams, branch: str) -> dict[str, float]:
    rep = build_branch_rep(p, branch)
    theta_prime, eta_prime = primed_params(p, branch)
    return {
        "k": rep.X1.coefficient(CanonicalVar(0, "x1")),
        "kc": rep.X2.coefficient(CanonicalVar(0, "p1")),
        "km": rep.P1.coefficient(CanonicalVar(0, "x2")),
        "theta'": theta_prime,
        "eta'": eta_prime,
    }


def _pairs(products, seed: int):
    """(theta, eta) with about the given products, random ratio and signs."""
    rng = np.random.default_rng(seed)
    for q in products:
        ratio = float(10 ** rng.uniform(-3.0, 3.0))
        theta, eta = math.sqrt(abs(q) * ratio), math.sqrt(abs(q) / ratio)
        if q < 0:
            eta = -eta
        if rng.uniform() < 0.5:
            theta, eta = -theta, -eta
        yield theta, eta


_TINY = [10.0 ** -e for e in range(1, 301)]  # theta*eta -> 0+
_NEAR_ONE = [1.0 - 2.0 ** -e for e in range(1, 53)]  # theta*eta -> 1-
_NEGATIVE = [-(10.0 ** e) for e in range(-300, 20)]  # theta*eta < 0, minus branch only

CASES = [("minus", _TINY), ("plus", _TINY), ("minus", _NEAR_ONE), ("plus", _NEAR_ONE),
         ("minus", _NEGATIVE)]


@pytest.mark.parametrize("branch,products", CASES, ids=["minus-tiny", "plus-tiny", "minus-near-one",
                                                         "plus-near-one", "minus-negative"])
def test_branch_coefficients_match_the_oracle(branch, products):
    for theta, eta in _pairs(products, seed=len(products)):
        p = NCParams(theta, eta)
        want = _oracle(theta, eta, p.product, branch)
        for name, got in _measured(p, branch).items():
            assert ulps(got, want[name]) <= BRANCH_ULPS, (branch, theta, eta, name)


@pytest.mark.parametrize(
    "theta_prime,eta_prime",
    [(1e200, 1e200), (4e155, 4e155), (-3e160, -7e170), (1e308, 1e308), (1.7976931348623157e308,) * 2],
)
def test_epsilon_factor_matches_the_oracle_where_the_radicand_overflows(theta_prime, eta_prime):
    # 1 + theta'*eta'/4 is inf in floats; eps = 1/sqrt of it is not 0 but
    # about 2/sqrt(theta'*eta'): two square roots and two quotients, 2 ulp.
    with mpmath.workdps(60):
        exact = 1 / mpmath.sqrt(1 + mpf(theta_prime) * mpf(eta_prime) / 4)
        assert ulps(epsilon_factor(theta_prime, eta_prime), exact) <= 2.0


def test_effective_params_are_correctly_rounded():
    # theta_eff = sum m^2 theta / M^2 and eta_eff = sum eta, rounded once:
    # within half an ulp of the 50-digit value.
    rng = np.random.default_rng(20260814)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        masses = (10 ** rng.uniform(-3.0, 3.0, n)).tolist()
        if trial % 3 == 0:
            system = CompositeSystem.from_conditions(MassConditions(0.3, -0.2), masses)
        else:
            system = CompositeSystem.from_params(
                masses, rng.uniform(-1.0, 1.0, n).tolist(), rng.uniform(-1.0, 1.0, n).tolist()
            )
        theta_eff, eta_eff = effective_params(system)
        with mpmath.workdps(50):
            M = mpmath.fsum(mpf(a.mass) for a in system.particles)
            num = mpmath.fsum(mpf(a.mass) ** 2 * mpf(a.theta) for a in system.particles)
            eta_sum = mpmath.fsum(mpf(a.eta) for a in system.particles)
            for got, exact in ((theta_eff, num / M**2), (eta_eff, eta_sum)):
                assert ulps(got, exact) <= 0.5 * (1 + 1e-20), (trial, got)


# --- free fall against the paper's closed form ------------------------------------
#
# With [X1, X2] = theta, [P1, P2] = eta, [Xi, Pi] = d (d = 1 for the branch
# family, 1 + alpha*gamma/4 for the simple one), H = P^2/(2m) + m*g*X2 and
# the conditions theta = gamma/m, eta = alpha*m, the velocity V = P/m obeys
# dV1/dt = alpha*V2, dV2/dt = -alpha*V1 - d*g, and dX/dt = d*V + (gamma*g, 0).
# So V - V* turns at rate alpha about V* = (-d*g/alpha, 0), X is its
# integral, and no mass appears.  alpha = 0 (a parabola) is left out.

#: (gamma, alpha, (X1, X2, dX1/dt, dX2/dt) at t = 0, g, t_end, dt); criterion 9's settings first.
FREE_FALL_CASES = [
    (0.01, 0.01, (0.0, 0.0, 1.0, 0.0), 1.0, 10.0, 0.01),
    (0.3, 0.2, (0.0, 0.0, 1.0, 0.0), 1.0, 10.0, 0.01),
    (0.3, 0.2, (0.2, 0.1, 1.0, -0.5), 2.0, 10.0, 0.01),
    (-0.5, -0.4, (0.2, 0.1, 1.0, -0.5), 1.0, 10.0, 0.01),  # both negative: the plus branch exists
    (0.3, -0.2, (0.2, 0.1, 1.0, -0.5), 1.0, 10.0, 0.01),  # alpha*gamma < 0: no plus branch
    (1.5, 0.5, (0.0, 1.0, 0.3, 0.7), 0.5, 10.0, 0.05),
    (0.3, 0.2, (0.0, 0.0, 1.0, 0.0), 9.8, 2.0, 0.01),  # simulate --wep's defaults
]
FREE_FALL_MASSES = (1e-3, 0.1, 1.0, 2.0, 50.0, 1e3, 1e5, 1e9)
#: Largest |X - X_exact| over every 50th step, in units of the case's largest
#: |X_exact|.  Measured over these cases with the Padé exponential: at most
#: 1.9e-13 (plus branch, m = 1e3), 3.5e-14 absolute at m = 1; its masses
#: 1e5 and above read 8.8e-13 or more.  The closed-form flow keeps every
#: mass, 1e5 and 1e9 included, under the same bound.
FREE_FALL_BOUND = 4e-13


def _free_fall(gamma: float, alpha: float, d, g: float, data, t: float) -> tuple:
    """(X1, X2) at time t of the mass-free closed form, in the working precision."""
    X10, X20, U1, U2 = map(mpf, data)
    gamma, alpha, g, t = mpf(gamma), mpf(alpha), mpf(g), mpf(t)
    W1, W2 = (U1 - gamma * g) / d + d * g / alpha, U2 / d  # V(0) - V*
    s, c = mpmath.sin(alpha * t), mpmath.cos(alpha * t)
    I1, I2 = (W1 * s + W2 * (1 - c)) / alpha, (W1 * (c - 1) + W2 * s) / alpha  # integral of V - V*
    return X10 + d * I1 + (gamma - d * d / alpha) * g * t, X20 + d * I2


@pytest.mark.parametrize(
    "family,branch,gamma,alpha,data,g,t_end,dt",
    [(family, branch, *case) for case in FREE_FALL_CASES
     for family, branch in [("branch", "minus"), ("branch", "plus"), ("simple", None)]
     if branch != "plus" or case[0] * case[1] > 0],  # the plus branch needs alpha*gamma > 0
)
def test_free_fall_matches_the_closed_form_at_every_mass(family, branch, gamma, alpha, data, g, t_end, dt):
    c = MassConditions(gamma, alpha)
    reps = [build_representation(params_from_conditions(c, m), family, branch) for m in FREE_FALL_MASSES]
    runs = wep_trajectories(reps, data, g, t_end, dt)
    samples = range(0, len(runs[0][1].times), 50)
    with mpmath.workdps(40):
        d = 1 + mpf(alpha) * mpf(gamma) / 4 if family == "simple" else mpf(1)
        want = [_free_fall(gamma, alpha, d, g, data, runs[0][1].times[i]) for i in samples]
        scale = max(abs(x) for point in want for x in point)
        for m, (_, traj) in zip(FREE_FALL_MASSES, runs):
            err = max(abs(mpf(traj.nc_observables[i, k]) - point[k]) for i, point in zip(samples, want) for k in (0, 1))
            assert err <= FREE_FALL_BOUND * scale, (m, float(err / scale))
