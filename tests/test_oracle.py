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

from ncphase import CompositeSystem, MassConditions, NCParams, build_branch_rep
from ncphase.algebra import CanonicalVar
from ncphase.composite import effective_params
from ncphase.representation import primed_params

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
