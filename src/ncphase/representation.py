"""Canonical-variable representations of the noncommutative plane algebra.

The target algebra for one particle of mass ``m`` is

    [X1, X2] = i*hbar*theta,   [P1, P2] = i*hbar*eta,
    [Xi, Pj] = i*hbar*delta_ij            (general family)
    [Xi, Pj] = i*hbar_eff*delta_ij        (simple family),

realised by linear forms over ordinary canonical variables.  Three
constructions are provided:

* ``build_epsilon_rep`` -- the scaled shift with free auxiliary parameters
  (theta', eta') and overall factor eps = 1/sqrt(1 + theta'*eta'/4);
* ``build_branch_rep`` -- the two closed-form solutions ("plus"/"minus"
  branch) obtained by matching (theta', eta') to the target (theta, eta);
* ``build_simple_rep`` -- the unscaled shift, which keeps the coordinate
  and momentum tables exact at the price of a rescaled diagonal
  hbar_eff = hbar*(1 + theta*eta/4).

The minus branch is the physical default: it reduces to the identity map
when both parameters vanish.  The plus branch survives the same limit only
as a fixed symplectic swap of coordinates and momenta.

Mass-independent kinematics enter through :class:`MassConditions`: tying
theta = gamma/m and eta = alpha*m makes theta*eta = alpha*gamma for every
mass, so all mass dependence of the representations is explicit and the
coordinate forms become universal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .algebra import CanonicalVar, LinearForm, check_tolerance, commutator
from .errors import ConfigError, DegenerateError, DomainError, NCPhaseError
from .reports import CheckRecord, CheckReport

FAMILIES = ("epsilon_general", "branch", "simple")
BRANCHES = ("plus", "minus")

#: Default coefficient-wise tolerance for verification routines.
DEFAULT_TOL = 1e-12


def _require_positive_mass(mass: float) -> None:
    """Refuse a mass that is not positive, NaN included: the one home of that message."""
    if not mass > 0:
        raise DomainError(f"mass must be positive, got {mass}")


def _as_float(name: str, value: float, error: type[NCPhaseError] = DomainError) -> float:
    """``value`` as a float; a value math.isfinite cannot read, such as a string, raises its TypeError.

    An int past the float range raises ``error``, the class of the caller's
    finite-value check, naming the field without its digits: Python refuses
    to format an int of more than 4300 of them.
    """
    try:
        math.isfinite(value)
    except OverflowError:
        raise error(f"{name} is an int past the float range") from None
    return float(value)


@dataclass(frozen=True)
class NCParams:
    """Noncommutativity parameters for one particle.

    ``theta`` is the coordinate-coordinate parameter, ``eta`` the
    momentum-momentum one.  Either may be negative or zero; the product
    ``theta*eta`` governs which representations exist.  Like every scalar
    of the package, both are coefficients of i*hbar: hbar is the unit, not
    an input.
    """

    theta: float
    eta: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        for name in ("theta", "eta", "mass"):
            value = getattr(self, name)
            # stored as float, so a numpy scalar's overflow warnings stay out of the builders
            number = _as_float(name, value)
            if not math.isfinite(number):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, number)
        _require_positive_mass(self.mass)

    @property
    def product(self) -> float:
        return self.theta * self.eta


def random_param_batch(n: int, seed: int) -> list[NCParams]:
    """n random parameter pairs with product in (-5, 1), never zero."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        product = float(rng.uniform(-5.0, 1.0))
        if product == 0.0:
            continue
        ratio = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        ta = np.sqrt(abs(product) * ratio)
        ea = np.sqrt(abs(product) / ratio)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        out.append(NCParams(theta=float(sign * ta), eta=float((sign if product > 0 else -sign) * ea)))
    return out


@dataclass(frozen=True)
class MassConditions:
    """Mass-coupling constants gamma (theta = gamma/m) and eta = alpha*m."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        # Stored as float, as NCParams stores its fields; NaN and inf are refused where used.
        for name in ("gamma", "alpha"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))

    @property
    def product(self) -> float:
        """alpha*gamma == theta*eta for every mass tied to these constants."""
        return self.alpha * self.gamma


@dataclass(frozen=True)
class Representation:
    """Four linear forms realising the noncommutative algebra.

    ``particle_id`` is the canonical-variable index the forms live on for
    single-particle constructions, or ``None`` for centre-of-mass forms
    spanning several particles.
    """

    X1: LinearForm
    X2: LinearForm
    P1: LinearForm
    P2: LinearForm
    family: str
    params: NCParams
    branch: str | None = None
    particle_id: int | None = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.branch is not None and self.branch not in BRANCHES:
            raise ConfigError(f"unknown branch {self.branch!r}; expected one of {BRANCHES}")

    def forms(self) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
        return (self.X1, self.X2, self.P1, self.P2)

    @staticmethod
    def form_names() -> tuple[str, str, str, str]:
        return ("X1", "X2", "P1", "P2")

    def expected_table(self) -> tuple[float, float, float]:
        """Expected (coordinate, momentum, diagonal) commutator scalars."""
        return (self.params.theta, self.params.eta, _diagonal(self.family, self.params.product))


def _diagonal(family: str, product: float) -> float:
    """The [Xi, Pi] table entry: 1 + theta*eta/4 for the simple family, else 1."""
    return 1.0 + product / 4.0 if family == "simple" else 1.0


def _branch_root(theta: float, eta: float, branch: str) -> tuple[bool, float, float]:
    """(minus, theta*eta, s = sqrt(1 - theta*eta)) shared by both branch constructions."""
    if branch not in BRANCHES:
        raise ConfigError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    product = theta * eta
    if product > 1.0:
        raise DomainError(
            f"theta*eta = {product} exceeds 1; sqrt(1 - theta*eta) is not real"
        )
    return branch == "minus", product, math.sqrt(1.0 - product)


def epsilon_factor(theta_prime: float, eta_prime: float) -> float:
    """Overall scale eps = 1/sqrt(1 + theta'*eta'/4) of the scaled shift.

    Where theta'*eta'/4 overflows, 1 + 4/(theta'*eta') rounds to 1 and eps is
    2/sqrt(|theta'*eta'|), taken one factor at a time so that nothing overflows.
    """
    theta_prime, eta_prime = _as_float("theta_prime", theta_prime), _as_float("eta_prime", eta_prime)
    radicand = 1.0 + theta_prime * eta_prime / 4.0
    if radicand <= 0.0:
        raise DomainError(
            f"1 + theta'*eta'/4 = {radicand} is not positive; no real scale factor exists"
        )
    if radicand == math.inf:
        return 2.0 / math.sqrt(abs(theta_prime)) / math.sqrt(abs(eta_prime))
    return 1.0 / math.sqrt(radicand)


def primed_params(p: NCParams, branch: str) -> tuple[float, float]:
    """Auxiliary (theta', eta') reproducing the target (theta, eta).

    Inverts theta = theta'/(1 + theta'*eta'/4) and its eta twin.  Writing
    s = sqrt(1 - theta*eta), the two solutions are

        minus: theta' = 2*theta/(1 + s),   eta' = 2*eta/(1 + s)
        plus:  theta' = (2/eta)*(1 + s),   eta' = (2/theta)*(1 + s)

    The minus form shown here is the algebraic rewrite of
    (2/eta)*(1 - s); it is exact, avoids cancellation for small
    theta*eta, and extends continuously to theta*eta = 0.  The plus
    branch diverges there.
    """
    return _primed_params(p.theta, p.eta, branch)


def _primed_params(theta: float, eta: float, branch: str) -> tuple[float, float]:
    """:func:`primed_params` of the bare (theta, eta) floats."""
    minus, product, s = _branch_root(theta, eta, branch)
    if minus:
        return 2.0 * theta / (1.0 + s), 2.0 * eta / (1.0 + s)
    if product == 0.0:  # theta or eta vanishes, or their product underflows
        raise DegenerateError(
            "plus-branch auxiliary parameters diverge when theta or eta vanishes"
        )
    return (2.0 / eta) * (1.0 + s), (2.0 / theta) * (1.0 + s)


def _shift_coeffs(theta: float, eta: float, family: str, branch: str | None) -> tuple[float, float, float]:
    """(k, c, m) of a family's shift map: the one home of each family's closed form.

    branch: with s = sqrt(1 - theta*eta) the prefactor is
    sqrt(theta*eta/(2*(1 -+ s))) and the shift coefficients are
    (1 -+ s)/eta for coordinates and (1 -+ s)/theta for momenta (upper sign:
    minus branch).  The minus-branch radicand is rewritten exactly as
    (1 + s)/2 and its shifts as theta/(1 + s), eta/(1 + s), which stay finite
    and correct through theta*eta = 0 (where the map degenerates gracefully
    to the identity).  The plus branch has radicand (1 - s)/2, which vanishes
    at theta*eta = 0 and turns negative for theta*eta < 0; both cases are
    rejected.  simple: (1, theta/2, eta/2).  epsilon_general: the scaled
    shift of the branch's :func:`primed_params`.
    """
    if family == "branch":
        minus, product, s = _branch_root(theta, eta, branch)
        if minus:
            return math.sqrt((1.0 + s) / 2.0), theta / (1.0 + s), eta / (1.0 + s)
        if product == 0.0:
            raise DegenerateError(
                "plus branch is undefined at theta*eta = 0: its prefactor vanishes "
                "while the shift coefficients diverge"
            )
        if product < 0.0:
            raise DomainError(
                f"plus branch needs theta*eta > 0; the radicand (1 - s)/2 is negative "
                f"for theta*eta = {product}"
            )
        # 1 - s rewritten as product/(1 + s): exact, and immune to the
        # catastrophic cancellation of 1 - sqrt(1 - q) for small q.
        return math.sqrt(product / (2.0 * (1.0 + s))), (1.0 + s) / eta, (1.0 + s) / theta
    if family == "simple":
        if not math.isfinite(theta * eta):
            raise DomainError(
                f"theta*eta = {theta * eta} overflows; the diagonal 1 + theta*eta/4 is not finite"
            )
        return 1.0, 0.5 * theta, 0.5 * eta
    if family == "epsilon_general":
        return _epsilon_coeffs(*_primed_params(theta, eta, branch))
    raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _epsilon_coeffs(theta_prime: float, eta_prime: float) -> tuple[float, float, float]:
    """(eps, theta'/2, eta'/2): the scaled shift of explicit auxiliary parameters."""
    return epsilon_factor(theta_prime, eta_prime), 0.5 * theta_prime, 0.5 * eta_prime


def _shift_terms(k: float, c: float, m: float) -> tuple[float, ...]:
    """(k, k*-c, k, k*c, k, k*m, k, k*-m): the shift map's coefficients, laid out as in :func:`_coeff_forms`.

    The forms are X1 = k*(x1 - c*p2), X2 = k*(x2 + c*p1), P1 = k*(p1 + m*x2),
    P2 = k*(p2 - m*x1).  Each coefficient is the one product the chained
    ``LinearForm`` expression rounds, refused unless finite.
    """
    kc, km = k * c, k * m
    if not (-math.inf < k < math.inf and -math.inf < kc < math.inf and -math.inf < km < math.inf):
        raise DomainError(f"representation coefficients are not finite: k = {k}, k*c = {kc}, k*m = {km}")
    return k, -kc, k, kc, k, km, k, -km


def _coeff_forms(particle_id: int, coeffs: Sequence[float]) -> tuple[LinearForm, LinearForm, LinearForm, LinearForm]:
    """X1 = a*x1 + b*p2, X2 = c*x2 + d*p1, P1 = e*p1 + f*x2, P2 = g*p2 + h*x1 of coeffs (a, ..., h).

    An exact zero drops its term.
    """
    a, b, c, d, e, f, g, h = coeffs
    x1v, x2v, p1v, p2v = CanonicalVar._particle(particle_id)
    return (
        LinearForm._trusted({x1v: a, p2v: b}),
        LinearForm._trusted({x2v: c, p1v: d}),
        LinearForm._trusted({p1v: e, x2v: f}),
        LinearForm._trusted({p2v: g, x1v: h}),
    )


def _swap_row(row: Sequence[float], r: float) -> tuple[float, ...]:
    """The swap map (X1, X2, P1, P2) -> (-r*P2, r*P1, X2/r, -X1/r) of a row's forms.

    Both ``row`` and the image are laid out as in :func:`_coeff_forms`; each
    image coefficient is the one product the ``LinearForm`` expression
    rounds.  On the identity row it is the plus branch's commutative limit.
    """
    a, b, c, d, e, f, g, h = row
    q = 1.0 / r
    return -r * h, -r * g, r * f, r * e, q * d, q * c, -q * b, -q * a


def read_branch(family: str, branch: str | None) -> str | None:
    """The branch a build of ``family`` reads, as reports give it: None for the simple family, else ``branch``."""
    return None if family == "simple" else branch


def _shift_rep(
    p: NCParams, family: str, branch: str | None, particle_id: int, coeffs: tuple[float, float, float] | None = None
) -> Representation:
    """The representation of a shift triple, by default the family's own, recording the branch it read."""
    row = _shift_terms(*(_shift_coeffs(p.theta, p.eta, family, branch) if coeffs is None else coeffs))
    forms = _coeff_forms(particle_id, row)
    return Representation(*forms, family, p, read_branch(family, branch), particle_id)


def build_epsilon_rep(
    p: NCParams,
    theta_prime: float,
    eta_prime: float,
    particle_id: int = 0,
) -> Representation:
    """Scaled-shift representation with explicit auxiliary parameters.

    X1 = eps*(x1 - theta'/2 * p2),  X2 = eps*(x2 + theta'/2 * p1),
    P1 = eps*(p1 + eta'/2 * x2),    P2 = eps*(p2 - eta'/2 * x1),

    with eps chosen so the diagonal commutators come out at exactly hbar.
    The coordinate and momentum tables then read eps^2*theta' and
    eps^2*eta'.
    """
    coeffs = _epsilon_coeffs(_as_float("theta_prime", theta_prime), _as_float("eta_prime", eta_prime))
    return _shift_rep(p, "epsilon_general", None, particle_id, coeffs)


def build_branch_rep(p: NCParams, branch: str, particle_id: int = 0) -> Representation:
    """Closed-form representation for a target (theta, eta), either branch (see :func:`_shift_coeffs`)."""
    return _shift_rep(p, "branch", branch, particle_id)


def build_simple_rep(p: NCParams, particle_id: int = 0) -> Representation:
    """Unscaled shift: exact (theta, eta) tables, rescaled diagonal.

    X1 = x1 - theta/2 * p2, X2 = x2 + theta/2 * p1, P1 = p1 + eta/2 * x2,
    P2 = p2 - eta/2 * x1.  The diagonal commutators come out at
    hbar_eff = hbar*(1 + theta*eta/4) instead of hbar.  Any finite
    theta*eta is allowed; a product that overflows is rejected.
    """
    return _shift_rep(p, "simple", None, particle_id)


def build_representation(
    p: NCParams,
    family: str,
    branch: str | None = None,
    particle_id: int = 0,
) -> Representation:
    """Dispatch on family name; ``branch`` defaults to the physical minus."""
    return _shift_rep(p, family, branch or "minus", particle_id)


def effective_planck(p: NCParams) -> float:
    """hbar_eff/hbar = 1 + theta*eta/4: the simple family's diagonal scale."""
    return _diagonal("simple", p.product)


def params_from_conditions(c: MassConditions, mass: float) -> NCParams:
    """Parameters theta = gamma/m, eta = alpha*m for one particle.

    The product theta*eta = alpha*gamma is then the same for every mass,
    which is what makes the resulting kinematics mass-independent.
    """
    mass = _as_float("mass", mass)  # a numpy scalar would warn of overflow before NCParams refuses it
    _require_positive_mass(mass)
    if c.product >= 1.0:
        raise DomainError(
            f"alpha*gamma = {c.product} must stay below 1 so that theta*eta < 1 for every mass"
        )
    return NCParams(theta=c.gamma / mass, eta=c.alpha * mass, mass=mass)


# ---------------------------------------------------------------------------
# verification


def _commutator_checks(
    operands, commute, expected: tuple[float, float, float], tol: float, prefix: str = ""
) -> list[CheckRecord]:
    """The six independent commutators of four operands (X1, X2, P1, P2), checked against their table.

    ``commute(a, b)`` gives the scalar of [a, b]; ``expected`` is the
    (coordinate, momentum, diagonal) table, and the off-diagonal
    coordinate-momentum entries are expected to vanish.  A commutator whose
    exact value lies past the float range is refused, not recorded as inf.
    """
    tol = check_tolerance(tol)
    theta, eta, diag = expected
    X1, X2, P1, P2 = operands
    checks = [
        CheckRecord.within(prefix + "[X1,X2]", theta, commute(X1, X2), tol),
        CheckRecord.within(prefix + "[P1,P2]", eta, commute(P1, P2), tol),
        CheckRecord.within(prefix + "[X1,P1]", diag, commute(X1, P1), tol),
        CheckRecord.within(prefix + "[X2,P2]", diag, commute(X2, P2), tol),
        CheckRecord.within(prefix + "[X1,P2]", 0.0, commute(X1, P2), tol),
        CheckRecord.within(prefix + "[X2,P1]", 0.0, commute(X2, P1), tol),
    ]
    for check in checks:
        if not math.isfinite(check.measured):
            raise DomainError(f"the commutator {check.name} overflows the float range")
    return checks


def _layout_row(rep: Representation) -> list[float] | None:
    """The row a ... h of a one-particle representation laid out as in :func:`_coeff_forms`, else None.

    An absent term reads 0.0, as :func:`_coeff_forms` drops an exact zero.
    None for centre-of-mass forms (``particle_id`` None), for a form with a
    term outside the layout, and for a coefficient that is not finite.
    """
    pid = rep.particle_id
    if pid is None:
        return None
    # Keys equal their plain tuples, so no CanonicalVar is built here.
    x1v, x2v, p1v, p2v = (pid, "x1"), (pid, "x2"), (pid, "p1"), (pid, "p2")
    t1, t2, t3, t4 = rep.X1._terms, rep.X2._terms, rep.P1._terms, rep.P2._terms
    row = [
        t1.get(x1v, 0.0), t1.get(p2v, 0.0), t2.get(x2v, 0.0), t2.get(p1v, 0.0),
        t3.get(p1v, 0.0), t3.get(x2v, 0.0), t4.get(p2v, 0.0), t4.get(x1v, 0.0),
    ]
    # A form holds no exact zero, so the layout terms present are the row's nonzeros: the forms
    # hold no other term exactly when their sizes add up to that count.
    if len(t1) + len(t2) + len(t3) + len(t4) != 8 - row.count(0.0) or not all(map(math.isfinite, row)):
        return None
    return row


def _row_table(row: Sequence[float]) -> dict[tuple[str, str], float]:
    """The commutators of a finite row's forms, keyed by pairs of form names.

    Each entry of the diagonal blocks is one difference of the two products
    that :func:`commutator`'s walk pairs, every other product it sums being
    a zero, so the difference rounds their exact sum once, as ``commutator``
    does.  ``+ 0.0`` turns a -0.0 into the 0.0 that ``math.fsum`` gives, and
    [X1,P2] and [X2,P1] pair no partners.  Every entry thus equals
    ``commutator`` of the row's forms bit for bit, an overflow included.
    """
    a, b, c, d, e, f, g, h = row
    return {
        ("X1", "X2"): a * d - b * c + 0.0,
        ("P1", "P2"): f * g - e * h + 0.0,
        ("X1", "P1"): a * e - b * f + 0.0,
        ("X2", "P2"): c * g - d * h + 0.0,
        ("X1", "P2"): 0.0,
        ("X2", "P1"): 0.0,
    }


def verify_nc_algebra(
    rep: Representation,
    expect_theta: float | None = None,
    expect_eta: float | None = None,
    expect_diag: float | None = None,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Measure all six independent commutators and compare to expectations.

    Expectations default to the representation's own family table and are
    stored as floats.  The off-diagonal coordinate-momentum commutators are
    always expected to vanish.  A one-particle representation in the shift
    layout has its table read from its eight coefficients
    (:func:`_row_table`), equal to :func:`commutator` bit for bit; any other
    goes through ``commutator``.
    """
    table_theta, table_eta, table_diag = rep.expected_table()
    expected = (
        table_theta if expect_theta is None else _as_float("expect_theta", expect_theta, ConfigError),
        table_eta if expect_eta is None else _as_float("expect_eta", expect_eta, ConfigError),
        table_diag if expect_diag is None else _as_float("expect_diag", expect_diag, ConfigError),
    )
    row = _layout_row(rep)
    if row is None:
        operands, commute = rep.forms(), commutator
    else:
        table = _row_table(row)
        operands, commute = rep.form_names(), lambda a, b: table[a, b]
    checks = tuple(_commutator_checks(operands, commute, expected, tol))
    meta = {
        "family": rep.family,
        "branch": rep.branch,
        "theta": rep.params.theta,
        "eta": rep.params.eta,
    }
    return CheckReport(kind="verification", checks=checks, meta=meta)


def branch_transform_duality(p: NCParams) -> dict[str, tuple[LinearForm, LinearForm]]:
    """The symplectic map sending the plus-branch forms onto the minus ones.

    Returns, for each minus-branch form, the pair (minus form, mapped plus
    form) where the map is

        X1- = -r * P2+,   X2- = +r * P1+,
        P1- = +X2+ / r,   P2- = -X1+ / r,

    with scale r = sign(theta)*sqrt(theta/eta).  For positive parameters
    this is the plain root sqrt(theta/eta); when both parameters are
    negative (the ratio is still positive) the scale must inherit their
    sign, because the plus-branch prefactor sqrt(theta*eta/(2(1-s))) stays
    positive while the minus-branch shift coefficients flip with theta.

    Requires a finite scale (see :func:`_swap_scale`) and both branches,
    i.e. 0 < theta*eta <= 1.
    """
    minus, mapped = _duality_coeffs(p)
    pairs = zip(_coeff_forms(0, minus), _coeff_forms(0, mapped))
    return dict(zip(Representation.form_names(), pairs))


def branch_transform_residual(p: NCParams) -> float:
    """Largest coefficient-wise mismatch of the branch duality map.

    Compares the eight coefficients of the two branches' shift rows
    directly; no representation or form is built.
    """
    return _coeff_distance(*_duality_coeffs(p))


def _coeff_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest gap of two coefficient tuples laid out as in :func:`_coeff_forms`: their forms' distance."""
    return max(map(abs, map(sub, a, b)))


def _duality_coeffs(p: NCParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The minus branch's coefficients and the swap map's image of the plus branch's.

    Refused as the builds refuse: first the swap scale, then the minus row,
    then the plus row.
    """
    r = _swap_scale(p)
    minus = _shift_terms(*_shift_coeffs(p.theta, p.eta, "branch", "minus"))
    return minus, _swap_row(_shift_terms(*_shift_coeffs(p.theta, p.eta, "branch", "plus")), r)


def check_branch_transform(p: NCParams, tol: float = DEFAULT_TOL) -> bool:
    """Whether the plus branch maps onto the minus branch within ``tol``."""
    tol = check_tolerance(tol)
    return branch_transform_residual(p) <= tol


def _swap_scale(p: NCParams, required: bool = True) -> float | None:
    """r = sign(theta)*sqrt(theta/eta), the scale of the branch swap map.

    The sign keeps the map correct when both parameters are negative.  r and
    1/r are finite exactly when 0 < theta/eta < inf; any other ratio is
    refused, or with ``required=False`` gives None: the parameters differ in
    sign, one vanishes, or their ratio underflows or overflows, and such
    parameters have no swap map.
    """
    ratio = p.theta / p.eta if p.eta != 0.0 else 0.0
    if 0.0 < ratio < math.inf:
        return math.copysign(math.sqrt(ratio), p.theta)
    if required:
        raise DomainError(f"the branch swap map needs 0 < theta/eta < inf, got theta = {p.theta}, eta = {p.eta}")
    return None


def check_commutative_limit(
    scales: Sequence[float],
    p0: NCParams,
    tols: Sequence[float],
) -> CheckReport:
    """Track both branches along (scale*theta0, scale*eta0) as scale -> 0.

    The minus branch must approach the identity map and the plus branch the
    fixed swap map of the ratio theta0/eta0; each scale's sup-norm distance,
    taken on the branch's shift row with no form built, is compared against
    the matching entry of ``tols``, all read as floats.  Each branch builds
    its records in one pass; its distances and ``monotone`` verdict are read
    back from them.  Branch failures at a degenerate scale (e.g. exactly zero)
    are recorded, not raised.  A negative scale flips both signs, so the plus
    branch would approach the swap map of -r, not p0's target; it is refused,
    as is a scale that is not finite or overflows scale*theta0 or scale*eta0.
    """
    if len(scales) == 0:
        raise ConfigError("need at least one scale to track the commutative limit")
    if len(scales) != len(tols):
        raise ConfigError(
            f"need one tolerance per scale, got {len(scales)} scales and {len(tols)} tolerances"
        )
    scales = [_as_float("commutative-limit scale", scale, ConfigError) for scale in scales]
    for scale in scales:
        if not 0.0 <= scale < math.inf:
            raise ConfigError(f"commutative-limit scale must be finite and nonnegative, got {scale}")
    tols = [check_tolerance(tol) for tol in tols]
    r = _swap_scale(p0)
    track = []  # (scale, scale*theta0, scale*eta0) of each scale, in order
    for scale in scales:
        for name, value in (("theta", p0.theta), ("eta", p0.eta)):
            if not math.isfinite(scale * value):
                raise DomainError(f"commutative-limit scale {scale} overflows scale*{name}0 = {scale}*{value}")
        track.append((scale, scale * p0.theta, scale * p0.eta))
    identity = _shift_terms(1.0, 0.0, 0.0)
    records: dict[str, list[CheckRecord]] = {}
    for branch, target in (("minus", identity), ("plus", _swap_row(identity, r))):
        records[branch] = []
        for (scale, theta, eta), tol in zip(track, tols):
            name = f"limit.{branch}.scale={scale!r}"
            try:
                row = _shift_terms(*_shift_coeffs(theta, eta, "branch", branch))
            except (DomainError, DegenerateError) as exc:
                records[branch].append(CheckRecord(name, 0.0, None, tol, False, f"{type(exc).__name__}: {exc}"))
            else:
                records[branch].append(CheckRecord.within(name, 0.0, _coeff_distance(row, target), tol))
    checks = [record for pair in zip(records["minus"], records["plus"]) for record in pair]
    meta = {"scales": [scale for scale, _, _ in track], "theta0": p0.theta, "eta0": p0.eta}
    for branch, branch_records in records.items():
        distances = meta[f"{branch}_distances"] = [record.measured for record in branch_records]
        monotone = None not in distances and all(b < a for a, b in zip(distances, distances[1:]))
        detail = "distances must decrease strictly along the scale sequence"
        checks.append(CheckRecord(f"limit.{branch}.monotone", None, None, 0.0, monotone, detail))
    return CheckReport(kind="limit", checks=tuple(checks), meta=meta)


# ---------------------------------------------------------------------------
# mass invariance


def _kinematic_invariance(reps_by_mass: Sequence[tuple[float, Representation]], tol: float, **meta) -> CheckReport:
    """Compare kinematic structure of representations across masses.

    For each coordinate form X_i the coefficients on canonical coordinates
    must agree across masses, and the coefficients on canonical momenta
    must agree after multiplication by the particle mass.  For each
    momentum form P_i the roles swap: momentum coefficients agree as-is,
    coordinate coefficients agree after division by the mass.  The spread
    (max minus min over masses) of each rescaled coefficient group is
    compared against ``tol``.  A group that some mass lacks fails.  The
    report's meta holds the masses and then ``meta``.
    """
    tol = check_tolerance(tol)
    if len(reps_by_mass) < 2:
        raise ConfigError("need at least two masses to compare invariance")
    groups: dict[str, list[float]] = {}
    for mass, rep in reps_by_mass:
        for name, form in zip(rep.form_names(), rep.forms()):
            coordinate_like = name.startswith("X")
            for var, coeff in form.terms.items():
                if var.is_coordinate:
                    scaled = coeff if coordinate_like else coeff / mass
                    part = "coordinate"
                else:
                    scaled = coeff * mass if coordinate_like else coeff
                    part = "momentum"
                groups.setdefault(f"{name}.{part}.{var.kind}", []).append(scaled)
    checks = []
    for key in sorted(groups):
        values = groups[key]
        spread = max(values) - min(values)
        complete = len(values) == len(reps_by_mass)
        checks.append(
            CheckRecord(
                name=key,
                expected=0.0,
                measured=spread,
                tol=tol,
                passed=complete and spread <= tol,
                detail="" if complete else "coefficient missing for some masses",
            )
        )
    return CheckReport(kind="invariance", checks=tuple(checks), meta={"masses": [m for m, _ in reps_by_mass], **meta})


def mass_invariance_report(
    c: MassConditions,
    masses: Sequence[float],
    family: str = "branch",
    branch: str | None = "minus",
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Kinematic invariance of conditioned representations across masses."""
    params = (params_from_conditions(c, m) for m in masses)  # lazy: the first mass to fail, either step, is refused
    reps = [(p.mass, build_representation(p, family, branch)) for p in params]
    read = reps[0][1].branch if reps else None  # the branch the builds read, after their default
    return _kinematic_invariance(reps, tol, gamma=c.gamma, alpha=c.alpha, family=family, branch=read)
