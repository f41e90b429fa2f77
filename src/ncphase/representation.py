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
from typing import Sequence

from .algebra import KINDS, CanonicalVar, LinearForm, check_tolerance, commutator, form_distance, p1, p2, x1, x2
from .errors import ConfigError, DegenerateError, DomainError
from .reports import CheckRecord, CheckReport

FAMILIES = ("epsilon_general", "branch", "simple")
BRANCHES = ("plus", "minus")

#: Default coefficient-wise tolerance for verification routines.
DEFAULT_TOL = 1e-12


def _require_positive_mass(mass: float) -> None:
    """Refuse a mass that is not positive, NaN included: the one home of that message."""
    if not mass > 0:
        raise DomainError(f"mass must be positive, got {mass}")


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
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            # stored as float, so a numpy scalar's overflow warnings stay out of the builders
            object.__setattr__(self, name, float(value))
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
        if product > 0:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            theta, eta = sign * ta, sign * ea
        else:
            if rng.uniform() < 0.5:
                theta, eta = ta, -ea
            else:
                theta, eta = -ta, ea
        out.append(NCParams(theta=float(theta), eta=float(eta)))
    return out


@dataclass(frozen=True)
class MassConditions:
    """Mass-coupling constants gamma (theta = gamma/m) and eta = alpha*m."""

    gamma: float
    alpha: float

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
    """Overall scale eps = 1/sqrt(1 + theta'*eta'/4) of the scaled shift."""
    radicand = 1.0 + theta_prime * eta_prime / 4.0
    if radicand <= 0.0:
        raise DomainError(
            f"1 + theta'*eta'/4 = {radicand} is not positive; no real scale factor exists"
        )
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


def _shift_terms(k: float, c: float, m: float) -> tuple[float, float, float, float, float]:
    """(k, k*-c, k*c, k*m, k*-m): every coefficient of the shift map, refused unless finite.

    A numpy scalar parameter is converted, so it stays out of the forms.
    """
    k, c, m = float(k), float(c), float(m)
    kc, km = k * c, k * m
    if not (-math.inf < k < math.inf and -math.inf < kc < math.inf and -math.inf < km < math.inf):
        raise DomainError(f"representation coefficients are not finite: k = {k}, k*c = {kc}, k*m = {km}")
    return k, -kc, kc, km, -km


def _shift_map(particle_id: int, k: float, c: float, m: float) -> dict[str, LinearForm]:
    """X1 = k*(x1 - c*p2), X2 = k*(x2 + c*p1), P1 = k*(p1 + m*x2), P2 = k*(p2 - m*x1).

    k is the prefactor, c and m the coordinate and momentum shifts.  Each
    coefficient is the one product k or k*(+-shift), as the chained
    ``LinearForm`` expression rounds them; a zero shift drops its term.  Unless k, k*c and k*m are finite the map is refused.
    """
    k, k_mc, k_c, k_m, k_mm = _shift_terms(k, c, m)
    x1v, x2v, p1v, p2v = (CanonicalVar(particle_id, kind) for kind in KINDS)
    return {
        "X1": LinearForm._trusted({x1v: k, p2v: k_mc}),
        "X2": LinearForm._trusted({x2v: k, p1v: k_c}),
        "P1": LinearForm._trusted({p1v: k, x2v: k_m}),
        "P2": LinearForm._trusted({p2v: k, x1v: k_mm}),
    }


def read_branch(family: str, branch: str | None) -> str | None:
    """The branch a build of ``family`` reads, as reports give it: None for the simple family, else ``branch``."""
    return None if family == "simple" else branch


def _shift_rep(
    p: NCParams, family: str, branch: str | None, particle_id: int, coeffs: tuple[float, float, float] | None = None
) -> Representation:
    """The representation of a shift triple, by default the family's own, recording the branch it read."""
    forms = _shift_map(particle_id, *(_shift_coeffs(p.theta, p.eta, family, branch) if coeffs is None else coeffs))
    return Representation(**forms, family=family, params=p, branch=read_branch(family, branch), particle_id=particle_id)


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
    return _shift_rep(p, "epsilon_general", None, particle_id, _epsilon_coeffs(theta_prime, eta_prime))


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
    _require_positive_mass(mass)
    if c.product >= 1.0:
        raise DomainError(
            f"alpha*gamma = {c.product} must stay below 1 so that theta*eta < 1 for every mass"
        )
    return NCParams(theta=c.gamma / mass, eta=c.alpha * mass, mass=mass)


# ---------------------------------------------------------------------------
# verification


def _commutator_scalar(a: LinearForm, b: LinearForm) -> float:
    return commutator(a, b).scalar


def _commutator_checks(
    operands, commute, expected: tuple[float, float, float], tol: float, prefix: str = ""
) -> list[CheckRecord]:
    """The six independent commutators of four operands (X1, X2, P1, P2), checked against their table.

    ``commute(a, b)`` gives the scalar of [a, b]; ``expected`` is the
    (coordinate, momentum, diagonal) table, and the off-diagonal
    coordinate-momentum entries are expected to vanish.
    """
    check_tolerance(tol)
    theta, eta, diag = expected
    X1, X2, P1, P2 = operands
    return [
        CheckRecord.within(prefix + "[X1,X2]", theta, commute(X1, X2), tol),
        CheckRecord.within(prefix + "[P1,P2]", eta, commute(P1, P2), tol),
        CheckRecord.within(prefix + "[X1,P1]", diag, commute(X1, P1), tol),
        CheckRecord.within(prefix + "[X2,P2]", diag, commute(X2, P2), tol),
        CheckRecord.within(prefix + "[X1,P2]", 0.0, commute(X1, P2), tol),
        CheckRecord.within(prefix + "[X2,P1]", 0.0, commute(X2, P1), tol),
    ]


def verify_nc_algebra(
    rep: Representation,
    expect_theta: float | None = None,
    expect_eta: float | None = None,
    expect_diag: float | None = None,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Measure all six independent commutators and compare to expectations.

    Expectations default to the representation's own family table.  The
    off-diagonal coordinate-momentum commutators are always expected to
    vanish.
    """
    table_theta, table_eta, table_diag = rep.expected_table()
    expected = (
        table_theta if expect_theta is None else expect_theta,
        table_eta if expect_eta is None else expect_eta,
        table_diag if expect_diag is None else expect_diag,
    )
    checks = tuple(_commutator_checks(rep.forms(), _commutator_scalar, expected, tol))
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
    r = _swap_scale(p)
    minus = build_branch_rep(p, "minus")
    mapped = _swap_map(build_branch_rep(p, "plus").forms(), r)
    return {name: (m, t) for name, m, t in zip(minus.form_names(), minus.forms(), mapped)}


def branch_transform_residual(p: NCParams) -> float:
    """Largest coefficient-wise mismatch of the branch duality map."""
    pairs = branch_transform_duality(p)
    return max(form_distance(a, b) for a, b in pairs.values())


def check_branch_transform(p: NCParams, tol: float = DEFAULT_TOL) -> bool:
    """Whether the plus branch maps onto the minus branch within ``tol``."""
    check_tolerance(tol)
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


def _swap_map(forms: Sequence[LinearForm], r: float) -> tuple[LinearForm, ...]:
    """(X1, X2, P1, P2) -> (-r*P2, r*P1, X2/r, -X1/r); on the identity, the plus branch's commutative limit."""
    X1, X2, P1, P2 = forms
    return (-r * P2, r * P1, (1.0 / r) * X2, -(1.0 / r) * X1)


def check_commutative_limit(
    scales: Sequence[float],
    p0: NCParams,
    tols: Sequence[float],
) -> CheckReport:
    """Track both branches along (scale*theta0, scale*eta0) as scale -> 0.

    The minus branch must approach the identity map and the plus branch the
    fixed swap map of the ratio theta0/eta0; each scale's sup-norm distance
    is compared against the matching entry of ``tols``.  Branch failures at
    a degenerate scale (e.g. exactly zero) are recorded, not raised.
    """
    if len(scales) == 0:
        raise ConfigError("need at least one scale to track the commutative limit")
    if len(scales) != len(tols):
        raise ConfigError(
            f"need one tolerance per scale, got {len(scales)} scales and {len(tols)} tolerances"
        )
    for tol in tols:
        check_tolerance(tol)
    r = _swap_scale(p0)
    identity = (x1(), x2(), p1(), p2())
    targets = {"minus": identity, "plus": _swap_map(identity, r)}
    checks: list[CheckRecord] = []
    distances: dict[str, list[float | None]] = {"minus": [], "plus": []}
    for scale, tol in zip(scales, tols):
        p = NCParams(theta=scale * p0.theta, eta=scale * p0.eta, mass=p0.mass)
        for branch, target in targets.items():
            name = f"limit.{branch}.scale={scale:g}"
            try:
                rep = build_branch_rep(p, branch)
            except (DomainError, DegenerateError) as exc:
                distances[branch].append(None)
                checks.append(
                    CheckRecord(
                        name=name,
                        expected=0.0,
                        measured=None,
                        tol=tol,
                        passed=False,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            dist = max(form_distance(f, t) for f, t in zip(rep.forms(), target))
            distances[branch].append(dist)
            checks.append(CheckRecord.within(name, 0.0, dist, tol))
    for branch, seq in distances.items():
        clean = [d for d in seq if d is not None]
        monotone = all(b < a for a, b in zip(clean, clean[1:]))
        checks.append(
            CheckRecord(
                name=f"limit.{branch}.monotone",
                expected=None,
                measured=None,
                tol=0.0,
                passed=monotone and len(clean) == len(seq),
                detail="distances must decrease strictly along the scale sequence",
            )
        )
    meta = {
        "scales": list(scales),
        "theta0": p0.theta,
        "eta0": p0.eta,
        "minus_distances": distances["minus"],
        "plus_distances": distances["plus"],
    }
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
    check_tolerance(tol)
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
    reps = [(m, build_representation(params_from_conditions(c, m), family, branch)) for m in masses]
    read = reps[0][1].branch if reps else None  # the branch the builds read, after their default
    return _kinematic_invariance(reps, tol, gamma=c.gamma, alpha=c.alpha, family=family, branch=read)
