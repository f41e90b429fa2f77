"""Exact linear-form arithmetic over canonical phase-space variables.

Observables are stored as real linear combinations of per-particle canonical
coordinates and momenta (``x1``, ``x2``, ``p1``, ``p2``).  For such forms
the commutator is always a pure scalar multiple of ``i*hbar``, fixed
entirely by the canonical pairing

    [x_i^(a), p_j^(b)] = i*hbar * delta_ij * delta_ab,

with coordinates commuting among themselves and momenta commuting among
themselves.  No operator-ordering ambiguity can appear at linear order, so
double precision coefficients are exact up to ordinary rounding.

Coefficients are kept in canonical sparse form: terms with an exactly zero
coefficient are dropped, so two forms built along different routes hold the
same terms whenever their coefficients match.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import ConfigError

#: Recognised canonical variable kinds: two coordinates and two momenta.
KINDS = ("x1", "x2", "p1", "p2")
#: The (coordinate, momentum) pairs of the canonical bracket.
_PAIRS = (("x1", "p1"), ("x2", "p2"))
#: The kind each kind pairs with, read both ways from ``_PAIRS``.
_PARTNER = {**dict(_PAIRS), **{p: x for x, p in _PAIRS}}


class _VarFields(NamedTuple):
    particle_id: int
    kind: str


class CanonicalVar(_VarFields):
    """One canonical variable (coordinate or momentum component) of one particle.

    A validated ``(particle_id, kind)`` tuple: it hashes and compares in C,
    and equals the plain tuple of its fields.  ``_make`` and ``_replace``
    validate too.
    """

    __slots__ = ()

    def __new__(cls, particle_id: int, kind: str) -> "CanonicalVar":
        if kind not in KINDS:
            raise ConfigError(f"unknown canonical variable kind {kind!r}; expected one of {KINDS}")
        if particle_id < 0:
            raise ConfigError(f"particle_id must be nonnegative, got {particle_id}")
        return super().__new__(cls, particle_id, kind)

    @classmethod
    def _make(cls, iterable) -> "CanonicalVar":
        return cls(*iterable)

    @classmethod
    @functools.lru_cache(maxsize=16, typed=True)
    def _particle(cls, particle_id: int) -> tuple["CanonicalVar", "CanonicalVar", "CanonicalVar", "CanonicalVar"]:
        """The x1, x2, p1, p2 variables of one particle, ``particle_id`` validated once.

        The tuples of the 16 most recently used ids are kept, so repeated
        builds on one particle share its four variables.  A negative id
        raises on every call: ``lru_cache`` caches no exception.
        """
        if particle_id < 0:
            cls(particle_id, "x1")  # raises the constructor's refusal
        new = tuple.__new__
        return new(cls, (particle_id, "x1")), new(cls, (particle_id, "x2")), new(cls, (particle_id, "p1")), new(cls, (particle_id, "p2"))

    @property
    def is_coordinate(self) -> bool:
        return self.kind[0] == "x"

    def __str__(self) -> str:
        return f"{self.kind}[{self.particle_id}]"


class LinearForm:
    """A linear combination ``sum(coeff * variable)``.

    Instances are immutable; all arithmetic returns new forms.  Supported
    operations are addition and subtraction of forms, negation, and
    multiplication/division by real scalars.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[CanonicalVar, float] | None = None) -> None:
        clean = {}
        if terms:
            for var, coeff in terms.items():
                if not isinstance(var, CanonicalVar):
                    raise TypeError(f"term keys must be CanonicalVar, got {type(var).__name__}")
                clean[var] = float(coeff)
        self._fill(clean)

    @classmethod
    def _trusted(cls, terms: dict[CanonicalVar, float]) -> "LinearForm":
        """A form built without the key check; exact zeros are dropped.

        The caller guarantees ``CanonicalVar`` keys and Python ``float``
        values, as arithmetic on existing forms does.  The form takes
        ownership of ``terms``: unless it holds an exact zero, the dict
        itself becomes the form's terms, so the caller passes a dict it has
        just built and never touches it again.
        """
        form = object.__new__(cls)
        form._fill(terms)
        return form

    def _fill(self, terms: dict[CanonicalVar, float]) -> None:
        # ``in`` matches +-0.0 (0.0 == -0.0) and never nan (nan != 0.0).
        if 0.0 in terms.values():
            terms = {v: c for v, c in terms.items() if c != 0.0}
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("LinearForm is immutable")

    @property
    def terms(self) -> Mapping[CanonicalVar, float]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType(self._terms)

    def coefficient(self, var: CanonicalVar) -> float:
        """Coefficient of ``var`` (0.0 when absent)."""
        return self._terms.get(var, 0.0)

    def __add__(self, other):
        if isinstance(other, LinearForm):
            merged = dict(self._terms)
            for var, coeff in other._terms.items():
                merged[var] = merged.get(var, 0.0) + coeff
            return LinearForm._trusted(merged)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LinearForm._trusted({v: -c for v, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, LinearForm):
            return self + -other
        return NotImplemented

    def __mul__(self, scale):
        if isinstance(scale, (int, float)):
            s = float(scale)
            return LinearForm._trusted({v: s * c for v, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scale):
        if isinstance(scale, (int, float)):
            return self * (1.0 / float(scale))
        return NotImplemented

    def __repr__(self) -> str:
        if not self._terms:
            return "LinearForm(0)"
        order = sorted(self._terms, key=lambda v: (v.particle_id, KINDS.index(v.kind)))
        return "LinearForm(" + " ".join(f"{self._terms[var]:+.6g}*{var}" for var in order) + ")"


def variable(kind: str, particle_id: int = 0) -> LinearForm:
    """A form consisting of a single canonical variable with unit coefficient."""
    return LinearForm({CanonicalVar(particle_id, kind): 1.0})


def x1(particle_id: int = 0) -> LinearForm:
    return variable("x1", particle_id)


def x2(particle_id: int = 0) -> LinearForm:
    return variable("x2", particle_id)


def p1(particle_id: int = 0) -> LinearForm:
    return variable("p1", particle_id)


def p2(particle_id: int = 0) -> LinearForm:
    return variable("p2", particle_id)


def commutator(a: LinearForm, b: LinearForm) -> float:
    """Commutator of two linear forms under the canonical algebra.

    Returns the real scalar ``c`` with ``[A, B] = i*hbar*c`` as a ``float``.
    It is deliberately *not* a ``LinearForm``: commutators of linear forms
    are central, so the operand check makes nesting them inside further
    commutators a type error rather than a silent zero.

    One walk over ``a``'s terms takes each term's product with its partner
    in ``b`` (x1 with p1, x2 with p2, same particle): ``+c_a * c_b`` for a
    coordinate, ``-(c_a * c_b)`` for a momentum, an absent partner reading
    0.0.  A second walk adds ``0.0 * c_b`` for each term of ``b`` whose
    partner is absent from ``a``.  Every other pair of terms has a zero
    bracket (another particle or component, or two coordinates or two
    momenta), so the walks form every nonzero and every non-finite product
    of the exhaustive sum over (particle, component) pairs: an infinite or
    nan coefficient whose partner is absent on the other side meets 0.0
    and gives nan, on either side.  They differ from it only in zero
    products, and those never decide the sum.

    The products are summed exactly and rounded once (:func:`_exact_sum`),
    so the scalar does not depend on their order.  Correct rounding is
    symmetric under negation, so antisymmetry holds bit for bit:
    ``commutator(a, b) == -commutator(b, a)``.
    """
    if not isinstance(a, LinearForm) or not isinstance(b, LinearForm):
        raise TypeError("commutator expects two LinearForm operands; nested commutators are scalars and cannot be commuted again")

    ta, tb = a._terms, b._terms
    products = []
    # Keys equal their plain tuples, so no CanonicalVar is built here.
    for (pid, kind), c in ta.items():
        product = c * tb.get((pid, _PARTNER[kind]), 0.0)
        products.append(product if kind[0] == "x" else -product)
    for (pid, kind), c in tb.items():
        if (pid, _PARTNER[kind]) not in ta:
            products.append(0.0 * c)
    return _exact_sum(products)


def _exact_sum(values: list[float]) -> float:
    """The exact sum of ``values``, rounded once: the same in every order.

    ``math.fsum`` raises when a partial sum leaves the float range or inf
    meets -inf.  Finite values are then summed as integers over a power of
    two, and a sum beyond the float range reads inf with its sign; else the
    non-finite values alone decide: nan if a nan or both infinities occur.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        special = [v for v in values if not math.isfinite(v)]
    if special:
        return sum(special)
    num, den = _dyadic_sum([v.as_integer_ratio() for v in values])
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _dyadic_sum(ratios: list[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of (numerator, power-of-two denominator) pairs, as one such pair."""
    den = max(d for _, d in ratios)
    top = den.bit_length()
    return sum(n << (top - d.bit_length()) for n, d in ratios), den


def form_distance(a: LinearForm, b: LinearForm) -> float:
    """Sup-norm distance between the coefficients of two forms."""
    if not isinstance(a, LinearForm) or not isinstance(b, LinearForm):
        raise TypeError("form_distance expects two LinearForm operands")
    ta, tb = a._terms, b._terms
    dist = 0.0
    for var in ta.keys() | tb.keys():
        dist = max(dist, abs(ta.get(var, 0.0) - tb.get(var, 0.0)))
    return dist


def check_tolerance(tol: float) -> float:
    """``tol`` as a Python float, which callers store; ``ConfigError`` unless it lies in [0, inf).

    It is converted before it is compared: an int past the float range does
    not convert, and comparing an ``np.float32`` with a Python float warns.
    A value math.isfinite cannot read, such as a string, raises its TypeError.
    """
    try:
        math.isfinite(tol)
        value = float(tol)
    except OverflowError:
        raise ConfigError("tolerance must be finite and nonnegative, got an int past the float range") from None
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"tolerance must be finite and nonnegative, got {tol}")
    return value
