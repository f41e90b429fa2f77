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

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import ConfigError

#: Recognised canonical variable kinds: two coordinates and two momenta.
KINDS = ("x1", "x2", "p1", "p2")
_COMPONENT = {"x1": 1, "x2": 2, "p1": 1, "p2": 2}
_PAIR_KINDS = {1: ("x1", "p1"), 2: ("x2", "p2")}


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
    def _trusted(cls, terms: Mapping[CanonicalVar, float]) -> "LinearForm":
        """A form built without the key check; exact zeros are dropped.

        The caller guarantees ``CanonicalVar`` keys and Python ``float``
        values, as arithmetic on existing forms does.
        """
        form = object.__new__(cls)
        form._fill(terms)
        return form

    def _fill(self, terms: Mapping[CanonicalVar, float]) -> None:
        object.__setattr__(self, "_terms", {v: c for v, c in terms.items() if c != 0.0})

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


@dataclass(frozen=True)
class CommutatorResult:
    """The scalar ``c`` in ``[A, B] = i*hbar*c``."""

    scalar: float


def commutator(a: LinearForm, b: LinearForm) -> CommutatorResult:
    """Commutator of two linear forms under the canonical algebra.

    Returns the real scalar ``c`` with ``[A, B] = i*hbar*c``.  The result is
    deliberately *not* a ``LinearForm``: commutators of linear forms are
    central, so nesting them inside further commutators is a type error
    rather than a silent zero.

    Both signed products of every (particle, component) pair are summed
    exactly and rounded once (:func:`_exact_sum`), so the scalar does not
    depend on the order of the products.  Correct rounding is symmetric
    under negation, so antisymmetry holds bit for bit:
    ``commutator(a, b).scalar == -commutator(b, a).scalar``.
    """
    if not isinstance(a, LinearForm) or not isinstance(b, LinearForm):
        raise TypeError("commutator expects two LinearForm operands; nested commutators are scalars and cannot be commuted again")

    ta, tb = a._terms, b._terms
    pairs = {(pid, _COMPONENT[kind]) for pid, kind in ta}
    pairs |= {(pid, _COMPONENT[kind]) for pid, kind in tb}
    products = []
    for pid, comp in pairs:
        xkind, pkind = _PAIR_KINDS[comp]
        # Keys equal their plain tuples, so no CanonicalVar is built here.
        xv, pv = (pid, xkind), (pid, pkind)
        products.append(ta.get(xv, 0.0) * tb.get(pv, 0.0))
        products.append(-(ta.get(pv, 0.0) * tb.get(xv, 0.0)))
    return CommutatorResult(scalar=_exact_sum(products))


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


def check_tolerance(tol: float) -> None:
    """Raise ``ConfigError`` unless ``tol`` lies in [0, inf)."""
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tolerance must be finite and nonnegative, got {tol}")
