"""Classical dynamics of quadratic Hamiltonians in noncommutative observables.

A Hamiltonian given in the noncommutative observables (X, P) of a
representation becomes, after substituting the linear forms, an ordinary
quadratic Hamiltonian

    H(z) = z.Q.z/2 + L.z,    z = (x1, x2, p1, p2),

over the canonical variables.  Hamilton's equations are then the linear
system dz/dt = J(Qz + L) with the standard symplectic J.  Every
representation and every Hamiltonian kind is invariant under rotations of
the plane, so the drift acts on the complex pairs (x1 + i x2, p1 + i p2)
as a 2x2 complex matrix, whose flow this module evaluates in closed form:
nothing is scaled or squared, and the only error source is rounding.

The weak-equivalence check evolves the *same* noncommutative initial data
(X1, X2, dX1/dt, dX2/dt) for several masses and measures how far the
noncommutative coordinate trajectories spread.  Under shared mass
conditions the spread sits at rounding level; for mass-independent fixed
(theta, eta) it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import KINDS
from .errors import ConfigError, SingularMapError, StepError
from .representation import (
    MassConditions,
    NCParams,
    Representation,
    _as_float,
    build_representation,
    params_from_conditions,
)

HAMILTONIAN_KINDS = ("free", "uniform_gravity", "harmonic")

#: Most steps one trajectory may take; more would allocate an unbounded table.
MAX_STEPS = 10**6

_J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True, eq=False)  # ndarray fields: compare and hash by identity
class QuadraticHamiltonian:
    """H(z) = z.quad.z/2 + linear.z over (x1, x2, p1, p2).

    The rep's (X1, X2, P1, P2) at state z are ``observables @ z``; ``g`` and ``omega``
    are the potential's, 0.0 for a kind whose potential lacks one.
    """

    rep: Representation
    quad: np.ndarray
    linear: np.ndarray
    observables: np.ndarray
    g: float
    omega: float

    def energies(self, observables: np.ndarray) -> np.ndarray:
        """H of every row of an (n, 4) array of (X1, X2, P1, P2), the observables it is written in.

        P (P / m) stays finite where P P / (2m) overflows (m = 1e200).  A potential whose parameter is
        0.0 is left out: X1^2 overflows in a fall at such a mass, and 0 * inf would make H NaN.
        """
        X1, X2, P1, P2 = np.asarray(observables, dtype=float).T
        m, g, omega = self.rep.params.mass, self.g, self.omega
        e = (P1 * (P1 / m) + P2 * (P2 / m)) / 2
        if g:
            e += m * g * X2
        if omega:
            e += m * omega * (omega * (X1 * X1 + X2 * X2)) / 2
        return e

    def drift(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) of dz/dt = A z + b."""
        return _drift(self.quad, self.linear)


def _drift(quad: np.ndarray, linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of dz/dt = A z + b for a (..., 4, 4) quad and a (..., 4) linear term."""
    return _J @ quad, (_J @ linear[..., None])[..., 0]


# Finite inputs can still overflow (omega = 1e200): numpy stays silent and
# the finiteness check at the end raises ConfigError instead of nan rows.
@np.errstate(all="ignore")
def build_hamiltonian(
    kind: str,
    rep: Representation | Sequence[Representation],
    g: float = 0.0,
    omega: float = 0.0,
) -> QuadraticHamiltonian | list[QuadraticHamiltonian]:
    """Kinetic term plus the requested potential, in the rep's observables.

    free:            H = (P1^2 + P2^2)/(2m)
    uniform_gravity: H = (P1^2 + P2^2)/(2m) + m*g*X2
    harmonic:        H = (P1^2 + P2^2)/(2m) + m*omega^2*(X1^2 + X2^2)/2

    ``rep`` is one representation, giving one Hamiltonian, or a sequence of
    m, giving a list of m built as (m, ...) stacks; each Hamiltonian's
    arrays are its slices of the stacks, byte-equal to its own build.  The
    overflow refusal names the first mass that overflows.
    """
    single = isinstance(rep, Representation)
    reps = [rep] if single else list(rep)
    if not reps:
        raise ConfigError("build_hamiltonian needs at least one representation")
    if kind not in HAMILTONIAN_KINDS:
        raise ConfigError(f"unknown Hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}")
    g, omega = _as_float("g", g, ConfigError), _as_float("omega", omega, ConfigError)
    if not (math.isfinite(g) and math.isfinite(omega)):
        raise ConfigError(f"g and omega must be finite, got g = {g}, omega = {omega}")
    # The one read of the forms: per rep, a row per observable, a column per
    # kind, filled as lists of floats and converted once.
    rows = []
    for rep in reps:
        pid = rep.particle_id
        for form in rep.forms():
            row = [0.0] * 4
            for var, coeff in form.terms.items():
                if var.particle_id != pid:
                    where = "in a centre-of-mass representation" if pid is None else f"outside particle {pid}"
                    raise ConfigError(f"dynamics needs single-particle forms; found variable {var} {where}")
                row[KINDS.index(var.kind)] = coeff
            rows.append(row)
    observables = np.array(rows).reshape(len(reps), 4, 4)

    mass = np.array([rep.params.mass for rep in reps])
    X1, X2, P1, P2 = observables.transpose(1, 0, 2)  # (m, 4) rows of each observable
    # Summed onto zeros: += turns a -0.0 term into +0.0.
    quad = np.zeros((len(reps), 4, 4))
    linear = np.zeros((len(reps), 4))
    for r in (P1, P2):
        quad += r[:, :, None] * r[:, None, :] / mass[:, None, None]
    if kind == "uniform_gravity":
        linear += (mass * g)[:, None] * X2
    elif kind == "harmonic":
        for r in (X1, X2):
            quad += (mass * omega * omega)[:, None, None] * (r[:, :, None] * r[:, None, :])
    finite = np.isfinite(quad).all(axis=(1, 2)) & np.isfinite(linear).all(axis=1)
    if not finite.all():
        first = reps[int(np.argmin(finite))].params.mass
        raise ConfigError(
            f"the {kind} Hamiltonian overflows for mass = {first}, g = {g}, omega = {omega}"
        )
    g, omega = (g if kind == "uniform_gravity" else 0.0), (omega if kind == "harmonic" else 0.0)
    hs = [
        QuadraticHamiltonian(rep=rep, quad=q, linear=lin, observables=obs, g=g, omega=omega)
        for rep, q, lin, obs in zip(reps, quad, linear, observables)
    ]
    return hs[0] if single else hs


@dataclass(frozen=True, eq=False)  # ndarray fields: compare and hash by identity
class Trajectory:
    """One system's sampled states and noncommutative observables at uniform times."""

    times: np.ndarray
    canonical_states: np.ndarray  # shape (n + 1, 4) for n steps, columns x1 x2 p1 p2
    nc_observables: np.ndarray  # shape (n + 1, 4) for n steps, columns X1 X2 P1 P2

    def __len__(self) -> int:
        return len(self.times)


def _float_array(name: str, values: Sequence[float]) -> np.ndarray:
    """``values`` as a float array; an int past the float range is refused by name, without its digits.

    As for every scalar reader, a value math.isfinite cannot read, such as a
    string, raises its TypeError; a numeric array is converted unchecked.
    """
    array = np.asarray(values)
    try:
        if array.dtype.kind not in "biuf":
            for value in array.ravel().tolist():
                math.isfinite(value)
        return array.astype(float, copy=False)
    except OverflowError:
        raise ConfigError(f"{name} holds an int past the float range") from None


def _step_count(t_end: float, dt: float) -> int:
    for name, value in (("t_end", t_end), ("dt", dt)):
        _as_float(name, value, StepError)  # only the check: the count and messages read the values as given
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise StepError(f"t_end and dt must be finite, got t_end = {t_end}, dt = {dt}")
    if dt <= 0:
        raise StepError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise StepError(f"t_end must be nonnegative, got {t_end}")
    steps = t_end / dt
    n = MAX_STEPS + 1  # stands in for counts past the cap, an overflow to inf among them
    if steps <= n:
        # The first count reaching t_end, less 1e-9 * max(1, steps) steps of
        # tolerance for a quotient that rounding lifted just above a whole count.
        n = math.ceil(steps - 1e-9 * max(1.0, steps))
    if n > MAX_STEPS:
        raise StepError(
            f"t_end = {t_end} at dt = {dt} needs {steps:.15g} steps, more than the cap of {MAX_STEPS}"
        )
    return n


def _block_size(n: int) -> int:
    """Steps per block of an n-step run: isqrt(n) // 2, at least 1 and at most 64.

    Each step of a block adds one closed-form step matrix per mass, once per
    run, and each block adds one closed-form start state and its slice of
    the one batched product; a block of about sqrt(n) balances the two.
    Half of that, tuned on the free-fall benchmark, spends fewer flows on
    runs of tens of steps, and a run of fewer than 16 steps takes one step
    per block.
    """
    return max(1, min(64, math.isqrt(n) // 2))


#: Largest |C00 C11 - C01 C10| / (|C00 C11| + |C01 C10|) of an affine drift.
#: Free and gravity Hamiltonians give a C of rank one, whose entries are
#: single products r_i r_j / m, each within 2u of exact (u = 2^-53): the
#: two products then carry 4u, their rounding (complex products, within
#: sqrt(5) u each) and the difference about 6.3u more.  Rounded up to 8u;
#: 20 000 seeded built free and gravity drifts read at most 3.3e-16, 3.0u.
_RANK_ONE_BOUND = 8 * 2.0**-53

#: Largest phase uncertainty rho * t_end * 2^-53 of an accepted run, in
#: radians, with rho = |tau| + |delta| bounding the drift's eigenvalues: one
#: ulp of the drift moves the phase of the answer by about that much.
#: Healthy runs read at most 1e-14 (89 rad); omega = 1e22 over 0.01 s reads
#: 1.1e4 (1e20 rad), where the answer is a cosine of noise.  At the bound,
#: a phase of 9e9 rad, the answer is good to about 1e-6.
_PHASE_BOUND = 1e-6

#: |y| below which phi2(y) = (e^y - 1 - y) / y^2 is summed as its series,
#: 15 terms: the first one dropped, y^15 / 17!, is under 1e-18 of phi2.
_SERIES_CUTOFF = 0.5
#: y / 3, y / 4, ... y / 16: their running products are 2 y^k / (k + 2)!.
_SERIES_DIVISORS = np.arange(3.0, 17.0)[:, None, None]
#: +1 where the parities of A5[r, i, s, j] agree, -1 where they differ.
_MIXED_SIGNS = np.array([[[1.0, -1.0]], [[-1.0, 1.0]]])
#: I of C - tau I, built once.
_EYE = np.eye(2)


def _stack(hs: Sequence[QuadraticHamiltonian]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(observables, A, b) of m Hamiltonians as (m, 4, 4), (m, 4, 4) and (m, 4) stacks, dz/dt = A z + b."""
    A, b = _drift(np.array([hi.quad for hi in hs]), np.array([hi.linear for hi in hs]))
    return np.array([hi.observables for hi in hs]), A, b


def _complex_drift(A: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(C, c) of m drifts dz/dt = A z + b, stacked as :func:`_stack` gives them, as dw/dt = C w + c over complex pairs.

    A state (x1, x2, p1, p2) is read as w = (x1 + i x2, p1 + i p2), the
    layout of the float64 view of a complex128 pair.  That needs A to
    commute with the rotation K: (x1, x2, p1, p2) -> (-x2, x1, -p2, p1),
    which every built drift does bit for bit; C is then (m, 2, 2) and c is
    (m, 2).  A drift that is not finite, not rotation-invariant, or affine
    with a C that is not rank one (see :data:`_RANK_ONE_BOUND`) is refused.
    """
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ConfigError(f"the one-step propagator overflows at dt = {dt}")
    # A[2r + i, 2s + j] as A5[r, i, s, j]: K A K^-1 swaps both parities i, j
    # and flips the sign of the entries where they differ.
    A5 = A.reshape(-1, 2, 2, 2, 2)
    if not (A5[:, :, ::-1, :, ::-1] == A5 * _MIXED_SIGNS).all():
        raise ConfigError("the drift is not invariant under rotations of the plane, which its flow needs")
    C, c = A5[:, :, 0, :, 0] + 1j * A5[:, :, 1, :, 0], b.view(complex)
    p, q = C[:, 0, 0] * C[:, 1, 1], C[:, 0, 1] * C[:, 1, 0]
    if (c.any(axis=1) & (abs(p - q) > _RANK_ONE_BOUND * (abs(p) + abs(q)))).any():
        raise ConfigError("an affine drift needs a rank-one C, but det C is past rounding")
    return C, c


def _flow(C: np.ndarray, c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, F, rho): the exact flow w(t) = E w(0) + F of each (C, c) at each time t.

    E = exp(tC) = e^(tau t) [cosh(delta t) I + t sinhc(delta t) (C - tau I)] by
    Cayley-Hamilton, with tau = tr C / 2 and delta^2 = ((C00 - C11) / 2)^2 +
    C01 C10, which does not cancel as tau^2 - det C would; t sinhc(delta t)
    is sinh(delta t) / delta, or t at delta = 0.  F = t c + t^2 phi2(lambda t)
    C c with lambda = tr C, the integral of exp(sC) c when C^2 = lambda C, as
    it is for the rank-one C of every affine drift; phi2 is summed as its
    series below :data:`_SERIES_CUTOFF`.  E is (m, K, 2, 2) and F (m, K, 2)
    for K times; F is +0 where c is, and is not computed when every c is.
    rho = |tau| + |delta| bounds the moduli of C's eigenvalues.

    Every value is elementwise per mass, so each mass's slice is byte-equal
    to its own call.  A guarded branch runs only when some element of the
    stack takes it.
    """
    lam = C[:, 0, 0] + C[:, 1, 1]
    tau, half = lam / 2, (C[:, 0, 0] - C[:, 1, 1]) / 2
    delta = np.sqrt(half * half + C[:, 0, 1] * C[:, 1, 0])
    w = delta[:, None] * t
    e = np.exp(tau[:, None] * t)
    sinh = np.empty_like(w)
    sinh[...] = t  # the delta = 0 fallback, t + 0j
    np.divide(np.sinh(w), delta[:, None], out=sinh, where=delta[:, None] != 0)
    E = (e * sinh)[..., None, None] * (C - tau[:, None, None] * _EYE)[:, None]
    diagonal = e * np.cosh(w)  # added entry by entry: a loop over a (..., 2) view of it runs 2 wide
    E[..., 0, 0] += diagonal
    E[..., 1, 1] += diagonal
    F = np.zeros(E.shape[:-1], complex)
    affine = c.any(axis=1)
    if affine.any():
        y = lam[:, None] * t
        closed = abs(y) >= _SERIES_CUTOFF
        phi2 = 0.5 + 0.5 * np.multiply.accumulate(y / _SERIES_DIVISORS).sum(axis=0)
        if closed.any():
            # e^y - 1 = 2 e^(y/2) sinh(y/2) without cancellation; subtracting y then loses at most 2 bits.
            np.divide(2 * np.exp(y / 2) * np.sinh(y / 2) - y, y * y, out=phi2, where=closed)
        F = t[:, None] * c[:, None] + (t * t * phi2)[..., None] * (C @ c[..., None])[:, None, :, 0]
        if not affine.all():
            # A mass with c = 0 keeps F = +0, whatever its phi2 reads.
            F = np.where(affine[:, None, None], F, 0)
    return E, F, abs(tau) + abs(delta)


# A finite drift can still overflow the flow, the states or the observables
# (omega = 1e100 at dt = 1e300): numpy stays silent and the finiteness
# checks raise ConfigError instead of returning nan rows.
@np.errstate(all="ignore")
def evolve(
    h: QuadraticHamiltonian | Sequence[QuadraticHamiltonian],
    initial: Sequence[float],
    t_end: float,
    dt: float,
) -> Trajectory | list[Trajectory]:
    """Propagate with the exact closed-form flow of the affine drift.

    ``h`` is one Hamiltonian with a (4,) initial state, giving one
    :class:`Trajectory`, or a sequence of m Hamiltonians with an (m, 4)
    array of initial states, one row each, giving a list of one trajectory
    per Hamiltonian; all m advance together and share ``times``.

    The run is cut into blocks of B = :func:`_block_size` (n) steps.  One
    :func:`_flow` call gives the step matrices [E | F] at t = j*dt, j = 1 ... B,
    and each block's start state at t = k*B*dt, so no start depends on an
    earlier block.  One batched product of the starts (w_k, 1) with the step
    matrices then writes every row into one (m, blocks * B + 1) table of
    complex pairs, whose float view is the (x1, x2, p1, p2) rows; rows past
    n, in the last block, are padding and are never read.  The table and the
    observables are the two halves of one (2, m, blocks * B + 1, 4) float
    buffer, one large allocation a run: glibc raises its mmap threshold to
    the largest mapped chunk freed so far and trims the heap top once the top
    reaches twice the threshold, so two equal arrays freed together would
    fill such a top and every long run would fault its pages back in, where
    one buffer, freed, does not.  Each system's states and observables are
    byte-equal to its own single-system run and C-contiguous (n + 1, 4)
    prefixes of its blocks of the buffer.  A run whose phase is past
    :data:`_PHASE_BOUND` is refused.  The trajectory covers t = 0 to n*dt
    where n*dt is t_end (or the first multiple of dt past it when t_end is
    not a multiple).
    """
    single = isinstance(h, QuadraticHamiltonian)
    hs = [h] if single else list(h)
    z0 = _float_array("initial state", initial)
    if not hs:
        raise ConfigError("evolve needs at least one Hamiltonian")
    shape = (4,) if single else (len(hs), 4)
    if z0.shape != shape:
        raise ConfigError(
            f"initial state must have shape {shape}, one (x1, x2, p1, p2) row per "
            f"Hamiltonian, got shape {z0.shape}"
        )
    if not np.isfinite(z0).all():
        raise ConfigError(f"initial state must be finite, got {z0.tolist()}")
    n, m = _step_count(t_end, dt), len(hs)
    block = _block_size(n)
    blocks = -(-n // block)
    coeffs, A, b = _stack(hs)
    C, c = _complex_drift(A, b, dt)
    E, F, rho = _flow(C, c, np.concatenate((np.arange(1, block + 1), np.arange(0, n, block))) * dt)
    # Column s of [E_j | F_j] of step j, laid out so entry 2(j - 1) + r gives row r of w_{kB+j}.
    step = np.empty((m, 3, block, 2), complex)
    step[:, :2] = E[:, :block].transpose(0, 3, 1, 2)
    step[:, 2] = F[:, :block]
    if not np.isfinite(step.view(float)).all():
        raise ConfigError(f"the one-step propagator overflows at dt = {dt}")
    phase = float(rho.max()) * n * dt
    if phase * 2.0**-53 > _PHASE_BOUND:
        raise ConfigError(f"the phase of the run, {phase:.3g} rad by t = {n * dt}, is too large to resolve: one ulp of "
                          f"the drift moves it by {phase * 2.0**-53:.3g} rad, past the bound of {_PHASE_BOUND}")
    w0 = z0.reshape(m, 4).view(complex)
    # Elementwise: a stacked matmul would make one BLAS call per 2 x 2 block.  The pairs are
    # formed contiguous and copied once, as a loop over a (..., 2) view of the starts runs 2 wide.
    head = E[:, block:, :, 0] * w0[:, None, None, 0]
    head += E[:, block:, :, 1] * w0[:, None, None, 1]
    head += F[:, block:]
    starts = np.ones((m, blocks, 3), complex)
    starts[..., :2] = head
    buffer = np.empty((2, m, blocks * block + 1, 4))
    table = buffer[0].view(complex)
    table[:, 0] = w0
    rows = table[:, 1:].reshape(m, blocks, 2 * block)
    np.matmul(starts, step.reshape(m, 3, 2 * block), out=rows)
    canonical = buffer[0, :, : n + 1]
    # On many rows a contiguous right operand gives the transposed view's
    # bytes about 3x faster; one row is a BLAS gemv, which rounds by the
    # operand's layout, so it keeps the view.
    right = coeffs.transpose(0, 2, 1)
    observables = np.matmul(canonical, np.ascontiguousarray(right) if n else right, out=buffer[1, :, : n + 1])
    # A state that is not finite makes its observables not finite, inf * 0
    # being NaN, so the states are read only to word the refusal.  A finite
    # state can still overflow its observables (X1 = a x1 + b p2).
    if not np.isfinite(observables).all():
        if not np.isfinite(canonical).all():
            raise ConfigError(f"the trajectory overflows before t = {n * dt}")
        raise ConfigError(f"the noncommutative observables overflow before t = {n * dt}")
    times = np.arange(n + 1, dtype=float) * dt
    runs = [Trajectory(times, z, obs) for z, obs in zip(canonical, observables)]
    return runs[0] if single else runs


def energy_drift(h: QuadraticHamiltonian, traj: Trajectory) -> float:
    """Max |H(t) - H(0)| over the trajectory's ``nc_observables``, relative to max(1, |H(0)|).

    A finite trajectory can still overflow H or H(t) - H(0) (p1 = 1e200):
    numpy stays silent and the drift, then not finite, raises ConfigError.
    """
    with np.errstate(all="ignore"):
        energies = h.energies(traj.nc_observables)
        scale = max(1.0, abs(energies[0]))
        energies -= energies[0]
        drift = float(np.abs(energies, out=energies).max() / scale)
    if not math.isfinite(drift):
        raise ConfigError("the energy H, or its drift H(t) - H(0), overflows the float range along the trajectory")
    return drift


# A finite Hamiltonian can still overflow its map (theta = 1e147): numpy
# stays silent and the map, then not finite, is refused as singular.
@np.errstate(all="ignore")
def nc_initial_state(
    h: QuadraticHamiltonian | Sequence[QuadraticHamiltonian], nc_data: Sequence[float]
) -> np.ndarray:
    """Canonical state realising given (X1, X2, dX1/dt, dX2/dt) at t = 0.

    The map z -> (X1, X2, dX1/dt, dX2/dt) is affine because the observables
    are linear and the drift is affine; it is inverted with a dense solve.
    ``h`` is one Hamiltonian, giving a (4,) state, or a sequence of m,
    giving an (m, 4) array, one row each: the initial state :func:`evolve`
    takes.  The m maps are one (m, 4, 4) stack, column-scaled below, checked by
    one stacked :func:`_condition_numbers` and inverted by one stacked solve;
    the singular-map refusal names the first mass whose map is singular.
    """
    single = isinstance(h, QuadraticHamiltonian)
    hs = [h] if single else list(h)
    if not hs:
        raise ConfigError("nc_initial_state needs at least one Hamiltonian")
    vals = _float_array("nc_data", nc_data)
    if vals.shape != (4,):
        raise ConfigError(
            f"need 4 values (X1, X2, dX1/dt, dX2/dt), got shape {vals.shape}"
        )
    if not np.isfinite(vals).all():
        raise ConfigError(f"X1, X2, dX1/dt, dX2/dt must be finite, got {vals.tolist()}")
    observables, A, b = _stack(hs)
    r1, r2 = observables[:, :1], observables[:, 1:2]
    # Vector products, a (1, 4) row per system: a (2, 4) matmul may sum in another order.
    maps = np.concatenate([r1, r2, r1 @ A, r2 @ A], axis=1)
    rhs = np.empty((len(hs), 4, 1))
    rhs[..., 0] = vals
    rhs[:, 2:3] -= r1 @ b[..., None]
    rhs[:, 3:] -= r2 @ b[..., None]
    # Each column scaled by 2^-e, e the frexp exponent of its largest |entry|: exact, so the condition
    # number measures the map, not the units of z, and the solve, pivoting within columns, keeps its bytes.
    exponents = -np.frexp(abs(maps).max(axis=1))[1]
    maps = np.ldexp(maps, exponents[:, None])
    cond = _condition_numbers(maps)
    singular = cond > 1e12
    if singular.any():
        raise SingularMapError(
            "observable-to-state map is singular; the chosen representation does not "
            f"determine a unique canonical state (condition number {cond[np.argmax(singular)]:.3g})"
        )
    states = np.ldexp(np.linalg.solve(maps, rhs)[..., 0], exponents)
    return states[0] if single else states


def _condition_numbers(maps: np.ndarray) -> np.ndarray:
    """np.linalg.cond of each map of an (m, 4, 4) stack, or inf for a map that is not finite.

    The singular values' ratio from one np.linalg.svd, as np.linalg.cond
    takes it inside its wrapper, which also reads 0 / 0 (an all-zero map) as
    inf.  A map that is not finite enters as an all-zero map, so it reads
    inf and no NaN or inf reaches LAPACK, which would print its complaint to
    stdout.
    """
    finite = np.isfinite(maps).all(axis=(1, 2))
    s = np.linalg.svd(np.where(finite[:, None, None], maps, 0.0), compute_uv=False)
    cond = s[:, 0] / s[:, -1]
    cond[np.isnan(cond)] = np.inf
    return cond


def wep_trajectories(
    reps: Sequence[Representation],
    nc_data: Sequence[float],
    g: float,
    t_end: float,
    dt: float,
) -> list[tuple[QuadraticHamiltonian, Trajectory]]:
    """Free fall of one representation per mass from the same (X1, X2, dX1/dt, dX2/dt).

    Each stage takes all masses at once: :func:`build_hamiltonian` under
    uniform gravity ``g``, :func:`nc_initial_state`, then :func:`evolve`.
    Each pair holds its mass's Hamiltonian and its own trajectory, byte-equal
    to the same stages of that mass alone.
    """
    if len(reps) < 2:
        raise ConfigError(
            f"need at least two masses to compare free fall, got {[rep.params.mass for rep in reps]}"
        )
    hs = build_hamiltonian("uniform_gravity", reps, g)
    return list(zip(hs, evolve(hs, nc_initial_state(hs, nc_data), t_end, dt)))


def coordinate_spread(runs: Sequence[tuple[QuadraticHamiltonian, Trajectory]]) -> float:
    """Largest pointwise spread of the noncommutative coordinates across runs.

    A running max and min over the runs' whole observable arrays, with the
    X1 and X2 columns taken one at a time, as a loop over a (rows, 2) view
    runs 2 wide: max and min are exact, so the spread equals a stacked
    copy's, and ``np.maximum`` keeps a NaN, where Python's ``max`` may drop
    it.  No runs, or runs of unequal lengths, are refused; runs of no rows
    raise numpy's empty-max ValueError.
    """
    rows = [traj.nc_observables for _, traj in runs]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"coordinate_spread needs runs of one length, got lengths {[len(r) for r in rows]}")
    hi = lo = rows[0]
    for r in rows[1:]:
        hi, lo = np.maximum(hi, r), np.minimum(lo, r)
    return float(np.maximum(hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1]).max())


def wep_deviation(
    c: MassConditions,
    masses: Sequence[float],
    family: str = "branch",
    branch: str | None = "minus",
    g: float = 1.0,
    nc_data: Sequence[float] = (0.0, 0.0, 1.0, 0.0),
    t_end: float = 10.0,
    dt: float = 0.01,
) -> float:
    """Trajectory spread across masses under shared mass conditions.

    Builds one conditioned representation per mass, launches all of them
    from the same (X1, X2, dX1/dt, dX2/dt), and returns the largest
    pointwise spread of the noncommutative coordinates.  Mass independence
    of the conditioned kinematics makes this vanish to rounding.
    """
    params = [params_from_conditions(c, m) for m in masses]
    return _wep_spread(params, family, branch, g, nc_data, t_end, dt)


def wep_deviation_fixed(
    theta: float,
    eta: float,
    masses: Sequence[float],
    family: str = "branch",
    branch: str | None = "minus",
    g: float = 1.0,
    nc_data: Sequence[float] = (0.0, 0.0, 1.0, 0.0),
    t_end: float = 10.0,
    dt: float = 0.01,
) -> float:
    """Same comparison with one fixed (theta, eta) shared by all masses.

    This is the counterfactual to :func:`wep_deviation`: without the mass
    conditions the noncommutative shifts enter the dynamics mass-weighted,
    and equal initial data no longer yields equal coordinate histories.
    """
    params = [NCParams(theta=theta, eta=eta, mass=m) for m in masses]
    return _wep_spread(params, family, branch, g, nc_data, t_end, dt)


def _wep_spread(
    params: Sequence[NCParams], family: str, branch: str | None, g: float, nc_data: Sequence[float],
    t_end: float, dt: float,
) -> float:
    """The body of both WEP comparisons: one representation per parameter set, then their spread."""
    reps = [build_representation(q, family, branch) for q in params]
    return coordinate_spread(wep_trajectories(reps, nc_data, g, t_end, dt))
