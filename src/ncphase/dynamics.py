"""Classical dynamics of quadratic Hamiltonians in noncommutative observables.

A Hamiltonian given in the noncommutative observables (X, P) of a
representation becomes, after substituting the linear forms, an ordinary
quadratic Hamiltonian

    H(z) = z.Q.z/2 + L.z,    z = (x1, x2, p1, p2),

over the canonical variables.  Hamilton's equations are then the linear
system dz/dt = J(Qz + L) with the standard symplectic J, which this module
integrates with the exact matrix exponential of the augmented drift over
one fixed step, so the only error sources are rounding and the exponential
itself.

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

    The rep's (X1, X2, P1, P2) at state z are ``observables @ z``.
    """

    rep: Representation
    quad: np.ndarray
    linear: np.ndarray
    observables: np.ndarray

    def energies(self, states: np.ndarray) -> np.ndarray:
        """H of every row of an (n, 4) array of states."""
        Z = np.asarray(states, dtype=float)
        return 0.5 * np.einsum("ni,ij,nj->n", Z, self.quad, Z) + Z @ self.linear

    def drift(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) of dz/dt = A z + b."""
        return _J @ self.quad, _J @ self.linear


# Finite inputs can still overflow (omega = 1e200): numpy stays silent and
# the finiteness check at the end raises ConfigError instead of nan rows.
@np.errstate(all="ignore")
def build_hamiltonian(
    kind: str,
    rep: Representation,
    g: float = 0.0,
    omega: float = 0.0,
) -> QuadraticHamiltonian:
    """Kinetic term plus the requested potential, in the rep's observables.

    free:            H = (P1^2 + P2^2)/(2m)
    uniform_gravity: H = (P1^2 + P2^2)/(2m) + m*g*X2
    harmonic:        H = (P1^2 + P2^2)/(2m) + m*omega^2*(X1^2 + X2^2)/2
    """
    if kind not in HAMILTONIAN_KINDS:
        raise ConfigError(f"unknown Hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}")
    if not (math.isfinite(g) and math.isfinite(omega)):
        raise ConfigError(f"g and omega must be finite, got g = {g}, omega = {omega}")
    mass = rep.params.mass
    pid = rep.particle_id
    # The one read of the forms: a row per observable, a column per kind.
    observables = np.zeros((4, 4))
    for row, form in zip(observables, rep.forms()):
        for var, coeff in form.terms.items():
            if var.particle_id != pid:
                where = "in a centre-of-mass representation" if pid is None else f"outside particle {pid}"
                raise ConfigError(f"dynamics needs single-particle forms; found variable {var} {where}")
            row[KINDS.index(var.kind)] = coeff

    quad = np.zeros((4, 4))
    linear = np.zeros(4)
    for r in observables[2:]:  # P1, P2
        quad += np.outer(r, r) / mass
    if kind == "uniform_gravity":
        linear += mass * g * observables[1]  # X2
    elif kind == "harmonic":
        for r in observables[:2]:  # X1, X2
            quad += mass * omega * omega * np.outer(r, r)
    if not (np.isfinite(quad).all() and np.isfinite(linear).all()):
        raise ConfigError(
            f"the {kind} Hamiltonian overflows for mass = {mass}, g = {g}, omega = {omega}"
        )
    return QuadraticHamiltonian(rep=rep, quad=quad, linear=linear, observables=observables)


@dataclass(frozen=True, eq=False)  # ndarray fields: compare and hash by identity
class Trajectory:
    """Sampled states and noncommutative observables at uniform times."""

    times: np.ndarray
    canonical_states: np.ndarray  # shape (n, 4) or (m, n, 4), columns x1 x2 p1 p2
    nc_observables: np.ndarray  # shape (n, 4) or (m, n, 4), columns X1 X2 P1 P2

    def __len__(self) -> int:
        return len(self.times)


def _step_count(t_end: float, dt: float) -> int:
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise StepError(f"t_end and dt must be finite, got t_end = {t_end}, dt = {dt}")
    if dt <= 0:
        raise StepError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise StepError(f"t_end must be nonnegative, got {t_end}")
    steps = t_end / dt
    n = MAX_STEPS + 1  # stands in for counts past the cap, an overflow to inf among them
    if steps <= n:
        n = round(steps)
        if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
            n = math.ceil(steps)
    if n > MAX_STEPS:
        raise StepError(
            f"t_end = {t_end} at dt = {dt} needs {steps:.15g} steps, more than the cap of {MAX_STEPS}"
        )
    return int(n)


#: Padé [13/13] coefficients b_0 ... b_13, and the largest 1-norm at which that
#: approximant of exp needs no scaling (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _scale_exponents(a: np.ndarray) -> np.ndarray:
    """The s of each matrix of an (m, n, n) stack: max(0, ceil(log2(|A|_1 / theta_13)))."""
    norm = np.abs(a).sum(axis=1).max(axis=1)
    # frexp gives ceil(log2(x)) exactly: x = mant * 2^e with mant in [0.5, 1).
    mant, e = np.frexp(norm / _THETA13)
    return np.maximum(0, e - (mant == 0.5))


@np.errstate(all="ignore")
def expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (m, n, n) stack, by Padé [13/13] scaling and squaring.

    Each matrix is scaled by its own 2^-s, s = max(0, ceil(log2(|A|_1 / theta_13))),
    so slice i of the result is byte-equal to ``expm`` of matrix i alone.  The
    approximant is formed as I + 2 (V - U)^-1 U: the equal (V - U)^-1 (V + U)
    rounds worse and about doubles the energy drift of a 1000-step free fall.
    A matrix whose 1-norm or sixth power overflows, or that holds a NaN, gives
    a slice that is not finite, without a warning.
    """
    a = np.array(a, dtype=float)
    s = _scale_exponents(a)
    # The powers are taken before scaling, so that a sixth power past the
    # float range (omega = 1e100 at dt = 0.01) leaves inf in its slice.
    # Scaling by 2^-ks is exact above the subnormals, so they are still the
    # scaled matrix's powers.
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    a, a2, a4, a6 = (np.ldexp(p, -k * s[:, None, None]) for k, p in ((1, a), (2, a2), (4, a4), (6, a6)))
    b = _PADE13
    ident = np.eye(a.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for k in range(s.max(initial=0)):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def evolve(
    h: QuadraticHamiltonian | Sequence[QuadraticHamiltonian],
    initial: Sequence[float],
    t_end: float,
    dt: float,
) -> Trajectory:
    """Propagate with the exact one-step exponential of the affine drift.

    ``h`` is one Hamiltonian with a (4,) initial state, or a sequence of m
    Hamiltonians with an (m, 4) array of initial states, one row each; then
    the state and observable arrays of the trajectory have a leading axis of
    length m, and ``times`` is shared.  All m systems advance in one step
    loop.

    The drift is time-independent, so a single exponential of the augmented
    5x5 matrix is reused for every step.  The trajectory covers t = 0 to
    n*dt where n*dt is t_end (or the first multiple of dt past it when
    t_end is not a multiple).
    """
    single = isinstance(h, QuadraticHamiltonian)
    hs = [h] if single else list(h)
    z0 = np.asarray(initial, dtype=float)
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
    n = _step_count(t_end, dt)
    m = len(hs)
    # A finite drift can still overflow expm or the states (omega = 1e100):
    # numpy stays silent and the finiteness checks raise ConfigError instead
    # of returning nan rows.
    with np.errstate(all="ignore"):
        aug = np.zeros((m, 5, 5))
        for row, hi in zip(aug, hs):
            A, b = hi.drift()
            row[:4, :4] = A * dt
            row[:4, 4] = b * dt
        # The top four rows [E | f] of each exponential; its last row is e5
        # only up to rounding, so it is dropped rather than multiplied through.
        props = np.ascontiguousarray(expm(aug)[:, :4])
        if not np.isfinite(props).all():
            raise ConfigError(f"the one-step propagator overflows at dt = {dt}")
        # The scaling by 2^-s is exact only above the subnormals.  An entry
        # it rounds (the x2 shift beside the affine column of a 1e200 mass)
        # is lost from the propagator, whose trajectory would be wrong.
        s = _scale_exponents(aug)[:, None, None]
        if (np.ldexp(np.ldexp(aug, -s), s) != aug).any():
            raise ConfigError(
                f"the one-step propagator cannot resolve its drift at dt = {dt}: "
                f"scaling by 2^-{s.max()} rounds its smallest entries"
            )

        # Each state carries a constant 1 in a fifth slot that no step
        # writes, so one product [E | f] @ (s, 1) is the whole affine step
        # E @ s + f, summed in the same order.  zip yields the row views one
        # at a time, so no list of n views is held; a positional out parses
        # faster than out=.
        states = np.empty((n + 1, m, 5, 1))
        states[:, :, 4] = 1.0
        states[0, :, :4, 0] = z0
        matmul = np.matmul
        for prev, row in zip(states, states[1:, :, :4]):
            matmul(props, prev, row)
        if not np.isfinite(states[-1]).all():
            raise ConfigError(f"the trajectory overflows before t = {n * dt}")

    # One contiguous (n + 1, 4) block per system.
    canonical = np.ascontiguousarray(states[:, :, :4, 0].transpose(1, 0, 2))
    del states
    coeffs = np.stack([hi.observables for hi in hs])
    observables = canonical @ coeffs.transpose(0, 2, 1)
    times = np.arange(n + 1) * dt
    if single:
        return Trajectory(times=times, canonical_states=canonical[0], nc_observables=observables[0])
    return Trajectory(times=times, canonical_states=canonical, nc_observables=observables)


def energy_drift(h: QuadraticHamiltonian, traj: Trajectory) -> float:
    """Max |H(t) - H(0)| along the trajectory, relative to max(1, |H(0)|).

    A finite trajectory can still overflow H or H(t) - H(0) (p1 = 1e200):
    numpy stays silent and the drift, then not finite, raises ConfigError.
    """
    with np.errstate(all="ignore"):
        energies = h.energies(traj.canonical_states)
        scale = max(1.0, abs(energies[0]))
        drift = float(np.max(np.abs(energies - energies[0])) / scale)
    if not math.isfinite(drift):
        raise ConfigError("the energy H, or its drift H(t) - H(0), overflows the float range along the trajectory")
    return drift


def nc_initial_state(h: QuadraticHamiltonian, nc_data: Sequence[float]) -> np.ndarray:
    """Canonical state realising given (X1, X2, dX1/dt, dX2/dt) at t = 0.

    The map z -> (X1, X2, dX1/dt, dX2/dt) is affine because the observables
    are linear and the drift is affine; it is inverted with a dense solve.
    """
    vals = np.asarray(nc_data, dtype=float)
    if vals.shape != (4,):
        raise ConfigError(
            f"need 4 values (X1, X2, dX1/dt, dX2/dt), got shape {vals.shape}"
        )
    if not np.isfinite(vals).all():
        raise ConfigError(f"X1, X2, dX1/dt, dX2/dt must be finite, got {vals.tolist()}")
    r1, r2 = h.observables[:2]
    A, b = h.drift()
    # Vector products, row by row: a (2, 4) matmul may sum in another order.
    m = np.stack([r1, r2, r1 @ A, r2 @ A])
    rhs = np.array([vals[0], vals[1], vals[2] - r1 @ b, vals[3] - r2 @ b])
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMapError(
            "observable-to-state map is singular; the chosen representation does not "
            f"determine a unique canonical state (condition number {cond:.3g})"
        )
    return np.linalg.solve(m, rhs)


def wep_trajectories(
    reps: Sequence[Representation],
    nc_data: Sequence[float],
    g: float,
    t_end: float,
    dt: float,
) -> list[tuple[QuadraticHamiltonian, Trajectory]]:
    """Free fall of one representation per mass from the same (X1, X2, dX1/dt, dX2/dt).

    All masses are stepped together in one :func:`evolve` call under uniform
    gravity ``g``; each pair holds its mass's Hamiltonian and its own slice
    of that trajectory.
    """
    if len(reps) < 2:
        raise ConfigError(
            f"need at least two masses to compare free fall, got {[rep.params.mass for rep in reps]}"
        )
    hs = [build_hamiltonian("uniform_gravity", rep, g=g) for rep in reps]
    traj = evolve(hs, [nc_initial_state(h, nc_data) for h in hs], t_end, dt)
    return [
        (h, Trajectory(traj.times, traj.canonical_states[i], traj.nc_observables[i]))
        for i, h in enumerate(hs)
    ]


def coordinate_spread(runs: Sequence[tuple[QuadraticHamiltonian, Trajectory]]) -> float:
    """Largest pointwise spread of the noncommutative coordinates across runs."""
    coords = np.stack([traj.nc_observables[:, :2] for _, traj in runs])
    return float(np.max(coords.max(axis=0) - coords.min(axis=0)))


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
    params: Sequence[NCParams], family: str, branch: str | None, g: float, nc_data: Sequence[float], t_end: float, dt: float
) -> float:
    """The body of both WEP comparisons: one representation per parameter set, then their spread."""
    reps = [build_representation(q, family, branch) for q in params]
    return coordinate_spread(wep_trajectories(reps, nc_data, g, t_end, dt))
