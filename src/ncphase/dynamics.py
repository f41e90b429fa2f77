"""Classical dynamics of quadratic Hamiltonians in noncommutative observables.

A Hamiltonian given in the noncommutative observables (X, P) of a
representation becomes, after substituting the linear forms, an ordinary
quadratic Hamiltonian

    H(z) = z.Q.z/2 + L.z,    z = (x1, x2, p1, p2),

over the canonical variables.  Hamilton's equations are then the linear
system dz/dt = J(Qz + L) with the standard symplectic J, which this module
integrates with exact matrix exponentials of the augmented drift, one for
each step count of a block, so the only error sources are rounding and the
exponentials themselves.

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
        """H of every row of an (n, 4) array of states.

        Both terms are einsum loops, which sum each row in one order whatever
        the batch; ``Z @ linear`` is a BLAS gemv for many rows and a dot for
        one, and the two may round a row differently.  On a column-major copy,
        einsum runs down the n contiguous rows once per (i, j) term instead of
        a strided 16-term loop per row; each row is still summed from 0.0 in
        i-major order, so its bytes, but for a NaN's sign, are unchanged.
        """
        Z = np.asfortranarray(states, dtype=float)
        return 0.5 * np.einsum("ni,ij,nj->n", Z, self.quad, Z) + np.einsum("ni,i->n", Z, self.linear)

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
    hs = [
        QuadraticHamiltonian(rep=rep, quad=q, linear=lin, observables=obs)
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
        # The first count reaching t_end, less 1e-9 * max(1, steps) steps of
        # tolerance for a quotient that rounding lifted just above a whole count.
        n = math.ceil(steps - 1e-9 * max(1.0, steps))
    if n > MAX_STEPS:
        raise StepError(
            f"t_end = {t_end} at dt = {dt} needs {steps:.15g} steps, more than the cap of {MAX_STEPS}"
        )
    return n


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
    return _expm(a, _scale_exponents(a))


def _expm(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`expm` of a float stack whose exponents s = :func:`_scale_exponents` (a) are given.

    Its callers, :func:`expm` and :func:`_propagators` under :func:`evolve`, hold ``np.errstate(all="ignore")``.
    """
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


def _block_size(n: int) -> int:
    """Steps per block of an n-step run: isqrt(n) // 2, at least 1 and at most 64.

    Each step of a block costs one more exponential per mass, once per run,
    and each block costs one matmul; a block of about sqrt(n) balances the
    two.  Half of that, tuned on the free-fall benchmark, spends fewer
    exponentials on runs of tens of steps, and a run of fewer than 16 steps
    takes one step per block.
    """
    return max(1, min(64, math.isqrt(n) // 2))


def _propagators(hs: Sequence[QuadraticHamiltonian], dt: float, block: int) -> np.ndarray:
    """The (m, 4 * block, 5) step matrix of m Hamiltonians: P_1 ... P_block, less their last row.

    The drift is time-independent, so P_j = exp(j*A*dt) of the augmented
    5x5 matrix advances any state (z, 1) by j steps.  All m * block
    exponentials are one stacked :func:`_expm` call.  The drift's last row
    is zero, so the last row of each P_j is exactly e5 and is dropped: rows
    4(j - 1) ... 4j - 1 of system i's matrix are the first four of its P_j.
    The caller, :func:`evolve`, holds ``np.errstate(all="ignore")``.
    """
    m = len(hs)
    A, b = _drift(np.array([hi.quad for hi in hs]), np.array([hi.linear for hi in hs]))
    aug = np.zeros((m, 5, 5))
    aug[:, :4, :4] = A * dt
    aug[:, :4, 4] = b * dt
    # j * aug for j = 1 .. block, mass-major: P_j is the exponential of the j-th.
    drifts = (aug[:, None] * np.arange(1.0, block + 1)[:, None, None]).reshape(-1, 5, 5)
    s = _scale_exponents(drifts)
    props = _expm(drifts, s).reshape(m, block, 5, 5)
    if not np.isfinite(props[:, :, :4]).all():
        raise ConfigError(f"the one-step propagator overflows at dt = {dt}")
    # The scaling by 2^-s is exact only above the subnormals.  An entry
    # it rounds (the x2 shift beside the affine column of a 1e200 mass)
    # is lost from the propagator, whose trajectory would be wrong.
    s = s[:, None, None]
    if (np.ldexp(np.ldexp(drifts, -s), s) != drifts).any():
        raise ConfigError(
            f"the one-step propagator cannot resolve its drift at dt = {dt}: "
            f"scaling by 2^-{s.max()} rounds its smallest entries"
        )
    return np.ascontiguousarray(props[:, :, :4]).reshape(m, 4 * block, 5)


# A finite drift can still overflow expm, the states or the observables
# (omega = 1e100): numpy stays silent and the finiteness checks raise
# ConfigError instead of returning nan rows.
@np.errstate(all="ignore")
def evolve(
    h: QuadraticHamiltonian | Sequence[QuadraticHamiltonian],
    initial: Sequence[float],
    t_end: float,
    dt: float,
) -> Trajectory | list[Trajectory]:
    """Propagate in blocks with the exact exponentials of the affine drift.

    ``h`` is one Hamiltonian with a (4,) initial state, giving one
    :class:`Trajectory`, or a sequence of m Hamiltonians with an (m, 4)
    array of initial states, one row each, giving a list of one trajectory
    per Hamiltonian; all m advance in one loop and share ``times``.

    Each block of B = :func:`_block_size` (n) steps is one product of the
    block-start state (z_k, 1) with the step matrix of :func:`_propagators`.
    The product writes the block's rows in place into one
    (m, blocks * B + 1, 4) table; rows past n, in the last block, are
    padding and are never read.  Rounding therefore builds up once per
    block, not once per step.  Each system's rows are byte-equal to its own
    single-system run and a C-contiguous prefix of its block of the table.
    The trajectory covers t = 0 to n*dt where n*dt is t_end (or the first
    multiple of dt past it when t_end is not a multiple).
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
    block = _block_size(n)
    step = _propagators(hs, dt, block)
    blocks = -(-n // block)
    table = np.empty((m, blocks * block + 1, 4))
    table[:, 0] = z0
    start = np.ones((m, 5, 1))
    start[:, :4, 0] = z0
    # step times (z_k, 1) writes z_{k+1} ... z_{k+block} into the table; each
    # block's last row starts the next, and the fifth entry of start stays 1.
    rows = table[:, 1:].reshape(m, blocks, 4 * block, 1).transpose(1, 0, 2, 3)
    matmul = np.matmul
    for row in rows:
        matmul(step, start, row)
        start[:, :4] = row[:, -4:]
    canonical = table[:, : n + 1]
    # A row inside a block feeds no later row, so every row is checked.
    if not np.isfinite(canonical).all():
        raise ConfigError(f"the trajectory overflows before t = {n * dt}")

    # Each system's (n + 1, 4) rows are a prefix of its contiguous block.
    coeffs = np.array([hi.observables for hi in hs])
    observables = canonical @ coeffs.transpose(0, 2, 1)
    # A finite state can still overflow its observables (X1 = a x1 + b p2).
    if not np.isfinite(observables).all():
        raise ConfigError(f"the noncommutative observables overflow before t = {n * dt}")
    times = np.arange(n + 1) * dt
    runs = [Trajectory(times, z, obs) for z, obs in zip(canonical, observables)]
    return runs[0] if single else runs


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
    takes.  The m maps are one (m, 4, 4) stack, checked by one stacked
    condition number and inverted by one stacked solve; the singular-map
    refusal names the first mass whose map is singular.
    """
    single = isinstance(h, QuadraticHamiltonian)
    hs = [h] if single else list(h)
    if not hs:
        raise ConfigError("nc_initial_state needs at least one Hamiltonian")
    vals = np.asarray(nc_data, dtype=float)
    if vals.shape != (4,):
        raise ConfigError(
            f"need 4 values (X1, X2, dX1/dt, dX2/dt), got shape {vals.shape}"
        )
    if not np.isfinite(vals).all():
        raise ConfigError(f"X1, X2, dX1/dt, dX2/dt must be finite, got {vals.tolist()}")
    observables = np.array([hi.observables for hi in hs])
    A, b = _drift(np.array([hi.quad for hi in hs]), np.array([hi.linear for hi in hs]))
    r1, r2 = observables[:, :1], observables[:, 1:2]
    # Vector products, a (1, 4) row per system: a (2, 4) matmul may sum in another order.
    maps = np.concatenate([r1, r2, r1 @ A, r2 @ A], axis=1)
    rhs = np.tile(vals, (len(hs), 1))[..., None]
    rhs[:, 2:] -= np.concatenate([r1 @ b[..., None], r2 @ b[..., None]], axis=1)
    # A map that is not finite reads cond = inf without reaching LAPACK,
    # which would print its complaint to stdout.
    finite = np.isfinite(maps).all(axis=(1, 2))
    cond = np.full(len(hs), np.inf)
    cond[finite] = np.linalg.cond(maps[finite])
    singular = ~np.isfinite(cond) | (cond > 1e12)
    if singular.any():
        raise SingularMapError(
            "observable-to-state map is singular; the chosen representation does not "
            f"determine a unique canonical state (condition number {cond[np.argmax(singular)]:.3g})"
        )
    states = np.linalg.solve(maps, rhs)[..., 0]
    return states[0] if single else states


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
