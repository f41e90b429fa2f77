"""Quadratic-Hamiltonian evolution and the free-fall mass comparison.

Closed-form references: the identity representation reduces everything to
textbook mechanics (uniform motion, uniform acceleration, harmonic
oscillation), so those trajectories pin the integrator before any
noncommutative structure enters.
"""

from __future__ import annotations

import dataclasses
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncphase import (
    CanonicalVar,
    ConfigError,
    DomainError,
    LinearForm,
    MassConditions,
    NCParams,
    SingularMapError,
    StepError,
    build_epsilon_rep,
    build_hamiltonian,
    build_representation,
    check_commutative_limit,
    energy_drift,
    epsilon_factor,
    evolve,
    nc_initial_state,
    params_from_conditions,
    verify_nc_algebra,
    wep_deviation,
    wep_deviation_fixed,
)
from ncphase import dynamics
from ncphase.dynamics import MAX_STEPS, _step_count, coordinate_spread, wep_trajectories
from ncphase.errors import NCPhaseError

IDENTITY = build_representation(NCParams(0.0, 0.0), "simple")


def identity_rep(mass=1.0):
    return build_representation(NCParams(0.0, 0.0, mass=mass), "simple")


# --- Hamiltonian assembly ------------------------------------------------------


def test_free_identity_hamiltonian_is_pure_kinetic():
    h = build_hamiltonian("free", IDENTITY)
    assert h.energies([[0.0, 0.0, 1.0, 0.0], [3.0, -2.0, 0.0, 0.0]]).tolist() == [0.5, 0.0]


def test_gravity_identity_hamiltonian():
    h = build_hamiltonian("uniform_gravity", IDENTITY, g=9.8)
    assert h.energies([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]]) == pytest.approx([9.8, 2.0])


def test_gravity_nc_hamiltonian_couples_p1():
    # the coordinate shift inside X2 drags p1 into the potential
    rep = build_representation(NCParams(0.4, 0.0), "simple")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    assert h.linear[2] == pytest.approx(0.2)  # m*g * theta/2 on p1
    assert h.linear[1] == pytest.approx(1.0)  # m*g on x2


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        build_hamiltonian("quartic", IDENTITY)


@pytest.mark.parametrize("field", [{"g": math.nan}, {"omega": math.inf}])
def test_nonfinite_g_or_omega_rejected_even_where_the_kind_ignores_it(field):
    with pytest.raises(ConfigError, match="g and omega must be finite"):
        build_hamiltonian("free", IDENTITY, **field)


def test_com_representation_rejected():
    from ncphase import CompositeSystem
    from ncphase.composite import com_rep_algebraic

    sys_ = CompositeSystem.from_params([1.0, 2.0], [0.1, 0.1], [0.1, 0.1])
    rep = com_rep_algebraic(sys_, "minus")
    with pytest.raises(ConfigError, match=r"found variable x1\[0\] in a centre-of-mass representation"):
        build_hamiltonian("free", rep)


def test_form_on_another_particle_rejected():
    rep = build_representation(NCParams(0.1, 0.1), "branch")
    stray = dataclasses.replace(rep, X1=rep.X1 + LinearForm({CanonicalVar(1, "x1"): 0.5}))
    with pytest.raises(ConfigError, match=r"found variable x1\[1\] outside particle 0"):
        build_hamiltonian("free", stray)


def test_hamiltonian_and_trajectory_compare_and_hash_by_identity():
    # A field-wise == over ndarray fields would raise on its ambiguous truth value.
    h, h2 = (build_hamiltonian("free", IDENTITY) for _ in range(2))
    traj, traj2 = (evolve(h, [0.0, 0.0, 1.0, 0.0], t_end=0.2, dt=0.1) for _ in range(2))
    for a, b in ((h, h2), (traj, traj2)):
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)


# --- integrator against closed forms ---------------------------------------------


def test_free_particle_uniform_motion():
    h = build_hamiltonian("free", IDENTITY)
    traj = evolve(h, [0.0, 0.0, 1.0, 0.0], t_end=1.0, dt=0.1)
    assert len(traj) == 11
    assert np.allclose(traj.canonical_states[:, 0], traj.times, atol=1e-12)
    assert np.all(np.diff(traj.canonical_states[:, 0]) > 0)
    # identity rep: observables equal canonical state
    assert np.array_equal(traj.nc_observables, traj.canonical_states)


def test_uniform_gravity_parabola():
    h = build_hamiltonian("uniform_gravity", identity_rep(mass=1.0), g=2.0)
    traj = evolve(h, [0.0, 1.0, 0.5, 0.25], t_end=3.0, dt=0.01)
    t = traj.times
    assert np.max(np.abs(traj.canonical_states[:, 1] - (1.0 + 0.25 * t - t**2))) < 1e-9
    assert np.max(np.abs(traj.canonical_states[:, 3] - (0.25 - 2.0 * t))) < 1e-9


def test_harmonic_period():
    h = build_hamiltonian("harmonic", IDENTITY, omega=1.0)
    traj = evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=2.0 * math.pi, dt=math.pi / 500)
    assert traj.canonical_states[-1, 0] == pytest.approx(1.0, abs=1e-9)
    assert traj.canonical_states[-1, 2] == pytest.approx(0.0, abs=1e-9)
    t = traj.times
    assert np.max(np.abs(traj.canonical_states[:, 0] - np.cos(t))) < 1e-9


def test_harmonic_mass_and_frequency():
    h = build_hamiltonian("harmonic", identity_rep(mass=2.0), omega=3.0)
    traj = evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=1.0, dt=1e-3)
    assert traj.canonical_states[-1, 0] == pytest.approx(math.cos(3.0), abs=1e-9)


def test_energy_conservation_long_run():
    rep = build_representation(NCParams(0.3, 0.2), "branch", "minus")
    h = build_hamiltonian("harmonic", rep, omega=0.7)
    traj = evolve(h, [1.0, -0.5, 0.25, 0.75], t_end=100.0, dt=0.05)
    assert energy_drift(h, traj) < 1e-10


# --- batched energies ----------------------------------------------------------------

ENERGY_CASES = [
    (kind, family, branch, mass)
    for kind in ("free", "uniform_gravity", "harmonic")
    for family, branch in (("branch", "minus"), ("simple", None))
    for mass in (0.1, 1.0, 7.0)
]


def _sampled_states(kind, family, branch, mass):
    """A Hamiltonian and every 50th row of its run: canonical states and observables."""
    extra = {"uniform_gravity": {"g": 9.8}, "harmonic": {"omega": 0.7}}.get(kind, {})
    rep = build_representation(NCParams(0.3, 0.2, mass=mass), family, branch)
    h = build_hamiltonian(kind, rep, **extra)
    traj = evolve(h, [1.0, -0.5, 0.25, 0.75], t_end=20.0, dt=0.02)
    return h, traj.canonical_states[::50], traj.nc_observables[::50]


def _exact_energy(h, z) -> Fraction:
    zf = [Fraction(v) for v in z]
    quad = sum(Fraction(h.quad[i, j]) * zf[i] * zf[j] for i in range(4) for j in range(4))
    return quad / 2 + sum(Fraction(h.linear[i]) * zf[i] for i in range(4))


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_energies_match_exact_rational_evaluation(kind, family, branch, mass):
    h, states, observables = _sampled_states(kind, family, branch, mass)
    got = h.energies(observables)
    eps = np.finfo(float).eps
    for z, e in zip(states, got):
        a = np.abs(z)
        magnitude = 0.5 * a @ np.abs(h.quad) @ a + np.abs(h.linear) @ a
        assert abs(Fraction(float(e)) - _exact_energy(h, z)) <= Fraction(8 * eps * magnitude)


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_one_row_energies_equal_the_batch(kind, family, branch, mass):
    # A row's energy does not depend on the rows batched with it.
    h, _, observables = _sampled_states(kind, family, branch, mass)
    for z, e in zip(observables, h.energies(observables)):
        assert h.energies(z[None])[0] == e


def _written_energy(mass, g, omega, x1, x2, p1, p2):
    """H as written in the observables, each potential only where its parameter is not 0.0.

    For floats or numpy columns alike.
    """
    e = (p1 * (p1 / mass) + p2 * (p2 / mass)) / 2
    if g:
        e = e + mass * g * x2
    if omega:
        e = e + mass * omega * (omega * (x1 * x1 + x2 * x2)) / 2
    return e


def _row_major_energies(h, observables):
    """The reference: the written expression over the columns of a row-major copy of the rows."""
    X = np.ascontiguousarray(observables, dtype=float)
    return _written_energy(h.rep.params.mass, h.g, h.omega, *X.T)


def _assert_same_energies(got, expected):
    # The bytes, the sign of a zero included; a NaN only as NaN, since its sign
    # bit may differ and energy_drift refuses it whatever the sign.
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], expected[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))


def test_energies_are_bitwise_the_written_expression():
    # Each kind is built with both g and omega given; its Hamiltonian keeps only its own potential's.
    special = np.array([[0.0] * 4, [-0.0] * 4, [-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0],
                        [np.nan, 1.0, 0.0, -0.0], [-0.0, -np.nan, -0.0, -0.0], [1.0, -0.0, 2.0, -0.0],
                        [-3.0, -0.0, -0.0, -1.5], [np.inf, 0.0, 0.0, 1.0], [0.0, 0.0, -np.inf, 0.0]])
    for mass in (0.1, 7.0, 1e200):
        for family, branch in (("branch", "minus"), ("simple", None)):
            rep = build_representation(NCParams(0.3, 0.2, mass=mass), family, branch)
            # At m = 1e200, X1 of the fall reaches 1.5e200, whose square overflows.
            fall = evolve(build_hamiltonian("uniform_gravity", rep, g=9.8), [1.0, -0.5, 0.25, 0.75], 0.5, 0.02)
            rows = np.concatenate([fall.nc_observables, special])
            for kind, g, omega in (("free", 0.0, 0.0), ("uniform_gravity", 9.8, 0.0), ("harmonic", 0.0, 0.7)):
                h = build_hamiltonian(kind, rep, g=9.8, omega=0.7)
                assert (h.g, h.omega) == (g, omega)
                expected = np.array([_written_energy(mass, g, omega, *row) for row in rows.tolist()])
                with np.errstate(all="ignore"):  # inf * 0, and X1^2 past the float range
                    for given_rows in (rows, np.asfortranarray(rows), rows.tolist(), rows[:1]):
                        _assert_same_energies(h.energies(given_rows), expected[: len(given_rows)])


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_energies_are_bitwise_the_row_major_sum(kind, family, branch, mass):
    # Whatever the layout of the rows given, energies reads the bytes of the
    # written expression over a row-major copy of them.
    h, *_ = _sampled_states(kind, family, branch, mass)
    z0 = [1.0, -0.5, 0.25, 0.75]
    full = evolve(h, z0, t_end=20.0, dt=0.02).nc_observables
    one_row = evolve(h, z0, t_end=0.0, dt=0.02).nc_observables
    assert full.flags.c_contiguous and one_row.shape == (1, 4)
    for rows in (full, full[::50], one_row):
        expected = _row_major_energies(h, rows)
        _assert_same_energies(h.energies(rows), expected)
        _assert_same_energies(h.energies(np.asfortranarray(rows)), expected)
        _assert_same_energies(h.energies(rows.tolist()), expected)
    special = np.array([[0.0] * 4, [-0.0] * 4, [-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0],
                        [np.nan, 1.0, 0.0, -0.0], [-0.0, -np.nan, -0.0, -0.0], [1.0, -0.0, 2.0, -0.0]])
    _assert_same_energies(h.energies(special), _row_major_energies(h, special))


def _exact_drift(h, states) -> Fraction:
    """``energy_drift``'s value for H as written in the observables, exact at float canonical states.

    X = observables @ z and 2mH = |P|^2 + 2m^2 g X2 + m^2 omega^2 |X|^2 are
    sums of products of floats, which Decimal holds exactly: an inexact step
    raises.  The drift is then max |2mH(t) - 2mH(0)| / max(2m, |2mH(0)|).
    """
    exact = decimal.Context(prec=2000, Emin=-10**6, Emax=10**6, traps=[decimal.Inexact])
    rows = [[Decimal(v) for v in row] for row in h.observables.tolist()]
    m, g, omega = (Decimal(v) for v in (h.rep.params.mass, h.g, h.omega))
    with decimal.localcontext(exact):
        k = []
        for z in states.tolist():
            z = [Decimal(v) for v in z]
            x1, x2, p1, p2 = (sum(a * b for a, b in zip(row, z)) for row in rows)
            k.append(p1 * p1 + p2 * p2 + 2 * m * m * g * x2 + m * m * omega * omega * (x1 * x1 + x2 * x2))
        top = max(abs(v - k[0]) for v in k)
    return Fraction(top) / max(Fraction(2 * m), abs(Fraction(k[0])))


#: Largest |energy_drift - exact drift| of the long stacked run below, the
#: exact drift being :func:`_exact_drift` at the run's canonical states.  H
#: read from the observables was 1.1e-14, 2.1e-13 and 4.9e-15 off at masses
#: 1, 3 and 20; H through the canonical quad form read 3.9e-13, 7.3e-14 and
#: 4.8e-13.  The drifts are about 2e-12, and the energy terms reach 1e5.
LONG_RUN_DRIFT_ERROR = 3e-13


def test_long_stacked_run_drift_is_the_observables_expression():
    c = MassConditions(gamma=0.05, alpha=0.05)
    reps = [build_representation(params_from_conditions(c, mass), "branch", "minus") for mass in (1.0, 3.0, 20.0)]
    runs = wep_trajectories(reps, (0.2, 0.1, 1.0, 0.0), g=1.0, t_end=100.0, dt=0.01)
    for h, traj in runs:
        assert len(traj) == 10001
        drift = energy_drift(h, traj)
        e = _written_energy(h.rep.params.mass, 1.0, 0.0, *traj.nc_observables.T)
        assert drift.hex() == float(np.max(np.abs(e - e[0])) / max(1.0, abs(e[0]))).hex()
        assert abs(Fraction(drift) - _exact_drift(h, traj.canonical_states)) <= LONG_RUN_DRIFT_ERROR


# --- evolve against a 40-digit oracle -------------------------------------------------

#: Rows of a 2000-step run held against the oracle: one inside the first block,
#: one mid-run and the last two.
ORACLE_STEPS = (37, 1000, 1999, 2000)

#: Largest error of ``evolve`` against the oracle, relative to the largest
#: entry of the exact state.  At these rows the plain loop, one ``E @ s + f``
#: per step, read 8.3e-15 to 1.0e-13 over ``ENERGY_CASES`` (median 4.4e-14,
#: past this bound in 11 of 18) and 2.2e-14 to 9.2e-14 over the five stacked
#: systems (past it in 4 of 5); blocked stepping reads at most 2.1e-14 and
#: 2.5e-14.
ORACLE_BOUND = 4e-14


def _oracle_error(h, z0, dt, traj, steps):
    """Largest error of the rows ``steps`` of ``traj`` against exp(k A dt) (z0, 1)
    at 40 digits, each relative to the largest entry of its exact state."""
    mpmath = pytest.importorskip("mpmath")
    A, b = h.drift()
    aug = np.zeros((5, 5))
    aug[:4, :4] = A * dt
    aug[:4, 4] = b * dt
    with mpmath.workdps(40):
        a, z = mpmath.matrix(aug.tolist()), mpmath.matrix([*z0, 1.0])
        exact = np.array([[float(v) for v in (mpmath.expm(k * a) * z)[:4]] for k in steps])
    got = traj.canonical_states[list(steps)]
    return float((np.abs(got - exact).max(axis=1) / np.abs(exact).max(axis=1)).max())


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_evolve_matches_the_mpmath_oracle(kind, family, branch, mass):
    h, *_ = _sampled_states(kind, family, branch, mass)
    z0, dt = [0.3, -1.25, 2.0, 0.5], 0.02
    traj = evolve(h, z0, 40.0, dt)
    assert _oracle_error(h, z0, dt, traj, ORACLE_STEPS) <= ORACLE_BOUND


# --- several systems in one evolve call ------------------------------------------------


#: (kind, family, branch, mass) of the stacked systems.  The heavy mass under
#: gravity has the largest affine column, m*g = 196.
STACKED_SYSTEMS = [
    ("uniform_gravity", "simple", None, 20.0),
    ("harmonic", "branch", "minus", 0.1),
    ("uniform_gravity", "branch", "minus", 7.0),
    ("free", "simple", None, 1.0),
    ("harmonic", "simple", None, 2.5),
]


def _mixed_hamiltonians(m):
    return [
        build_hamiltonian(kind, build_representation(NCParams(0.3, 0.2, mass=mass), family, branch),
                          g=9.8, omega=0.7)
        for kind, family, branch, mass in STACKED_SYSTEMS[:m]
    ]


@pytest.mark.parametrize("m", range(1, 6))
def test_stacked_evolve_is_bitwise_each_single_evolve(m):
    hs = _mixed_hamiltonians(m)
    z0 = np.array([[0.3, -1.25, 2.0, 0.5], [1.0, 0.0, -3.0, 0.25], [0.0, 2.0, 0.5, -1.0],
                   [-0.5, 0.75, 4.0, 1.5], [2.0, -2.0, 0.0, 0.125]])[:m]
    runs = evolve(hs, z0, 40.0, 0.02)
    assert len(runs) == m
    for i, (h, traj) in enumerate(zip(hs, runs)):
        assert traj.times.shape == (2001,)
        assert traj.canonical_states.shape == traj.nc_observables.shape == (2001, 4)
        one = evolve(h, z0[i], 40.0, 0.02)
        assert traj.times.tobytes() == one.times.tobytes()
        assert traj.canonical_states.tobytes() == one.canonical_states.tobytes()
        assert traj.nc_observables.tobytes() == one.nc_observables.tobytes()
    # The other systems were held against the oracle at smaller m.
    assert _oracle_error(hs[-1], z0[-1], 0.02, one, (2000,)) <= ORACLE_BOUND


@pytest.mark.parametrize("t_end", [0.0, 0.02, 40.0, 200.0])
def test_observables_are_the_states_times_the_transposed_coefficients(t_end):
    # evolve multiplies by a contiguous copy of the transposed coefficients;
    # one row is a gemv, which rounds by the operand's layout, so a zero-step
    # run must still read the bytes of the product with the transposed view.
    hs = _mixed_hamiltonians(5)
    coeffs = np.array([h.observables for h in hs])
    rng = np.random.default_rng(44)
    for _ in range(10):  # full-precision states, whose products round
        runs = evolve(hs, rng.standard_normal((5, 4)), t_end, 0.02)
        expected = np.array([traj.canonical_states for traj in runs]) @ coeffs.transpose(0, 2, 1)
        assert [traj.nc_observables.tobytes() for traj in runs] == [obs.tobytes() for obs in expected]


@pytest.mark.parametrize("m", [2, 5])
def test_wep_trajectories_are_one_contiguous_block_per_mass(m):
    c = MassConditions(gamma=0.05, alpha=0.05)
    reps = [build_representation(params_from_conditions(c, 1.5**i), "simple") for i in range(m)]
    runs = wep_trajectories(reps, (0.2, 0.1, 1.0, 0.0), g=1.0, t_end=0.5, dt=0.05)
    assert [h.rep for h, _ in runs] == reps
    for _, traj in runs:
        assert len(traj) == 11
        assert traj.canonical_states.shape == traj.nc_observables.shape == (11, 4)
        assert traj.canonical_states.flags.c_contiguous


def _owner(array):
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize("steps", [0, 1, 40, 10**4])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_a_runs_states_and_observables_are_contiguous_views_of_one_buffer(m, steps):
    hs = _mixed_hamiltonians(m)
    z0 = np.array([[0.3, -1.25, 2.0, 0.5], [1.0, 0.0, -3.0, 0.25], [0.0, 2.0, 0.5, -1.0],
                   [-0.5, 0.75, 4.0, 1.5], [2.0, -2.0, 0.0, 0.125]])[:m]
    dt = 0.002
    runs = [evolve(hs[0], z0[0], steps * dt, dt)] if m == 1 else evolve(hs, z0, steps * dt, dt)
    arrays = [a for traj in runs for a in (traj.canonical_states, traj.nc_observables)]
    owner = _owner(arrays[0])
    for i, a in enumerate(arrays):
        assert a.shape == (steps + 1, 4) and a.flags.c_contiguous
        assert a.base is not None and _owner(a) is owner
        assert not any(np.may_share_memory(a, b) for b in arrays[i + 1:])


def test_stacked_evolve_needs_one_initial_row_per_hamiltonian():
    hs = _mixed_hamiltonians(3)
    for bad in (np.zeros((2, 4)), np.zeros((4, 4)), np.zeros(4), np.zeros((3, 3)), np.zeros((1, 3, 4))):
        with pytest.raises(ConfigError, match=r"shape \(3, 4\)"):
            evolve(hs, bad, 1.0, 0.1)
    with pytest.raises(ConfigError):
        evolve([], np.zeros((0, 4)), 1.0, 0.1)


# --- the closed-form flow ----------------------------------------------------------------


def _drift_draws(count, seed=2005):
    """(Hamiltonian, dt) of all three kinds: mass 0.1 to 30, dt 1e-3 to 1, omega 0.1 to 100."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        family, branch = (("branch", "minus"), ("simple", None))[(i // 3) % 2]
        theta, eta = rng.uniform(-0.5, 0.5, size=2)
        mass, dt = 10 ** rng.uniform(-1.0, 1.5), 10 ** rng.uniform(-3.0, 0.0)
        rep = build_representation(NCParams(theta, eta, mass=mass), family, branch)
        h = build_hamiltonian(("free", "uniform_gravity", "harmonic")[i % 3], rep,
                              g=rng.uniform(0.5, 20.0), omega=10 ** rng.uniform(-1.0, 2.0))
        out.append((h, dt))
    return out


def _one_step(h, dt):
    """The real 4 x 5 step [exp(A dt) | F] of one Hamiltonian's flow, and its phase rho * dt."""
    C, c = dynamics._complex_drift(*dynamics._stack([h])[1:], dt)
    E, F, rho = dynamics._flow(C, c, np.array([dt]))
    E, F = E[0, 0], F[0, 0]
    step = np.zeros((4, 5))
    step[::2, :4:2] = step[1::2, 1:4:2] = E.real
    step[1::2, :4:2], step[::2, 1:4:2] = E.imag, -E.imag
    step[::2, 4], step[1::2, 4] = F.real, F.imag
    return step, float(rho[0]) * dt


#: Largest error of a one-step flow against ``mpmath.expm`` at 40 digits, in
#: ulps of the largest exact entry, per 1 + rho * dt, its phase in radians:
#: the condition number of exp(A dt) grows with that phase.  Over
#: ``_drift_draws(60)`` the flow read at most 1.0 of these units (85 ulps at
#: 897 rad); the Padé expm read up to 1924 ulps, as scipy's did.
FLOW_ULPS = 2.0

#: Largest entrywise relative error of the one-step flow of conditioned
#: gravity at masses 1e5, 1e9 and 1e20 against the same oracle: 2.0e-16,
#: where the Padé expm read 3.7e-15 to 4.3e-12 of the largest entry.
HEAVY_FLOW_BOUND = 4 * 2.0**-53


def test_flow_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    conditioned = [build_representation(params_from_conditions(MassConditions(0.3, 0.2), mass), "branch")
                   for mass in (1e5, 1e9, 1e20)]
    heavy = [(build_hamiltonian("uniform_gravity", rep, g=1.0), 0.01) for rep in conditioned]
    for i, (h, dt) in enumerate(_drift_draws(60) + heavy):
        got, phase = _one_step(h, dt)
        A, b = h.drift()
        aug = np.zeros((5, 5))
        aug[:4, :4], aug[:4, 4] = A * dt, b * dt
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(aug.tolist())).tolist(), dtype=float)[:4]
        err = np.abs(got - exact)
        assert err.max() <= FLOW_ULPS * (1.0 + phase) * np.spacing(np.abs(exact).max()), i
        if i >= 60:
            zero = exact == 0
            assert (got[zero] == 0).all() and (err[~zero] <= HEAVY_FLOW_BOUND * np.abs(exact[~zero])).all(), i


def test_stacked_flow_is_bitwise_each_single_flow():
    # Free, gravity and harmonic drifts in one stack: the affine part is
    # computed for the stack and zeroed where c is.
    hs = [h for h, _ in _drift_draws(30)]
    t = np.array([0.0, 0.01, 0.5, 3.0])
    stacked = dynamics._flow(*dynamics._complex_drift(*dynamics._stack(hs)[1:], 0.01), t)
    for i, h in enumerate(hs):
        one = dynamics._flow(*dynamics._complex_drift(*dynamics._stack([h])[1:], 0.01), t)
        assert [a[i].tobytes() for a in stacked] == [a[0].tobytes() for a in one]
        if h.linear.any():
            assert stacked[1][i].any()
        else:
            assert not stacked[1][i].any() and not np.signbit(stacked[1][i].view(float)).any()
    # A c = 0 mass whose phi2 overflows (a real trace of 100 at t = 10) still reads F = +0 beside an affine one.
    C = np.array([[[0.3j, 0.5], [-0.18, 0.3j]], [[50.0, 0.0], [0.0, 50.0]]])
    with np.errstate(all="ignore"):
        _, F, _ = dynamics._flow(C, np.array([[0.25 - 1j, 2.0], [0.0, 0.0]]), np.array([0.0, 1.0, 10.0]))
    assert F[0, 1:].all() and not F[1].any() and not np.signbit(F[1].view(float)).any()


def _hex(*arrays):
    """float.hex of every float of each array, a complex entry as its (real, imag) pair."""
    return [[v.hex() for v in np.ascontiguousarray(a).view(float).ravel().tolist()] for a in arrays]


def _masked_flow(C, c, t):
    """The flow with every guarded branch computed for every element and masked afterwards."""
    lam = C[:, 0, 0] + C[:, 1, 1]
    tau, half = lam / 2, (C[:, 0, 0] - C[:, 1, 1]) / 2
    delta = np.sqrt(half * half + C[:, 0, 1] * C[:, 1, 0])
    w, e = delta[:, None] * t, np.exp(tau[:, None] * t)
    sinh = np.divide(np.sinh(w), delta[:, None], out=t * np.ones_like(w), where=delta[:, None] != 0)
    E = (e * sinh)[..., None, None] * (C - tau[:, None, None] * np.eye(2))[:, None]
    E.reshape(*E.shape[:2], 4)[..., ::3] += (e * np.cosh(w))[..., None]
    y = lam[:, None] * t
    phi2 = 0.5 + 0.5 * np.multiply.accumulate(y / np.arange(3.0, 17.0)[:, None, None]).sum(axis=0)
    np.divide(2 * np.exp(y / 2) * np.sinh(y / 2) - y, y * y, out=phi2, where=abs(y) >= dynamics._SERIES_CUTOFF)
    F = t[:, None] * c[:, None] + (t * t * phi2)[..., None] * (C @ c[..., None])[:, None, :, 0]
    return E, np.where(c.any(axis=1)[:, None, None], F, 0), abs(tau) + abs(delta)


def test_flow_shortcuts_are_byte_equal_to_the_masked_expressions():
    # _flow skips a guarded branch no element takes; each side of each guard
    # must read the bytes of the masked expression.
    free = build_hamiltonian("free", IDENTITY)  # C = [[0, 1], [0, 0]]: delta = 0, c = 0
    osc = build_hamiltonian("harmonic", build_representation(NCParams(0.3, 0.2, mass=7.0), "branch", "minus"),
                            omega=0.7)
    falls = [build_hamiltonian("uniform_gravity", build_representation(NCParams(0.3, 0.2, mass=mass), family, branch),
                               g=9.8) for mass, family, branch in ((7.0, "branch", "minus"), (20.0, "simple", None))]
    C, _ = dynamics._complex_drift(*dynamics._stack(falls)[1:], 1.0)
    lam = abs(C[:, 0, 0] + C[:, 1, 1])  # |y| = lam t reaches the cutoff at t = cutoff / lam
    below = np.array([0.0, 1e-3, 0.5]) * dynamics._SERIES_CUTOFF / lam.max()
    above = np.array([1.5, 4.0, 100.0]) * dynamics._SERIES_CUTOFF / lam.min()
    across = np.concatenate([below, above])
    cases = [  # (Hamiltonians, times, (delta = 0 for some mass, c = 0 for some mass, |y| below, |y| past))
        ([free, osc], across, (True, True, None, None)),
        ([osc, *falls], across, (False, True, True, True)),
        (falls, below, (False, False, True, False)),
        (falls, above, (False, False, False, True)),
        (falls, across, (False, False, True, True)),
        ([osc, free, *falls], across, (True, True, True, True)),
    ]
    for hs, t, premise in cases:
        C, c = dynamics._complex_drift(*dynamics._stack(hs)[1:], 1.0)
        with np.errstate(all="ignore"):
            E, F, rho = dynamics._flow(C, c, t)
            assert _hex(E, F, rho) == _hex(*_masked_flow(C, c, t))
        half = (C[:, 0, 0] - C[:, 1, 1]) / 2
        y = abs((C[:, 0, 0] + C[:, 1, 1])[c.any(axis=1), None] * t)
        assert premise[:2] == (not np.sqrt(half * half + C[:, 0, 1] * C[:, 1, 0]).all(), not c.any(axis=1).all())
        if premise[2] is not None:
            assert premise[2:] == ((y < dynamics._SERIES_CUTOFF).any(), (y >= dynamics._SERIES_CUTOFF).any())


#: Largest error of E(s + t) = E(t) E(s) and F(s + t) = E(t) F(s) + F(t),
#: in ulps of the product's scale, per 1 + rho (s + t).  Over
#: ``SEMIGROUP_TIMES`` and the systems below the flow read at most 3.7 of
#: these units (gravity, simple family, mass 7).
SEMIGROUP_ULPS = 8.0

#: s and t of the semigroup check: lambda t crosses phi2's series cutoff
#: between them for every gravity mass but 20.
SEMIGROUP_TIMES = (1e-3, 0.02, 0.5, 10.0)


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES + STACKED_SYSTEMS)
def test_flow_at_a_sum_of_times_is_the_product_of_its_flows(kind, family, branch, mass):
    # evolve joins each block's start at t = kB dt to the block's steps at
    # t = j dt, so the flow must compose, on both sides of the series cutoff.
    rep = build_representation(NCParams(0.3, 0.2, mass=mass), family, branch)
    h = build_hamiltonian(kind, rep, g=9.8, omega=0.7)
    s, t = (a.ravel() for a in np.meshgrid(SEMIGROUP_TIMES, SEMIGROUP_TIMES, indexing="ij"))
    C, c = dynamics._complex_drift(*dynamics._stack([h])[1:], 1.0)
    E, F, rho = (a[0] for a in dynamics._flow(C, c, np.concatenate([s, t, s + t])))
    (Es, Et, Est), (Fs, Ft, Fst) = np.split(E, 3), np.split(F, 3)
    bound = SEMIGROUP_ULPS * 2.0**-53 * (1.0 + rho * (s + t))
    scale_e = np.abs(Et).max(axis=(1, 2))
    assert (np.abs(Est - Et @ Es).max(axis=(1, 2)) <= bound * 2 * scale_e * np.abs(Es).max(axis=(1, 2))).all()
    err = np.abs(Fst - (Et @ Fs[..., None])[..., 0] - Ft).max(axis=1)
    assert (err <= bound * (scale_e * np.abs(Fs).max(axis=1) + np.abs(Ft).max(axis=1))).all()
    assert Fst.any() == (kind == "uniform_gravity")


@pytest.mark.parametrize("block", [1, 5, 16, 64])
def test_every_block_size_meets_the_oracle(monkeypatch, block):
    # Block 1 takes every row from its own start, block 64 steps 63 rows
    # from each start and pads the last block (2000 = 31 * 64 + 16).
    hs = _mixed_hamiltonians(5)
    z0 = np.array([[0.3, -1.25, 2.0, 0.5], [1.0, 0.0, -3.0, 0.25], [0.0, 2.0, 0.5, -1.0],
                   [-0.5, 0.75, 4.0, 1.5], [2.0, -2.0, 0.0, 0.125]])
    monkeypatch.setattr(dynamics, "_block_size", lambda n: block)
    for h, z, traj in zip(hs, z0, evolve(hs, z0, 40.0, 0.02)):
        assert len(traj) == 2001
        assert _oracle_error(h, z, 0.02, traj, ORACLE_STEPS) <= ORACLE_BOUND


_K = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])


def _rank_one_ratio(A):
    """|C00 C11 - C01 C10| / (|C00 C11| + |C01 C10|) of the complex drift of A, as the refusal reads it."""
    C = A[::2, ::2] + 1j * A[1::2, ::2]
    p, q = C[0, 0] * C[1, 1], C[0, 1] * C[1, 0]
    return abs(p - q) / (abs(p) + abs(q)) if p or q else 0.0


_FAMILIES = [("branch", "minus"), ("branch", "plus"), ("simple", None), ("epsilon_general", "minus")]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(dynamics.HAMILTONIAN_KINDS), family=st.sampled_from(_FAMILIES),
       conditioned=st.booleans(), a=st.floats(0.001, 0.9), b=st.floats(0.001, 0.9), sign=st.sampled_from([1.0, -1.0]),
       mass=st.floats(1e-3, 1e3), g=st.floats(-20.0, 20.0), omega=st.floats(0.0, 100.0))
def test_every_built_drift_is_rotation_invariant_and_gravity_rank_one(kind, family, conditioned, a, b, sign, mass, g,
                                                                      omega):
    # The plus branch needs theta * eta > 0.
    b = b if family[1] == "plus" else sign * b
    params = params_from_conditions(MassConditions(a, b), mass) if conditioned else NCParams(a, b, mass=mass)
    h = build_hamiltonian(kind, build_representation(params, *family), g=g, omega=omega)
    A, _ = h.drift()
    assert (_K @ A @ _K.T == A).all()
    if kind != "harmonic":
        assert _rank_one_ratio(A) <= dynamics._RANK_ONE_BOUND


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(dynamics.HAMILTONIAN_KINDS), family=st.sampled_from(_FAMILIES[::2]),
       conditioned=st.booleans(), a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5),
       mass=st.floats(1e-3, 1e3), g=st.floats(-20.0, 20.0), omega=st.floats(0.0, 100.0),
       t_end=st.floats(0.01, 100.0))
def test_healthy_runs_never_trip_the_phase_rule(kind, family, conditioned, a, b, mass, g, omega, t_end):
    params = params_from_conditions(MassConditions(a, b), mass) if conditioned else NCParams(a, b, mass=mass)
    h = build_hamiltonian(kind, build_representation(params, *family), g=g, omega=omega)
    traj = evolve(h, [0.3, -1.25, 2.0, 0.5], t_end, t_end / 10)
    assert len(traj) == 11


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("kind", dynamics.HAMILTONIAN_KINDS)
def test_every_built_drift_has_a_trace_of_real_part_plus_zero(kind, family):
    # Re tr C = A[0, 0] + A[2, 2] = quad[2, 0] - quad[0, 2], and quad is symmetric bit for bit.
    rng = np.random.default_rng(89)
    reps = []
    for _ in range(200):
        a, b = rng.uniform(0.001, 0.9, size=2) * rng.choice([1.0, -1.0], size=2)
        b = abs(b) * np.sign(a) if family[1] == "plus" else b  # the plus branch needs theta * eta > 0
        mass = 10 ** rng.uniform(-3.0, 6.0)
        conditioned = rng.random() < 0.5
        params = params_from_conditions(MassConditions(a, b), mass) if conditioned else NCParams(a, b, mass=mass)
        reps.append(build_representation(params, *family))
    hs = build_hamiltonian(kind, reps, g=9.8, omega=0.7)
    _, A, b = dynamics._stack(hs)
    C, _ = dynamics._complex_drift(A, b, 0.01)
    assert {(C[i, 0, 0] + C[i, 1, 1]).real.hex() for i in range(len(hs))} == {(0.0).hex()}


def test_drift_that_is_not_rotation_invariant_is_refused():
    h = build_hamiltonian("harmonic", build_representation(NCParams(0.3, 0.2), "branch"), omega=0.7)
    quad = h.quad.copy()
    quad[0, 0] = np.nextafter(quad[0, 0], np.inf)  # the x1^2 weight one ulp off the x2^2 weight
    bad = dataclasses.replace(h, quad=quad)
    for run in (lambda: evolve(bad, [1.0, 0.0, 0.0, 0.0], 0.1, 0.01),
                lambda: evolve([h, bad], [[1.0, 0.0, 0.0, 0.0]] * 2, 0.1, 0.01)):
        with pytest.raises(ConfigError) as info:
            run()
        assert str(info.value) == "the drift is not invariant under rotations of the plane, which its flow needs"


def test_affine_drift_whose_C_is_not_rank_one_is_refused():
    rep = build_representation(NCParams(0.3, 0.2), "branch")
    fall = build_hamiltonian("uniform_gravity", rep, g=1.0)
    osc = build_hamiltonian("harmonic", rep, omega=0.7)
    # The oscillator's C has rank two: accepted without a linear term, refused with one.
    evolve(osc, [1.0, 0.0, 0.0, 0.0], 0.1, 0.01)
    refusals = [dataclasses.replace(osc, linear=fall.linear)]
    # A gravity C whose C11 is scaled by 1 + 1.5 * 2^-49 reads about 12u, past the
    # 8u bound; scaled by 1 + 2^-51 it reads 2u plus at most 3.5u of rounding.
    for scale, refused in ((1 + 1.5 * 2.0**-49, True), (1 + 2.0**-51, False)):
        quad = fall.quad.copy()
        quad[:2, 2:] *= scale  # the entries of C11, so the drift stays rotation-invariant
        h = dataclasses.replace(fall, quad=quad)
        ratio = _rank_one_ratio(h.drift()[0])
        assert (ratio > dynamics._RANK_ONE_BOUND) == refused and ratio < 2 * dynamics._RANK_ONE_BOUND
        if refused:
            refusals.append(h)
        else:
            evolve(h, [1.0, 0.0, 0.0, 0.0], 0.1, 0.01)
    for h in refusals:
        with pytest.raises(ConfigError) as info:
            evolve([fall, h], [[1.0, 0.0, 0.0, 0.0]] * 2, 0.1, 0.01)
        assert str(info.value) == "an affine drift needs a rank-one C, but det C is past rounding"


def test_drift_overflowing_at_dt_is_a_propagator_overflow():
    h = build_hamiltonian("harmonic", IDENTITY, omega=1e100)
    with pytest.raises(ConfigError, match="propagator overflows"):
        evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=1e300, dt=1e300)


@pytest.mark.parametrize("steps", [1, 100])
@pytest.mark.parametrize("field,index", [("quad", (2, 2)), ("quad", (0, 3)), ("linear", 1), ("linear", 3)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_drift_holding_nan_or_inf_is_a_propagator_overflow(value, field, index, steps):
    # Such a drift is refused before its flow is formed.
    h = build_hamiltonian("uniform_gravity", build_representation(NCParams(0.3, 0.2), "branch"), g=1.0)
    entries = getattr(h, field).copy()
    entries[index] = value
    bad = dataclasses.replace(h, **{field: entries})
    with pytest.raises(ConfigError) as info:
        evolve(bad, [0.0, 0.0, 1.0, 0.0], t_end=steps * 0.01, dt=0.01)
    assert str(info.value) == "the one-step propagator overflows at dt = 0.01"


def _taylor_states(h, z0, times, dps=50):
    """exp(t M) (z0, 1) of the augmented drift M = [[A, b], [0, 0]] at each time, by its Taylor series.

    Summed at ``dps`` digits until a term falls below 10^-dps of the sum;
    only a drift with a modest |A t| converges in few terms, as a heavy
    mass's does.  Returns the exact (x1, x2, p1, p2) rows, rounded once.
    """
    mpmath = pytest.importorskip("mpmath")
    A, b = h.drift()
    with mpmath.workdps(dps):
        M = mpmath.matrix([[*row, bi] for row, bi in zip(A.tolist(), b.tolist())] + [[0.0] * 5])
        start = mpmath.matrix([*map(float, z0), 1.0])
        rows = []
        for t in times:
            term, total, k = start, start, 0
            while max(map(abs, term)) > mpmath.mpf(10) ** -dps * max(map(abs, total)):
                k += 1
                term = M * term * (mpmath.mpf(float(t)) / k)
                total += term
            rows.append([float(x) for x in total[:4]])
    return np.array(rows)


def _column_error(got, exact):
    """Largest |got - exact| of each column, relative to that column's largest exact entry.

    A column that is exactly zero must be zero in ``got`` too.
    """
    err, scale = np.abs(got - exact).max(axis=0), np.abs(exact).max(axis=0)
    assert (err[scale == 0] == 0).all()
    return float((err[scale > 0] / scale[scale > 0]).max(initial=0.0))


#: Largest error of a heavy fixed-parameter free fall against ``_taylor_states``,
#: relative to each column's largest entry.  Masses 1e100 to 1e300 at
#: t_end 0.5 and 1e153 at t_end 3 read at most 3.5e-16.  The Padé expm
#: refused masses 1e153 (past t_end 3.5), 1e200 and 1e300, whose scaling
#: by a power of two rounded entries of the drift away.
HEAVY_FALL_BOUND = 8 * 2.0**-53


@pytest.mark.parametrize("mass,t_end", [(1e100, 0.5), (1e153, 3.0), (1e153, 10.0), (1e200, 0.5), (1e300, 0.5)])
def test_heavy_fixed_parameter_fall_matches_the_taylor_oracle(mass, t_end):
    rep = build_representation(NCParams(0.1, 0.1, mass=mass), "branch", "minus")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    z0 = [0.0, 0.0, 1.0, 0.0]
    traj = evolve(h, z0, t_end, 0.1)
    assert _column_error(traj.canonical_states, _taylor_states(h, z0, traj.times)) <= HEAVY_FALL_BOUND


def test_phase_refusal_reads_the_whole_run():
    # One step of omega = 1e10 at dt = 0.01 is a phase of 1e8 rad, 1.1e-8 from
    # one ulp: accepted, and x1 = cos(omega * dt) to about that.  A hundred
    # steps reach 1e10 rad, 1.1e-6 from one ulp, past the bound.
    mpmath = pytest.importorskip("mpmath")
    h = build_hamiltonian("harmonic", IDENTITY, omega=1e10)
    one = evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=0.01, dt=0.01)
    with mpmath.workdps(40):
        exact = float(mpmath.cos(mpmath.mpf(1e10) * mpmath.mpf(0.01)))
    assert abs(one.canonical_states[1, 0] - exact) <= 1e8 * 2.0**-53
    with pytest.raises(ConfigError) as info:
        evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=1.0, dt=0.01)
    assert str(info.value) == (
        "the phase of the run, 1e+10 rad by t = 1.0, is too large to resolve: one ulp of "
        "the drift moves it by 1.11e-06 rad, past the bound of 1e-06"
    )


def test_conditioned_free_fall_agrees_across_nine_decades_of_mass():
    assert wep_deviation(MassConditions(0.3, 0.2), (1.0, 1e9)) <= 1e-9


#: Largest spread of a conditioned free fall (gamma 0.3, alpha 0.2, g 1,
#: t_end 2, |X| up to 2) whose masses span past 1e12, where the raw map
#: reads a condition number of about the largest mass.  With the columns
#: scaled it read 4.4e-16 to 8.9e-16 at masses (1, 1e13), (1, 1e15),
#: (1, 1e20), (1e-3, 1e100), (1e-100, 1e100) and (1, 1e150), both families.
HEAVY_WEP_SPREAD = 2e-15


@pytest.mark.parametrize("family,branch", [("branch", "minus"), ("simple", None)])
@pytest.mark.parametrize("masses", [(1.0, 1e15), (1e-3, 1e100)])
def test_conditioned_free_fall_agrees_where_the_masses_span_past_1e12(masses, family, branch):
    spread = wep_deviation(MassConditions(0.3, 0.2), masses, family=family, branch=branch, t_end=2.0)
    assert spread <= HEAVY_WEP_SPREAD


def _criterion_9_drifts(count=16, seed=2005):
    """Energy drift of every mass of ``count`` free falls at 1000 steps of dt = 0.01."""
    rng = np.random.default_rng(seed)
    drifts = []
    for j in range(count):
        family, branch = (("branch", "minus"), ("simple", None))[j % 2]
        first, ratio = 10 ** rng.uniform(0.0, 0.5), rng.uniform(1.5, 2.5)
        masses = [first * ratio**i for i in range(2 + j % 4)]
        a, b = rng.uniform(0.005, 0.05, size=2)
        if (j // 2) % 2 == 0:
            params = [params_from_conditions(MassConditions(gamma=a, alpha=b), m) for m in masses]
        else:
            params = [NCParams(a, b, mass=m) for m in masses]
        reps = [build_representation(q, family, branch) for q in params]
        nc_data = (0.0, 0.0, rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        drifts += [energy_drift(h, traj) for h, traj in wep_trajectories(reps, nc_data, 1.0, 10.0, 0.01)]
    return drifts


#: Median of ``_criterion_9_drifts()`` (56 trajectories) with scipy's expm.
SCIPY_CRITERION_9_MEDIAN_DRIFT = 2.9570603977086295e-12


def test_criterion_9_median_drift_stays_at_the_scipy_level():
    # Which rational form ends the Pade step sets this median.  The forms
    # I + 2(V-U)^-1 U and scipy's agree to rounding noise, within 3 % either
    # way on other draws; (V-U)^-1 (V+U) raises it 1.8 to 3 times.
    assert np.median(_criterion_9_drifts()) <= 1.1 * SCIPY_CRITERION_9_MEDIAN_DRIFT


def test_free_fall_that_missed_the_benchmark_drift_gate_keeps_it():
    # A wep_dynamics op of perfbench seed 906: with one matmul per step its
    # largest drift read 1.31e-10, past the 1e-10 gate; blocked, 6.4e-12.
    masses = [1.8473270115018254, 4.151422391521431, 9.329321644474037, 20.965402731316466, 47.11469155387584]
    reps = [build_representation(NCParams(0.011495125512568545, 0.005633575176403882, mass=m), "simple")
            for m in masses]
    runs = wep_trajectories(reps, (0.0, 0.0, 0.6320950571353785, -0.19028945441413678), 1.0, 10.0, 0.01)
    assert max(energy_drift(h, traj) for h, traj in runs) <= 1e-10


def test_step_validation():
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(StepError):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=1.0, dt=0.0)
    with pytest.raises(StepError):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=1.0, dt=-0.1)
    with pytest.raises(StepError):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=-1.0, dt=0.1)
    with pytest.raises(StepError, match="t_end and dt must be finite"):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=1.0, dt=math.inf)
    with pytest.raises(ConfigError):
        evolve(h, [0.0, 0.0, 0.0], t_end=1.0, dt=0.1)
    with pytest.raises(ConfigError, match=r"^initial state must be finite, got \[0.0, nan, 0.0, 0.0\]$"):
        evolve(h, [0.0, math.nan, 0.0, 0.0], t_end=1.0, dt=0.1)


_GRAVITY = build_hamiltonian("uniform_gravity", IDENTITY, g=1.0)
_REP = build_representation(NCParams(0.3, 0.2, mass=2.0), "branch", "minus")

#: Entry points past the parameter constructors, each with one value set to
#: ``big``: the class of its finite-value check and the field it names.
BIG_INT_ENTRY_POINTS = [
    (lambda big: build_hamiltonian("uniform_gravity", IDENTITY, g=big), ConfigError, "g is"),
    (lambda big: build_hamiltonian("harmonic", IDENTITY, omega=big), ConfigError, "omega is"),
    (lambda big: evolve(_GRAVITY, [big, 0, 0, 0], 1.0, 0.1), ConfigError, "initial state holds"),
    (lambda big: evolve([_GRAVITY] * 2, [[0] * 4, [0, 0, 0, big]], 1.0, 0.1), ConfigError, "initial state holds"),
    (lambda big: evolve(_GRAVITY, [0] * 4, big, 0.1), StepError, "t_end is"),
    (lambda big: evolve(_GRAVITY, [0] * 4, 1.0, big), StepError, "dt is"),
    (lambda big: nc_initial_state(_GRAVITY, [0, big, 0, 0]), ConfigError, "nc_data holds"),
    (lambda big: epsilon_factor(big, 0.1), DomainError, "theta_prime is"),
    (lambda big: epsilon_factor(0.1, big), DomainError, "eta_prime is"),
    (lambda big: build_epsilon_rep(NCParams(0.3, 0.2), big, 0.1), DomainError, "theta_prime is"),
    (lambda big: build_epsilon_rep(NCParams(0.3, 0.2), 0.1, big), DomainError, "eta_prime is"),
    (lambda big: verify_nc_algebra(_REP, expect_theta=big), ConfigError, "expect_theta is"),
    (lambda big: verify_nc_algebra(_REP, expect_eta=big), ConfigError, "expect_eta is"),
    (lambda big: verify_nc_algebra(_REP, expect_diag=big), ConfigError, "expect_diag is"),
    (lambda big: check_commutative_limit([1e-2, big], NCParams(0.3, 0.2), [1e-2] * 2), ConfigError,
     "commutative-limit scale is"),
]


@pytest.mark.parametrize("build,error,field", BIG_INT_ENTRY_POINTS)
@pytest.mark.parametrize("big", [10**400, -(10**5000)], ids=["10**400", "-10**5000"])
def test_an_int_past_the_float_range_is_refused_by_field_at_every_entry_point(build, error, field, big):
    # The message names the field and not the int, which Python refuses to
    # format past 4300 digits; the class is the one a NaN there raises.
    with pytest.raises(error, match=rf"^{field} an int past the float range$"):
        build(big)


#: Readers that took a numeric string through ``float`` or ``np.asarray``:
#: the tolerances (one and a list) and the float arrays (a state and nc_data).
STRING_READERS = [
    lambda: verify_nc_algebra(_REP, tol="1e-3"),
    lambda: check_commutative_limit([1e-2], NCParams(0.3, 0.2), ["0.1"]),
    lambda: evolve(_GRAVITY, ["0", "0", "1", "0"], 1.0, 0.5),
    lambda: nc_initial_state(_GRAVITY, ["0", "0", "1", "0"]),
]


@pytest.mark.parametrize("read", STRING_READERS, ids=["tol", "limit-tols", "evolve", "nc_initial_state"])
def test_a_numeric_string_raises_the_type_error_of_every_scalar_reader(read):
    # NCParams, g, t_end and the rest read through math.isfinite, which refuses a str.
    with pytest.raises(TypeError, match=r"^must be real number, not str$"):
        read()


def test_step_count_covers_t_end():
    h = build_hamiltonian("free", IDENTITY)
    # 0.3/0.1 is 2.9999... in floats; the rounding guard must still give 3 steps
    traj = evolve(h, [0.0] * 4, t_end=0.3, dt=0.1)
    assert len(traj) == 4
    assert traj.times[-1] == pytest.approx(0.3, abs=1e-12)
    # 1.0/0.3 rounds to 3 steps, which stop short of t_end: one more covers it
    assert _step_count(1.0, 0.3) == 4
    # quotients a rounding above a whole count take that count, not one more
    assert _step_count(0.1 * 3, 0.1) == 3
    assert _step_count(2.1, 0.3) == 7
    # the rounding tolerance is counted in steps, not in time: at dt = 1e-9 it is no whole step
    assert _step_count(1.4e-9, 1e-9) == 2
    assert _step_count(5e-10, 1e-9) == 1


def test_step_count_is_capped():
    assert _step_count(MAX_STEPS * 0.5, 0.5) == MAX_STEPS
    # counts past the cap, one of them overflowing to inf, are refused
    # before anything is allocated
    for t_end, dt, count in [(1e9, 1e-3, "1000000000000"), ((MAX_STEPS + 1) * 0.5, 0.5, "1000001"),
                             (1e300, 1e-300, "inf")]:
        with pytest.raises(StepError, match=f"needs {count} steps, more than the cap of {MAX_STEPS}"):
            _step_count(t_end, dt)


# --- initial data in noncommutative observables ------------------------------------


def test_nc_initial_state_inverts_observables():
    rep = build_representation(NCParams(0.2, 0.1), "branch", "minus")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    z0 = nc_initial_state(h, (0.3, -0.2, 1.0, 0.5))
    traj = evolve(h, z0, t_end=0.02, dt=0.01)
    assert traj.nc_observables[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert traj.nc_observables[0, 1] == pytest.approx(-0.2, abs=1e-12)
    # requested velocities dX/dt at t = 0 via the exact affine drift
    order = ("x1", "x2", "p1", "p2")
    r1 = np.array([rep.X1.coefficient(CanonicalVar(0, k)) for k in order])
    r2 = np.array([rep.X2.coefficient(CanonicalVar(0, k)) for k in order])
    A, b = h.drift()
    assert r1 @ (A @ z0 + b) == pytest.approx(1.0, abs=1e-12)
    assert r2 @ (A @ z0 + b) == pytest.approx(0.5, abs=1e-12)


def test_nc_initial_state_realises_the_velocities_of_any_affine_term():
    # A built drift has X2 . b = 0 (b = J m g X2); a hand-built linear term
    # moves both velocities, and each must still read as requested.
    h = build_hamiltonian("harmonic", build_representation(NCParams(0.2, 0.1, mass=3.0), "branch", "minus"), omega=0.7)
    h = dataclasses.replace(h, linear=np.array([0.3, -0.7, 1.1, 0.4]))
    A, b = h.drift()
    assert (h.observables[:2] @ b != 0).all()
    for hs in (h, [h, h]):
        for z0 in np.reshape(nc_initial_state(hs, (0.3, -0.2, 1.0, 0.5)), (-1, 4)):
            assert h.observables[:2] @ z0 == pytest.approx([0.3, -0.2], abs=1e-12)
            assert h.observables[:2] @ (A @ z0 + b) == pytest.approx([1.0, 0.5], abs=1e-12)


def test_nc_initial_state_singular_at_degenerate_params():
    # at theta*eta = 1 the representation collapses onto a rank-deficient
    # observable map: no unique canonical state realises the requested data
    rep = build_representation(NCParams(1.0, 1.0), "branch", "minus")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    with pytest.raises(SingularMapError):
        nc_initial_state(h, (0.0, 0.0, 1.0, 0.0))


@pytest.mark.parametrize("mass", [1.0, 2.0**43, 2.0**-43])
def test_nc_initial_state_refuses_a_condition_number_above_1e12(mass):
    # Observables X1 = x1 + x2 and X2 = x1 + (1 + d) x2 of a free mass make
    # the map [[B, 0], [0, B / m]], B = [[1, 1], [1, 1 + d]]: two nearly
    # parallel columns of equal scale in each block, which no column scaling
    # separates, so the map reads cond B, about 4 / d, at every mass.  Unscaled,
    # it read m or 1 / m times more: about 8.8e12 times at m = 2^43.
    h = build_hamiltonian("free", identity_rep(mass))
    for cond, refused in ((0.99e12, False), (1.01e12, True)):
        d = (1 + 4 / cond) - 1
        observables = np.array([[1.0, 1.0, 0, 0], [1.0, 1.0 + d, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
        skewed = dataclasses.replace(h, observables=observables)
        if refused:
            with pytest.raises(SingularMapError, match=r"\(condition number 1\.01e\+12\)$"):
                nc_initial_state(skewed, (0.0, 0.0, 1.0, 0.0))
        else:
            B = observables[:2, :2]
            expected = np.linalg.solve(np.block([[B, np.zeros((2, 2))], [np.zeros((2, 2)), B / mass]]),
                                       [0.0, 0.0, 1.0, 0.0])
            assert nc_initial_state(skewed, (0.0, 0.0, 1.0, 0.0)).tobytes() == expected.tobytes()


def test_nc_initial_state_shape_check():
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(ConfigError):
        nc_initial_state(h, (0.0, 0.0))
    with pytest.raises(ConfigError, match=r"^X1, X2, dX1/dt, dX2/dt must be finite, got \[0.0, 0.0, nan, 0.0\]$"):
        nc_initial_state(h, (0.0, 0.0, math.nan, 0.0))


# --- free-fall universality --------------------------------------------------------


@pytest.mark.parametrize("family,branch", [("branch", "minus"), ("simple", None)])
def test_wep_dichotomy(family, branch):
    c = MassConditions(gamma=0.01, alpha=0.01)
    tied = wep_deviation(c, (1.0, 2.0), family=family, branch=branch, g=1.0, t_end=2.0, dt=0.02)
    fixed = wep_deviation_fixed(
        0.01, 0.01, (1.0, 2.0), family=family, branch=branch, g=1.0, t_end=2.0, dt=0.02
    )
    assert tied <= 1e-9
    assert fixed > 1e-3


def test_wep_equal_masses_trivially_agree():
    dev = wep_deviation_fixed(0.01, 0.01, (2.0, 2.0), g=1.0, t_end=1.0, dt=0.05)
    assert dev == 0.0


def test_wep_needs_two_masses():
    with pytest.raises(ConfigError):
        wep_deviation(MassConditions(0.01, 0.01), (1.0,))


def test_wep_trajectories_need_two_masses():
    rep = build_representation(NCParams(0.01, 0.01, mass=3.0), "branch", "minus")
    with pytest.raises(ConfigError, match=r"at least two masses to compare free fall, got \[3\.0\]"):
        wep_trajectories([rep], (0.0, 0.0, 1.0, 0.0), g=1.0, t_end=0.1, dt=0.05)


def test_wep_trajectories_share_initial_observables():
    c = MassConditions(gamma=0.05, alpha=0.05)
    reps = [build_representation(params_from_conditions(c, m), "branch", "minus") for m in (1.0, 3.0)]
    runs = wep_trajectories(reps, (0.2, 0.1, 0.0, 0.0), g=1.0, t_end=0.5, dt=0.05)
    first = runs[0][1].nc_observables[0, :2]
    second = runs[1][1].nc_observables[0, :2]
    assert np.allclose(first, [0.2, 0.1], atol=1e-12)
    assert np.allclose(second, [0.2, 0.1], atol=1e-12)
    assert coordinate_spread(runs) <= 1e-9


# --- the stacked free-fall setup ---------------------------------------------------


@pytest.mark.parametrize("conditioned", [True, False], ids=["conditioned", "fixed"])
@pytest.mark.parametrize("family,branch", [("branch", "minus"), ("simple", None)])
@pytest.mark.parametrize("m", range(2, 6))
def test_wep_setup_is_bitwise_each_single_mass_setup(m, family, branch, conditioned):
    masses = [1.3 * 1.9**i for i in range(m)]
    if conditioned:
        params = [params_from_conditions(MassConditions(gamma=0.03, alpha=0.02), mass) for mass in masses]
    else:
        params = [NCParams(0.03, 0.02, mass=mass) for mass in masses]
    reps = [build_representation(q, family, branch) for q in params]
    nc_data = (0.25, -0.5, 1.0, 0.3)
    for rep, (h, traj) in zip(reps, wep_trajectories(reps, nc_data, g=2.0, t_end=0.6, dt=0.01)):
        one = build_hamiltonian("uniform_gravity", rep, g=2.0)
        z0 = nc_initial_state(one, nc_data)
        alone = evolve(one, z0, 0.6, 0.01)
        for field in ("quad", "linear", "observables"):
            assert getattr(h, field).tobytes() == getattr(one, field).tobytes()
        assert traj.canonical_states[0].tobytes() == z0.tobytes()
        assert traj.times.tobytes() == alone.times.tobytes()
        assert traj.canonical_states.tobytes() == alone.canonical_states.tobytes()
        assert traj.nc_observables.tobytes() == alone.nc_observables.tobytes()


def _per_mass_setup(kind, rep, g, omega, nc_data):
    """Reference: one mass's observables, quad, linear, and the unscaled map and
    right-hand side of its initial state, by the per-mass formulas, one
    np.outer and one vector product at a time."""
    mass = rep.params.mass
    observables = np.zeros((4, 4))
    for row, form in zip(observables, rep.forms()):
        for var, coeff in form.terms.items():
            row[("x1", "x2", "p1", "p2").index(var.kind)] = coeff
    quad, linear = np.zeros((4, 4)), np.zeros(4)
    for r in observables[2:]:
        quad += np.outer(r, r) / mass
    if kind == "uniform_gravity":
        linear += mass * g * observables[1]
    elif kind == "harmonic":
        for r in observables[:2]:
            quad += mass * omega * omega * np.outer(r, r)
    A, b = dynamics._J @ quad, dynamics._J @ linear
    r1, r2 = observables[:2]
    rows = np.stack([r1, r2, r1 @ A, r2 @ A])
    rhs = np.array([nc_data[0], nc_data[1], nc_data[2] - r1 @ b, nc_data[3] - r2 @ b])
    return observables, quad, linear, rows, rhs


@pytest.mark.parametrize("theta,eta,g", [(0.3, 0.2, 9.8), (-0.25, 0.0, -9.8)])
@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_setup_is_bitwise_the_per_mass_formulas(kind, family, branch, mass, theta, eta, g):
    # A negative g makes -0.0 products, which the sum onto zeros turns into +0.0.
    rep = build_representation(NCParams(theta, eta, mass=mass), family, branch)
    nc_data = (0.25, -0.5, 1.0, 0.3)
    h = build_hamiltonian(kind, rep, g=g if kind == "uniform_gravity" else 0.0, omega=0.7)
    observables, quad, linear, rows, rhs = _per_mass_setup(kind, rep, g, 0.7, nc_data)
    expected = (observables, quad, linear, np.linalg.solve(rows, rhs))
    got = (h.observables, h.quad, h.linear, nc_initial_state(h, nc_data))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("free", "uniform_gravity", "harmonic")),
    family=st.sampled_from((("branch", "minus"), ("branch", "plus"), ("simple", None))),
    theta=st.floats(-3.0, 3.0),
    eta=st.floats(-3.0, 3.0),
    log_mass=st.floats(-6.0, 30.0),
    g=st.floats(-20.0, 20.0),
    omega=st.floats(0.0, 5.0),
)
def test_column_scaling_keeps_the_bytes_of_the_unscaled_solve(kind, family, theta, eta, log_mass, g, omega):
    # Scaling a column by a power of two is exact while every entry stays
    # normal, and partial pivoting compares entries within a column, so the
    # scaled solve, scaled back, is the unscaled one bit for bit.
    nc_data = (0.25, -0.5, 1.0, 0.3)
    try:
        rep = build_representation(NCParams(theta, eta, mass=10.0**log_mass), *family)
        got = nc_initial_state(build_hamiltonian(kind, rep, g=g, omega=omega), nc_data)
    except NCPhaseError:
        assume(False)  # no representation, Hamiltonian or unique state at these parameters
    *_, rows, rhs = _per_mass_setup(kind, rep, g, omega, nc_data)
    nonzero = abs(rows[rows != 0])
    assume(((nonzero > 2.0**-500) & (nonzero < 2.0**500)).all())  # every entry stays normal once scaled
    assert got.tobytes() == np.linalg.solve(rows, rhs).tobytes()


def test_stacked_overflow_names_the_first_mass_that_overflows():
    for masses, first in (((1.0, 10.0), 10.0), ((100.0, 10.0, 1.0), 100.0)):
        reps = [build_representation(NCParams(0.1, 0.1, mass=mass), "branch", "minus") for mass in masses]
        with pytest.raises(ConfigError, match=rf"overflows for mass = {first}, g = 1e\+308, omega = 0\.0$"):
            wep_trajectories(reps, (0.0, 0.0, 1.0, 0.0), g=1e308, t_end=0.1, dt=0.05)


def _singular_message(rep):
    with pytest.raises(SingularMapError) as info:
        nc_initial_state(build_hamiltonian("uniform_gravity", rep, g=1.0), (0.0, 0.0, 1.0, 0.0))
    return str(info.value)


def test_stacked_singular_map_refusal_names_the_first_mass():
    # Three singular maps with three condition numbers: about 2.9e16, about
    # 2.8e32, and inf for a map whose entries overflow (theta = 1e147).
    near = build_representation(NCParams(1.0, 1.0, mass=1.0), "branch", "minus")
    far = build_representation(NCParams(1e8, 1e-8, mass=3.0), "branch", "minus")
    overflowing = build_representation(NCParams(1e147, -500.0, mass=1e-180), "simple")
    fine = build_representation(NCParams(0.1, 0.1, mass=2.0), "branch", "minus")
    messages = {rep: _singular_message(rep) for rep in (near, far, overflowing)}
    assert len(set(messages.values())) == 3
    assert messages[overflowing].endswith("(condition number inf)")
    for reps, first in (([near, far, overflowing], near), ([far, near], far),
                        ([fine, overflowing, near], overflowing), ([fine, fine, far], far)):
        with pytest.raises(SingularMapError) as info:
            wep_trajectories(reps, (0.0, 0.0, 1.0, 0.0), g=1.0, t_end=0.1, dt=0.05)
        assert str(info.value) == messages[first]


def test_condition_numbers_are_np_linalg_cond():
    rng = np.random.default_rng(4242)
    maps = rng.normal(size=(6, 4, 4)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(6, 1, 1))
    maps[1, 3] = maps[1, 2]  # rank 3: a ratio past 1e12, or inf
    maps[2] = 0.0  # 0 / 0, which np.linalg.cond reads as inf
    with np.errstate(all="ignore"):
        got = dynamics._condition_numbers(maps)
        assert _hex(got) == _hex(np.linalg.cond(maps)) and got[2] == np.inf and got[1] > 1e12
        # Maps that are not finite read inf; the finite ones still read np.linalg.cond.
        maps[3, 0, 0], maps[5, 1, 2] = np.nan, -np.inf
        got = dynamics._condition_numbers(maps)
        assert _hex(got) == _hex(np.concatenate([np.linalg.cond(maps[:3]), [np.inf], np.linalg.cond(maps[4:5]),
                                                 [np.inf]]))


def test_condition_numbers_never_read_nan():
    # nc_initial_state refuses on cond > 1e12 alone, so no map may read NaN:
    # 0 / 0 (an all-zero map, and every map that is not finite, which enters
    # as one) and inf / inf (every singular value overflows) both read inf.
    block = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    overflowing = np.zeros((4, 4))
    overflowing[:2, :2] = overflowing[2:, 2:] = block
    nan, pos_inf, neg_inf = np.eye(4), np.eye(4), np.eye(4)
    nan[1, 2], pos_inf[0, 0], neg_inf[3, 1] = np.nan, np.inf, -np.inf
    finite = np.arange(16.0).reshape(4, 4) + 10.0 * np.eye(4)
    # (map, singular): every map but the first reads past 1e12.
    maps = [(finite, False), (np.zeros((4, 4)), True), (np.diag([1e-320, 1.0, 1.0, 1.0]), True),
            (np.full((4, 4), 1e308), True), (overflowing, True), (nan, True), (pos_inf, True), (neg_inf, True)]
    rng = np.random.default_rng(4343)
    stacks = [list(range(len(maps)))] + [[i] for i in range(len(maps))]
    stacks += [list(rng.choice(len(maps), size=rng.integers(2, 9))) for _ in range(40)]
    for stack in stacks:
        with np.errstate(all="ignore"):
            cond = dynamics._condition_numbers(np.array([maps[i][0] for i in stack]))
        assert not np.isnan(cond).any(), stack
        assert ((cond > 1e12) == [maps[i][1] for i in stack]).all(), stack


def test_singular_map_refusal_beside_a_map_that_is_not_finite_names_the_first_mass():
    # The overflowing map reads inf, after the first singular mass.
    far = build_representation(NCParams(1e8, 1e-8, mass=3.0), "branch", "minus")
    overflowing = build_representation(NCParams(1e147, -500.0, mass=1e-180), "simple")
    fine = build_representation(NCParams(0.1, 0.1, mass=2.0), "branch", "minus")
    hs = build_hamiltonian("uniform_gravity", [fine, far, overflowing], g=1.0)
    with pytest.raises(SingularMapError) as info:
        nc_initial_state(hs, (0.0, 0.0, 1.0, 0.0))
    assert str(info.value) == _singular_message(far)
    # A hand-built Hamiltonian with no observables: an all-zero map reads condition number inf.
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(SingularMapError, match=r"\(condition number inf\)$"):
        nc_initial_state([h, dataclasses.replace(h, observables=np.zeros((4, 4)))], (0.0, 0.0, 1.0, 0.0))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_coordinate_spread_is_the_spread_of_a_stacked_copy(m):
    hs = _mixed_hamiltonians(m)
    z0 = np.array([[0.3, -1.25, 2.0, 0.5], [1.0, 0.0, -3.0, 0.25], [0.0, 2.0, 0.5, -1.0],
                   [-0.5, 0.75, 4.0, 1.5], [2.0, -2.0, 0.0, 0.125]])[:m]
    # Evolved runs, and runs built by hand whose coordinates tie, carry signed zeros and overflow.
    rng = np.random.default_rng(m)
    hand = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf], size=(m, 9, 4))
    evolved = list(zip(hs, evolve(hs, z0, 2.0, 0.05)))
    built = [(h, dynamics.Trajectory(np.arange(9.0), np.zeros((9, 4)), obs)) for h, obs in zip(hs, hand)]
    for runs in (evolved, built):
        coords = np.stack([traj.nc_observables[:, :2] for _, traj in runs])
        with np.errstate(invalid="ignore"):  # inf - inf
            expected = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
            assert coordinate_spread(runs).hex() == expected.hex()
    assert (coordinate_spread(evolved) == 0.0) == (m == 1)
    assert coordinate_spread(evolved[:1]).hex() == (0.0).hex()


def test_coordinate_spread_refuses_no_runs_or_runs_of_unequal_lengths():
    h = build_hamiltonian("free", IDENTITY)
    runs = [(h, evolve(h, [0.0, 0.0, 1.0, 0.0], t_end, 0.1)) for t_end in (1.0, 0.5, 0.0)]
    for chosen, lengths in (([], r"\[\]"), (runs[:2], r"\[11, 6\]"), (runs[::2], r"\[11, 1\]")):
        with pytest.raises(ConfigError, match=rf"^coordinate_spread needs runs of one length, got lengths {lengths}$"):
            coordinate_spread(chosen)


#: Row counts at the edges of 2048-row blocks, where a walk over the rows a
#: block at a time would split them: one row, a block less one row, one block,
#: a block and a lone row, two blocks and a lone row, and a 10^4-step run.
BLOCK_EDGE_ROWS = [1, 2047, 2048, 2049, 4097, 10**4 + 1]


@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
def test_blocked_stages_are_byte_equal_to_the_whole_array_expressions(n):
    # At every row count, coordinate_spread must read the bytes of one
    # expression over all the rows.
    h = build_hamiltonian("harmonic", build_representation(NCParams(0.3, 0.2, mass=2.0), "branch", "minus"),
                          omega=0.7)
    rng = np.random.default_rng(n)
    finite = rng.standard_normal((3, n, 4)) * 10.0 ** rng.integers(-3, 4, size=(3, n, 1))
    special = rng.choice([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan], size=(3, n, 4),
                         p=[0.3, 0.3, 0.15, 0.15, 0.03, 0.03, 0.04])
    # A lone NaN in the first or the last row: a max that drops a NaN from
    # either side of its comparison reads the other blocks' spread.
    early, late = finite.copy(), finite.copy()
    early[1, 0, 1] = late[1, -1, 0] = np.nan
    # One NaN, inf or -inf in each block and column in turn, X1 and X2 read
    # apart and P1 and P2 not at all; one signed zero among zeros of the other sign.
    placed = []
    for block in range(0, n, 2048):
        for column in range(4):
            row = min(n - 1, block + int(rng.integers(2048)))
            for value, base in ((np.nan, finite), (np.inf, finite), (-np.inf, finite),
                                (-0.0, np.zeros_like(finite)), (0.0, np.full_like(finite, -0.0))):
                stack = base.copy()
                stack[column % 3, row, column] = value
                placed.append(stack)
    for stack in (finite, special, early, late, *placed):
        runs = [(h, dynamics.Trajectory(np.arange(float(n)), z, z)) for z in stack]
        with np.errstate(all="ignore"):  # inf - inf
            coords = stack[:, :, :2]
            expected = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
            assert coordinate_spread(runs).hex() == expected.hex()


# --- one system or a sequence: the setup stages take what evolve takes -------------


def _mixed_reps():
    """Reps of both families and several masses, to stack in one call."""
    return [
        build_representation(NCParams(theta, eta, mass=mass), family, branch)
        for theta, eta, mass, family, branch in (
            (0.3, 0.2, 0.1, "branch", "minus"),
            (-0.25, 0.0, 7.0, "simple", None),
            (0.03, 0.02, 1.3, "branch", "plus"),
            (0.4, 0.1, 1e3, "epsilon_general", "minus"),
        )
    ]


@pytest.mark.parametrize("kind", dynamics.HAMILTONIAN_KINDS)
def test_build_hamiltonian_of_a_sequence_is_bitwise_each_one_rep_build(kind):
    reps = _mixed_reps()
    hs = build_hamiltonian(kind, reps, g=-9.8, omega=0.7)
    assert isinstance(hs, list) and len(hs) == len(reps)
    for rep, h in zip(reps, hs):
        one = build_hamiltonian(kind, rep, g=-9.8, omega=0.7)
        assert isinstance(one, dynamics.QuadraticHamiltonian)
        assert h.rep is rep is one.rep
        for field in ("quad", "linear", "observables"):
            assert getattr(h, field).tobytes() == getattr(one, field).tobytes()
    # A sequence of one is a list of one, whatever the sequence type.
    (h,) = build_hamiltonian(kind, tuple(reps[:1]), g=-9.8, omega=0.7)
    assert h.quad.tobytes() == hs[0].quad.tobytes()


def test_nc_initial_state_of_a_sequence_is_bitwise_each_single_call():
    nc_data = (0.25, -0.5, 1.0, 0.3)
    hs = build_hamiltonian("uniform_gravity", _mixed_reps(), g=2.0)
    states = nc_initial_state(hs, nc_data)
    assert states.shape == (len(hs), 4)
    for h, row in zip(hs, states):
        one = nc_initial_state(h, nc_data)
        assert one.shape == (4,)
        assert row.tobytes() == one.tobytes()
    # The stages compose the same way for one system or a sequence of one.
    runs = evolve(hs[:1], nc_initial_state(hs[:1], nc_data), 0.1, 0.05)
    alone = evolve(hs[0], nc_initial_state(hs[0], nc_data), 0.1, 0.05)
    assert runs[0].canonical_states.tobytes() == alone.canonical_states.tobytes()


def test_setup_refusals_name_the_first_failing_mass_of_a_sequence():
    reps = [build_representation(NCParams(0.1, 0.1, mass=mass), "branch", "minus") for mass in (1.0, 100.0, 10.0)]
    with pytest.raises(ConfigError, match=r"overflows for mass = 100\.0, g = 1e\+308, omega = 0\.0$"):
        build_hamiltonian("uniform_gravity", reps, g=1e308)
    near = build_representation(NCParams(1.0, 1.0, mass=1.0), "branch", "minus")
    far = build_representation(NCParams(1e8, 1e-8, mass=3.0), "branch", "minus")
    fine = build_representation(NCParams(0.1, 0.1, mass=2.0), "branch", "minus")
    hs = build_hamiltonian("uniform_gravity", [fine, far, near], g=1.0)
    with pytest.raises(SingularMapError) as info:
        nc_initial_state(hs, (0.0, 0.0, 1.0, 0.0))
    assert str(info.value) == _singular_message(far) != _singular_message(near)


@pytest.mark.parametrize("empty", [[], (), iter([])], ids=["list", "tuple", "iterator"])
def test_setup_stages_refuse_an_empty_sequence(empty):
    with pytest.raises(ConfigError, match="^build_hamiltonian needs at least one representation$"):
        build_hamiltonian("free", empty)
    with pytest.raises(ConfigError, match="^nc_initial_state needs at least one Hamiltonian$"):
        nc_initial_state(empty, (0.0, 0.0, 1.0, 0.0))


def test_wep_trajectories_sets_up_through_the_public_stages_once_each(monkeypatch):
    calls = []
    for name in ("build_hamiltonian", "nc_initial_state"):
        def counted(*args, _name=name, _stage=getattr(dynamics, name), **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    wep_deviation(MassConditions(gamma=0.05, alpha=0.05), [1.0, 3.0, 9.0], t_end=0.1, dt=0.05)
    assert calls == ["build_hamiltonian", "nc_initial_state"]


def test_overflowing_propagator_or_trajectory_rejected():
    # The flow of omega = 1e100 is finite, a cosine of 1e98 rad, but one ulp
    # of omega moves that phase by 1e82 rad.
    h = build_hamiltonian("harmonic", IDENTITY, omega=1e100)
    with pytest.raises(ConfigError, match=r"^the phase of the run, 2e\+98 rad by t = 0\.02, is too large"):
        evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=0.02, dt=0.01)
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(ConfigError, match="trajectory overflows"):
        evolve([h, h], [[0.0] * 4, [0.0, 0.0, 1e307, 0.0]], t_end=100.0, dt=1.0)


def test_overflowing_observables_are_refused():
    # The state stays finite, but X1 = a * x1 + b * p2 sums 1.65e308 and
    # 1.03e308 and overflows from the initial row on; at x1 = 1.7e307 it does not.
    rep = build_representation(NCParams(2e158, 1e-159), "branch", "minus")
    h = build_hamiltonian("free", rep)
    z0 = [1.7e308, 0.0, 0.0, -1e150]
    for run in (lambda: evolve(h, z0, t_end=0.02, dt=0.01),
                lambda: evolve([build_hamiltonian("free", IDENTITY), h], [[0.0] * 4, z0], t_end=0.02, dt=0.01)):
        with pytest.raises(ConfigError) as info:
            run()
        assert str(info.value) == "the noncommutative observables overflow before t = 0.02"
    assert np.isfinite(evolve(h, [1.7e307, 0.0, 0.0, -1e150], t_end=0.02, dt=0.01).nc_observables).all()


def test_padding_rows_of_the_last_block_are_never_read():
    # 17 steps take blocks of 2, so the last block also writes row 18, past n.
    h = build_hamiltonian("free", IDENTITY)
    z0 = [0.0, 0.0, 1e307, 0.0]
    assert dynamics._block_size(17) == 2
    traj = evolve(h, z0, t_end=17.0, dt=1.0)
    assert len(traj) == 18 and traj.canonical_states[-1, 0] == pytest.approx(1.7e308)
    # Row 18 overflows; it is refused once it is a row of the trajectory.
    with pytest.raises(ConfigError, match=r"the trajectory overflows before t = 18\.0"):
        evolve(h, z0, t_end=18.0, dt=1.0)
