"""Quadratic-Hamiltonian evolution and the free-fall mass comparison.

Closed-form references: the identity representation reduces everything to
textbook mechanics (uniform motion, uniform acceleration, harmonic
oscillation), so those trajectories pin the integrator before any
noncommutative structure enters.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ncphase import (
    CanonicalVar,
    ConfigError,
    LinearForm,
    MassConditions,
    NCParams,
    SingularMapError,
    StepError,
    build_hamiltonian,
    build_representation,
    energy_drift,
    evolve,
    nc_initial_state,
    params_from_conditions,
    wep_deviation,
    wep_deviation_fixed,
)
from ncphase import dynamics
from ncphase.dynamics import MAX_STEPS, _step_count, coordinate_spread, wep_trajectories

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
    extra = {"uniform_gravity": {"g": 9.8}, "harmonic": {"omega": 0.7}}.get(kind, {})
    rep = build_representation(NCParams(0.3, 0.2, mass=mass), family, branch)
    h = build_hamiltonian(kind, rep, **extra)
    traj = evolve(h, [1.0, -0.5, 0.25, 0.75], t_end=20.0, dt=0.02)
    return h, traj.canonical_states[::50]


def _exact_energy(h, z) -> Fraction:
    zf = [Fraction(v) for v in z]
    quad = sum(Fraction(h.quad[i, j]) * zf[i] * zf[j] for i in range(4) for j in range(4))
    return quad / 2 + sum(Fraction(h.linear[i]) * zf[i] for i in range(4))


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_energies_match_exact_rational_evaluation(kind, family, branch, mass):
    h, states = _sampled_states(kind, family, branch, mass)
    got = h.energies(states)
    eps = np.finfo(float).eps
    for z, e in zip(states, got):
        a = np.abs(z)
        magnitude = 0.5 * a @ np.abs(h.quad) @ a + np.abs(h.linear) @ a
        assert abs(Fraction(float(e)) - _exact_energy(h, z)) <= Fraction(8 * eps * magnitude)


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_one_row_energies_equal_the_batch(kind, family, branch, mass):
    # A row's energy does not depend on the rows batched with it.
    h, states = _sampled_states(kind, family, branch, mass)
    for z, e in zip(states, h.energies(states)):
        assert h.energies(z[None])[0] == e


@pytest.mark.parametrize("kind,family,branch,mass", ENERGY_CASES)
def test_evolve_is_bitwise_the_plain_recurrence(kind, family, branch, mass):
    h, _ = _sampled_states(kind, family, branch, mass)
    z0, t_end, dt = [0.3, -1.25, 2.0, 0.5], 40.0, 0.02
    traj = evolve(h, z0, t_end, dt)
    A, b = h.drift()
    aug = np.zeros((5, 5))
    aug[:4, :4] = A * dt
    aug[:4, 4] = b * dt
    prop = dynamics.expm(aug[None])[0]
    E, f = prop[:4, :4], prop[:4, 4]
    ref = np.empty((2001, 4))
    ref[0] = z0
    for k in range(2000):
        ref[k + 1] = E @ ref[k] + f
    assert traj.canonical_states.tobytes() == ref.tobytes()


# --- several systems in one step loop -------------------------------------------------


#: (kind, family, branch, mass) of the stacked systems.  The heavy mass under
#: gravity has an expm whose last row is not exactly (0, 0, 0, 0, 1).
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


def _plain_recurrence(h, z0, n, dt):
    A, b = h.drift()
    aug = np.zeros((5, 5))
    aug[:4, :4] = A * dt
    aug[:4, 4] = b * dt
    prop = dynamics.expm(aug[None])[0]
    E, f = prop[:4, :4], prop[:4, 4]
    ref = np.empty((n + 1, 4))
    ref[0] = z0
    for k in range(n):
        ref[k + 1] = E @ ref[k] + f
    return ref


@pytest.mark.parametrize("m", range(1, 6))
def test_stacked_evolve_is_bitwise_each_single_evolve(m):
    hs = _mixed_hamiltonians(m)
    z0 = np.array([[0.3, -1.25, 2.0, 0.5], [1.0, 0.0, -3.0, 0.25], [0.0, 2.0, 0.5, -1.0],
                   [-0.5, 0.75, 4.0, 1.5], [2.0, -2.0, 0.0, 0.125]])[:m]
    traj = evolve(hs, z0, 40.0, 0.02)
    assert traj.times.shape == (2001,)
    assert traj.canonical_states.shape == traj.nc_observables.shape == (m, 2001, 4)
    for i, h in enumerate(hs):
        one = evolve(h, z0[i], 40.0, 0.02)
        assert traj.times.tobytes() == one.times.tobytes()
        assert traj.canonical_states[i].tobytes() == one.canonical_states.tobytes()
        assert traj.nc_observables[i].tobytes() == one.nc_observables.tobytes()
        assert one.canonical_states.tobytes() == _plain_recurrence(h, z0[i], 2000, 0.02).tobytes()


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


def test_stacked_evolve_needs_one_initial_row_per_hamiltonian():
    hs = _mixed_hamiltonians(3)
    for bad in (np.zeros((2, 4)), np.zeros((4, 4)), np.zeros(4), np.zeros((3, 3)), np.zeros((1, 3, 4))):
        with pytest.raises(ConfigError, match=r"shape \(3, 4\)"):
            evolve(hs, bad, 1.0, 0.1)
    with pytest.raises(ConfigError):
        evolve([], np.zeros((0, 4)), 1.0, 0.1)


# --- the one-step matrix exponential ---------------------------------------------------


def _drift_draws(count, seed=2005):
    """Augmented drifts [[A dt, b dt], [0, 0]] of all three kinds: mass 0.1 to 30,
    dt 1e-3 to 1, omega 0.1 to 100."""
    rng = np.random.default_rng(seed)
    out = np.zeros((count, 5, 5))
    for i, aug in enumerate(out):
        family, branch = (("branch", "minus"), ("simple", None))[(i // 3) % 2]
        theta, eta = rng.uniform(-0.5, 0.5, size=2)
        mass, dt = 10 ** rng.uniform(-1.0, 1.5), 10 ** rng.uniform(-3.0, 0.0)
        rep = build_representation(NCParams(theta, eta, mass=mass), family, branch)
        h = build_hamiltonian(("free", "uniform_gravity", "harmonic")[i % 3], rep,
                              g=rng.uniform(0.5, 20.0), omega=10 ** rng.uniform(-1.0, 2.0))
        A, b = h.drift()
        aug[:4, :4] = A * dt
        aug[:4, 4] = b * dt
    return out


#: Worst error of ``scipy.linalg.expm`` over ``_drift_draws(60)`` against
#: ``mpmath.expm`` at 40 digits, in ulps of the largest exact entry.
SCIPY_EXPM_WORST_ULP = 1924.0


def test_expm_is_no_worse_than_scipy_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    drifts = _drift_draws(60)
    worst = 0.0
    for aug, got in zip(drifts, dynamics.expm(drifts)):
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(aug.tolist())).tolist(), dtype=float)
        worst = max(worst, float(np.abs(got - exact).max() / np.spacing(np.abs(exact).max())))
    assert worst <= SCIPY_EXPM_WORST_ULP


def test_stacked_expm_is_bitwise_each_single_call():
    # Each matrix is scaled by its own power of two; the draws need 0 to 11 squarings.
    drifts = _drift_draws(60)
    stacked = dynamics.expm(drifts)
    assert stacked.shape == drifts.shape
    for aug, got in zip(drifts, stacked):
        assert dynamics.expm(aug[None])[0].tobytes() == got.tobytes()


def test_expm_out_of_range_slices_are_not_finite():
    big = np.zeros((5, 5))
    big[:4, 4] = 1e307  # nilpotent: the exact exponential I + A is finite
    stack = np.stack([_drift_draws(1)[0], big, 10.0 * big, np.full((5, 5), 1e60), big])
    stack[4, 0, 0] = np.nan
    got = dynamics.expm(stack)
    assert got[0].tobytes() == dynamics.expm(stack[:1])[0].tobytes()
    assert np.array_equal(got[1], np.eye(5) + big)
    # A 1-norm past the float range, a sixth power past it, a NaN entry.
    assert not np.isfinite(got[2:]).all(axis=(1, 2)).any()


def test_drift_overflowing_at_dt_is_a_propagator_overflow():
    h = build_hamiltonian("harmonic", IDENTITY, omega=1e100)
    with pytest.raises(ConfigError, match="propagator overflows"):
        evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=1e300, dt=1e300)


def test_step_whose_scaling_rounds_an_entry_is_refused():
    # At mass 1e200 the affine column m*g*dt sets s = 659, and 2^-659 rounds
    # the drift block's 1/m-sized entries into the subnormals.
    rep = build_representation(NCParams(0.1, 0.1, mass=1e200), "branch", "minus")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    with pytest.raises(ConfigError, match="propagator cannot resolve its drift"):
        evolve(h, [0.0, 0.0, 1.0, 0.0], t_end=0.5, dt=0.1)
    rep = build_representation(NCParams(0.1, 0.1, mass=1e100), "branch", "minus")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    assert np.isfinite(evolve(h, [0.0, 0.0, 1.0, 0.0], t_end=0.5, dt=0.1).canonical_states).all()


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


def test_step_validation():
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(StepError):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=1.0, dt=0.0)
    with pytest.raises(StepError):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=1.0, dt=-0.1)
    with pytest.raises(StepError):
        evolve(h, [0.0, 0.0, 0.0, 0.0], t_end=-1.0, dt=0.1)
    with pytest.raises(ConfigError):
        evolve(h, [0.0, 0.0, 0.0], t_end=1.0, dt=0.1)


def test_step_count_covers_t_end():
    h = build_hamiltonian("free", IDENTITY)
    # 0.3/0.1 is 2.9999... in floats; the rounding guard must still give 3 steps
    traj = evolve(h, [0.0] * 4, t_end=0.3, dt=0.1)
    assert len(traj) == 4
    assert traj.times[-1] == pytest.approx(0.3, abs=1e-12)
    # 1.0/0.3 rounds to 3 steps, which stop short of t_end: one more covers it
    assert _step_count(1.0, 0.3) == 4


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


def test_nc_initial_state_singular_at_degenerate_params():
    # at theta*eta = 1 the representation collapses onto a rank-deficient
    # observable map: no unique canonical state realises the requested data
    rep = build_representation(NCParams(1.0, 1.0), "branch", "minus")
    h = build_hamiltonian("uniform_gravity", rep, g=1.0)
    with pytest.raises(SingularMapError):
        nc_initial_state(h, (0.0, 0.0, 1.0, 0.0))


def test_nc_initial_state_shape_check():
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(ConfigError):
        nc_initial_state(h, (0.0, 0.0))


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


def test_overflowing_propagator_or_trajectory_rejected():
    h = build_hamiltonian("harmonic", IDENTITY, omega=1e100)
    with pytest.raises(ConfigError, match="propagator overflows"):
        evolve(h, [1.0, 0.0, 0.0, 0.0], t_end=0.02, dt=0.01)
    h = build_hamiltonian("free", IDENTITY)
    with pytest.raises(ConfigError, match="trajectory overflows"):
        evolve([h, h], [[0.0] * 4, [0.0, 0.0, 1e307, 0.0]], t_end=100.0, dt=1.0)
