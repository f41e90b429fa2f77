"""Acceptance suite: one test per numbered criterion.

``pytest -v tests/test_acceptance.py`` prints one verdict line per
criterion; each test also prints a ``[PASS]`` summary visible with ``-s``.
Random batches are seeded through NCPS_SEED (default 20260814), so every
run examines identical parameter draws.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from ncphase import (
    CompositeSystem,
    DomainError,
    MassConditions,
    NCParams,
    branch_transform_residual,
    build_branch_rep,
    build_simple_rep,
    check_commutative_limit,
    commutator,
    compare_com_reps,
    compare_com_simple,
    effective_params,
    effective_planck,
    energy_drift,
    mass_invariance_report,
    params_from_conditions,
    primed_params,
    verify_nc_algebra,
    wep_deviation,
    wep_deviation_fixed,
)
from ncphase.cli import main, random_param_batch
from ncphase.dynamics import wep_trajectories
from ncphase.representation import build_representation

SEED = int(os.environ.get("NCPS_SEED", "20260814"))

_MODULE_T0 = time.perf_counter()


def ulps_apart(a: float, b: float, cap: int = 64) -> int:
    n = 0
    x = a
    while x != b and n < cap:
        x = math.nextafter(x, b)
        n += 1
    return n


def table_error(rep, theta: float, eta: float, diag: float) -> float:
    report = verify_nc_algebra(rep, theta, eta, diag, tol=1e-12)
    return max(abs(c.measured - c.expected) for c in report)


def test_criterion_01_algebra_closure_both_branches():
    """1000 seeded (theta, eta) with product in (-5, 1)\\{0}: table at 1e-12, < 1 s."""
    t0 = time.perf_counter()
    batch = random_param_batch(1000, SEED)
    assert len(batch) == 1000
    worst = 0.0
    for p in batch:
        assert -5.0 < p.product < 1.0 and p.product != 0.0
        worst = max(worst, table_error(build_branch_rep(p, "minus"), p.theta, p.eta, 1.0))
        if p.product > 0.0:
            worst = max(worst, table_error(build_branch_rep(p, "plus"), p.theta, p.eta, 1.0))
        else:
            # opposite-sign parameters admit no real plus-branch rep
            with pytest.raises(DomainError):
                build_branch_rep(p, "plus")
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: closure worst error {worst:.2e} over 1000 draws in {elapsed * 1e3:.0f} ms")


def test_criterion_02_parameter_round_trip():
    """Auxiliary-parameter inversion undoes itself at 1e-12 relative, both branches."""
    worst = 0.0
    for p in random_param_batch(1000, SEED):
        for branch in ("minus", "plus"):
            tp, ep = primed_params(p, branch)
            denom = 1.0 + tp * ep / 4.0
            worst = max(
                worst,
                abs(tp / denom - p.theta) / abs(p.theta),
                abs(ep / denom - p.eta) / abs(p.eta),
            )
    assert worst <= 1e-12
    print(f"[PASS] criterion 2: round-trip worst relative error {worst:.2e}")


def test_criterion_03_branch_transform():
    """The symplectic swap maps plus onto minus at 1e-12 for 200 positive-ratio pairs."""
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(200):
        product = float(rng.uniform(1e-3, 0.999))
        ratio = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        theta = sign * math.sqrt(product * ratio)
        eta = sign * math.sqrt(product / ratio)
        worst = max(worst, branch_transform_residual(NCParams(theta, eta)))
    assert worst <= 1e-12
    print(f"[PASS] criterion 3: duality worst residual {worst:.2e} over 200 pairs")


def test_criterion_04_commutative_limit():
    """Minus branch -> identity monotonically (< 1e-6 at the end); plus -> swap map at the same rate."""
    for theta0, eta0 in ((0.5, 0.5), (0.9, 0.1)):
        report = check_commutative_limit(
            (1e-2, 1e-4, 1e-6), NCParams(theta0, eta0), (1e-2, 1e-4, 1e-6)
        )
        assert report.overall
        minus = report.meta["minus_distances"]
        plus = report.meta["plus_distances"]
        assert minus[0] > minus[1] > minus[2]
        assert plus[0] > plus[1] > plus[2]
        assert minus[-1] < 1e-6
        assert plus[-1] < 1e-6
        # Same first-order rate: each 100x drop in scale shrinks both
        # branch distances by ~100x (the absolute constants differ once
        # theta0 != eta0, so compare decay factors, not distances).
        for seq in (minus, plus):
            for a, b in zip(seq, seq[1:]):
                assert 0.5e-2 < b / a < 2e-2
    print(f"[PASS] criterion 4: limit distances minus={minus} plus={plus}")


def test_criterion_05_effective_planck_scale():
    """Unscaled-shift diagonal equals 1 + theta*eta/4 bitwise; 1.015 for every conditioned mass."""
    for p in random_param_batch(1000, SEED):
        rep = build_simple_rep(p)
        want = 1.0 + p.product / 4.0
        assert commutator(rep.X1, rep.P1) == want
        assert commutator(rep.X2, rep.P2) == want
    c = MassConditions(gamma=0.3, alpha=0.2)
    for m in (0.5, 1.0, 2.0, 10.0):
        p = params_from_conditions(c, m)
        assert effective_planck(p) == 1.015
        rep = build_simple_rep(p)
        assert commutator(rep.X1, rep.P1) == 1.015
    print("[PASS] criterion 5: diagonal == 1 + theta*eta/4 bitwise; h_eff == 1.015 for masses 0.5, 1, 2, 10")


def test_criterion_06_kinematic_invariance():
    """Across masses 1, 2, 5 under shared conditions the coordinate forms are mass-free."""
    c = MassConditions(gamma=0.3, alpha=0.2)
    for family, branch in (("branch", "minus"), ("simple", None)):
        report = mass_invariance_report(c, (1.0, 2.0, 5.0), family=family, branch=branch, tol=1e-12)
        assert report.overall, [r.name for r in report if not r.passed]
        # x-parts of X unchanged, m*(p-parts of X) unchanged, x-parts of P linear in m
        assert report.record("X1.coordinate.x1").measured <= 1e-12
        assert report.record("X1.momentum.p2").measured <= 1e-12
        assert report.record("P1.coordinate.x2").measured <= 1e-12
    print("[PASS] criterion 6: kinematic invariance at 1e-12 across masses 1, 2, 5 (both families)")


def test_criterion_07_composite_effective_parameters():
    """theta_eff = gamma/M and eta_eff = alpha*M: exact for the documented pair, 1 ulp over 100 random partitions."""
    system = CompositeSystem.from_conditions(MassConditions(0.3, 0.2), [1.0, 2.0])
    te, ee = effective_params(system)
    assert te == 0.3 / 3.0
    assert ee == 0.2 * 3.0
    assert ulps_apart(te, 0.1) <= 1
    assert ulps_apart(ee, 0.6) <= 1

    rng = np.random.default_rng(SEED)
    checked = 0
    worst = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        total = float(rng.uniform(0.5, 20.0))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=n - 1))
        fractions = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
        masses = [float(total * f) for f in fractions]
        gamma = float(rng.uniform(0.01, 0.9))
        alpha = float(rng.uniform(0.01, 0.9))
        if alpha * gamma >= 1.0:
            continue
        sys_ = CompositeSystem.from_conditions(MassConditions(gamma, alpha), masses)
        te, ee = effective_params(sys_)
        M = sys_.total_mass
        worst = max(worst, ulps_apart(te, gamma / M), ulps_apart(ee, alpha * M))
        checked += 1
    assert worst <= 1
    print(f"[PASS] criterion 7: effective parameters within {worst} ulp over 100 partitions")


def test_criterion_08_com_route_dichotomy():
    """Routes agree at 1e-12 under conditions and differ above 1e-6 without, in both families."""
    tied = CompositeSystem.from_conditions(MassConditions(0.3, 0.2), [1.0, 2.0])
    loose = CompositeSystem.from_params([1.0, 2.0], [0.3, 0.3], [0.2, 0.2])
    route_names = ("routes.X1", "routes.X2", "routes.P1", "routes.P2")
    for label, compare in (("branch", lambda s: compare_com_reps(s, "minus")),
                           ("simple", compare_com_simple)):
        good = compare(tied)
        assert good.overall
        assert max(good.record(n).measured for n in route_names) <= 1e-12
        bad = compare(loose)
        assert max(bad.record(n).measured for n in route_names) > 1e-6
        # closure itself survives the violation
        assert all(c.passed for c in bad if c.name.startswith("table."))
    print("[PASS] criterion 8: route dichotomy (<= 1e-12 conditioned, > 1e-6 violated) in both families")


def test_criterion_09_wep_dynamics():
    """Conditioned free fall is mass-independent to 1e-9; fixed parameters break it above 1e-3."""
    t0 = time.perf_counter()
    c = MassConditions(gamma=0.01, alpha=0.01)
    nc_data = (0.0, 0.0, 1.0, 0.0)
    for family, branch in (("branch", "minus"), ("simple", None)):
        tied = wep_deviation(c, (1.0, 2.0), family=family, branch=branch, g=1.0, t_end=10.0, dt=0.01)
        fixed = wep_deviation_fixed(
            0.01, 0.01, (1.0, 2.0), family=family, branch=branch, g=1.0, t_end=10.0, dt=0.01
        )
        assert tied <= 1e-9
        assert fixed >= 1e-3
        # energy conservation along every trajectory of both scenarios
        for params in (
            [params_from_conditions(c, m) for m in (1.0, 2.0)],
            [NCParams(0.01, 0.01, mass=m) for m in (1.0, 2.0)],
        ):
            reps = [build_representation(q, family, branch) for q in params]
            for h, traj in wep_trajectories(reps, nc_data, 1.0, 10.0, 0.01):
                assert energy_drift(h, traj) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 9: deviation {tied:.1e} conditioned vs {fixed:.2e} fixed in {elapsed * 1e3:.0f} ms")


def _cli_json(capsys, *argv):
    rc = main(list(argv))
    return rc, json.loads(capsys.readouterr().out)


def _assert_report_schema(data):
    for key in ("tool", "version", "command", "config", "checks", "overall"):
        assert key in data
    for check in data["checks"]:
        for key in ("name", "expected", "measured", "tol", "pass"):
            assert key in check


def test_criterion_10_cli_contract(capsys):
    """Documented invocations per subcommand: exit codes and schema-valid reports; suite < 30 s."""
    # verify: clean pass / domain error / failed expectation
    rc, data = _cli_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--branch", "minus")
    assert rc == 0
    _assert_report_schema(data)
    assert sum(c["name"].startswith("[") for c in data["checks"]) == 6

    rc, data = _cli_json(capsys, "verify", "--theta", "1.5", "--eta", "1.0")
    assert rc == 2
    assert data["error"]["type"] == "DomainError"

    rc, data = _cli_json(
        capsys, "verify", "--family", "simple", "--theta", "0.5", "--eta", "0.5",
        "--expect-diag", "1.0",
    )
    assert rc == 1
    _assert_report_schema(data)
    assert next(c["measured"] for c in data["checks"] if c["name"] == "[X1,P1]") == 1.0625

    # com: conditioned / violated / empty
    rc, data = _cli_json(capsys, "com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2")
    assert rc == 0
    _assert_report_schema(data)
    assert data["meta"]["theta_eff"] == pytest.approx(0.1)
    assert data["meta"]["eta_eff"] == pytest.approx(0.6)
    assert data["meta"]["routes_equal"] is True

    rc, data = _cli_json(capsys, "com", "--masses", "1,2", "--thetas", "0.3,0.3", "--etas", "0.2,0.2")
    assert rc == 0
    _assert_report_schema(data)
    assert data["meta"]["routes_equal"] is False
    assert max(c["measured"] for c in data["checks"] if c["name"].startswith("routes.")) > 1e-6

    rc, data = _cli_json(capsys, "com", "--masses", "", "--gamma", "0.3", "--alpha", "0.2")
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"

    # simulate: trajectory CSV / wep summary / bad step
    rc = main(["simulate", "--kind", "free", "--theta", "0.1", "--eta", "0.1",
               "--p1", "1", "--t-end", "1", "--dt", "0.1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "t,x1,x2,p1,p2,X1,X2,P1,P2"
    assert len(lines) == 12
    x1_vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(x1_vals, x1_vals[1:]))

    rc, data = _cli_json(
        capsys, "simulate", "--wep", "--masses", "1,2", "--gamma", "0.01", "--alpha", "0.01",
        "--g", "1", "--t-end", "10", "--dt", "0.01",
    )
    assert rc == 0
    assert data["summary"]["deviation_max"] <= 1e-9

    rc, data = _cli_json(capsys, "simulate", "--kind", "free", "--theta", "0.1", "--eta", "0.1", "--dt", "0")
    assert rc == 2
    assert data["error"]["type"] == "StepError"

    suite_elapsed = time.perf_counter() - _MODULE_T0
    assert suite_elapsed < 30.0
    print(f"[PASS] criterion 10: CLI contract honoured; acceptance suite took {suite_elapsed:.1f} s")
