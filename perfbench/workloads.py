"""The four benchmark workloads: seeded inputs, one operation, its oracle.

Every workload is a closed loop with one client.  A round is a fixed list of
operations (slots).  A run repeats the round; repeat ``k`` draws the same
random stream as repeat 0 and scales every continuous draw by
``1 - k * 2**-30``, so each slot costs the same in every repeat while no two
operations share inputs (nothing can be served from a cache).  ``run.py``
sets each slot's latency from all of its executions.

Inputs are plain numbers.  The program builds every object it needs inside
the timed operation, so no program work leaks into input generation.

An operation's oracle returns a list of misses; an empty list is a pass.
A miss that matches a documented program defect is still a miss (it counts
in ``failed``) but is marked known, so ``correct`` only turns false on an
unexplained one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Table tolerance of the acceptance gate and the README (absolute).
TOL = 1e-12
#: Route distances of unconditioned composites must exceed this (criterion 8).
ROUTE_SPLIT = 1e-6
#: Conditioned free-fall spread bound (criterion 9).
WEP_SPREAD = 1e-9
#: Fixed-parameter free fall must spread at least this by t = 10 (criterion 9).
WEP_FIXED_SPREAD = 1e-3
#: Energy drift bound at criterion-9 lengths (1000 steps) and shorter.
DRIFT = 1e-10
DRIFT_GATED_STEPS = 1000


class Draws:
    """Seeded draws for one repeat of one workload's round.

    Continuous draws are scaled by a factor just below 1 that grows with the
    repeat; integer draws and coin flips are not, so the round's structure
    is the same in every repeat.  ``warmup`` selects a separate stream that
    is never measured.
    """

    def __init__(self, seed: int, stream: int, repeat: int = 0, warmup: bool = False) -> None:
        self.rng = np.random.default_rng([seed, stream, int(warmup)])
        self.factor = 1.0 - repeat * 2.0**-30

    def uniform(self, lo: float, hi: float, size: int | None = None):
        return self.rng.uniform(lo, hi, size) * self.factor

    def integers(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi))

    def coin(self) -> bool:
        return bool(self.rng.uniform() < 0.5)


def tail_percentile(round_size: int) -> float:
    """Highest percentile with at least ten slots beyond it.

    It depends on the round size only, so it is fixed per workload and the
    same on every commit.
    """
    return 100.0 * (1.0 - 10.0 / round_size)


@dataclass
class Outcome:
    """Oracle verdict for one operation."""

    misses: list[str] = field(default_factory=list)
    known: bool = False  # every miss is a documented program defect
    info: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closure_sweep


def draw_params(draws: Draws) -> tuple[float, float]:
    """One (theta, eta) drawn like ``ncphase.cli.random_param_batch``."""
    while True:
        product = float(draws.uniform(-5.0, 1.0))
        if product != 0.0:
            break
    ratio = math.exp(draws.uniform(math.log(0.1), math.log(10.0)))
    ta = math.sqrt(abs(product) * ratio)
    ea = math.sqrt(abs(product) / ratio)
    if product > 0:
        sign = 1.0 if draws.coin() else -1.0
        return sign * ta, sign * ea
    if draws.coin():
        return ta, -ea
    return -ta, ea


class ClosureSweep:
    """One op verifies every representation that exists for one draw."""

    name = "closure_sweep"
    stream = 1
    # A small round repeated often: each slot's latency is taken over many
    # executions spread across the run.
    round_size = 250
    repeats = 40
    warmup_ops = 50

    def make_round(self, seed: int, k: int, size: int | None = None, warmup: bool = False) -> list:
        draws = Draws(seed, self.stream, k, warmup)
        return [draw_params(draws) for _ in range(size or self.round_size)]

    def warmup(self, nc, seed: int) -> None:
        for op in self.make_round(seed, 0, self.warmup_ops, warmup=True):
            self.run(nc, op)

    def run(self, nc, op):
        theta, eta = op
        rp = nc.representation
        p = rp.NCParams(theta=theta, eta=eta)
        reports = {}
        for label, family, branch in (("minus", "branch", "minus"), ("simple", "simple", None),
                                      ("epsilon_general", "epsilon_general", None)):
            rep = rp.build_representation(p, family, branch)
            reports[label] = rp.verify_nc_algebra(rep, tol=TOL)
        try:
            plus = rp.build_representation(p, "branch", "plus")
        except nc.errors.DomainError:
            reports["plus"] = "DomainError"
        else:
            reports["plus"] = rp.verify_nc_algebra(plus, tol=TOL)
        residual = rp.branch_transform_residual(p) if theta / eta > 0 else None
        return reports, residual

    def check(self, op, out) -> Outcome:
        theta, eta = op
        reports, residual = out
        product = theta * eta
        res = Outcome()
        for label, report in reports.items():
            if label == "plus" and product < 0:
                if report != "DomainError":
                    res.misses.append("plus branch built for theta*eta < 0")
                continue
            if isinstance(report, str):
                res.misses.append(f"{label}: raised {report}")
                continue
            diag = 1.0 + product / 4.0 if label == "simple" else 1.0
            expected = {
                "[X1,X2]": theta, "[P1,P2]": eta, "[X1,P1]": diag,
                "[X2,P2]": diag, "[X1,P2]": 0.0, "[X2,P1]": 0.0,
            }
            measured = {c.name: c.measured for c in report.checks}
            if set(measured) != set(expected):
                res.misses.append(f"{label}: table names {sorted(measured)}")
                continue
            err = max(abs(measured[n] - expected[n]) for n in expected)
            if not (err <= TOL and report.overall):
                res.misses.append(f"{label}: table error {err:.3g}")
        if (theta / eta > 0) != (residual is not None) or (residual is not None and not residual <= TOL):
            res.misses.append(f"duality residual {residual}")
        return res


# ---------------------------------------------------------------------------
# com_scaling

COM_VARIANTS = (
    ("branch", True),
    ("simple", True),
    ("branch", False),
    ("simple", False),
)
#: Mass conditions of the README and of the defect reproduction.
COM_GAMMA, COM_ALPHA = 0.3, 0.2
#: Conditioned N = 1000 systems that show the known [P1,P2] defect on every
#: run: numpy seeds 1-3, masses log-uniform in [0.1, 100] (alpha*M ~ 3e3).
COM_DEFECT_SEEDS = (1, 2, 3)
COM_DEFECT_MASSES = (0.1, 100.0)


def com_ladder(rungs: int, n_max: int) -> list[int]:
    """Log-spaced particle counts from 10 to ``n_max`` inclusive."""
    return [int(round(10.0 * (n_max / 10.0) ** (i / (rungs - 1)))) for i in range(rungs)]


class ComScaling:
    """One op builds a composite of N particles and compares its two routes.

    Each round runs every variant (branch minus or simple, conditioned or
    not) on the same log-spaced ladder of N from 10 to 178, smallest N
    first; only the masses and parameters depend on the seed.  Larger
    systems run once per run, after the timed rounds: one at N = 1000
    costs more than two whole rounds, and a slot that long cannot be
    repeated often enough to filter host speed swings.  They are one
    seeded unconditioned system (branch or simple by the seed's parity)
    and three fixed conditioned ones that reproduce the known [P1,P2]
    defect.  They go through the same oracle, so their misses count in
    ``failed``.
    """

    name = "com_scaling"
    stream = 2
    rungs = 6  # the median and the tail percentile each fall inside one rung
    n_max = 178
    n_large = 1000
    round_size = rungs * len(COM_VARIANTS)
    repeats = 16
    #: Slots of at least this many particles run in every second repeat.
    n_strided = 100

    def stride(self, op) -> int:
        return 2 if len(op["masses"]) >= self.n_strided else 1

    def make_round(self, seed: int, k: int, n_max: int | None = None, warmup: bool = False) -> list[dict]:
        return self._ops(Draws(seed, self.stream, k, warmup), com_ladder(self.rungs, n_max or self.n_max))

    def untimed_ops(self, seed: int) -> list[dict]:
        """One seeded unconditioned system at N = 1000, then the fixed defect systems."""
        unconditioned = [op for op in self._ops(Draws(seed, self.stream + 100), [self.n_large])
                         if not op["conditioned"]]
        ops = [unconditioned[seed % 2]]
        for defect_seed in COM_DEFECT_SEEDS:
            rng = np.random.default_rng(defect_seed)
            masses = np.exp(rng.uniform(math.log(COM_DEFECT_MASSES[0]), math.log(COM_DEFECT_MASSES[1]), self.n_large))
            ops.append({"family": "branch", "conditioned": True, "masses": masses.tolist()})
        return ops

    @staticmethod
    def _ops(draws: Draws, sizes: list[int]) -> list[dict]:
        ops = []
        for n in sizes:
            for family, conditioned in COM_VARIANTS:
                masses = np.exp(draws.uniform(math.log(0.1), math.log(10.0), n))
                op = {"family": family, "conditioned": conditioned, "masses": masses.tolist()}
                if not conditioned:
                    op["thetas"] = draws.uniform(0.01, 0.2, n).tolist()
                    op["etas"] = draws.uniform(0.01, 0.2, n).tolist()
                ops.append(op)
        return ops

    def warmup(self, nc, seed: int) -> None:
        for op in self.make_round(seed, 0, warmup=True)[: len(COM_VARIANTS)]:
            self.run(nc, op)

    def run(self, nc, op):
        cp = nc.composite
        if op["conditioned"]:
            conditions = nc.representation.MassConditions(gamma=COM_GAMMA, alpha=COM_ALPHA)
            system = cp.CompositeSystem.from_conditions(conditions, op["masses"])
        else:
            system = cp.CompositeSystem.from_params(op["masses"], op["thetas"], op["etas"])
        if op["family"] == "simple":
            return cp.compare_com_simple(system, TOL)
        return cp.compare_com_reps(system, "minus", TOL)

    def check(self, op, report) -> Outcome:
        res = Outcome()
        masses = op["masses"]
        total = math.fsum(masses)
        if op["conditioned"]:
            theta_eff, eta_eff = COM_GAMMA / total, COM_ALPHA * total
        else:
            theta_eff = math.fsum(m * m * t for m, t in zip(masses, op["thetas"])) / (total * total)
            eta_eff = math.fsum(op["etas"])
        for key, want in (("theta_eff", theta_eff), ("eta_eff", eta_eff)):
            got = report.meta.get(key)
            if got is None or not abs(got - want) <= 1e-12 * abs(want):
                res.misses.append(f"{key} {got} != {want}")
        routes = [c.measured for c in report.checks if c.name.startswith("routes.")]
        if len(routes) != 4:
            res.misses.append(f"{len(routes)} route checks")
        elif op["conditioned"] and not max(routes) <= TOL:
            res.misses.append(f"conditioned routes differ by {max(routes):.3g}")
        elif not op["conditioned"] and not max(routes) > ROUTE_SPLIT:
            res.misses.append(f"unconditioned routes agree to {max(routes):.3g}")
        table_misses = [
            c for c in report.checks
            if c.name.startswith("table.") and not (c.passed and abs(c.measured - c.expected) <= TOL)
        ]
        res.misses += [f"{c.name} off by {c.measured - c.expected:.3g}" for c in table_misses]
        # Known defect: under shared conditions [P1,P2] = alpha*M grows with
        # the total mass, and at N ~ 1000 the accumulated rounding of the
        # sums exceeds the absolute 1e-12 tolerance although the value is
        # right to a few ulp.  Counted as a miss, marked as known.
        res.known = bool(res.misses) and op["conditioned"] and len(table_misses) == len(res.misses) and all(
            c.name.endswith(".[P1,P2]") and abs(c.measured - c.expected) <= 1e-12 * abs(c.expected)
            for c in table_misses
        )
        return res


# ---------------------------------------------------------------------------
# wep_dynamics

#: (steps, dt) per length class: tens of steps, criterion 9, and long runs.
WEP_SHORT_DT = 0.01
WEP_CRIT_STEPS, WEP_CRIT_DT = 1000, 0.01
WEP_LONG_STEPS, WEP_LONG_DT = 10000, 0.001


class WepDynamics:
    """One op is one free-fall comparison across 2 to 5 masses.

    A round has 30 short runs (10 to 99 steps, fixed per slot) and 5 at the
    criterion-9 length, both cycling through 2 to 5 masses, and 11 long ones
    (10^4 steps) with 2 masses.  Eleven is the fewest that keeps ten slots
    beyond the tail percentile inside the long group, so the tail falls
    between its two fastest slots.  Families and conditioning alternate.
    """

    name = "wep_dynamics"
    stream = 3
    classes = (("short", 30), ("crit", 5), ("long", 11))
    round_size = sum(n for _, n in classes)
    repeats = 24
    warmup_ops = 4

    @staticmethod
    def stride(op) -> int:
        """A long run costs as much as the rest of the round; it runs in every third repeat."""
        return 3 if op["length"] == "long" else 1

    def make_round(self, seed: int, k: int, scale: float = 1.0, warmup: bool = False) -> list[dict]:
        rng = Draws(seed, self.stream, k, warmup)
        ops = []
        for length, count in self.classes:
            for j in range(count):
                if length == "short":
                    steps, dt = 10 + (31 * j) % 90, WEP_SHORT_DT
                elif length == "crit":
                    steps, dt = WEP_CRIT_STEPS, WEP_CRIT_DT
                else:
                    steps, dt = WEP_LONG_STEPS, WEP_LONG_DT
                steps = max(1, int(steps * scale))
                n_masses = 2 if length == "long" else 2 + j % 4
                first, ratio = 10 ** rng.uniform(0.0, 0.5), rng.uniform(1.5, 2.5)
                ops.append({
                    "length": length,
                    "steps": steps,
                    "dt": dt,
                    "family": ("branch", "simple")[j % 2],
                    "conditioned": (j // 2) % 2 == 0,
                    "masses": [float(first * ratio**i) for i in range(n_masses)],
                    "a": float(rng.uniform(0.005, 0.05)),  # gamma or theta
                    "b": float(rng.uniform(0.005, 0.05)),  # alpha or eta
                    "nc_data": (0.0, 0.0, float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))),
                })
        return ops

    def warmup(self, nc, seed: int) -> None:
        ops = [o for o in self.make_round(seed, 0, warmup=True) if o["length"] == "short"]
        for op in ops[: self.warmup_ops]:
            self.run(nc, op)

    def run(self, nc, op):
        rp, dyn = nc.representation, nc.dynamics
        if op["conditioned"]:
            conditions = rp.MassConditions(gamma=op["a"], alpha=op["b"])
            params = [rp.params_from_conditions(conditions, m) for m in op["masses"]]
        else:
            params = [rp.NCParams(theta=op["a"], eta=op["b"], mass=m) for m in op["masses"]]
        branch = "minus" if op["family"] == "branch" else None
        reps = [rp.build_representation(q, op["family"], branch) for q in params]
        runs = dyn.wep_trajectories(reps, op["nc_data"], 1.0, op["steps"] * op["dt"], op["dt"])
        spread = dyn.coordinate_spread(runs)
        drifts = [dyn.energy_drift(h, traj) for h, traj in runs]
        return spread, drifts, [len(traj) for _, traj in runs]

    def check(self, op, out) -> Outcome:
        spread, drifts, lengths = out
        res = Outcome(info={"drift": max(drifts), "length": op["length"]})
        if lengths != [op["steps"] + 1] * len(op["masses"]):
            res.misses.append(f"trajectory lengths {sorted(set(lengths))} for {op['steps']} steps")
        if not all(math.isfinite(v) for v in (spread, *drifts)):
            res.misses.append("non-finite spread or drift")
        elif op["conditioned"] and not spread <= WEP_SPREAD:
            res.misses.append(f"conditioned spread {spread:.3g}")
        elif not op["conditioned"] and op["steps"] * op["dt"] >= 10.0 - 1e-9 and not spread >= WEP_FIXED_SPREAD:
            res.misses.append(f"fixed-parameter spread only {spread:.3g}")
        if op["steps"] <= DRIFT_GATED_STEPS and not max(drifts) <= DRIFT:
            res.misses.append(f"energy drift {max(drifts):.3g}")
        return res


# ---------------------------------------------------------------------------
# cli_session

CLI_KINDS = (
    "verify",
    "verify_limit_random",
    "repr_csv",
    "com_conditioned",
    "com_violated",
    "simulate_short_csv",
    "simulate_wep",
    "error_domain",
    "error_step",
)
CLI_LONG = "simulate_long_csv"
CLI_LONG_PER_ROUND = 11
CLI_LONG_T_END, CLI_LONG_DT = 100.0, 0.01
CLI_SHORT_ROWS = 5  # t = 0 .. 1 in steps of 0.25
CLI_TIMEOUT_S = 120
REPORT_KEYS = {"tool", "version", "command", "kind", "config", "checks", "overall", "meta"}
CHECK_KEYS = {"name", "expected", "measured", "tol", "pass"}
TRAJECTORY_HEADER = ["t", "x1", "x2", "p1", "p2", "X1", "X2", "P1", "P2"]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliSession:
    """One op is one ``python -m ncphase.cli`` child, run with NCPS_SEED.

    A round holds the README invocations twice each (the conditioned ``com``
    reads its options from a generated --config file) and eleven long CSV
    trajectories, whose report emission sets the tail.
    """

    name = "cli_session"
    stream = 4
    round_size = 2 * len(CLI_KINDS) + CLI_LONG_PER_ROUND
    repeats = 2

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.workdir = Path(".perfbench_out") / "cli"

    def make_round(self, seed: int, k: int) -> list[dict]:
        """Inputs of round ``k``, with the config files they read written out."""
        rng = Draws(seed, self.stream, k)
        kinds = [kind for kind in CLI_KINDS for _ in range(2)] + [CLI_LONG] * CLI_LONG_PER_ROUND
        ops = []
        for i, kind in enumerate(kinds):
            theta, eta = (float(v) for v in rng.uniform(0.1, 0.9, 2))
            op = {"kind": kind, "expect_exit": 0}
            if kind == "verify":
                op["argv"] = ["verify", "--theta", repr(theta), "--eta", repr(eta)]
            elif kind == "verify_limit_random":
                op["argv"] = ["verify", "--theta", repr(theta), "--eta", repr(eta),
                              "--limit-scales", "1e-2,1e-4,1e-6", "--random", "100"]
            elif kind == "repr_csv":
                op["argv"] = ["repr", "--theta", repr(theta), "--eta", repr(eta),
                              "--branch", "minus", "--format", "csv"]
            elif kind == "com_conditioned":
                path = self.workdir / f"com-seed{seed}-round{k}-{i}.json"
                masses = 10 ** rng.uniform(-1.0, 1.0, rng.integers(2, 9))
                config = {"masses": masses.tolist(), "gamma": theta / 2, "alpha": eta / 2}
                (self.root / self.workdir).mkdir(parents=True, exist_ok=True)
                (self.root / path).write_text(json.dumps(config), encoding="utf-8")
                op["argv"] = ["com", "--config", str(path)]
            elif kind == "com_violated":
                n = rng.integers(2, 9)
                op["argv"] = ["com", "--masses", _fmt(10 ** rng.uniform(-1.0, 1.0, n)),
                              "--thetas", _fmt(rng.uniform(0.05, 0.5, n)),
                              "--etas", _fmt(rng.uniform(0.05, 0.5, n))]
            elif kind == "simulate_short_csv":
                op["argv"] = ["simulate", "--kind", "free", "--theta", repr(theta), "--eta", repr(eta),
                              "--p1", "1.0", "--t-end", "1.0", "--dt", "0.25", "--format", "csv"]
            elif kind == CLI_LONG:
                op["argv"] = ["simulate", "--kind", "gravity", "--theta", repr(theta), "--eta", repr(eta),
                              "--p1", repr(float(rng.uniform(0.5, 1.5))),
                              "--t-end", repr(CLI_LONG_T_END), "--dt", repr(CLI_LONG_DT), "--format", "csv"]
            elif kind == "simulate_wep":
                op["argv"] = ["simulate", "--wep", "--masses", "1,2,5", "--gamma", repr(theta / 2),
                              "--alpha", repr(eta / 2), "--g", "9.8", "--t-end", "5", "--dt", "0.01"]
            elif kind == "error_domain":
                op["argv"] = ["verify", "--theta", repr(1.0 + theta), "--eta", repr(1.0 + eta)]
                op["expect_exit"], op["error"] = 2, "DomainError"
            elif kind == "error_step":
                op["argv"] = ["simulate", "--kind", "free", "--theta", repr(theta), "--eta", repr(eta),
                              "--dt", "0"]
                op["expect_exit"], op["error"] = 2, "StepError"
            ops.append(op)
        return ops

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["NCPS_SEED"] = str(self.seed)
        return env

    def run(self, env, op):
        """One child process; returns (exit code, stdout text)."""
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ncphase.cli", *op["argv"]],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, ""
        return proc.returncode, proc.stdout

    def run_inprocess(self, nc, op):
        """The same invocation through ``ncphase.cli.main``, stdout captured."""
        buf = io.StringIO()
        saved = os.environ.get("NCPS_SEED")
        os.environ["NCPS_SEED"] = str(self.seed)
        try:
            with contextlib.redirect_stdout(buf):
                code = nc.cli.main(op["argv"])
        finally:
            if saved is None:
                del os.environ["NCPS_SEED"]
            else:
                os.environ["NCPS_SEED"] = saved
        return code, buf.getvalue()

    def check(self, op, out) -> Outcome:
        code, text = out
        res = Outcome()
        if code != op["expect_exit"]:
            res.misses.append(f"{op['kind']}: exit {code}, expected {op['expect_exit']}")
            return res
        try:
            res.misses += [f"{op['kind']}: {m}" for m in self._check_output(op, text)]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            res.misses.append(f"{op['kind']}: unparseable output ({type(exc).__name__}: {exc})")
        return res

    def _check_output(self, op, text: str) -> list[str]:
        kind = op["kind"]
        if kind in ("repr_csv", "simulate_short_csv", CLI_LONG):
            rows = list(csv.reader(io.StringIO(text)))
            if kind == "repr_csv":
                want_header, want_rows = ["form", "term", "coefficient"], 8
            else:
                want_header = TRAJECTORY_HEADER
                want_rows = CLI_SHORT_ROWS if kind == "simulate_short_csv" else round(CLI_LONG_T_END / CLI_LONG_DT) + 1
            if rows[0] != want_header or len(rows) - 1 != want_rows:
                return [f"header {rows[0]} with {len(rows) - 1} rows, expected {want_rows}"]
            values = [float(row[-1]) for row in rows[1:]]
            if kind != "repr_csv":
                values += [float(v) for row in rows[1:] for v in row]
            return [] if all(math.isfinite(v) for v in values) else ["non-finite value"]
        data = json.loads(text)
        if op["expect_exit"] == 2:
            if data["error"]["type"] != op["error"] or not data["error"]["message"]:
                return [f"error {data['error']}"]
            return []
        if kind == "simulate_wep":
            summary = data["summary"]
            misses = [] if summary["conditions_used"] else ["conditions not used"]
            if not summary["deviation_max"] <= WEP_SPREAD:
                misses.append(f"deviation {summary['deviation_max']:.3g}")
            return misses
        misses = []
        if set(data) != REPORT_KEYS or data["tool"] != "ncphase":
            misses.append(f"report keys {sorted(data)}")
        if not data["checks"] or any(set(c) - {"detail"} != CHECK_KEYS for c in data["checks"]):
            misses.append("check record keys")
        if data["overall"] is not True or not all(c["pass"] for c in data["checks"]):
            misses.append("overall false")
        names = {c["name"] for c in data["checks"]}
        if kind == "verify_limit_random":
            if data["meta"].get("seed") != self.seed:
                misses.append(f"meta seed {data['meta'].get('seed')}")
            if not {"random.closure.minus", "random.closure.plus", "limit.minus.monotone"} <= names:
                misses.append("random/limit checks missing")
        if kind.startswith("com_"):
            routes = [c["measured"] for c in data["checks"] if c["name"].startswith("routes.")]
            if len(routes) != 4:
                misses.append(f"{len(routes)} route checks")
            elif kind == "com_conditioned" and not max(routes) <= TOL:
                misses.append(f"conditioned routes differ by {max(routes):.3g}")
            elif kind == "com_violated" and not max(routes) > ROUTE_SPLIT:
                misses.append(f"violated routes agree to {max(routes):.3g}")
        return misses
