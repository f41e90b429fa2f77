"""Checks of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes", "terms", "ratio"}


@pytest.fixture(scope="module")
def nc():
    return run.load_package()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _one_of_each_kind(cli: workloads.CliSession, seed: int) -> list:
    return list({op["kind"]: op for op in cli.make_round(seed, 0)}.values())


def _small_round(name: str, seed: int) -> tuple[object, object, list]:
    """(workload, in-process runner, a small round)."""
    if name == "closure_sweep":
        w = workloads.ClosureSweep()
        return w, w.run, w.make_round(seed, 0, size=30)
    if name == "com_scaling":
        w = workloads.ComScaling()
        return w, w.run, w.make_round(seed, 0, n_max=40)
    if name == "wep_dynamics":
        w = workloads.WepDynamics()
        return w, w.run, w.make_round(seed, 0, scale=0.01)
    w = workloads.CliSession(ROOT, seed)
    return w, w.run_inprocess, _one_of_each_kind(w, seed)


def _count_metrics(nc, name: str, seed: int) -> dict:
    workload, runner, first = _small_round(name, seed)
    tally = run.Tally()
    tracer, outs = run.traced_phase(nc, workload, runner, first, tally)
    assert tally.failed == tally.known == 0
    metrics = run.layer_metrics(tracer, outs if name == "cli_session" else [], (1.0, 1.0), 1.0)
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert set(metrics) == set(units)
    return {k: v for k, v in metrics.items() if units[k] in COUNT_UNITS and k != "trace.overhead_ratio"}


#: A count that the workload's own operations must drive above zero.
OWN_LAYER = {
    "closure_sweep": "representation.build.calls",
    "com_scaling": "composite.particles",
    "wep_dynamics": "dynamics.steps",
    "cli_session": "cli.output_bytes",
}


@pytest.mark.parametrize("name", sorted(OWN_LAYER))
def test_layer_counts_repeat_exactly_for_a_seed(nc, name, monkeypatch):
    monkeypatch.chdir(ROOT)
    first = _count_metrics(nc, name, seed=3)
    assert first == _count_metrics(nc, name, seed=3)
    assert first[OWN_LAYER[name]] > 0, first


def test_tracer_restores_every_binding(nc):
    before = {m: dict(vars(sys.modules[m])) for m in ("ncphase.representation", "ncphase.dynamics")}
    add = nc.algebra.LinearForm.__dict__["__add__"]
    tracer = Tracer()
    tracer.install()
    assert nc.algebra.LinearForm.__dict__["__add__"] is not add
    tracer.uninstall()
    assert nc.algebra.LinearForm.__dict__["__add__"] is add
    for module, namespace in before.items():
        assert all(vars(sys.modules[module])[k] is v for k, v in namespace.items())


def test_nested_builds_count_once_and_self_time_excludes_children(nc):
    tracer = Tracer()
    tracer.install()
    try:
        p = nc.representation.NCParams(theta=-0.5, eta=0.5)
        tracer.span("op", 0, nc.representation.build_representation, p, "epsilon_general")
        with pytest.raises(nc.errors.DomainError):
            tracer.span("op", 1, nc.representation.build_representation, p, "branch", "plus")
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["representation.build"]["calls"] == 2
    assert stats["representation.build"]["rejected"] == 1
    total = sum(end - start for name, parent, _op, start, end, _e in tracer.spans if parent < 0) * 1e-9
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(total)


def test_printed_metric_names_match_benchmark_json():
    for trace, declared in (("0", DECLARED["end_to_end"]), ("1", DECLARED["per_layer"])):
        proc = _bench("--workload", "closure_sweep", "--seed", "5", "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
        printed = {line.split()[0] for line in lines[:-1] if line.strip()}
        if trace == "0":
            assert {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "fail_ratio", "peak_rss_mb"} <= printed
        else:
            assert {m["name"] for m in declared} <= printed
            assert {"ops_per_s", "op_p50_ms", "op_tail_ms", "fail_ratio", "tracing"} <= printed


def test_layer_table_uses_declared_names():
    table = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    listed = [name for names in table["layers"].values() for name in names]
    assert sorted(listed) == sorted(per_layer)
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    names = {w["name"] for w in DECLARED["workloads"]}
    for row in table["moves"]:
        for pattern in row["layer_metrics"]:
            assert any(n == pattern or n.startswith(pattern.rstrip("*")) for n in per_layer), pattern
        assert all(m.split()[0] in e2e for m in row["moves"])
        assert set(row["on"]) <= names
        assert all(w.split()[0] in names | e2e for w in row["should_not_move"])


def test_traced_cli_session_is_correct_on_a_fresh_checkout():
    shutil.rmtree(ROOT / ".perfbench_out" / "cli", ignore_errors=True)
    proc = _bench("--workload", "cli_session", "--seed", "11", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    assert result["metrics"]["cli.rejected"]["value"] == 2 * 2  # two error kinds, twice per round


def test_tail_percentile_keeps_ten_samples_beyond_in_every_round():
    for cls in (workloads.ClosureSweep, workloads.ComScaling, workloads.WepDynamics, workloads.CliSession):
        p = workloads.tail_percentile(cls.round_size)
        assert 50.0 < p < 100.0
        assert cls.round_size * (1 - p / 100.0) == pytest.approx(10.0)


class _SlowingHost:
    """A fake workload whose host gets slower with every repeat."""

    round_size = 2
    costs = {"short": 2.0, "long": 5.0}

    def __init__(self) -> None:
        self.now, self.speed = 0.0, 1.0

    def make_round(self, seed: int, k: int) -> list:
        self.speed = 1.0 + k
        return ["short", "long"]

    def stride(self, op) -> int:
        return 2 if op == "long" else 1

    def run(self, op) -> None:
        self.now += self.costs[op] * self.speed

    def check(self, op, out) -> workloads.Outcome:
        return workloads.Outcome()


def test_normalised_latency_cancels_host_speed_and_strides_skip_repeats():
    host = _SlowingHost()
    first = host.make_round(0, 0)
    tally = run.Tally()
    m = run.measure(host, host.run, lambda: host.now, 0, 4, first, tally, lambda: 0.0, 0,
                    reference=lambda runs=1: host.speed)
    assert m.slots == [pytest.approx(2.0 * run.REF_QUIET_S), pytest.approx(5.0 * run.REF_QUIET_S)]
    assert m.best == [2.0, 5.0]
    assert tally.attempted == len(m.every) == 4 + 2  # the long slot runs in repeats 0 and 2


def test_closure_oracle_catches_a_wrong_table(nc):
    w = workloads.ClosureSweep()
    op = (0.5, 0.5)
    out = w.run(nc, op)
    assert w.check(op, out).misses == []
    reports, residual = out
    bad = reports["simple"]
    shifted = tuple(
        dataclasses.replace(c, measured=c.measured + 1e-9) if c.name == "[X1,X2]" else c for c in bad.checks
    )
    reports = dict(reports, simple=dataclasses.replace(bad, checks=shifted))
    outcome = w.check(op, (reports, residual))
    assert outcome.misses and not outcome.known
    assert w.check((-0.5, 0.5), (dict(reports, plus=reports["minus"]), None)).misses


def _with_p1p2_error(report, error):
    checks = tuple(
        dataclasses.replace(c, measured=c.expected + error, passed=abs(error) <= c.tol)
        if c.name == "table.direct.[P1,P2]" else c
        for c in report.checks
    )
    return dataclasses.replace(report, checks=checks)


def test_com_known_defect_is_a_miss_but_only_when_it_is_rounding(nc):
    w = workloads.ComScaling()
    op = {"family": "branch", "conditioned": True, "masses": [100.0, 200.0, 500.0]}
    report = w.run(nc, op)
    assert w.check(op, report).misses == []
    rounding = w.check(op, _with_p1p2_error(report, 1e-11))
    assert rounding.misses and rounding.known
    wrong = w.check(op, _with_p1p2_error(report, 1e-6))
    assert wrong.misses and not wrong.known
    untimed = w.untimed_ops(1)
    assert [len(o["masses"]) for o in untimed] == [1000] * 4
    assert not untimed[0]["conditioned"] and all(o["conditioned"] for o in untimed[1:])
    assert {w.untimed_ops(s)[0]["family"] for s in (1, 2)} == {"branch", "simple"}
    loose = dict(op, conditioned=False, thetas=[0.3, 0.3, 0.3], etas=[0.2, 0.2, 0.2])
    outcome = w.check(loose, w.run(nc, loose))
    assert outcome.misses == []


def test_cli_oracle_checks_exit_code_and_schema(nc, monkeypatch):
    monkeypatch.chdir(ROOT)
    cli = workloads.CliSession(ROOT, seed=7)
    for op in _one_of_each_kind(cli, 7):
        out = cli.run_inprocess(nc, op)
        assert cli.check(op, out).misses == [], op["kind"]
        assert cli.check(op, (out[0] ^ 3, out[1])).misses
        assert cli.check(op, (out[0], out[1][: len(out[1]) // 2])).misses


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.linalg._x",
        "import time:       100 |        150 |   scipy.linalg",
        "import time:        20 |        520 | ncphase.cli",
    ])
    cli_s, scipy_s = run.parse_importtime(text)
    assert cli_s == pytest.approx(520e-6)
    assert scipy_s == pytest.approx(450e-6)


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for workload in ("closure_sweep", "cli_session"):
        proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)
