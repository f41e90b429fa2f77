"""Command-line contract: exit codes, report schema, output formats."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncphase
from ncphase import NCParams, build_hamiltonian, build_representation, evolve
from ncphase.cli import MAX_RANDOM, build_parser, main

REPORT_KEYS = {"tool", "version", "command", "config", "checks", "overall", "meta", "kind"}
CHECK_KEYS = {"name", "expected", "measured", "tol", "pass"}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv)
    return rc, json.loads(out)


# --- verify ------------------------------------------------------------------


def test_verify_clean_branch_rep(capsys):
    rc, data = run_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--branch", "minus")
    assert rc == 0
    assert data["overall"] is True
    assert REPORT_KEYS <= set(data)
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    table_checks = [c for c in data["checks"] if c["name"].startswith("[")]
    assert len(table_checks) == 6
    for c in table_checks:
        assert CHECK_KEYS <= set(c)
        assert c["pass"] is True
    assert data["tool"] == "ncphase"
    assert data["config"]["theta"] == 0.5
    assert data["meta"]["branch"] == "minus"
    # epsilon_general reads --branch too, so its report gives it
    rc, data = run_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--family", "epsilon_general",
                        "--branch", "plus")
    assert rc == 0
    assert data["meta"]["branch"] == "plus"


def test_verify_domain_error_exits_2(capsys):
    rc, data = run_json(capsys, "verify", "--theta", "1.5", "--eta", "1.0")
    assert rc == 2
    assert data["error"]["type"] == "DomainError"
    assert "theta*eta" in data["error"]["message"]


@pytest.mark.parametrize(
    "theta,eta,error",
    [("5e-324", "1", "DomainError"), ("1e-200", "1e-200", "DegenerateError")],
)
def test_verify_records_an_unbuildable_duality_as_skipped(capsys, theta, eta, error):
    # The swap map exists (theta/eta > 0) and the minus branch builds, but
    # the plus branch does not: a non-finite coefficient, an underflowing
    # product.  The duality check is skipped, not the whole run refused.
    rc, data = run_json(capsys, "verify", f"--theta={theta}", f"--eta={eta}")
    assert rc == 0
    assert data["overall"] is True
    rec = next(c for c in data["checks"] if c["name"] == "transform.residual")
    assert (rec["expected"], rec["measured"], rec["pass"]) == (None, None, True)
    assert rec["detail"].startswith(f"skipped: {error}: ")


@pytest.mark.parametrize("theta,eta", [("0.5", "-0.5"), ("0", "0.5"), ("0.5", "0")])
def test_verify_without_a_swap_map_has_no_duality_check(capsys, theta, eta):
    rc, data = run_json(capsys, "verify", f"--theta={theta}", f"--eta={eta}")
    assert rc == 0
    assert "transform.residual" not in {c["name"] for c in data["checks"]}


@pytest.mark.parametrize("theta,eta", [("1e160", "1e-160"), ("1e308", "5e-324")])
def test_verify_with_an_overflowing_swap_ratio_has_no_duality_check(capsys, theta, eta):
    # theta/eta overflows, as 1e-200/1e200 underflows: no swap map, so no
    # duality record, and the commutator table alone decides the exit code.
    rc, data = run_json(capsys, "verify", f"--theta={theta}", f"--eta={eta}")
    assert rc != 2
    assert rc == (0 if data["overall"] else 1)
    assert "transform.residual" not in {c["name"] for c in data["checks"]}


def test_verify_random_batch_of_zero_exits_2(capsys):
    rc, data = run_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--random", "0")
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "positive batch size" in data["error"]["message"]


def test_verify_failed_expectation_exits_1(capsys):
    rc, data = run_json(
        capsys, "verify", "--family", "simple", "--theta", "0.5", "--eta", "0.5",
        "--expect-diag", "1.0",
    )
    assert rc == 1
    assert data["overall"] is False
    diag = next(c for c in data["checks"] if c["name"] == "[X1,P1]")
    assert diag["measured"] == 1.0625
    assert diag["pass"] is False


def test_verify_conditions_input(capsys):
    rc, data = run_json(capsys, "verify", "--gamma", "0.3", "--alpha", "0.2", "--mass", "2")
    assert rc == 0
    assert data["meta"]["theta"] == pytest.approx(0.15)
    assert data["meta"]["eta"] == pytest.approx(0.4)


def test_verify_partial_params_rejected(capsys):
    rc, data = run_json(capsys, "verify", "--theta", "0.5")
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


def test_verify_limit_and_random_suites(capsys, monkeypatch):
    monkeypatch.setenv("NCPS_SEED", "12345")
    rc, data = run_json(
        capsys, "verify", "--theta", "0.5", "--eta", "0.5",
        "--limit-scales", "1e-2,1e-4,1e-6", "--random", "100",
    )
    assert rc == 0
    names = {c["name"] for c in data["checks"]}
    assert "limit.minus.monotone" in names
    assert "limit.plus.monotone" in names
    assert "random.closure.minus" in names
    assert data["meta"]["seed"] == 12345
    dists = data["meta"]["limit"]["minus_distances"]
    assert dists[0] > dists[1] > dists[2]


def test_verify_simple_family_reports_planck_diag(capsys):
    rc, data = run_json(capsys, "verify", "--family", "simple", "--theta", "0.5", "--eta", "0.5")
    assert rc == 0
    planck = next(c for c in data["checks"] if c["name"] == "planck.diag")
    assert planck["expected"] == 1.0625
    assert planck["pass"] is True


# --- com ---------------------------------------------------------------------


def test_com_conditioned_routes_equal(capsys):
    rc, data = run_json(capsys, "com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2")
    assert rc == 0
    assert data["meta"]["theta_eff"] == pytest.approx(0.1)
    assert data["meta"]["eta_eff"] == pytest.approx(0.6)
    assert data["meta"]["routes_equal"] is True
    assert data["meta"]["conditions_used"] is True


def test_com_violated_conditions_reports_distances(capsys):
    rc, data = run_json(
        capsys, "com", "--masses", "1,2", "--thetas", "0.3,0.3", "--etas", "0.2,0.2"
    )
    assert rc == 0  # a successful run whose finding is "routes differ"
    assert data["meta"]["routes_equal"] is False
    assert data["meta"]["conditions_used"] is False
    route_checks = [c for c in data["checks"] if c["name"].startswith("routes.")]
    assert max(c["measured"] for c in route_checks) > 1e-6
    assert all(c["pass"] for c in route_checks)  # informational, not failures
    assert all("informational" in c.get("detail", "") for c in route_checks)
    # the commutator-table checks stay binding
    assert all(c["pass"] for c in data["checks"] if c["name"].startswith("table."))


def test_com_empty_particle_list_exits_2(capsys):
    rc, data = run_json(capsys, "com", "--masses", "", "--gamma", "0.3", "--alpha", "0.2")
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


def test_com_simple_family(capsys):
    rc, data = run_json(
        capsys, "com", "--family", "simple", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2"
    )
    assert rc == 0
    assert data["meta"]["family"] == "simple"
    assert data["meta"]["routes_equal"] is True


def test_com_missing_parameter_source_exits_2(capsys):
    rc, data = run_json(capsys, "com", "--masses", "1,2")
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


_BOTH = ["--gamma", "0.3", "--alpha", "0.2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theta", "0.5", "--eta", "0.5", *_BOTH],
        ["verify", "--theta", "0.5", "--eta", "0.5", "--gamma", "0.3"],
        ["verify", "--theta", "0.5", *_BOTH],
        ["repr", "--theta", "0.5", "--eta", "0.5", *_BOTH],
        ["repr", "--eta", "0.5", *_BOTH],
        ["simulate", "--theta", "0.1", "--eta", "0.1", *_BOTH, "--t-end", "0.1"],
        ["simulate", "--theta", "0.1", "--eta", "0.1", "--alpha", "0.2", "--t-end", "0.1"],
        ["simulate", "--wep", "--masses", "1,2", "--theta", "0.1", "--eta", "0.1", *_BOTH, "--t-end", "0.1"],
        ["simulate", "--wep", "--masses", "1,2", "--theta", "0.1", "--eta", "0.1", "--gamma", "0.3",
         "--t-end", "0.1"],
        ["simulate", "--wep", "--masses", "1,2", "--theta", "0.1", *_BOTH, "--t-end", "0.1"],
        ["com", "--masses", "1,2", "--thetas", "0.1,0.2", "--etas", "0.1,0.1", *_BOTH],
        ["com", "--masses", "1,2", "--thetas", "0.1,0.2", "--etas", "0.1,0.1", "--gamma", "0.3"],
        ["com", "--masses", "1,2", "--etas", "0.1,0.1", *_BOTH],
    ],
)
def test_two_parameter_sources_exit_2(capsys, argv):
    # Neither source wins: a run that names both is refused, never ranked.
    rc, data = run_json(capsys, *argv)
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "not both" in data["error"]["message"]


def test_config_and_flags_giving_two_sources_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.3, "alpha": 0.2}))
    rc, data = run_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--config", str(cfg))
    assert rc == 2
    assert "not both" in data["error"]["message"]


# --- simulate ------------------------------------------------------------------


def test_simulate_free_trajectory_csv(capsys):
    rc, out = run_cli(
        capsys, "simulate", "--kind", "free", "--theta", "0.1", "--eta", "0.1",
        "--p1", "1", "--t-end", "1", "--dt", "0.1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2,p1,p2,X1,X2,P1,P2"
    assert len(lines) == 12  # header + 11 samples for 10 steps
    x1_values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(x1_values, x1_values[1:]))


def test_simulate_json_format(capsys):
    rc, data = run_json(
        capsys, "simulate", "--kind", "harmonic", "--omega", "1", "--theta", "0", "--eta", "0",
        "--family", "simple", "--x1", "1", "--t-end", "1", "--dt", "0.01", "--format", "json",
    )
    assert rc == 0
    assert data["columns"] == ["t", "x1", "x2", "p1", "p2", "X1", "X2", "P1", "P2"]
    assert len(data["rows"]) == 101
    assert data["energy_drift"] < 1e-10


def test_simulate_gravity_alias(capsys):
    rc, out = run_cli(
        capsys, "simulate", "--kind", "gravity", "--theta", "0", "--eta", "0",
        "--family", "simple", "--t-end", "0.5", "--dt", "0.1",
    )
    assert rc == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[4]) == pytest.approx(-0.5)  # p2 = -m*g*t


def test_simulate_csv_bytes_match_the_csv_writer_formula(capsys):
    # The CSV rows are joined by hand; they must stay the bytes that
    # csv.writer gives for repr(float(v)) of every value.
    rc, out = run_cli(
        capsys, "simulate", "--kind", "gravity", "--theta", "0.2", "--eta", "-0.1",
        "--x1", "3", "--p1", "-1.5", "--t-end", "1", "--dt", "0.25", "--format", "csv",
    )
    rep = build_representation(NCParams(0.2, -0.1), "branch", "minus")
    traj = evolve(build_hamiltonian("uniform_gravity", rep, g=1.0), (3.0, 0.0, -1.5, 0.0), 1.0, 0.25)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x1", "x2", "p1", "p2", "X1", "X2", "P1", "P2"])
    values = []
    for t, state, obs in zip(traj.times, traj.canonical_states, traj.nc_observables):
        row = [float(t)] + [float(v) for v in state] + [float(v) for v in obs]
        values += row
        writer.writerow([repr(v) for v in row])
    assert rc == 0
    assert out == buf.getvalue()
    # the trajectory holds negative values, zeros, exact integers and fractions
    assert min(values) < 0.0 and 0.0 in values
    assert any(v == int(v) != 0 for v in values) and any(v != int(v) for v in values)


def test_simulate_wep_summary(capsys):
    rc, data = run_json(
        capsys, "simulate", "--wep", "--masses", "1,2", "--gamma", "0.01", "--alpha", "0.01",
        "--g", "1", "--t-end", "10", "--dt", "0.01",
    )
    assert rc == 0
    s = data["summary"]
    assert s["deviation_max"] <= 1e-9
    assert s["conditions_used"] is True
    assert s["masses"] == [1.0, 2.0]
    assert s["energy_drift_max"] <= 1e-10
    assert s["branch"] == "minus"


def test_simulate_wep_violated_conditions(capsys):
    rc, data = run_json(
        capsys, "simulate", "--wep", "--masses", "1,2", "--theta", "0.01", "--eta", "0.01",
        "--t-end", "10", "--dt", "0.01",
    )
    assert rc == 0
    assert data["summary"]["conditions_used"] is False
    assert data["summary"]["deviation_max"] >= 1e-3


def test_simulate_nonpositive_dt_exits_2(capsys):
    rc, data = run_json(
        capsys, "simulate", "--kind", "free", "--theta", "0.1", "--eta", "0.1", "--dt", "0"
    )
    assert rc == 2
    assert data["error"]["type"] == "StepError"


def test_simulate_singular_map_exits_1(capsys):
    # theta*eta = 1 collapses the observable map; wep mode needs to invert it
    rc, data = run_json(
        capsys, "simulate", "--wep", "--masses", "1,2", "--theta", "1", "--eta", "1",
        "--t-end", "1", "--dt", "0.1",
    )
    assert rc == 1
    assert data["error"]["type"] == "SingularMapError"


_WEP = ["simulate", "--wep", "--masses", "1,2", "--gamma", "0.01", "--alpha", "0.01", "--t-end", "0.1"]
_TRAJECTORY = ["simulate", "--theta", "0.1", "--eta", "0.1", "--t-end", "0.1"]


@pytest.mark.parametrize(
    "argv,option",
    [(_WEP + [flag, value], flag) for flag, value in
     [("--mass", "5"), ("--mass", "1"), ("--kind", "free"), ("--omega", "2"),
      ("--x1", "1"), ("--x2", "0"), ("--p1", "1"), ("--p2", "1"), ("--format", "csv")]]
    + [(_TRAJECTORY + [flag, value], flag) for flag, value in
       [("--masses", "1,2"), ("--nc-x1", "1"), ("--nc-x2", "0"), ("--nc-v1", "7"), ("--nc-v2", "1")]]
    # A single trajectory reads --g only under gravity and --omega only for the oscillator.
    + [(_TRAJECTORY + kind + [flag, value], flag) for kind, flag, value in
       [([], "--g", "9.8"), ([], "--omega", "3"), (["--kind", "free"], "--g", "1"),
        (["--kind", "harmonic"], "--g", "1"), (["--kind", "gravity"], "--omega", "1"),
        (["--kind", "uniform_gravity"], "--omega", "1")]],
)
def test_simulate_refuses_the_other_modes_options(capsys, argv, option):
    # Each mode ignores the other's options; given one, even at its default,
    # the run is refused rather than silently dropping it.
    rc, data = run_json(capsys, *argv)
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert data["error"]["message"].endswith(f"does not read {option}")


@pytest.mark.parametrize(
    "argv,config,option",
    [(_WEP, {"mass": 5}, "--mass"), (_WEP, {"kind": "gravity"}, "--kind"), (_WEP, {"format": "csv"}, "--format"),
     (_TRAJECTORY, {"masses": [1, 2]}, "--masses"), (_TRAJECTORY, {"nc-v1": 7}, "--nc-v1"),
     (_TRAJECTORY, {"g": 9.8}, "--g"), (_TRAJECTORY + ["--kind", "harmonic"], {"g": 1}, "--g"),
     (_TRAJECTORY, {"kind": "gravity", "omega": 2}, "--omega")],
)
def test_simulate_refuses_the_other_modes_config_keys(capsys, tmp_path, argv, config, option):
    (tmp_path / "run.json").write_text(json.dumps(config))
    rc, data = run_json(capsys, *argv, "--config", str(tmp_path / "run.json"))
    assert rc == 2
    assert data["error"]["message"].endswith(f"does not read {option}")


_SIMPLE_RUNS = {
    "verify": ["verify", "--theta", "0.5", "--eta", "0.5"],
    "repr": ["repr", "--theta", "0.5", "--eta", "0.5"],
    "com": ["com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2"],
    "simulate": _TRAJECTORY,
    "simulate-wep": _WEP,
}


@pytest.mark.parametrize("run", sorted(_SIMPLE_RUNS))
@pytest.mark.parametrize("where", ["flag", "config"])
def test_simple_family_refuses_branch(capsys, tmp_path, run, where):
    # Only the branch and epsilon_general families read --branch; the simple
    # family would drop it, even at its default, while echoing it in config.
    argv = _SIMPLE_RUNS[run] + ["--family", "simple"]
    if where == "flag":
        argv += ["--branch", "minus"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({"branch": "plus"}))
        argv += ["--config", str(tmp_path / "run.json")]
    rc, data = run_json(capsys, *argv)
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert data["error"]["message"].endswith("does not read --branch")
    rc, out = run_cli(capsys, *_SIMPLE_RUNS[run], "--family", "simple")
    assert rc == 0
    if run in ("verify", "com", "simulate-wep"):
        # A report gives the branch the run read: none.
        data = json.loads(out)
        assert data.get("meta", data.get("summary"))["branch"] is None


def test_simulate_mode_rule_ignores_defaults_and_nulls(capsys, tmp_path):
    # A default is not a given option, and neither is a config null.
    (tmp_path / "run.json").write_text(json.dumps({"masses": None}))
    rc, _ = run_cli(capsys, *_TRAJECTORY, "--config", str(tmp_path / "run.json"))
    assert rc == 0
    (tmp_path / "wep.json").write_text(json.dumps({"wep": True, "masses": [1, 2]}))
    rc, data = run_json(capsys, "simulate", "--gamma", "0.01", "--alpha", "0.01", "--t-end", "0.1",
                        "--config", str(tmp_path / "wep.json"))
    assert rc == 0
    assert data["summary"]["masses"] == [1.0, 2.0]


@pytest.mark.parametrize(
    "argv,config",
    [
        (["simulate", "--gamma", "0.01", "--alpha", "0.01", "--t-end", "0.05", "--format", "json",
          "--tol", "nan"], None),
        (_WEP[:-1] + ["0.05", "--tol", "inf"], None),
        (_WEP[:-1] + ["0.05"], {"tol": 1e400}),
    ],
    ids=["flag-nan", "wep-flag-inf", "wep-config-overflow"],
)
def test_simulate_has_no_tol_option(capsys, tmp_path, argv, config):
    # Nothing in a simulate run is checked against a tolerance, so --tol is
    # not an option of it; a non-finite one never reaches the config echo.
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "run.json")]
    rc, out = run_cli(capsys, *argv)
    assert rc == 2
    data = json.loads(out, parse_constant=_no_constant)
    assert data["error"]["type"] == "ConfigError"
    assert "tol" in data["error"]["message"]


@pytest.mark.parametrize("fmt", [["--format", "csv"], []])
def test_simulate_csv_refuses_an_overflowing_energy(capsys, fmt):
    # As the JSON report does, although the CSV table prints no energy.
    rc, data = run_json(capsys, *_TRAJECTORY, "--p1", "1e200", *fmt)
    assert rc == 2
    assert "energy" in data["error"]["message"]


def test_simulate_wep_single_mass_exits_2(capsys):
    rc, data = run_json(
        capsys, "simulate", "--wep", "--masses", "1", "--gamma", "0.01", "--alpha", "0.01"
    )
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


# --- repr ----------------------------------------------------------------------


def test_repr_json_coefficients(capsys):
    rc, data = run_json(capsys, "repr", "--theta", "0.5", "--eta", "0.5")
    assert rc == 0
    assert data["forms"]["X1"]["x1[0]"] == pytest.approx(0.9659258262890683)
    assert data["forms"]["X1"]["p2[0]"] == pytest.approx(-0.25881904510252074)
    assert data["overall"] is True
    assert data["table"]["[X1,X2]"] == pytest.approx(0.5)


def test_repr_csv(capsys):
    rc, out = run_cli(capsys, "repr", "--theta", "0.5", "--eta", "0.5", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "form,term,coefficient"
    assert len(lines) == 9  # two terms per form
    assert lines[1].startswith("X1,")


def test_verify_csv_report(capsys):
    rc, out = run_cli(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--format", "csv")
    assert rc == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["name", "expected", "measured", "tol", "pass", "detail"]
    assert len(rows) == 7  # six table entries plus the duality residual
    assert all(row[4] == "true" for row in rows)
    # measured values survive the text round trip exactly (repr floats)
    by_name = {row[0]: row for row in rows}
    assert float(by_name["[X1,X2]"][2]) == 0.49999999999999994


def test_verify_csv_report_failure_exit_code(capsys):
    rc, out = run_cli(
        capsys,
        "verify", "--theta", "0.5", "--eta", "0.5", "--family", "simple",
        "--expect-diag", "1.0", "--format", "csv",
    )
    assert rc == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows if row[4] == "false"] == ["[X1,P1]", "[X2,P2]"]


# --- plumbing --------------------------------------------------------------------


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": 0.5, "eta": 0.5, "branch": "plus", "tol": 1e-10}))
    rc, data = run_json(capsys, "verify", "--config", str(cfg), "--branch", "minus")
    assert rc == 0
    assert data["config"]["branch"] == "minus"  # flag wins
    assert data["config"]["theta"] == 0.5  # file value survives
    assert data["config"]["tol"] == 1e-10


@pytest.mark.parametrize(
    "command,config",
    [
        ("verify", {"tol": "1e-10", "mass": 2, "theta": "0.5", "eta": 0.5, "random": "3", "expect_theta": 1}),
        ("simulate", {"theta": 0, "eta": "0.1", "mass": "2", "p1": 1, "t_end": "0.3", "dt": 0.1, "format": "json"}),
        ("com", {"masses": "1,2", "gamma": "0.3", "alpha": 1, "tol": 0}),
    ],
)
def test_config_values_echo_as_their_flags_give_them(capsys, tmp_path, command, config):
    # A config value is read in its flag's type, so both routes print one config echo.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    flags = []
    for key, value in config.items():
        flags += [f"--{key.replace('_', '-')}", str(value)]
    rc_file, from_file = run_json(capsys, command, "--config", str(path))
    rc_flags, from_flags = run_json(capsys, command, *flags)
    assert rc_file == rc_flags
    assert from_file["config"].pop("config") == str(path)
    assert from_file == from_flags


def test_config_file_nested_too_deep_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("[" * 200000 + "]" * 200000)
    rc, data = run_json(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "cannot read config file" in data["error"]["message"]


def test_config_file_holding_an_array_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps([{"theta": 0.5, "eta": 0.5}]))
    rc, data = run_json(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "JSON object" in data["error"]["message"]


@pytest.mark.parametrize("masses", [[True, 2], [1, False], [10**400, 2]], ids=["true", "false", "huge_int"])
def test_config_list_entry_that_is_no_float_exits_2(capsys, tmp_path, masses):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"masses": masses, "gamma": 0.3, "alpha": 0.2}))
    rc, data = run_json(capsys, "com", "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "--masses" in data["error"]["message"]


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    for config in ({"thetaa": 0.5}, {"theta": 0.5, "eta": 0.5, "hbar": 1}):
        cfg.write_text(json.dumps(config))
        rc, data = run_json(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert data["error"]["type"] == "ConfigError"
        assert "is not an option" in data["error"]["message"]


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out = run_cli(
        capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--output", str(out_path)
    )
    assert rc == 0
    assert out == ""  # nothing on stdout when a file is requested
    data = json.loads(out_path.read_text())
    assert data["overall"] is True


def test_report_round_trips_stably(capsys):
    _, out = run_cli(capsys, "verify", "--theta", "0.5", "--eta", "0.5")
    first = json.loads(out)
    again = json.loads(json.dumps(first, indent=2, sort_keys=True))
    assert again == first
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_negative_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("NCPS_SEED", "-1")
    rc, data = run_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--random", "3")
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "non-negative integer" in data["error"]["message"]


def test_bad_seed_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("NCPS_SEED", "not-a-number")
    rc, data = run_json(
        capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--random", "10"
    )
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


@pytest.mark.skipif(shutil.which("ncphase") is None, reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["ncphase", "verify", "--theta", "0.5", "--eta", "0.5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["overall"] is True


# --- input contract --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,error",
    [
        (["verify", "--theta", "nan", "--eta", "0.5"], "DomainError"),
        (["verify", "--theta", "0.5", "--eta=-inf"], "DomainError"),
        (["verify", "--gamma", "0.3", "--alpha", "0.2", "--mass", "inf"], "DomainError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--dt", "nan"], "StepError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--t-end", "inf"], "StepError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--tol", "inf"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--tol", "nan"], "ConfigError"),
        (["repr", "--theta", "0.5", "--eta", "0.5", "--tol", "nan"], "ConfigError"),
        (["com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2", "--tol", "inf"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--limit-scales", "1e-2,1e-4",
          "--limit-tols", "1e-2,inf"], "ConfigError"),
        # limit tolerances without the scales they belong to
        (["verify", "--theta", "0.5", "--eta", "0.5", "--limit-tols", "nan,abc"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--limit-tols", "1e-3"], "ConfigError"),
        # a limit track over no scales
        (["verify", "--theta", "0.5", "--eta", "0.5", "--limit-scales", ""], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--limit-scales", ",,"], "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "gravity", "--g", "nan"], "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "harmonic", "--omega", "inf"],
         "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--x1", "nan"], "ConfigError"),
        (["simulate", "--wep", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2", "--g", "inf"],
         "ConfigError"),
        (["simulate", "--wep", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2", "--nc-v1", "nan"],
         "ConfigError"),
        # finite inputs whose Hamiltonian overflows
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "harmonic", "--omega", "1e200",
          "--t-end", "0.02", "--dt", "0.01"], "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "gravity", "--g", "1e308",
          "--mass", "10", "--t-end", "0.02", "--dt", "0.01"], "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--p1", "1e200", "--format", "json",
          "--t-end", "0.02"], "ConfigError"),
        (["simulate", "--wep", "--masses", "1,2", "--gamma", "0.1", "--alpha", "0.1", "--t-end", "0.02",
          "--nc-v1", "1e160"], "ConfigError"),
        # finite Hamiltonians whose one-step propagator overflows
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "harmonic", "--omega", "1e100",
          "--t-end", "0.02", "--dt", "0.01"], "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "gravity", "--g", "1e300",
          "--p1", "1e10", "--t-end", "0.02", "--dt", "0.01"], "ConfigError"),
        # a finite propagator whose trajectory overflows
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--p1", "1e307", "--t-end", "100",
          "--dt", "1"], "ConfigError"),
        # finite masses whose total, or etas whose sum, overflows
        (["com", "--masses", "1e308,1e308", "--gamma", "0.3", "--alpha", "0.2"], "DomainError"),
        (["com", "--masses", "1,2", "--thetas", "1,1", "--etas", "1e308,1e308"], "DomainError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--expect-theta", "nan"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--expect-eta", "inf"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--expect-diag=-inf"], "ConfigError"),
        # finite simple-family parameters whose product overflows
        (["repr", "--theta", "1e200", "--eta", "1e200", "--family", "simple"], "DomainError"),
        # finite parameters whose representation coefficients overflow
        (["verify", "--theta", "1e200", "--eta=-1e200", "--family", "branch", "--branch", "minus"],
         "DomainError"),
        (["repr", "--theta", "1e200", "--eta=-1e200"], "DomainError"),
        (["verify", "--theta", "5e-324", "--eta", "1", "--family", "epsilon_general", "--branch", "plus"],
         "DomainError"),
        (["verify", "--theta", "5e-324", "--eta", "1", "--family", "branch", "--branch", "plus"],
         "DomainError"),
        (["verify", "--theta", "0", "--eta", "1e308", "--family", "epsilon_general"], "DomainError"),
        # finite parameters whose branch swap scale sqrt(theta/eta) overflows,
        # in the one check that needs the swap map
        (["verify", "--theta", "1e160", "--eta", "1e-160", "--limit-scales", "0.5"], "DomainError"),
    ],
)
def test_nonfinite_input_exits_2(capsys, argv, error):
    rc, data = run_json(capsys, *argv)
    assert rc == 2
    assert data["error"]["type"] == error


#: The gravity run of the README at a huge mass.  At 1e200 and 1e300 the
#: affine column dwarfs the drift block, and the propagator's scaling by 2^-s
#: rounds the x2 shift away (it read 0.0 and exited 0); at 1e100 it does not.
#: A subnormal theta needs no scaling, so nothing is rounded.
_HEAVY = ("--theta", "0.1", "--eta", "0.1", "--kind", "gravity", "--p1", "1", "--t-end", "0.5", "--dt", "0.1")


@pytest.mark.parametrize(
    "argv,code",
    [
        ([*_HEAVY, "--mass", "1e200"], 2),
        ([*_HEAVY, "--mass", "1e300"], 2),
        ([*_HEAVY, "--mass", "1e100"], 0),
        (["--theta", "1e-320", "--eta", "0.1", "--kind", "free"], 0),
    ],
)
def test_simulate_refuses_a_step_the_propagator_cannot_resolve(capsys, argv, code):
    rc, out = run_cli(capsys, "simulate", *argv)
    assert rc == code
    if code == 2:
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert "propagator cannot resolve its drift at dt = 0.1" in error["message"]
    elif "--mass" in argv:
        # the x2 offset after one step is about -t^2/2 (g = 1), not 0.0
        x2 = float(out.splitlines()[2].split(",")[2])
        assert abs(x2 + 0.005) < 1e-4


def test_runaway_step_count_exits_2(capsys):
    # 10^12 steps are refused from the count alone, before any table exists
    rc, data = run_json(
        capsys, "simulate", "--theta", "0.1", "--eta", "0.1", "--t-end", "1e9", "--dt", "1e-3"
    )
    assert rc == 2
    assert data["error"]["type"] == "StepError"
    assert "1000000000000 steps" in data["error"]["message"]


@pytest.mark.parametrize("flag,config", [(["--random", "1000000000"], None), ([], {"random": 1e308})])
def test_random_batch_over_the_cap_exits_2_before_drawing(capsys, monkeypatch, tmp_path, flag, config):
    def no_draws(n, seed):
        raise AssertionError(f"drew a batch of {n}")

    monkeypatch.setattr(ncphase.cli, "random_param_batch", no_draws)
    argv = ["verify", "--theta", "0.5", "--eta", "0.5", *flag]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "run.json")]
    rc, data = run_json(capsys, *argv)
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    count = flag[1] if flag else str(int(1e308))
    assert f"{count} draws, more than the cap of {MAX_RANDOM}" in data["error"]["message"]


@pytest.mark.parametrize("name,content", [("missing.json", None), (".", None), ("nul\x00.json", None),
                                          ("latin1.json", b'{"theta": "\xe9"}')])
def test_unreadable_config_exits_2(capsys, monkeypatch, tmp_path, name, content):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / name).write_bytes(content)
    rc, data = run_json(capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--config", name)
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "argv",
    [[], ["--bogus"], ["verify", "--theta"], ["com", "--branch", "sideways"],
     ["repr", "--theta", "0.5", "--eta", "0.5", "--nope"],
     ["verify", "--theta", "0.5", "--eta", "0.5", "--hbar", "1"]],  # hbar is the unit, not an option
)
def test_usage_error_exits_2_with_a_json_report(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage: ncphase" in captured.err
    data = json.loads(captured.out)
    assert data["command"] is None
    assert data["error"]["type"] == "ConfigError"
    assert data["error"]["message"].startswith("ncphase")


def test_unwritable_output_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing-dir" / "report.json"
    rc, data = run_json(
        capsys, "verify", "--theta", "0.5", "--eta", "0.5", "--output", str(out_path)
    )
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "config",
    [{"theta": "abc", "eta": 0.5}, {"theta": 0.5, "eta": 0.5, "random": 2.7},
     {"theta": 0.5, "eta": 0.5, "format": "xml"}],
)
def test_config_value_the_flag_would_reject_exits_2(capsys, tmp_path, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    rc, data = run_json(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("value", ["yes", 1])
def test_config_store_true_option_needs_a_boolean(capsys, tmp_path, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"wep": value}))
    rc, data = run_json(capsys, "simulate", "--masses", "1,2", "--gamma", "0.01", "--alpha", "0.01",
                        "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "needs true or false" in data["error"]["message"]


@pytest.mark.parametrize(
    "argv,config",
    [
        (["verify"], {"theta": 0.5, "eta": 0.5, "tol": None}),
        (["verify"], {"theta": 0.5, "eta": 0.5, "mass": None}),
        (["simulate", "--theta", "0.1", "--eta", "0.1"], {"dt": None}),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "gravity"], {"g": None}),
    ],
)
def test_config_null_for_an_option_that_needs_a_value_exits_2(capsys, tmp_path, argv, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    rc, data = run_json(capsys, *argv, "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"
    assert "null" in data["error"]["message"]


def test_config_null_for_an_option_without_a_default_is_unset(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": 0.5, "eta": 0.5, "format": None, "expect_theta": None}))
    rc, data = run_json(capsys, "verify", "--config", str(cfg))
    assert rc == 0
    assert data["overall"] is True


def _command_actions(command):
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in commands.choices[command]._actions if a.dest != "help"]


def _option_dests(command):
    return {a.dest for a in _command_actions(command)}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theta", "0.5", "--eta", "0.5"],
        ["repr", "--theta", "0.5", "--eta", "0.5"],
        ["com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2"],
        ["simulate", "--theta", "0.1", "--eta", "0.1", "--t-end", "0.1", "--format", "json"],
        ["simulate", "--wep", "--masses", "1,2", "--gamma", "0.01", "--alpha", "0.01",
         "--t-end", "0.1"],
    ],
)
def test_config_echo_holds_exactly_the_command_options(capsys, tmp_path, argv):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    rc, data = run_json(capsys, *argv, "--config", str(cfg))
    assert rc == 0
    assert set(data["config"]) == _option_dests(argv[0])


def test_com_config_rejects_mass(capsys, tmp_path):
    cfg = tmp_path / "com.json"
    cfg.write_text(json.dumps({"masses": [1, 2], "gamma": 0.3, "alpha": 0.2, "mass": 5}))
    rc, data = run_json(capsys, "com", "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


# Each command's config is valid as it stands; the fuzz below replaces one
# option with a value of any JSON type.  Numbers stay small and are rounded to
# 1e-3 so that no replaced t_end, dt or --random makes a long run.
FUZZ_BASES = {
    "verify": {"theta": 0.5, "eta": 0.5, "limit_scales": "1e-2,1e-4", "random": 3},
    "repr": {"theta": 0.5, "eta": 0.5},
    "com": {"masses": [1, 2, 3], "gamma": 0.3, "alpha": 0.2},
    "simulate": {"kind": "gravity", "t_end": 0.05, "dt": 0.01, "gamma": 0.01, "alpha": 0.01},
}
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats(-30.0, 30.0).map(lambda x: round(x, 3))
    | st.text(alphabet="0123456789.,-+e abfijlnsx\x00", max_size=8)
)
_json_values = _json_scalars | st.lists(_json_scalars, max_size=3) | st.dictionaries(
    st.text(max_size=3), _json_scalars, max_size=2
)


def _no_constant(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _parses(out: str) -> bool:
    try:
        json.loads(out, parse_constant=_no_constant)
        return True
    except ValueError:
        rows = list(csv.reader(io.StringIO(out)))
        return len(rows) > 1 and len({len(row) for row in rows}) == 1


#: Zero, subnormal, tiny and huge parameters; their products and ratios
#: underflow, overflow, or overflow the representation coefficients.
_EDGE_VALUES = ("0", "5e-324", "1e-160", "1e160", "-1e200", "1e308")


def test_edge_parameter_grid_prints_strict_json(capsys):
    families = [["--family", "simple"]] + [["--family", family, "--branch", branch] for family, branch in
                [("branch", "minus"), ("branch", "plus"), ("epsilon_general", "minus"), ("epsilon_general", "plus")]]
    for theta in _EDGE_VALUES:
        for eta in _EDGE_VALUES:
            argvs = [[command, f"--theta={theta}", f"--eta={eta}", *family]
                     for command in ("verify", "repr") for family in families]
            argvs += [["com", "--masses", "1,2", f"--thetas={theta},{theta}", f"--etas={eta},{eta}",
                       "--family", family] for family in ("branch", "simple")]
            for argv in argvs:
                rc, out = run_cli(capsys, *argv)
                assert rc in (0, 1, 2), argv
                json.loads(out, parse_constant=_no_constant)
    # Partial sums of the direct [P1,P2] overflow in one particle order and
    # not in the other; both read the exact sum.
    for family in ("branch", "simple"):
        runs = []
        for etas in ("1.5e308,1.5e308,-1.5e308", "-1.5e308,1.5e308,1.5e308"):
            rc, out = run_cli(capsys, "com", "--masses", "1,1,1", "--thetas", "0,0,0", f"--etas={etas}", "--family", family)
            runs.append((rc, [check["measured"] for check in json.loads(out, parse_constant=_no_constant)["checks"]]))
        assert runs[0] == runs[1], family
    # A coefficient over a tiny total mass overflows: a refusal, not Infinity.
    for family in ("branch", "simple"):
        rc, out = run_cli(capsys, "com", "--masses", "1e-300,1e-300", "--thetas=0,0", "--etas=1e308,0.3", "--family", family)
        assert rc == 2, family
        json.loads(out, parse_constant=_no_constant)


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_exits_0_1_or_2_with_parseable_output(capsys, monkeypatch, tmp_path, command, data):
    monkeypatch.chdir(tmp_path)  # a fuzzed --output lands here
    config = dict(FUZZ_BASES[command])
    config[data.draw(st.sampled_from(sorted(_option_dests(command))), label="key")] = data.draw(
        _json_values, label="value"
    )
    (tmp_path / "run.json").write_text(json.dumps(config))
    rc = main([command, "--config", "run.json"])
    captured = capsys.readouterr()
    assert rc in (0, 1, 2)
    assert "Traceback" not in captured.err
    to_file = isinstance(config.get("output"), str) and config["output"] != "" and rc != 2
    assert _parses(captured.out) or (to_file and captured.out == ""), captured.out


def _base_argv(command):
    argv = [command]
    for key, value in FUZZ_BASES[command].items():
        argv += ["--" + key.replace("_", "-"), ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return argv


# Flag values.  Digits other than 0 come only from the bounded numbers, so
# no fuzzed --t-end, --dt, --random or --masses makes a long run; the
# extremes below are refused by the step and batch caps before any work.
_argv_values = (
    st.integers(-3, 30).map(str)
    | st.floats(-30.0, 30.0).map(lambda x: repr(round(x, 3)))
    | st.text(alphabet="0.,-+e abfijlnsx=\x00", max_size=6)
    | st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e308,1e308", "1,2", "0.5,0.25,2", "--"])
)
_unknown_flags = st.sampled_from(["--bogus", "-x", "--the", "--ma", "--theta=0.2", "-", "verify", "--help-me"])


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_fuzz_exits_0_1_or_2_with_parseable_output(capsys, monkeypatch, tmp_path, command, data):
    monkeypatch.chdir(tmp_path)  # a fuzzed --output or --config lands here
    flags = sorted(flag for a in _command_actions(command) for flag in a.option_strings)
    argv = _base_argv(command) if data.draw(st.booleans(), label="base") else [command]
    extra = data.draw(
        st.lists(
            st.tuples(st.sampled_from(flags), _argv_values).map(list)
            | st.tuples(_unknown_flags, _argv_values).map(list)
            | st.sampled_from(flags).map(lambda flag: [flag]),
            min_size=1,
            max_size=4,
        ),
        label="extra",
    )
    argv += [token for group in extra for token in group]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in captured.err
    to_file = "--output" in argv and rc != 2
    assert _parses(captured.out) or (to_file and captured.out == ""), (argv, captured.out)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theta", "0.5", "--eta", "0.5"],
        ["simulate", "--theta", "0.1", "--eta", "0.1", "--t-end", "10", "--dt", "0.01", "--format", "csv"],
        ["--version"],
        ["verify", "--help"],
    ],
)
def test_closed_stdout_exits_2_without_a_traceback(argv):
    # The reader is gone before the child writes: every write or flush fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(ncphase.__file__).resolve().parent.parent)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncphase.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [["--version"], ["verify", "--help"]])
def test_version_and_help_exit_0_on_an_open_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(("ncphase ", "usage: ncphase verify"))


# --- start-up --------------------------------------------------------------------


def test_start_up_imports_only_what_the_command_needs():
    # A fresh interpreter, since this one may have loaded numpy and scipy
    # already.  Integrating needs numpy alone: scipy would cost a simulate
    # child more than the rest of its start-up.
    script = textwrap.dedent(
        """
        import json, sys

        def loaded():
            return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

        import ncphase.cli
        facts = {"cli": loaded()}
        import ncphase.dynamics
        facts["dynamics"] = loaded()
        rep = ncphase.build_representation(ncphase.NCParams(0.1, 0.1), "branch", "minus")
        h = ncphase.build_hamiltonian("harmonic", rep, omega=2.0)
        ncphase.evolve(h, [1.0, 0.0, 0.0, 1.0], 0.1, 0.01)
        facts["evolve"] = loaded()
        facts["lazy_name"] = ncphase.evolve is ncphase.dynamics.evolve
        names = {}
        exec("from ncphase import *", names)
        facts["unbound"] = sorted(set(ncphase.__all__) - set(names))
        print(json.dumps(facts))
        """
    )
    src = str(Path(ncphase.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "cli": [], "dynamics": ["numpy"], "evolve": ["numpy"], "lazy_name": True, "unbound": [],
    }
