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


def test_verify_domain_error_exits_2(capsys):
    rc, data = run_json(capsys, "verify", "--theta", "1.5", "--eta", "1.0")
    assert rc == 2
    assert data["error"]["type"] == "DomainError"
    assert "theta*eta" in data["error"]["message"]


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


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"thetaa": 0.5}))
    rc, data = run_json(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert data["error"]["type"] == "ConfigError"


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
        (["verify", "--theta", "0.5", "--eta", "0.5", "--hbar", "inf"], "DomainError"),
        (["verify", "--gamma", "0.3", "--alpha", "0.2", "--mass", "inf"], "DomainError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--dt", "nan"], "StepError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--t-end", "inf"], "StepError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--tol", "inf"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--tol", "nan"], "ConfigError"),
        (["repr", "--theta", "0.5", "--eta", "0.5", "--tol", "nan"], "ConfigError"),
        (["com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2", "--tol", "inf"], "ConfigError"),
        (["verify", "--theta", "0.5", "--eta", "0.5", "--limit-scales", "1e-2,1e-4",
          "--limit-tols", "1e-2,inf"], "ConfigError"),
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
        # finite Hamiltonians whose one-step propagator overflows
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "harmonic", "--omega", "1e100",
          "--t-end", "0.02", "--dt", "0.01"], "ConfigError"),
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--kind", "gravity", "--g", "1e300",
          "--p1", "1e10", "--t-end", "0.02", "--dt", "0.01"], "ConfigError"),
        # a finite propagator whose trajectory overflows
        (["simulate", "--theta", "0.1", "--eta", "0.1", "--p1", "1e307", "--t-end", "100",
          "--dt", "1"], "ConfigError"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_nonfinite_input_exits_2(capsys, argv, error):
    rc, data = run_json(capsys, *argv)
    assert rc == 2
    assert data["error"]["type"] == error


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


@pytest.mark.parametrize(
    "argv,config",
    [
        (["verify"], {"theta": 0.5, "eta": 0.5, "tol": None}),
        (["verify"], {"theta": 0.5, "eta": 0.5, "hbar": None}),
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


def _option_dests(command):
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in commands.choices[command]._actions if a.dest != "help"}


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
    "simulate": {"theta": 0.1, "eta": 0.1, "kind": "gravity", "t_end": 0.05, "dt": 0.01,
                 "masses": "1,2", "gamma": 0.01, "alpha": 0.01},
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


def _parses(out: str) -> bool:
    try:
        json.loads(out)
        return True
    except ValueError:
        rows = list(csv.reader(io.StringIO(out)))
        return len(rows) > 1 and len({len(row) for row in rows}) == 1


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


# --- start-up --------------------------------------------------------------------


def test_start_up_imports_only_what_the_command_needs():
    # A fresh interpreter, since this one has loaded numpy and scipy already.
    script = textwrap.dedent(
        """
        import json, sys

        def loaded():
            return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

        import ncphase.cli
        facts = {"cli": loaded()}
        import ncphase.dynamics
        facts["dynamics"] = loaded()
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
        "cli": [], "dynamics": ["numpy"], "lazy_name": True, "unbound": [],
    }
