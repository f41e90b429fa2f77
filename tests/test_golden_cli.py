"""Exact stdout and exit code of fixed CLI invocations, against ``golden_cli.json``.

The invocations are the README examples plus a JSON ``repr``, an
``epsilon_general`` plus-branch ``verify``, a refused ``verify``, a
fixed-parameter ``simulate --wep`` whose spread is nonzero, a
``simple``-family ``simulate --wep`` and a single-mass ``simulate`` of the
harmonic and gravity kinds, so every Hamiltonian kind and both families
reach the free-fall setup.  Three more hold each output path in the other
format: a check-report CSV with the limit records' empty cells, the CSV of
``com`` route records that are informational, and a trajectory's JSON body
with its ``energy_drift``.  A
change that alters one of these outputs on purpose regenerates the fixture
with ``PYTHONPATH=src python tests/test_golden_cli.py`` and says so.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from ncphase.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

INVOCATIONS = (
    ["verify", "--theta", "0.5", "--eta", "0.5", "--family", "branch", "--branch", "minus"],
    ["verify", "--gamma", "0.3", "--alpha", "0.2", "--mass", "2.0", "--family", "simple"],
    ["verify", "--theta", "0.5", "--eta", "0.5", "--limit-scales", "1e-2,1e-4,1e-6"],
    ["repr", "--theta", "0.5", "--eta", "0.5", "--branch", "minus", "--format", "csv"],
    ["com", "--masses", "1,2", "--gamma", "0.3", "--alpha", "0.2"],
    ["com", "--masses", "1,2", "--thetas", "0.3,0.1", "--etas", "0.2,0.5"],
    ["repr", "--theta", "0.5", "--eta", "0.5"],
    ["verify", "--theta", "0.5", "--eta", "0.5", "--family", "epsilon_general", "--branch", "plus"],
    ["verify", "--theta", "1.5", "--eta", "1.5"],
    ["simulate", "--kind", "free", "--theta", "0.2", "--eta", "0.1", "--p1", "1.0", "--t-end", "1.0",
     "--dt", "0.25", "--format", "csv"],
    ["simulate", "--wep", "--masses", "1,2,5", "--gamma", "0.3", "--alpha", "0.2", "--g", "9.8",
     "--t-end", "5", "--dt", "0.01"],
    ["simulate", "--wep", "--masses", "1,2,5", "--theta", "0.3", "--eta", "0.2", "--g", "9.8",
     "--t-end", "5", "--dt", "0.01"],
    ["simulate", "--wep", "--family", "simple", "--masses", "1,2,5", "--gamma", "0.3", "--alpha", "0.2",
     "--g", "9.8", "--nc-x1", "0.5", "--nc-x2", "-0.25", "--nc-v2", "0.3", "--t-end", "5", "--dt", "0.01"],
    ["simulate", "--kind", "harmonic", "--theta", "0.2", "--eta", "0.1", "--mass", "2", "--omega", "1.5",
     "--x1", "1", "--p2", "0.5", "--t-end", "1", "--dt", "0.25", "--format", "csv"],
    ["simulate", "--kind", "gravity", "--family", "simple", "--gamma", "0.3", "--alpha", "0.2", "--mass", "3",
     "--g", "9.8", "--x2", "2", "--p1", "1", "--t-end", "1", "--dt", "0.25", "--format", "csv"],
    ["verify", "--theta", "0.5", "--eta", "0.5", "--limit-scales", "1e-2,1e-4,1e-6", "--format", "csv"],
    ["com", "--masses", "1,2", "--thetas", "0.3,0.1", "--etas", "0.2,0.5", "--format", "csv"],
    ["simulate", "--kind", "free", "--theta", "0.2", "--eta", "0.1", "--p1", "1.0", "--t-end", "1.0",
     "--dt", "0.25", "--format", "json"],
)


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def fixture() -> list[dict]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_exactly_the_invocations():
    assert [case["argv"] for case in fixture()] == list(INVOCATIONS)


@pytest.mark.parametrize("index", range(len(INVOCATIONS)), ids=[" ".join(argv) for argv in INVOCATIONS])
def test_output_matches_the_fixture(index):
    assert run(INVOCATIONS[index]) == fixture()[index]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps([run(list(argv)) for argv in INVOCATIONS], indent=1) + "\n", encoding="utf-8")
