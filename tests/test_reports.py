"""The pass rule of check records: |measured - expected| <= tol, NaN never passes."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase import (
    CheckRecord,
    CompositeSystem,
    MassConditions,
    NCParams,
    NCPhaseError,
    build_representation,
    check_commutative_limit,
    compare_com_reps,
    compare_com_simple,
    mass_invariance_report,
    verify_nc_algebra,
)
from ncphase.cli import main
from ncphase.representation import check_branch_transform


@pytest.mark.parametrize(
    "expected,measured,tol,passed",
    [
        (0.0, math.nan, 1.0, False),
        (math.nan, 0.0, 1.0, False),
        (0.0, math.nan, math.inf, False),
        (math.inf, math.inf, 1.0, False),  # inf - inf is nan
        (-math.inf, -math.inf, math.inf, False),
        (1.0, 1.5, 0.5, True),  # |m - e| exactly equal to tol
        (1.0, 0.5, 0.5, True),
        (1.0, math.nextafter(1.5, 2.0), 0.5, False),
        (0.0, -0.0, 0.0, True),
        (-0.0, 0.0, 0.0, True),
        (0.0, 1e-300, 0.0, False),
    ],
)
def test_within_edge_cases(expected, measured, tol, passed):
    rec = CheckRecord.within("c", expected, measured, tol, "why")
    assert rec.passed is passed
    assert (rec.name, rec.tol, rec.detail) == ("c", tol, "why")
    assert rec.expected is expected and rec.measured is measured
    assert CheckRecord.within("c", expected, measured, tol).detail == ""


def test_within_builds_the_record_the_constructor_builds():
    rec = CheckRecord.within("c", 1.0, 1.25, 0.5, "why")
    twin = CheckRecord("c", 1.0, 1.25, 0.5, True, "why")
    assert type(rec) is CheckRecord
    assert rec == twin and hash(rec) == hash(twin) and repr(rec) == repr(twin)
    assert vars(rec) == vars(twin)
    assert dataclasses.replace(rec, measured=2.0) == CheckRecord("c", 1.0, 2.0, 0.5, True, "why")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.passed = False  # type: ignore[misc]


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def assert_pass_rule(checks) -> int:
    """Check the rule on every record with a numeric expected and measured value.

    Records without one follow other rules and are skipped: a limit scale
    whose branch failed to build, the monotone flags, and the informational
    route records of ``com`` without shared conditions.
    """
    n = 0
    for c in checks:
        if isinstance(c, dict):
            c = CheckRecord(c["name"], c["expected"], c["measured"], c["tol"], c["pass"])
        if _numeric(c.expected) and _numeric(c.measured):
            assert c.passed == (abs(c.measured - c.expected) <= c.tol), c
            n += 1
    return n


TOLS = st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1.0])
PARAM = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=150, deadline=None)
@given(
    theta=PARAM,
    eta=PARAM,
    family_branch=st.sampled_from(
        [("branch", "minus"), ("branch", "plus"), ("epsilon_general", "minus"),
         ("epsilon_general", "plus"), ("simple", None)]
    ),
    expect_theta=st.none() | st.floats(-3.0, 3.0),
    tol=TOLS,
)
def test_pass_rule_verify(theta, eta, family_branch, expect_theta, tol):
    try:
        rep = build_representation(NCParams(theta, eta), *family_branch)
    except NCPhaseError:
        return
    assert assert_pass_rule(verify_nc_algebra(rep, expect_theta=expect_theta, tol=tol)) == 6


@settings(max_examples=60, deadline=None)
@given(
    masses=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
    conditioned=st.booleans(),
    data=st.data(),
    tol=TOLS,
)
def test_pass_rule_com(masses, conditioned, data, tol):
    if conditioned:
        c = MassConditions(gamma=data.draw(st.floats(-1.0, 1.0)), alpha=data.draw(st.floats(-0.9, 0.9)))
        system = CompositeSystem.from_conditions(c, masses)
    else:
        draw = st.lists(st.floats(-1.0, 1.0), min_size=len(masses), max_size=len(masses))
        system = CompositeSystem.from_params(masses, data.draw(draw), data.draw(draw))
    reports = [compare_com_simple(system, tol)]
    for branch in ("minus", "plus"):
        try:
            reports.append(compare_com_reps(system, branch, tol))
        except NCPhaseError:
            pass
    for report in reports:
        assert assert_pass_rule(report) == 16  # 4 route distances, 2 six-entry tables


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(1e-3, 1.0),
    eta=st.floats(1e-3, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
    tols=st.lists(TOLS, min_size=4, max_size=4),
)
def test_pass_rule_limit(theta, eta, sign, tols):
    report = check_commutative_limit([1.0, 1e-2, 1e-4, 0.0], NCParams(sign * theta, sign * eta), tols)
    assert assert_pass_rule(report) == 7  # the plus branch fails to build at scale 0


@pytest.mark.parametrize("tol", ["1e-12", "0", "1e-3"])
def test_pass_rule_cli_verify(capsys, monkeypatch, tol):
    monkeypatch.setenv("NCPS_SEED", "7")
    main(["verify", "--theta", "0.5", "--eta", "0.5", "--random", "20", "--tol", tol,
          "--limit-scales", "1e-2,1e-4,0", "--limit-tols", "1e-1,1e-3,1e-6"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    # six table entries, the duality residual, two random batches, five built limit scales
    assert assert_pass_rule(checks) == 14


#: Each report builder, called with every number it takes passed through ``x``.
BUILDERS = {
    "verify_nc_algebra": lambda x: verify_nc_algebra(
        build_representation(NCParams(0.5, 0.3), "branch"), x(0.2), x(0.3), x(1.0), tol=x(1e-12)
    ),
    "check_commutative_limit": lambda x: check_commutative_limit(
        [x(1e-1), x(1e-3), x(0.0)], NCParams(0.5, 0.3), [x(1e-1), x(1e-3), x(1e-6)]
    ),
    "mass_invariance_report": lambda x: mass_invariance_report(
        MassConditions(x(0.3), x(0.2)), [x(1.0), x(2.7)], tol=x(1e-12)
    ),
    "compare_com_reps": lambda x: compare_com_reps(
        CompositeSystem.from_conditions(MassConditions(x(0.3), x(0.2)), [x(1.0), x(2.7)]), "minus", x(1e-12)
    ),
    "compare_com_simple": lambda x: compare_com_simple(
        CompositeSystem.from_params([x(1.0), x(2.7)], [x(0.3), x(0.1)], [x(0.2), x(0.5)]), x(1e-12)
    ),
}


@pytest.mark.parametrize("scalar", [np.float64, np.float32])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_numpy_inputs_give_the_report_of_their_floats(build, scalar):
    # A numpy tolerance made each pass flag a numpy.bool, which json cannot write,
    # and a float32 input was stored as it came.
    report = build(scalar).to_dict()
    assert json.dumps(report) == json.dumps(build(lambda v: float(scalar(v))).to_dict())
    assert all(type(c["pass"]) is bool for c in report["checks"])
    assert type(check_branch_transform(NCParams(0.5, 0.3), scalar(1e-12))) is bool


def test_record_looks_a_check_up_by_name():
    report = verify_nc_algebra(build_representation(NCParams(0.5, 0.5), "branch"))
    assert report.record("[X1,P1]").name == "[X1,P1]"
    with pytest.raises(KeyError, match="nope"):
        report.record("nope")
