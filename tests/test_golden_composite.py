"""Bit-exact centre-of-mass forms, reports and builder outputs, against ``golden_composite.json``.

Each entry is the sha256 of one (system, function) output: the key order and
the ``float.hex`` of every coefficient and constant of each form, the
``to_dict()`` of a comparison report with every float as ``float.hex``, or
the ``(type, message)`` of a refusal.  The systems are seeded: N in
{1, 2, 3, 10, 57}, under shared mass conditions and with fixed per-particle
parameters, with signed theta and eta.  Extreme systems add masses from
1e-300 to 1e300 and one of 5e-324, theta and eta from +-1e-300 to +-1e300,
a -0.0 parameter, and one N = 300 system; many of them hit a refusal, whose
order is pinned too.  The builder entries cover all five
family/branch cases over seeded parameters and particle ids, plus the
refusals of out-of-domain parameters and unknown names.  A change that
alters one of these outputs on purpose regenerates the fixture with
``PYTHONPATH=src python tests/test_golden_composite.py`` and says so.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from ncphase import (
    CompositeSystem,
    MassConditions,
    NCParams,
    NCPhaseError,
    build_representation,
    com_canonical,
    compare_com_reps,
    compare_com_simple,
    effective_params,
)
from ncphase.composite import com_rep_algebraic, com_rep_direct, com_simple_algebraic, com_simple_direct
from ncphase.representation import build_branch_rep

FIXTURE = Path(__file__).with_name("golden_composite.json")

SIZES = (1, 2, 3, 10, 57)
EXTREME_SIZES = (1, 2, 3, 10, 300)
CASES = (
    ("branch", "minus"), ("branch", "plus"), ("simple", None), ("epsilon_general", "minus"), ("epsilon_general", "plus")
)


def _canon(value):
    """A JSON-ready copy with every float as ``float.hex`` and every dict as its item list."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[key, _canon(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _forms(forms) -> list:
    return [[[str(var), coeff.hex()] for var, coeff in form.terms.items()] + [(0.0).hex()] for form in forms]


def _rep(rep) -> list:
    return [rep.family, rep.branch, rep.particle_id, list(rep.form_names()), _forms(rep.forms())]


def _report(report) -> list:
    return _canon(report.to_dict())


def _digest(fn, encode) -> str:
    try:
        payload = encode(fn())
    except NCPhaseError as exc:
        payload = [type(exc).__name__, str(exc)]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _systems():
    """(label, system) pairs: per size, two conditioned and two fixed-parameter systems."""
    rng = random.Random(20171)
    for n in SIZES:
        masses = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(n)]
        for sign in (1.0, -1.0):
            gamma = rng.uniform(0.05, 0.9)
            alpha = sign * rng.uniform(0.05, 0.9)
            yield f"N={n} conditioned gamma*alpha{'>' if sign > 0 else '<'}0", CompositeSystem.from_conditions(
                MassConditions(gamma=gamma, alpha=alpha), masses
            )
        same = [rng.choice((1.0, -1.0)) for _ in range(n)]
        yield f"N={n} fixed same-sign", CompositeSystem.from_params(
            masses,
            [s * rng.uniform(0.01, 0.9) for s in same],
            [s * rng.uniform(0.01, 0.9) for s in same],
        )
        yield f"N={n} fixed mixed-sign", CompositeSystem.from_params(
            masses,
            [rng.uniform(-0.9, 0.9) for _ in range(n)],
            [rng.uniform(-0.9, 0.9) for _ in range(n)],
        )


def _log_uniform(rng, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _extreme_systems():
    """(label, system) pairs at the edges of the float range; the N = 300 size has only the conditioned pair."""
    rng = random.Random(20173)
    for n in EXTREME_SIZES:
        masses = [_log_uniform(rng, -300.0, 300.0) for _ in range(n)]
        for sign in (1.0, -1.0):
            conditions = MassConditions(gamma=rng.uniform(0.05, 0.9), alpha=sign * rng.uniform(0.05, 0.9))
            yield f"N={n} extreme conditioned gamma*alpha{'>' if sign > 0 else '<'}0", (
                CompositeSystem.from_conditions(conditions, masses)
            )
        if n == 300:
            continue
        yield f"N={n} extreme fixed", CompositeSystem.from_params(
            masses,
            [rng.choice((1.0, -1.0)) * _log_uniform(rng, -300.0, 300.0) for _ in range(n)],
            [rng.choice((1.0, -1.0)) * _log_uniform(rng, -300.0, 300.0) for _ in range(n)],
        )
        # theta_a*eta_a stays in (-1, 1): every per-particle branch exists
        scales = [_log_uniform(rng, -300.0, 300.0) for _ in range(n)]
        same = [rng.choice((1.0, -1.0)) for _ in range(n)]
        yield f"N={n} extreme small-product same-sign", CompositeSystem.from_params(
            masses,
            [s * scale * rng.uniform(0.01, 0.9) for s, scale in zip(same, scales)],
            [s / scale * rng.uniform(0.01, 0.9) for s, scale in zip(same, scales)],
        )
        yield f"N={n} extreme small-product mixed-sign", CompositeSystem.from_params(
            masses,
            [scale * rng.uniform(-0.9, 0.9) for scale in scales],
            [rng.uniform(-0.9, 0.9) / scale for scale in scales],
        )
    masses = [5e-324, 1.0, 1e300, 1e-300]
    yield "N=4 subnormal mass", CompositeSystem.from_params(masses, [0.4, -0.3, 1e-300, 1e300], [0.2, 0.5, 1e300, -1e-300])
    yield "N=4 subnormal mass, one theta", CompositeSystem.from_params(masses, [0.3] * 4, [0.2] * 4)
    yield "N=3 negative zero", CompositeSystem.from_params([1.0, 2.0, 3.0], [-0.0, 0.3, 0.1], [0.2, -0.0, -0.0])
    yield "N=1 negative zero", CompositeSystem.from_params([1.0], [-0.0], [-0.0])
    yield "N=2 eta sum overflows", CompositeSystem.from_params([1.0, 2.0], [1e-300, 1e-300], [1.5e308, 1.5e308])
    # the eta sum is finite, but a partial sum of the direct [P1,P2] products can overflow
    yield "N=3 eta partial sums overflow", CompositeSystem.from_params([1.0] * 3, [1e-320] * 3, [1.5e308, 1.5e308, -1.5e308])
    etas = [7.02585033487277e307, -6.790944134483094e307, -8.537755114543653e307, -1.606404012435376e308, 1.671209083695957e308]
    yield "N=5 eta partial sums overflow", CompositeSystem.from_params([1.0, 0.6, 1.9, 0.7, 1.2], [1e-320] * 5, etas)


def _composite_items():
    for label, system in (*_systems(), *_extreme_systems()):
        yield f"{label}: effective_params", lambda s=system: effective_params(s), _canon
        yield f"{label}: com_canonical", lambda s=system: com_canonical(s), _forms
        for branch in ("minus", "plus"):
            yield f"{label}: com_rep_algebraic[{branch}]", lambda s=system, b=branch: com_rep_algebraic(s, b), _rep
            yield f"{label}: com_rep_direct[{branch}]", lambda s=system, b=branch: com_rep_direct(s, b), _forms
            yield f"{label}: compare_com_reps[{branch}]", lambda s=system, b=branch: compare_com_reps(s, b), _report
        yield f"{label}: com_simple_algebraic", lambda s=system: com_simple_algebraic(s), _rep
        yield f"{label}: com_simple_direct", lambda s=system: com_simple_direct(s), _forms
        yield f"{label}: compare_com_simple", lambda s=system: compare_com_simple(s), _report


def _builder_items():
    rng = random.Random(20172)
    params = [NCParams(theta=rng.uniform(-2.0, 2.0), eta=rng.uniform(-2.0, 2.0)) for _ in range(12)]
    params += [
        NCParams(0.0, 0.0),
        NCParams(0.5, 0.0),
        NCParams(-0.0, 0.3),
        NCParams(1.0, 1.0),
        NCParams(1e-310, 1e-310),
        NCParams(1e200, -1e200),
        NCParams(1e200, 1e200),
        NCParams(1e-200, 1e-200),
        NCParams(-0.7, -0.4, mass=3.0),
    ]
    for i, p in enumerate(params):
        pid = rng.randrange(0, 1000)
        for family, branch in CASES:
            yield (
                f"params[{i}] particle {pid}: {family}[{branch}]",
                lambda p=p, f=family, b=branch, pid=pid: build_representation(p, f, b, pid),
                _rep,
            )
    p = params[0]
    yield "refusal: branch None", lambda: build_branch_rep(p, None), _rep
    yield "refusal: unknown branch", lambda: build_representation(p, "branch", "sideways"), _rep
    yield "refusal: unknown epsilon branch", lambda: build_representation(p, "epsilon_general", "sideways"), _rep
    yield "refusal: unknown family", lambda: build_representation(p, "nope", "minus"), _rep


ITEMS = {key: (fn, encode) for key, fn, encode in (*_composite_items(), *_builder_items())}


def fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_exactly_the_items():
    assert list(fixture()) == list(ITEMS)


@pytest.mark.parametrize("key", list(ITEMS))
def test_output_matches_the_fixture(key):
    fn, encode = ITEMS[key]
    assert _digest(fn, encode) == fixture()[key]


if __name__ == "__main__":
    golden = {key: _digest(fn, encode) for key, (fn, encode) in ITEMS.items()}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
