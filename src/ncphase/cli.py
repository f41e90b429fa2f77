"""Command line front end.

Subcommands:

    verify    build a representation and check its commutator table (plus
              branch duality and, on request, the commutative limit and
              seeded random closure batches)
    repr      print a representation's coefficient table
    com       centre-of-mass construction and route comparison
    simulate  trajectories of quadratic Hamiltonians and the
              weak-equivalence (free-fall spread) check

Exit codes: 0 all checks passed, 1 ran-and-failed (or a singular
observable map), 2 invalid input or configuration.  Reports are JSON on
stdout unless --output is given; simulate writes CSV trajectories.  A JSON
--config file may hold any long-option value under its option name;
explicit flags win.  The NCPS_SEED environment variable seeds the random
batches.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Any, NoReturn, Sequence

from . import __version__
from .errors import ConfigError, DegenerateError, DomainError, NCPhaseError, SingularMapError
from .reports import CheckRecord, CheckReport
from .representation import (
    BRANCHES,
    DEFAULT_TOL,
    MassConditions,
    NCParams,
    Representation,
    branch_transform_residual,
    build_representation,
    check_commutative_limit,
    effective_planck,
    params_from_conditions,
    random_param_batch,
    read_branch,
    verify_nc_algebra,
    _swap_scale,
)

TOOL = "ncphase"
DEFAULT_SEED = 20260814
TRAJECTORY_COLUMNS = ("t", "x1", "x2", "p1", "p2", "X1", "X2", "P1", "P2")
#: Largest `verify --random` batch: at 31–41 µs a draw (in process, 2-vCPU Xeon VM), 3.1–4.1 s.
MAX_RANDOM = 10**5
#: Options that only one ``simulate`` mode reads: a single trajectory, or ``--wep``.
_TRAJECTORY_ONLY = ("mass", "kind", "omega", "x1", "x2", "p1", "p2", "format")
_WEP_ONLY = ("masses", "nc_x1", "nc_x2", "nc_v1", "nc_v2")
#: Options that a single trajectory reads only for these kinds.
_KIND_ONLY = {"g": ("gravity", "uniform_gravity"), "omega": ("harmonic",)}
#: Options holding a comma list, which a config file may give as a JSON array.
_LIST_OPTIONS = ("masses", "thetas", "etas", "limit_scales", "limit_tols")
#: A command's output, its CSV text or the JSON body that ``main`` wraps, and its exit code.
_Output = tuple[str | dict[str, Any], int]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: a JSON error and exit 2.

    The usage text and the error line go to stderr as argparse writes them,
    skipped if stderr is closed or fails; subcommand parsers inherit the class.
    """

    def error(self, message: str) -> NoReturn:
        self._print_message(f"{self.format_usage()}{self.prog}: error: {message}\n", sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")

    def _print_message(self, message: str, file=None) -> None:
        """As argparse's, but a failed write to stdout (--help, --version) reaches main, which exits 2."""
        if file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, tol: bool = True) -> None:
        p.add_argument("--config", type=str, help="JSON file with option values; flags override")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="check tolerance (default %(default)s)")
        p.add_argument("--output", type=str, help="write the report/trajectory to this path")
        p.add_argument("--format", choices=("json", "csv"), help="output format")

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--theta", type=float, help="coordinate noncommutativity")
        p.add_argument("--eta", type=float, help="momentum noncommutativity")
        p.add_argument("--gamma", type=float, help="mass condition: theta = gamma/m")
        p.add_argument("--alpha", type=float, help="mass condition: eta = alpha*m")
        p.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        p.add_argument("--family", choices=("branch", "simple", "epsilon_general"), default="branch")
        p.add_argument("--branch", choices=BRANCHES, default="minus")

    pv = sub.add_parser("verify", help="check a representation's commutator table")
    add_common(pv)
    add_params(pv)
    pv.add_argument("--expect-theta", type=float, dest="expect_theta")
    pv.add_argument("--expect-eta", type=float, dest="expect_eta")
    pv.add_argument("--expect-diag", type=float, dest="expect_diag")
    pv.add_argument("--limit-scales", type=str, dest="limit_scales",
                    help="comma list of scales for the commutative-limit check")
    pv.add_argument("--limit-tols", type=str, dest="limit_tols",
                    help="per-scale tolerances (defaults to the scales themselves)")
    pv.add_argument("--random", type=int, help="run a seeded random closure batch of this size")

    pr = sub.add_parser("repr", help="print a representation's coefficient table")
    add_common(pr)
    add_params(pr)

    pc = sub.add_parser("com", help="centre-of-mass construction and route comparison")
    add_common(pc)
    pc.add_argument("--masses", type=str, help="comma list of particle masses")
    pc.add_argument("--gamma", type=float, help="shared mass condition gamma")
    pc.add_argument("--alpha", type=float, help="shared mass condition alpha")
    pc.add_argument("--thetas", type=str, help="comma list of per-particle theta values")
    pc.add_argument("--etas", type=str, help="comma list of per-particle eta values")
    pc.add_argument("--family", choices=("branch", "simple"), default="branch")
    pc.add_argument("--branch", choices=BRANCHES, default="minus")

    ps = sub.add_parser("simulate", help="integrate a quadratic Hamiltonian")
    add_common(ps, tol=False)  # a simulate run checks nothing against a tolerance
    add_params(ps)
    ps.add_argument("--kind", choices=("free", "uniform_gravity", "gravity", "harmonic"), default="free")
    ps.add_argument("--g", type=float, default=1.0, help="gravitational acceleration")
    ps.add_argument("--omega", type=float, default=1.0, help="oscillator frequency")
    ps.add_argument("--x1", type=float, default=0.0, help="initial canonical x1")
    ps.add_argument("--x2", type=float, default=0.0, help="initial canonical x2")
    ps.add_argument("--p1", type=float, default=0.0, help="initial canonical p1")
    ps.add_argument("--p2", type=float, default=0.0, help="initial canonical p2")
    ps.add_argument("--t-end", type=float, dest="t_end", default=10.0)
    ps.add_argument("--dt", type=float, default=0.01)
    ps.add_argument("--wep", action="store_true",
                    help="compare free fall across masses instead of one trajectory")
    ps.add_argument("--masses", type=str, help="comma list of masses for --wep")
    ps.add_argument("--nc-x1", type=float, dest="nc_x1", default=0.0, help="initial X1 for --wep")
    ps.add_argument("--nc-x2", type=float, dest="nc_x2", default=0.0, help="initial X2 for --wep")
    ps.add_argument("--nc-v1", type=float, dest="nc_v1", default=1.0, help="initial dX1/dt for --wep")
    ps.add_argument("--nc-v2", type=float, dest="nc_v2", default=0.0, help="initial dX2/dt for --wep")
    return parser


def _check_config_value(action: argparse.Action, key: str, value: Any) -> Any:
    # A config value must be one the option's own flag would accept, and it
    # is returned as the flag would give it.  null stands for "not given",
    # which only an option without a default allows.
    if value is None:
        if action.default is not None:
            raise ConfigError(f"config key {key!r} needs a value, got null")
        return None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} needs true or false, got {value!r}")
        return value
    if action.type is str:
        # A comma list may also be given as a JSON array.
        if not isinstance(value, (list, str) if action.dest in _LIST_OPTIONS else str):
            raise ConfigError(f"config key {key!r} needs a string, got {value!r}")
        return value
    if action.type not in (int, float):
        return value
    try:
        if isinstance(value, bool):
            raise TypeError("a JSON boolean is not a number")
        converted = action.type(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} needs a {action.type.__name__}, got {value!r}") from exc
    if action.type is int and converted != float(value):
        raise ConfigError(f"config key {key!r} needs an integer, got {value!r}")
    return converted


def _resolve_config(
    parser: argparse.ArgumentParser, command: str, argv: list[str]
) -> tuple[dict[str, Any], set[str]]:
    """defaults <- config file <- explicit flags, and the options a flag or config key gave.

    The options, their defaults and their types are those of the command's
    subparser.  Parsing the command's arguments again into a namespace
    pre-filled with a marker leaves the marker on every option the command
    line did not give, which tells explicit flags from defaults.
    """
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command_parser = commands.choices[command]
    actions = {a.dest: a for a in command_parser._actions if a.dest != "help"}
    resolved = {dest: a.default for dest, a in actions.items()}
    unset = object()
    flags = command_parser.parse_args(
        argv[argv.index(command) + 1:], argparse.Namespace(**dict.fromkeys(actions, unset))
    )
    explicit = {dest: value for dest, value in vars(flags).items() if value is not unset}
    given = {}
    path = explicit.get("config")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        # ValueError: bad JSON or UTF-8, a NUL in the path; RecursionError: JSON nested too deep.
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in file_cfg.items():
            norm = key.replace("-", "_")
            if norm not in actions:
                raise ConfigError(f"config key {key!r} is not an option of `{command}`")
            given[norm] = _check_config_value(actions[norm], key, value)
    given.update(explicit)
    resolved.update(given)
    return resolved, {dest for dest, value in given.items() if value is not None}


def _float_list(value: Any, what: str) -> list[float]:
    if value is None:
        raise ConfigError(f"missing {what}")
    # A flag gives a comma list; a config file a string or a JSON array.
    items = [s for s in value.split(",") if s.strip() != ""] if isinstance(value, str) else value
    try:
        if any(isinstance(s, bool) for s in items):
            raise TypeError("a JSON boolean is not a number")
        return [float(s) for s in items]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} contains a non-numeric entry: {value!r}") from exc


def _param_source(cfg: dict[str, Any], fixed: tuple[str, str] = ("theta", "eta")) -> MassConditions | None:
    """The run's one parameter source: shared mass conditions, or None for the ``fixed`` pair.

    Exactly one complete pair may be given.  A second source, even half a pair
    beside a full one, is refused: ranking the two would drop one silently.
    """
    either = "--{}/--{} or --gamma/--alpha".format(*fixed)
    given = [pair for pair in (fixed, ("gamma", "alpha")) if any(cfg.get(k) is not None for k in pair)]
    if not given:
        raise ConfigError(f"need either {either}")
    if len(given) > 1:
        raise ConfigError(f"give either {either}, not both")
    ((a, b),) = given
    if cfg.get(a) is None or cfg.get(b) is None:
        raise ConfigError(f"--{a} and --{b} must be given together")
    return MassConditions(gamma=cfg["gamma"], alpha=cfg["alpha"]) if a == "gamma" else None


def _refuse_unread(command: str, cfg: dict[str, Any], given: set[str]) -> None:
    """Refuse a given option that the run does not read, whether a flag or a config key gave it.

    ``verify`` reads --limit-tols only beside --limit-scales, and only the
    branch and epsilon_general families read --branch.  ``simulate --wep``
    reads none of the single-trajectory options, --format among them (its
    summary is always JSON), plain ``simulate`` none of the free-fall ones,
    and --g or --omega only for a kind whose potential holds it.  Running on
    would drop the option silently.
    """
    if command == "verify" and "limit_tols" in given and "limit_scales" not in given:
        raise ConfigError("`verify` does not read --limit-tols without --limit-scales")
    if read_branch(cfg["family"], cfg["branch"]) is None and "branch" in given:
        raise ConfigError(f"`{command} --family simple` does not read --branch")
    if command != "simulate":
        return
    mode, unread = ("simulate --wep", _TRAJECTORY_ONLY) if cfg["wep"] else ("simulate", _WEP_ONLY)
    for dest in unread:
        if dest in given:
            raise ConfigError(f"`{mode}` does not read --{dest.replace('_', '-')}")
    for dest, kinds in _KIND_ONLY.items():
        if dest in given and not cfg["wep"] and cfg["kind"] not in kinds:
            raise ConfigError(f"`simulate --kind {cfg['kind']}` does not read --{dest}")


def _reps(cfg: dict[str, Any], masses: Sequence[float]) -> list[Representation]:
    """One representation per mass, of the run's family and branch, from its one parameter source.

    Every mass's parameters are checked before any representation is built,
    so a bad mass is named before another mass's build refusal.
    """
    conditions = _param_source(cfg)
    if conditions is None:
        params = [NCParams(theta=cfg["theta"], eta=cfg["eta"], mass=m) for m in masses]
    else:
        params = [params_from_conditions(conditions, m) for m in masses]
    return [build_representation(p, cfg["family"], cfg["branch"]) for p in params]


def _emit(text: str, cfg: dict[str, Any]) -> None:
    output = cfg.get("output")
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in a config-file path
            raise ConfigError(f"cannot write output file {output}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv_table(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_body(cfg: dict[str, Any], report: CheckReport) -> _Output:
    """A check report's output, its CSV text or its JSON body, and the run's exit code."""
    code = 0 if report.overall else 1
    if cfg.get("format") != "csv":
        return report.to_dict(), code
    rows = (
        (c.name, "" if c.expected is None else repr(c.expected), "" if c.measured is None else repr(c.measured),
         repr(c.tol), str(c.passed).lower(), c.detail)
        for c in sorted(report.checks, key=lambda c: c.name)
    )
    return _csv_table(("name", "expected", "measured", "tol", "pass", "detail"), rows), code


def _envelope(command: str | None, cfg: dict[str, Any] | None, **body: Any) -> str:
    """JSON text of a report: tool, version, command, resolved config and the command's keys.

    An error report passes no ``cfg`` and carries no config.
    """
    payload = {"tool": TOOL, "version": __version__, "command": command, **body}
    if cfg is not None:
        payload["config"] = {k: v for k, v in cfg.items() if k != "config" or v is not None}
    return json.dumps(payload, indent=2, sort_keys=True)


def _seed() -> int:
    raw = os.environ.get("NCPS_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = int(raw)
        if seed < 0:
            raise ValueError("a seed is non-negative")
    except ValueError as exc:
        raise ConfigError(f"NCPS_SEED must be a non-negative integer, got {raw!r}") from exc
    return seed


def _table_error(rep) -> float:
    report = verify_nc_algebra(rep)
    return max(abs(c.measured - c.expected) for c in report.checks)


def _cmd_verify(cfg: dict[str, Any]) -> _Output:
    tol = cfg["tol"]
    (rep,) = _reps(cfg, [cfg["mass"]])
    p = rep.params
    family = cfg["family"]
    expect = {key: cfg[key] for key in ("expect_theta", "expect_eta", "expect_diag")}
    for key, value in expect.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{key.replace('_', '-')} must be finite, got {value}")
    report = verify_nc_algebra(rep, **expect, tol=tol)
    checks = list(report.checks)
    meta = dict(report.meta)

    if family == "simple":
        measured = report.record("[X1,P1]").measured
        detail = "diagonal commutator against hbar_eff/hbar"
        checks.append(CheckRecord.within("planck.diag", effective_planck(p), measured, tol, detail))
    if family == "branch" and _swap_scale(p, required=False) is not None:
        try:
            record = CheckRecord.within(
                "transform.residual", 0.0, branch_transform_residual(p), tol,
                "plus branch mapped onto minus branch",
            )
        except (DomainError, DegenerateError) as exc:
            # The swap map exists but the plus branch does not build.
            record = CheckRecord(
                "transform.residual", None, None, tol, True, f"skipped: {type(exc).__name__}: {exc}"
            )
        checks.append(record)
    if cfg.get("limit_scales") is not None:
        scales = _float_list(cfg["limit_scales"], "--limit-scales")
        tols = (
            _float_list(cfg["limit_tols"], "--limit-tols")
            if cfg.get("limit_tols") is not None
            else list(scales)
        )
        limit = check_commutative_limit(scales, p, tols)
        checks.extend(limit.checks)
        meta["limit"] = {k: v for k, v in limit.meta.items() if k != "scales"}
    if cfg.get("random") is not None:
        n = cfg["random"]
        if n <= 0:
            raise ConfigError(f"--random must be a positive batch size, got {n}")
        if n > MAX_RANDOM:
            raise ConfigError(f"--random asks for {n} draws, more than the cap of {MAX_RANDOM}")
        seed = _seed()
        meta["seed"] = seed
        batch = random_param_batch(n, seed)
        positive = [q for q in batch if q.product > 0]  # the plus branch exists only there
        for branch, draws, over in (("minus", batch, str(n)),
                                    ("plus", positive, f"the {len(positive)} positive-product")):
            worst = max([0.0, *(_table_error(build_representation(q, "branch", branch)) for q in draws)])
            checks.append(
                CheckRecord.within(f"random.closure.{branch}", 0.0, worst, tol, f"worst table error over {over} draws")
            )
    return _report_body(cfg, CheckReport(kind=report.kind, checks=tuple(checks), meta=meta))


def _cmd_repr(cfg: dict[str, Any]) -> _Output:
    (rep,) = _reps(cfg, [cfg["mass"]])
    report = verify_nc_algebra(rep, tol=cfg["tol"])
    forms = {
        name: {str(var): coeff for var, coeff in form.terms.items()}
        for name, form in zip(rep.form_names(), rep.forms())
    }
    if cfg.get("format") == "csv":
        rows = []
        for name in rep.form_names():
            rows += [(name, term, repr(coeff)) for term, coeff in sorted(forms[name].items())]
        return _csv_table(("form", "term", "coefficient"), rows), 0
    # Forms are linear, so every constant of the report schema reads 0.0.
    constants = dict.fromkeys(rep.form_names(), 0.0)
    table = {c.name: c.measured for c in report.checks}
    return {"forms": forms, "constants": constants, "table": table, "overall": report.overall}, 0


def _cmd_com(cfg: dict[str, Any]) -> _Output:
    from .composite import CompositeSystem, compare_com_reps, compare_com_simple

    tol = cfg["tol"]
    masses = _float_list(cfg.get("masses"), "--masses")
    conditions = _param_source(cfg, ("thetas", "etas"))
    if conditions is not None:
        system = CompositeSystem.from_conditions(conditions, masses)
    else:
        thetas = _float_list(cfg["thetas"], "--thetas")
        system = CompositeSystem.from_params(masses, thetas, _float_list(cfg["etas"], "--etas"))
    if cfg["family"] == "simple":
        report = compare_com_simple(system, tol)
    else:
        report = compare_com_reps(system, cfg["branch"], tol)
    checks = report.checks
    if conditions is None:
        # Without shared conditions there is no claim that the two routes
        # agree; their distances are data, not a failure.
        checks = tuple(
            CheckRecord(c.name, None, c.measured, c.tol, True, "informational: no shared mass conditions")
            if c.name.startswith("routes.")
            else c
            for c in checks
        )
    # The comparison's meta already holds theta_eff and eta_eff.
    meta = {**report.meta, "conditions_used": conditions is not None, "masses": masses}
    return _report_body(cfg, CheckReport(kind=report.kind, checks=checks, meta=meta))


def _cmd_simulate(cfg: dict[str, Any]) -> _Output:
    if cfg.get("wep"):
        return _cmd_simulate_wep(cfg)
    import numpy as np

    from .dynamics import build_hamiltonian, energy_drift, evolve

    (rep,) = _reps(cfg, [cfg["mass"]])
    kind = {"gravity": "uniform_gravity"}.get(cfg["kind"], cfg["kind"])
    h = build_hamiltonian(kind, rep, g=cfg["g"], omega=cfg["omega"])
    initial = tuple(cfg[key] for key in ("x1", "x2", "p1", "p2"))
    traj = evolve(h, initial, cfg["t_end"], cfg["dt"])
    # Read in either format, so that an energy the float range cannot hold
    # is refused whether or not the report prints it.
    drift = energy_drift(h, traj)
    table = np.column_stack((traj.times, traj.canonical_states, traj.nc_observables))
    if cfg.get("format") == "json":
        return {"columns": list(TRAJECTORY_COLUMNS), "rows": table.tolist(), "energy_drift": drift}, 0
    # One row at a time: float reprs never need CSV quoting, and a list of
    # the whole table would cost more memory than the text it becomes.
    # Not through _csv_table: on a 10^4-row table csv.writer wrote the same
    # bytes 1.2-1.7x slower than this loop (2-vCPU Xeon VM).
    buf = io.StringIO()
    buf.write(",".join(TRAJECTORY_COLUMNS) + "\n")
    for row in table:
        buf.write(",".join(map(repr, row.tolist())) + "\n")
    return buf.getvalue(), 0


def _cmd_simulate_wep(cfg: dict[str, Any]) -> _Output:
    from .dynamics import coordinate_spread, energy_drift, wep_trajectories

    masses = _float_list(cfg.get("masses"), "--masses")
    reps = _reps(cfg, masses)
    nc_data = tuple(cfg[key] for key in ("nc_x1", "nc_x2", "nc_v1", "nc_v2"))
    runs = wep_trajectories(reps, nc_data, cfg["g"], cfg["t_end"], cfg["dt"])
    summary = {
        "deviation_max": coordinate_spread(runs),
        # _reps has refused a run with both sources or with half of one.
        "conditions_used": cfg["gamma"] is not None,
        "masses": masses,
        "family": cfg["family"],
        "branch": read_branch(cfg["family"], cfg["branch"]),
        "energy_drift_max": max(energy_drift(h, traj) for h, traj in runs),
    }
    return {"summary": summary}, 0


_COMMANDS = {
    "verify": _cmd_verify,
    "repr": _cmd_repr,
    "com": _cmd_com,
    "simulate": _cmd_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = None  # stays None in the report of a usage error
    try:
        try:
            command = parser.parse_args(argv).command
            cfg, given = _resolve_config(parser, command, argv)
            _refuse_unread(command, cfg, given)
            body, code = _COMMANDS[command](cfg)
            # The one write of a run's output; a refusal's report is written below.
            _emit(body if isinstance(body, str) else _envelope(command, cfg, **body), cfg)
            return code
        except NCPhaseError as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            sys.stdout.write(_envelope(command, None, error=error) + "\n")
            return 1 if isinstance(exc, SingularMapError) else 2
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout and the report is lost: exit 2, as for an
        # unwritable --output.  With the descriptor on devnull, the
        # interpreter's own flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
