"""ncphase benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload closure_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the end-to-end
numbers of the untraced phase next to those of the traced phase, and the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.  Metric names, units and directions come from
``BENCHMARK.json``.  Run metadata, the result and the spans of the traced
run are written under ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".perfbench_out")
CONFIG = ROOT / "BENCHMARK.json"

#: Set-ups per run for the in-process workloads (this process plus children).
SETUP_SAMPLES = 5
#: The cli_session set-up is a millisecond long, so it is repeated more.
CLI_SETUP_SAMPLES = 101
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170

#: Thread pools of the numeric libraries, pinned to one thread in this process
#: and every child, so an operation runs on one CPU and its CPU time is its cost.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: CPU seconds of one ``Reference`` call on an idle core of the machine the
#: benchmark was tuned on.  Normalised latencies are expressed in it.
REF_QUIET_S = 95e-6
#: One more reference run per this much of the operation's last CPU time.
REF_SPAN_S = 0.02
REF_RUNS_MAX = 8

MODULES = ("algebra", "representation", "composite", "dynamics", "reports", "errors", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Reference:
    """A fixed piece of work, timed just before and just after every in-process operation.

    It mixes small Python containers, the sum of two 300-term dicts (as
    ``LinearForm`` adds) and 4x4 numpy products, as the program does, so a
    busy hyperthread sibling slows it about as much as it slows an
    operation.  Each call runs the work once to warm the caches, so the
    figure does not depend on what ran before it, then times ``runs`` more
    runs and returns their mean.  One run costs about 95 us on an idle core.
    """

    def __init__(self) -> None:
        import numpy as np

        self.norm = np.linalg.norm
        self.m = np.arange(16.0).reshape(4, 4) / 10.0
        self.a = {("x", i): float(i) for i in range(300)}
        self.b = {("x", i + 150): float(i) for i in range(300)}

    def __call__(self, runs: int = 1) -> float:
        """Mean CPU seconds of ``runs`` timed runs."""
        self.work()
        t0 = time.process_time()
        for _ in range(runs):
            self.work()
        return (time.process_time() - t0) / runs

    def work(self) -> None:
        table = {}
        for i in range(60):
            table[i, i % 7] = {"a": float(i), "b": [i, i + 1]}
        total = sum(v["a"] * len(v["b"]) for v in table.values())
        merged = dict(self.a)
        for key, value in self.b.items():
            merged[key] = merged.get(key, 0.0) + value
        x = self.m
        for _ in range(8):
            x = (x @ self.m) / self.norm(x)
        self.sink = total + len(merged) + float(x[0, 0])


def require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "ncphase" / "__init__.py").is_file():
        raise BenchError(f"no ncphase sources under {src}")
    return src


def load_package() -> SimpleNamespace:
    """Import ``ncphase`` from this checkout's ``src/``."""
    src = require_sources()
    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"ncphase.{m}") for m in MODULES}
    if Path(modules["algebra"].__file__).resolve().parent != src / "ncphase":
        raise BenchError(f"ncphase was imported from {modules['algebra'].__file__}, not from {src}")
    return SimpleNamespace(**modules)


def make_workload(name: str, seed: int):
    import workloads

    classes = {
        "closure_sweep": workloads.ClosureSweep,
        "com_scaling": workloads.ComScaling,
        "wep_dynamics": workloads.WepDynamics,
    }
    if name == "cli_session":
        return workloads.CliSession(ROOT, seed)
    return classes[name]()


def children_cpu() -> float:
    """CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_inprocess(name: str, seed: int):
    """Import, round-0 inputs and warm-up; returns (normalised seconds, package, workload, round 0).

    The reference needs numpy, which the import brings in, so it is timed
    after the import and after the warm-up, outside the set-up's own time.
    """
    t0 = time.process_time()
    nc = load_package()
    elapsed = time.process_time() - t0
    reference = Reference()
    ref_mid = reference(REF_RUNS_MAX)
    t0 = time.process_time()
    workload = make_workload(name, seed)
    first = workload.make_round(seed, 0)
    workload.warmup(nc, seed)
    elapsed += time.process_time() - t0
    return 2.0 * elapsed * REF_QUIET_S / (ref_mid + reference(REF_RUNS_MAX)), nc, workload, first


def setup_cli(workload, seed: int, reference: Reference) -> tuple[float, list]:
    """Round-0 inputs and config files; returns (normalised seconds, round 0)."""
    ref_before = reference(REF_RUNS_MAX)
    t0 = time.process_time()
    first = workload.make_round(seed, 0)
    elapsed = time.process_time() - t0
    return 2.0 * elapsed * REF_QUIET_S / (ref_before + reference(REF_RUNS_MAX)), first


def setup_child(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unexplained: list[str] = []
        self.info: list[dict] = []

    def add(self, outcome) -> None:
        self.attempted += 1
        self.info.append(outcome.info)
        if outcome.misses:
            self.failed += 1
            self.known += outcome.known
            if not outcome.known and len(self.unexplained) < 10:
                self.unexplained.append("; ".join(outcome.misses))


def repeats(workload, seconds: float) -> int:
    """Repeats of the round for a run of ``seconds``.

    ``workload.repeats`` is the count for a 10-second run.  The count never
    depends on measured time, so every commit runs the same k.
    """
    return max(2, round(workload.repeats * seconds / 10.0))


def strides(workload, ops: list) -> list[int]:
    """Each slot's stride: it runs in every s-th repeat (1 unless the workload says otherwise)."""
    stride = getattr(workload, "stride", lambda op: 1)
    return [stride(op) for op in ops]


def measure(workload, runner, clock, seed: int, k: int, first: list, tally: Tally, setup, n_setup: int,
            reference: Reference) -> SimpleNamespace:
    """Run the round ``k`` times and time every operation.

    A slot with stride s (``strides``) runs only in every s-th repeat,
    so a slot that costs many times the others does not set the run's
    length, and each slot's executions are spread over the whole run.

    A latency is the CPU time ``clock`` counts over one operation, so time
    the host gives to other guests or processes is not part of it.  Only the
    operations are timed; input generation and the oracle are not.  Each
    slot's latency (``slots``) is the median over its runs of the
    operation's CPU time over the mean of the two ``reference`` timings
    around it, times ``REF_QUIET_S``.  An operation that took longer last time is bracketed by more
    reference runs (one per ``REF_SPAN_S`` of it, up to ``REF_RUNS_MAX``),
    so the reference covers more of the host's swings.  ``best``, ``every``,
    ``wall`` and ``refs`` keep the raw figures.  ``n_setup`` calls of
    ``setup`` are spread evenly between the operations, so the median
    set-up covers the host's speed over the whole run rather than over one
    burst.
    """
    every_s = strides(workload, first)
    best = [float("inf")] * len(first)
    last = [0.0] * len(first)
    ratios: list[list[float]] = [[] for _ in first]
    every, refs, setups, wall = [], [], [], 0.0
    n_ops = sum(len(range(0, k, s)) for s in every_s)
    for r in range(k):
        ops = first if r == 0 else workload.make_round(seed, r)
        for j, op in enumerate(ops):
            if r % every_s[j]:
                continue
            ref_runs = min(REF_RUNS_MAX, 1 + int(last[j] / REF_SPAN_S))
            ref_before = reference(ref_runs)
            w0, t0 = time.perf_counter(), clock()
            out = runner(op)
            dt = clock() - t0
            wall += time.perf_counter() - w0
            last[j] = dt
            refs += [ref_before, reference(ref_runs)]
            ratios[j].append(2.0 * dt / (refs[-2] + refs[-1]))
            every.append(dt)
            best[j] = min(best[j], dt)
            tally.add(workload.check(op, out))
            i = len(every) - 1
            setups += [setup() for _ in range((i + 1) * n_setup // n_ops - i * n_setup // n_ops)]
    slots = [statistics.median(v) * REF_QUIET_S for v in ratios]
    return SimpleNamespace(slots=slots, best=best, every=every, wall=wall, refs=refs, setups=setups)


def e2e_numbers(latencies: list[float], tail_p: float) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(latencies, 50.0) * 1e3,
        "op_tail_ms": percentile(latencies, tail_p) * 1e3,
    }


def import_times() -> tuple[float, float]:
    """(ncphase.cli, scipy) cumulative import seconds from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ncphase.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import of ncphase.cli failed: {proc.stderr.strip()[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative time of ``ncphase.cli`` and of every outermost scipy import.

    Children are printed before their parent, one indent level deeper, so
    the lines are walked bottom-up keeping the current ancestor per depth.
    """
    cli_us, scipy_us = 0, 0
    ancestors: list[str] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line.split(":", 1)[1].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        module = name.strip()
        del ancestors[depth:]
        if module == "ncphase.cli":
            cli_us = int(cumulative)
        if module.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_us += int(cumulative)
        ancestors.append(module)
    return cli_us * 1e-6, scipy_us * 1e-6


def layer_metrics(tracer, cli_outs: list, imports: tuple[float, float], overhead: float) -> dict:
    """Per-layer metrics from the spans; ``cli_outs`` are the (exit code, stdout) of CLI ops."""
    stats = tracer.layer_stats()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    m = {}
    for name in ("algebra.commutator", "algebra.form_add", "algebra.form_scale", "algebra.form_distance",
                 "representation.build", "representation.verify", "representation.duality",
                 "representation.limit", "composite.effective_params", "dynamics.expm", "reports.to_dict"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("algebra.commutator", "algebra.form_add"):
        m[f"{name}.terms_mean"] = counts[f"{name}.terms"] / max(1, calls(name))
    build = stats.get("representation.build", {"calls": 0, "rejected": 0})
    m["representation.build.rejected"] = build["rejected"]
    m["representation.build.accept_ratio"] = (build["calls"] - build["rejected"]) / max(1, build["calls"])
    for name in ("composite.com_canonical", "composite.route_algebraic", "composite.route_direct",
                 "composite.compare", "dynamics.build_hamiltonian", "dynamics.nc_initial_state",
                 "dynamics.evolve", "dynamics.energy_drift", "dynamics.coordinate_spread", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    m["composite.particles"] = counts["composite.particles"]
    m["dynamics.steps"] = counts["dynamics.steps"]
    m["reports.checks"] = counts["reports.checks"]
    m["cli.import_s"], m["cli.import_scipy_s"] = imports
    m["cli.output_bytes"] = sum(len(text.encode()) for _code, text in cli_outs)
    m["cli.rejected"] = sum(code == 2 for code, _text in cli_outs)
    m["trace.overhead_ratio"] = overhead
    m["trace.spans"] = len(tracer.spans)
    return m


def traced_phase(nc, workload, runner, ops: list, tally: Tally):
    """The workload's own ``ops`` under spans; returns the tracer and the outputs.

    A layer the workload does not call has no spans, so its counts and
    times read 0 on that workload.
    """
    from spans import Tracer

    tracer = Tracer()
    outs = []
    gc.collect()
    tracer.install()
    try:
        for j, op in enumerate(ops):
            outs.append(tracer.span("op", j, runner, nc, op))
            tally.add(workload.check(op, outs[-1]))
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload.name}.csv")
    return tracer, outs


def machine_meta() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_untraced(args) -> dict:
    """Set-up samples, then the round ``repeats`` times, normalised to the reference."""
    import workloads

    name, seed = args.workload, args.seed
    tally = Tally()
    if name == "cli_session":
        # One CPU for this process and every child, so the reference timed
        # here runs where the child ran.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        workload = make_workload(name, seed)
        reference = Reference()
        elapsed, first = setup_cli(workload, seed, reference)
        env = workload.env()
        k = repeats(workload, args.seconds)
        gc.collect()
        m = measure(workload, lambda op: workload.run(env, op), children_cpu, seed, k, first, tally,
                    lambda: setup_cli(workload, seed, reference)[0], CLI_SETUP_SAMPLES - 1, reference)
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        elapsed, nc, workload, first = setup_inprocess(name, seed)
        k = repeats(workload, args.seconds)
        # Objects left by the import and the set-up move to the permanent
        # generation, so a full collection during an operation scans only
        # what operations allocated.
        gc.collect()
        gc.freeze()
        m = measure(workload, lambda op: workload.run(nc, op), time.process_time, seed, k, first, tally,
                    lambda: setup_child(name, seed), SETUP_SAMPLES - 1, Reference())
        untimed_ms = []
        for op in workload.untimed_ops(seed) if hasattr(workload, "untimed_ops") else []:
            t0 = time.perf_counter()
            out = workload.run(nc, op)
            untimed_ms.append((time.perf_counter() - t0) * 1e3)
            tally.add(workload.check(op, out))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = [elapsed, *m.setups]
    tail_p = workloads.tail_percentile(workload.round_size)
    every_p = workloads.tail_percentile(len(m.every))
    e2e = {
        "setup_s": statistics.median(samples),
        **e2e_numbers(m.slots, tail_p),
        "pass_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    meta = {
        "repeats": k,
        "runs_per_slot": sorted({len(range(0, k, s)) for s in strides(workload, first)}),
        "timed_cpu_s": sum(m.every),
        "timed_wall_s": m.wall,
        "tail_percentile": tail_p,
        "samples_beyond_tail": sum(1 for v in m.slots if v * 1e3 > e2e["op_tail_ms"]),
        # Not gated: raw CPU-time figures, which follow the host's load.
        "best_cpu": e2e_numbers(m.best, tail_p),
        "every_op_tail_percentile": every_p,
        "every_op_tail_ms": percentile(m.every, every_p) * 1e3,
        "setup_samples_s": samples,
        "reference_ms": {"min": min(m.refs) * 1e3, "median": statistics.median(m.refs) * 1e3},
    }
    if name == "com_scaling":
        meta["untimed_large_n_ms"] = untimed_ms
    if name == "wep_dynamics":
        meta["long_run_drift_max"] = max(i["drift"] for i in tally.info if i.get("length") == "long")
    return {"meta": meta, "metrics": e2e, "tally": tally, "workload": workload}


def run_traced(args) -> dict:
    """Repeat 1 of the round under spans between two untraced repeats, then import times."""
    import workloads

    name, seed = args.workload, args.seed
    tally = Tally()
    if name == "cli_session":
        nc = load_package()
        workload = make_workload(name, seed)
        first = workload.make_round(seed, 0)
        workload.run_inprocess(nc, first[0])  # warm-up
        runner = workload.run_inprocess
    else:
        _elapsed, nc, workload, first = setup_inprocess(name, seed)
        runner = workload.run

    def untraced_round(ops):
        gc.collect()
        latencies = []
        for op in ops:
            t0 = time.perf_counter()
            out = runner(nc, op)
            latencies.append(time.perf_counter() - t0)
            tally.add(workload.check(op, out))
        return latencies

    # Untraced rounds before and after the traced one, so drift in host speed
    # cancels out of the overhead.
    before = untraced_round(first)
    tracer, outs = traced_phase(nc, workload, runner, workload.make_round(seed, 1), tally)
    after = untraced_round(workload.make_round(seed, 2))
    untraced = [(a + b) / 2 for a, b in zip(before, after)]
    traced = tracer.op_latencies("op")
    tail_p = workloads.tail_percentile(workload.round_size)
    meta = {
        "tail_percentile": tail_p,
        "untraced": e2e_numbers(untraced, tail_p),
        "traced": e2e_numbers(traced, tail_p),
    }
    overhead = sum(traced) / sum(untraced)
    metrics = layer_metrics(tracer, outs if name == "cli_session" else [], import_times(), overhead)
    return {"meta": meta, "metrics": metrics, "tally": tally, "workload": workload}


def report(args, declared: dict, result: dict) -> dict:
    tally, workload = result["tally"], result["workload"]
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(result["metrics"]):
        raise BenchError(f"metrics {sorted(set(result['metrics']) ^ set(names))} disagree with BENCHMARK.json")
    meta = {
        **machine_meta(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_size": workload.round_size,
        **result["meta"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "known_defect_misses": tally.known,
        "unexplained_misses": tally.unexplained,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta))
    if args.trace:
        for key in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            print(f"{key:<14} untraced {meta['untraced'][key]:>12.6g}  traced {meta['traced'][key]:>12.6g}")
        print(f"{'fail_ratio':<14} {meta['fail_ratio']:>14.6g} ratio")
        print(f"tracing overhead {result['metrics']['trace.overhead_ratio']:.4g}x on equivalent ops")
    else:
        notes = {
            "setup_s": f"median of {len(meta['setup_samples_s'])} set-ups",
            "op_tail_ms": f"p{meta['tail_percentile']:g} of {workload.round_size} slots"
                          f" ({'/'.join(map(str, meta['runs_per_slot']))} runs each), {meta['samples_beyond_tail']} beyond",
            "ops_per_s": "normalised to the reference",
            "pass_ratio": f"{tally.attempted - tally.failed} of {tally.attempted} pass",
            "fail_ratio": f"{tally.failed} of {tally.attempted}, {tally.known} known defect",
        }
        e2e = dict(result["metrics"], fail_ratio=meta["fail_ratio"])
        units = {m["name"]: m["unit"] for m in wanted}
        for key in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "fail_ratio", "pass_ratio", "peak_rss_mb"):
            print(f"{key:<14} {e2e[key]:>14.6g} {units.get(key, 'ratio'):<6} {notes.get(key, '')}")
    if args.trace:
        for m in wanted:
            print(f"{m['name']:<40} {result['metrics'][m['name']]:>16.8g} {m['unit']}")
    payload = {
        "correct": not tally.unexplained and tally.failed == tally.known,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, **payload}, indent=2) + "\n")
    return payload


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for m in json.loads(CONFIG.read_text())["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", m["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[m["name"]] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    declared = json.loads(CONFIG.read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(BENCH))
    try:
        require_sources()
        if args.setup_only:
            print(setup_inprocess(args.workload, args.seed)[0])
            return 0
        if args.workload == "all":
            return run_all(args)
        payload = report(args, declared, run_traced(args) if args.trace else run_untraced(args))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
