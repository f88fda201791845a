"""The ahalg benchmark: seeded closed-loop workloads with checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload ore_arith --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

One client sends each operation only after the previous one returned, in
one process and one thread.  With ``--trace 0`` the run makes as many whole
rounds of the deck as fill ``--seconds`` at the workload's nominal round
time and reports the end-to-end metrics; with ``--trace 1`` it runs a fixed
number of rounds untraced and then traced, and reports the per-layer
metrics.
``--workload all`` runs every workload in its own fresh process, one after
the other.  The last line of standard output is one JSON object.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ore_arith", "weyl_convert", "structure", "cli")
MIN_ROUNDS = 3
# the CPUs this process may run on, read before any pinning narrows them
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SETUP_RUNS = 15
PIN_SPINS = 5


class Failure:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


def load_workload(name: str):
    sys.path.insert(0, str(HERE))
    return importlib.import_module(f"workloads.{name}")


def import_program():
    """Import ahalg from this checkout's src/, and nowhere else."""
    if not (SRC / "ahalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no ahalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ahalg

    if Path(ahalg.__file__).resolve().parent != SRC / "ahalg":
        raise SystemExit(f"error: imported ahalg from {ahalg.__file__}, not from {SRC}")
    return ahalg


def pin_to_quietest_cpu() -> dict:
    """Pin this process (and so its children) to the CPU that runs a short
    spin loop fastest right now.

    Only this process's own affinity is changed.
    """
    if len(CPUS) < 2:
        return {}
    spin_ms = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(PIN_SPINS):
            t0 = time.perf_counter()
            sum(i * i % 7 for i in range(50_000))
            times.append((time.perf_counter() - t0) * 1e3)
        spin_ms[cpu] = statistics.median(times)
    best = min(spin_ms, key=spin_ms.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "spin_ms": spin_ms}


def metadata(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ahalg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- running and checking -----------------------------------------------------------


def call(fn):
    try:
        return fn()
    except Exception as exc:  # an unexpected exception is a failed operation
        return Failure(exc)


def closed_loop(deck, rounds: int, between=None):
    """Run ``rounds`` whole rounds of the deck, one operation at a time.

    Before each round the process moves to the quietest CPU (on a shared
    host a neighbour can slow one core several-fold for tens of seconds)
    and calls ``between()`` if given.  Returns (per-round latency lists in
    ns, [(deck index, result)]).
    """
    clock = time.perf_counter_ns
    per_round, outcomes = [], []
    for _ in range(rounds):
        pin_to_quietest_cpu()
        if between is not None:
            between()
        latencies = []
        for idx, case in enumerate(deck):
            t0 = clock()
            out = call(case.run)
            latencies.append(clock() - t0)
            outcomes.append((idx, out))
        per_round.append(latencies)
    return per_round, outcomes


def count_failures(deck, outcomes) -> int:
    """Check every outcome, untimed; return how many are wrong or raised.

    Each deck entry is fully checked once; a repeat of it must equal the
    first, checked result.
    """
    first, verdict, failed = {}, {}, 0
    for idx, out in sorted(outcomes, key=lambda o: deck[o[0]].order):
        case = deck[idx]
        if isinstance(out, Failure):
            ok = False
        elif idx in verdict:
            ok = verdict[idx] and out == first[idx]
        else:
            try:
                ok = bool(case.check(out))
            except Exception as exc:  # a result the checker cannot read is wrong
                out = Failure(exc)
                ok = False
            first[idx], verdict[idx] = out, ok
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"FAILED {case.kind} (group {case.group}, p={case.p}): {out!r}"[:400], file=sys.stderr)
    return failed


# -- metrics ---------------------------------------------------------------------------


class SetupProbe:
    """Samples of the in-process set-up time, each from a fresh process.

    One warm-up process runs first (it compiles the bytecode); samples are
    then taken between rounds, so they spread over the run like the
    operations do.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.times: list[float] = []
        subprocess.run(self.cmd, capture_output=True, check=True)

    def sample(self, count: int) -> None:
        for _ in range(count):
            proc = subprocess.run(self.cmd, capture_output=True, text=True, check=True)
            self.times.append(float(proc.stdout.split()[-1]))


def p_exponent(deck, durations, kinds) -> float:
    """Least-squares slope of log(time of a context's autgroup questions) on log p.

    Contexts over GF(p) with p >= 11 only: below that fixed overheads hide
    the growth in p.
    """
    per_group: dict[int, list] = {}
    for case, ns in zip(deck, durations):
        if case.kind in kinds and case.p >= 11:
            per_group.setdefault(case.group, [case.p, 0])[1] += ns
    points = [(math.log(p), math.log(ns)) for p, ns in per_group.values()]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


class Result(NamedTuple):
    metrics: dict  # name -> (value, unit): what the JSON line carries
    report: dict  # the metrics plus any printed only, with the same shape
    attempted: int
    failed: int
    notes: dict  # name -> sample counts and how the value was taken


def best_times(per_round) -> list[int]:
    """Each operation's best time (ns) over the rounds."""
    return [min(times) for times in zip(*per_round)]


def rounds_for(module, seconds: float) -> int:
    """How many rounds fill ``seconds`` at the workload's nominal round time."""
    return max(MIN_ROUNDS, round(seconds / module.ROUND_SECONDS))


def end_to_end(workload, seed, deck, rounds: int) -> Result:
    """The untraced run.

    Each operation's time is its best over the rounds: the host is shared,
    and slower repeats are other processes' interference, not the program.
    Throughput and percentiles are taken over these per-operation times.
    """
    probe = SetupProbe(workload, seed)
    # SETUP_RUNS samples in all, spread as evenly as whole numbers allow over the rounds
    shares = iter([(r + 1) * SETUP_RUNS // rounds - r * SETUP_RUNS // rounds for r in range(rounds)])
    per_round, outcomes = closed_loop(deck, rounds, lambda: probe.sample(next(shares)))
    setup = statistics.median(probe.times)
    failed = count_failures(deck, outcomes)
    n, ops = len(deck), len(outcomes)
    best_ms = [ns / 1e6 for ns in best_times(per_round)]
    p90 = statistics.quantiles(best_ms, n=10)[8]
    metrics = {
        "throughput_ops_s": (n / (sum(best_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(best_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    best = f"{n} ops, each its best of {rounds} rounds"
    wall = sum(map(sum, per_round)) / 1e9
    notes = {
        "throughput_ops_s": f"{best}; {ops} ops run in {wall:.2f} s",
        "latency_p50_ms": best,
        "latency_p90_ms": f"{best}; {sum(v > p90 for v in best_ms)} beyond",
        "setup_s": f"median of {len(probe.times)} fresh processes, taken between rounds",
        "peak_rss_mb": "ru_maxrss of this process",
        "fail_ratio": f"{failed} of {ops}",
    }
    report = dict(metrics, fail_ratio=(failed / ops, "ratio"))
    return Result(metrics, report, ops, failed, notes)


def traced(workload, module, seed, deck, meta) -> Result:
    """The traced run: a fixed number of rounds, each untraced then traced.

    Times are best over the rounds, as in the untraced run.
    """
    from dataclasses import replace
    from functools import partial

    from spans import Tracer, layer_metrics

    rounds = module.TRACE_ROUNDS
    tracer = Tracer()
    spanned = [replace(c, run=partial(tracer.run_op, c.kind, c.run)) for c in deck]
    plain_rounds, plain, traced_rounds, outcomes = [], [], [], []
    for _ in range(rounds):  # alternate, so both see the same machine
        latencies, results = closed_loop(deck, 1)
        plain_rounds += latencies
        plain += results
        tracer.install()
        try:
            latencies, results = closed_loop(spanned, 1)
        finally:
            tracer.uninstall()
        traced_rounds += latencies
        outcomes += results
    failed = count_failures(deck, plain + outcomes)
    ops = len(outcomes)
    metrics = layer_metrics(tracer, ops)
    plain_best, traced_best = best_times(plain_rounds), best_times(traced_rounds)
    kinds = getattr(module, "AUTGROUP_KINDS", ())
    metrics["autgroup.p_exponent"] = (p_exponent(deck, plain_best, kinds), "log/log")
    metrics["trace.overhead_ratio"] = (sum(plain_best) / sum(traced_best), "ratio")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-{seed}.jsonl", meta)
    notes = {name: f"{ops} ops ({rounds} rounds of {len(deck)})" for name in metrics}
    return Result(metrics, metrics, 2 * ops, failed, notes)


# -- entry points ----------------------------------------------------------------------


def build_deck(module, seed: int) -> list:
    plan = module.plan(seed)
    return module.cases(plan, module.contexts(plan))


def emit(workload: str, result: Result) -> None:
    """Print every metric with its unit and sample notes, then the JSON line."""
    for name, (value, unit) in result.report.items():
        print(f"{workload:13} {name:30} {value:14.6g} {unit:9} {result.notes.get(name, '')}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
    }))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    module = load_workload(workload)
    import_program()
    meta = dict(metadata(workload, seed), pinned=pin_to_quietest_cpu())
    print("# meta " + json.dumps(meta))
    deck = build_deck(module, seed)
    if trace:
        result = traced(workload, module, seed, deck, meta)
    else:
        result = end_to_end(workload, seed, deck, rounds_for(module, seconds))
    emit(workload, result)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one at a time."""
    results, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    if code:
        return code
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
