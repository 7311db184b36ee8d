"""Benchmark of the greechie command line, one workload per run.

Usage, from the root of a source checkout (stdlib only, no install):

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Every operation is one ``greechie`` command on one input, driven through
``greechie.cli.main(argv)`` in this process with stdin and stdout
redirected: the same code path as the installed command.  One client runs
the operations one after another (a closed loop, one worker, no threads).
A pass runs every operation of the workload once; passes repeat until
``--seconds`` have elapsed, so a run measures at least one whole pass.

Times are scaled to a nominal machine speed by ``probe.py``: the shared
host's speed drifts by more than the changes the benchmark must resolve.
The info line before the result keeps the probe's median and elapsed
wall time of the run.  ``wall_s`` is the summed latency of one pass,
``ops_per_s`` completed operations (on census, emitted classes) per
second of it, ``op_tail_ms`` the latency with ten samples above it (the
info line gives its percentile), ``setup_s`` the median of
``SETUP_REPEATS`` cold imports of the package plus building the inputs.

Every operation runs under a time budget enforced by SIGALRM.  The
exception derives from ``BaseException`` because ``states`` and ``canon``
turn any ``Exception`` into ordinary output.  The operations listed in
``data/known_failures.json`` do not finish today: they stay in the
workload and are not counted as completed (``done_frac``), nor as failed
unless they print a wrong answer.  Any other operation that overruns,
raises, exits non-zero or prints a wrong answer fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass without the known failures, one pass with every layer
wrapped (see ``spans.py``) and a second traced pass over the operations
that finished; the per-layer counts of the two traced passes must agree
exactly.  The last stdout line is the result object; the line before it
records the run's settings: seed, budget, Python version and CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import probe
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: nominal-speed seconds one operation may take (see probe.py); a census
#: command is a whole generation run, and on canon the budget lets
#: disjoint-8 always reach its OverflowError so that peak RSS repeats
BUDGETS_S = {"census": 30.0, "corpus": 4.0, "sweep": 4.0, "canon": 8.0}
SETUP_REPEATS = 5


class OverBudget(BaseException):
    """Raised by SIGALRM when an operation exceeds its time budget."""


def _alarm(signum, frame):
    raise OverBudget()


def load_package():
    """Import the package from the checkout's ``src`` with a cold module cache."""
    for name in [n for n in sys.modules if n == "greechie" or n.startswith("greechie.")]:
        del sys.modules[name]
    return importlib.import_module("greechie.cli")


def execute(cli, op: workloads.Op, budget: float) -> tuple[str, float, str]:
    """Run one operation under the budget: (outcome, seconds, stdout or error)."""
    sys.stdin = io.StringIO(op.stdin)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except OverBudget:
        return "over_budget", time.perf_counter() - start, f"over {budget} s"
    except (Exception, SystemExit) as exc:
        return "raised", time.perf_counter() - start, repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = sys.__stdin__
    elapsed = time.perf_counter() - start
    if rc != 0:
        return "exit", elapsed, f"exit {rc}: {err.getvalue().strip()[:200]}"
    return "ok", elapsed, out.getvalue()


def judge(op: workloads.Op, outcome: str, output: str) -> tuple[str, str]:
    """Check a finished operation's stdout: (outcome, detail)."""
    if outcome != "ok":
        return outcome, output
    try:
        problem = op.check(output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    return ("wrong", problem) if problem else ("ok", "")


class Tally:
    """Outcomes and latencies of the operations run so far."""

    def __init__(self, known: dict[str, str]):
        self.known = known
        self.latencies: list[float] = []
        self.attempted = self.done = self.units = 0
        self.failures: list[str] = []
        self.known_hit: set[str] = set()
        self.wrong = False

    def add(self, op: workloads.Op, outcome: str, seconds: float, detail: str) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if outcome == "ok":
            self.done += 1
            self.units += op.units
        elif outcome != "wrong" and op.name in self.known:
            self.known_hit.add(op.name)
        else:
            self.failures.append(f"{op.name}: {outcome}: {detail}")
            self.wrong = self.wrong or outcome == "wrong"


def run_pass(cli, ops, tally: Tally, budget: float, speed: probe.SpeedProbe,
             tracer: spans.Tracer | None = None) -> tuple[float, dict]:
    """One pass over ``ops``: (summed latency, {op: (outcome, latency, count deltas)}).

    Latencies exclude probe time and are scaled to the nominal machine
    speed, and so is the budget; an operation stopped by it took ``budget``.
    """
    per_op = {}
    speed.sample()
    for op in ops:
        before = tracer.counts() if tracer else None
        inside = speed.mark()
        outcome, seconds, output = execute(cli, op, speed.wall_budget(budget))
        done = speed.mark()
        speed.sample()
        if outcome == "over_budget":
            seconds = budget
        else:  # probes just before, inside and just after the operation
            seconds = (seconds - sum(speed.samples[inside:done])) * speed.factor(inside - 1)
        delta = None
        if tracer:
            tracer.clear_stack()
            after = tracer.counts()
            delta = {k: after[k] - before[k] for k in after}
        outcome, detail = judge(op, outcome, output)
        tally.add(op, outcome, seconds, detail)
        per_op[op.name] = (outcome, seconds, delta)
    return sum(t for _, t, _ in per_op.values()), per_op


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, cli, ops, known, budget, setup_s) -> tuple[dict, Tally, dict]:
    tally = Tally(known)
    speed = probe.SpeedProbe()
    walls = []
    start = time.perf_counter()
    speed.install()
    try:
        while not walls or time.perf_counter() - start < args.seconds:
            wall, _ = run_pass(cli, ops, tally, budget, speed)
            walls.append(wall)
    finally:
        speed.uninstall()
    total = sum(walls)
    tail_value, pct, beyond = tail(tally.latencies)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(total / len(walls), "s"),
        "ops_per_s": metric(tally.units / total, "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(tally.latencies), "ms"),
        "op_tail_ms": metric(1000 * tail_value, "ms"),
        "done_frac": metric(tally.done / tally.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": len(walls), "samples": len(tally.latencies),
            "op_tail_percentile": round(pct, 2), "op_tail_beyond": beyond,
            "elapsed_s": time.perf_counter() - start,
            "probe_median_s": statistics.median(speed.samples), "probe_samples": len(speed.samples)}
    return metrics, tally, info


def per_layer(cli, ops, known, budget) -> tuple[dict, Tally, dict]:
    # probes run only between operations here, never inside a span; the
    # untraced pass that prices the tracing skips the known failures
    speed = probe.SpeedProbe()
    _, base = run_pass(cli, [op for op in ops if op.name not in known], Tally(known), budget, speed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = Tally(known)
        _, traced = run_pass(cli, ops, tally, budget, speed, tracer)
        calls = dict(tracer.calls)
        times, selfs, gen = dict(tracer.time_s), dict(tracer.self_s), dict(tracer.gen)
        shortcuts = tracer.classify_shortcuts
        finished = [op for op in ops if traced[op.name][0] == "ok"]
        _, again = run_pass(cli, finished, Tally(known), budget, speed, tracer)
    finally:
        tracer.uninstall()

    mismatched = [name for name, (outcome, _, delta) in again.items()
                  if outcome == "ok" and delta != traced[name][2]]
    both = [n for n, (outcome, _, _) in base.items() if outcome == "ok" and traced[n][0] == "ok"]
    overhead = sum(traced[n][1] for n in both) / sum(base[n][1] for n in both) - 1 if both else 0.0

    n_ops = len(ops)
    metrics = {}
    for name in spans.SPANS:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        metrics[f"{name}.time_s"] = metric(times[name], "s")
        metrics[f"{name}.self_s"] = metric(selfs[name], "s")
    for name in ("linprog.lp_build", "linprog.lp_optimize", "structure.validate", "lattice.build_oml"):
        metrics[f"{name}.per_op"] = metric(calls[name] / n_ops, "calls/op")
    metrics["generate.nodes"] = metric(gen["nodes_explored"], "count")
    for key in ("canonical_rejections", "girth_prunes", "budget_prunes"):
        metrics[f"generate.{key}"] = metric(gen[key], "count")
    searches = calls["symmetry.search"]
    kept = gen["nodes_explored"] - calls["generate.generate"]  # every node but the roots
    metrics["generate.accept_ratio"] = metric(kept / searches if searches else 0.0, "ratio")
    classify = calls["states.classify_states"]
    metrics["states.classify_states.shortcut_ratio"] = metric(
        shortcuts / classify if classify else 0.0, "ratio")
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    info = {"passes": 1, "samples": len(tally.latencies), "count_mismatches": mismatched,
            "unwrapped": tracer.unwrapped}
    if mismatched:
        tally.wrong = True
        tally.failures += [f"{name}: per-layer counts differ between two traced passes"
                           for name in mismatched]
    return metrics, tally, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "greechie" / "cli.py").is_file():
        print(f"no greechie sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _alarm)

    # set-up: a cold import of the package plus building the inputs, scaled
    # like the operations by the probes taken just before and after it
    speed = probe.SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        window = speed.mark()
        speed.sample()
        start = time.perf_counter()
        cli = load_package()
        ops = workloads.build(args.workload, args.seed)
        known = workloads.known_failures()
        elapsed = time.perf_counter() - start
        speed.sample()
        setups.append(elapsed * speed.factor(window))
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"greechie imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    budget = BUDGETS_S[args.workload]
    if args.trace:
        metrics, tally, info = per_layer(cli, ops, known, budget)
    else:
        metrics, tally, info = end_to_end(args, cli, ops, known, budget, statistics.median(setups))

    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "budget_s": budget, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "setup_repeats": SETUP_REPEATS,
        "known_failures": sorted(tally.known_hit), "failures": tally.failures,
    })
    for line in tally.failures:
        print(line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
