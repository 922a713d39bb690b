"""calang benchmark: four workloads, end-to-end metrics and per-layer
metrics from a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mybox-eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client drives the program in a closed loop: the next operation
starts when the previous one returns.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it runs a third of
``--seconds`` untraced, replays the same operations with every layer
wrapped and reports the per-layer metrics.
``--workload all`` runs every workload, untraced and traced, each in a
process of its own, and writes the results to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the run completed, whatever the program's answers were, and 2
when the benchmark could not run (for example, without ``src/calang``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracing  # noqa: E402  (sibling module, found through sys.path[0])
import wl_mybox  # noqa: E402
import wl_net  # noqa: E402
import wl_sets  # noqa: E402
import wl_spec  # noqa: E402

WORKLOADS = {wl.NAME: wl for wl in (wl_mybox, wl_sets, wl_spec, wl_net)}
SUBMODULES = ("syntax", "terms", "unify", "arith", "clauses", "horn", "aggregate", "cli")
SETUP_REPS = 7
MIN_OPS = 110  # at least 10 samples above the 90th percentile
TRACE_SHARE = 1 / 3  # share of --seconds replayed with tracing on

# Host speed calibration.  A fixed allocation loop runs before every
# operation; reported times are wall times scaled to the speed at which
# one chunk of the loop takes CAL_REF_S, window by window.
CAL_ITERS = 1200
CAL_REF_S = 0.4e-3
WINDOW_S = 2.0


class BenchmarkError(Exception):
    """The benchmark itself cannot run."""


def import_calang():
    """Import ``calang`` afresh from ``src``: every earlier copy is dropped
    from ``sys.modules`` first, so each call pays the full import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "calang" or m.startswith("calang.")]:
        del sys.modules[name]
    cal = importlib.import_module("calang")
    for sub in SUBMODULES:
        importlib.import_module(f"calang.{sub}")
    return cal


# ---------------------------------------------------------------------------
# Running and checking operations
# ---------------------------------------------------------------------------

def calibration_chunk() -> float:
    """Wall time of a fixed loop that allocates and frees small tuples,
    lists and dicts, as the program does, with the garbage collector off
    so that the program's heap cannot slow it: the host's speed at this
    moment.  On the host this was built on, such a loop tracks the
    program's speed about twice as closely as a loop of integer
    arithmetic."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        for i in range(CAL_ITERS):
            d[i % 61] = (i, [i], {i: i})
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Outcome:
    """One executed operation: which input, its wall time, the wall time
    of the calibration chunk run just before it, the bytes of its report
    (None when it raised) and the reference checker's verdict."""

    __slots__ = ("index", "seconds", "cal", "report", "failed", "mismatch")

    def __init__(self, index, seconds, cal, report, failed, mismatch):
        self.index, self.seconds, self.cal = index, seconds, cal
        self.report, self.failed, self.mismatch = report, failed, mismatch


def reference_seconds(outcomes: list[Outcome]) -> list[float]:
    """Each operation's wall time at reference speed.  Consecutive
    operations are grouped into windows of about WINDOW_S; within a
    window every time is scaled by CAL_REF_S over the median calibration
    time, which a transient stall of one chunk does not move.  The host
    this was built on changes speed by up to 2x within a minute, and the
    scaled times follow the program instead of the host."""
    windows, current, spent = [], [], 0.0
    for o in outcomes:
        current.append(o)
        spent += o.seconds
        if spent >= WINDOW_S:
            windows.append(current)
            current, spent = [], 0.0
    if current:
        if windows and spent < WINDOW_S / 2:
            windows[-1] += current
        else:
            windows.append(current)
    out = []
    for w in windows:
        scale = CAL_REF_S / statistics.median(o.cal for o in w)
        out += [o.seconds * scale for o in w]
    return out


class Checker:
    """Reference checks of executed operations.  Verdicts are cached per
    input and report, so a pool cycled several times is checked once."""

    def __init__(self, wl, ops):
        self.wl, self.ops = wl, ops
        self.cache: dict = {}
        self.examples: list[str] = []

    def judge(self, index, seconds, cal, output, error) -> Outcome:
        if error is not None:
            self._note(f"op {index}: raised {error}")
            return Outcome(index, seconds, cal, None, True, False)
        report = self.wl.render(self.ops[index], output)
        key = (index, report)
        if key not in self.cache:
            code = output[0] if isinstance(output[0], int) else 0
            if code not in (0, 1, 2):
                problems, mismatch = [f"exit code {code}"], False
            else:
                problems, mismatch = self.wl.check(self.ops[index], output)
            for p in problems[:1]:
                self._note(f"op {index}: {p}")
            self.cache[key] = (bool(problems), mismatch)
        return Outcome(index, seconds, cal, report, *self.cache[key])

    def _note(self, text):
        if len(self.examples) < 5:
            self.examples.append(text)


def run_ops(wl, cal, ops, checker, indices=None, seconds=None) -> list[Outcome]:
    """Closed loop over ``ops``: either the given indices, or cycling from
    the start until the operations have taken ``seconds``, at least
    MIN_OPS ran and the last round of the pool is complete, so that every
    run measures the same mix.  Each output is checked right after its operation,
    outside its timing, and then dropped.  Every operation starts from a
    collected heap, so when the collector runs inside it depends on the
    operation alone, not on what the checks before it allocated."""
    outcomes = []
    clock = time.perf_counter
    busy = 0.0
    i = 0
    while True:
        if indices is not None:
            if i == len(indices):
                break
            index = indices[i]
        else:
            if i >= MIN_OPS and busy >= seconds and i % wl.PER_ROUND == 0:
                break
            index = i % len(ops)
        gc.collect()
        speed = calibration_chunk()
        t0 = clock()
        try:
            output, error = wl.run(cal, ops[index]), None
        except Exception as e:  # an escape from the entry point is a failed operation
            output, error = None, f"{type(e).__name__}: {e}"
        elapsed = clock() - t0
        busy += elapsed
        outcomes.append(checker.judge(index, elapsed, speed, output, error))
        del output
        i += 1
    return outcomes


def self_checks(wl, cal, seed, ops, warm_output, workdir) -> list[str]:
    """The benchmark's checks of itself: the generator depends on its
    seed, and every checker accepts a genuine output and rejects each
    deliberately corrupted one.  (That the generator is deterministic
    for a seed is checked across the set-up repetitions.)"""
    problems = []
    other = wl.generate(cal, seed + 1, workdir / "other", rounds=1)
    if [wl.describe(op) for op in other] == [wl.describe(op) for op in ops[:len(other)]]:
        problems.append("generator ignores its seed")

    samples = [(ops[0], warm_output)]
    if wl is wl_sets:  # corruptions need an equation with two union variables
        samples = ((op, wl.run(cal, op)) for op in ops)
    for op, out in samples:
        bad = wl.corruptions(cal, op, out)
        if not bad:
            continue
        genuine, mismatch = wl.check(op, out)
        if genuine or mismatch:
            continue
        for corrupted in bad:
            rejected, flagged = wl.check(op, corrupted)
            if not rejected and not flagged:
                problems.append(f"{wl.NAME} checker accepted a corrupted output")
        break
    else:
        problems.append(f"{wl.NAME}: no genuine output to corrupt")
    return problems


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def run_workload(name: str, seed: int, seconds: float, trace: str, log) -> dict:
    wl = WORKLOADS[name]
    if not (SRC / "calang" / "__init__.py").is_file():
        raise BenchmarkError(f"no calang package under {SRC}")
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "_work"))
    try:
        (workdir / "other").mkdir()
        setup, inputs = [], []
        for _ in range(SETUP_REPS):
            # Every repetition starts from the same heap: the previous
            # copy of calang and its inputs are gone.
            cal = ops = warm = None
            gc.collect()
            speed = [calibration_chunk() for _ in range(3)]
            t0 = time.perf_counter()
            cal = import_calang()
            ops = wl.generate(cal, seed, workdir)
            warm = wl.run(cal, ops[0])
            elapsed = time.perf_counter() - t0
            speed += [calibration_chunk() for _ in range(3)]
            setup.append(elapsed * CAL_REF_S / statistics.median(speed))
            inputs.append([wl.describe(op) for op in ops])
        problems = self_checks(wl, cal, seed, ops, warm, workdir)
        if any(other != inputs[0] for other in inputs[1:]):
            problems.append("generator is not deterministic for a seed")
        del inputs, warm
        # The input pool lives as long as the run; keep the collector from
        # scanning it inside every operation.
        gc.collect()
        gc.freeze()

        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        lines = []
        if trace in ("0", "both"):
            checker = Checker(wl, ops)
            outcomes = run_ops(wl, cal, ops, checker, seconds=seconds)
            lines += end_to_end(wl, outcomes, checker, setup, result)
            replay = prefix_within(outcomes, seconds * TRACE_SHARE)
        if trace in ("1", "both"):
            if trace == "1":
                replay = run_ops(wl, cal, ops, Checker(wl, ops), seconds=seconds * TRACE_SHARE)
            lines += traced(wl, cal, ops, replay, result, problems)
        for p in problems:
            lines.append(f"  benchmark check failed: {p}")
        result["correct"] = result["failed"] == 0 and not problems
        for line in lines:
            log(line)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def prefix_within(outcomes: list[Outcome], seconds: float) -> list[Outcome]:
    """The first operations whose wall times add up to ``seconds``."""
    total = 0.0
    for n, o in enumerate(outcomes):
        total += o.seconds
        if total >= seconds:
            return outcomes[:n + 1]
    return outcomes


def tally(outcomes, result) -> tuple[int, int]:
    failed = sum(o.failed for o in outcomes)
    mismatched = sum(o.mismatch and not o.failed for o in outcomes)
    result["attempted"] += len(outcomes)
    result["failed"] += failed
    return failed, mismatched


def end_to_end(wl, outcomes, checker, setup, result) -> list[str]:
    samples = [s * 1e3 for s in reference_seconds(outcomes)]
    n = len(samples)
    p50, p90 = statistics.median(samples), percentile_90(samples)
    raw_p50 = statistics.median(o.seconds * 1e3 for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    above = sum(1 for s in samples if s > p90)
    failed, mismatched = tally(outcomes, result)
    ok_rate = (n - failed - mismatched) / n
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "op_ms_p50": (p50, "ms", f"n={n}"),
        "op_ms_p90": (p90, "ms", f"n={n}, {above} above"),
        "ops_per_s": (n * 1e3 / sum(samples), "1/s", f"n={n}"),
        "ok_rate": (ok_rate, "frac", f"n={n}; error_rate {1 - ok_rate:.4f}: {failed} failed, "
                                     f"{mismatched} operand-order mismatches"),
        "peak_rss_mb": (rss_mb, "MB", "n=1, whole process"),
        "setup_s": (statistics.median(setup), "s", f"median of n={len(setup)}"),
    }
    lines = [f"{wl.NAME}: closed loop, 1 client, {n} operations, {busy:.2f} s of wall time "
             f"({n / busy:.4f}/s, op_ms_p50 {raw_p50:.4f} ms); metrics at reference speed"]
    for key, (value, unit, note) in metrics.items():
        result["metrics"][key] = {"value": value, "unit": unit}
        lines.append(f"  {key:<14} {value:>12.4f} {unit:<5} ({note})")
    lines += [f"  reference: {e}" for e in checker.examples]
    return lines


def traced(wl, cal, ops, replay, result, problems) -> list[str]:
    """Replay ``replay``'s inputs with every layer wrapped; the reports must
    be byte-identical to the untraced ones."""
    checker = Checker(wl, ops)
    tracer = tracing.Tracer()
    try:
        outcomes = run_ops(wl, cal, ops, checker, indices=[o.index for o in replay])
    finally:
        tracer.remove()
    for before, after in zip(replay, outcomes):
        if before.report is None or before.report != after.report:
            problems.append(f"traced report of op {after.index} differs from the untraced one")
            break
    problems += tracer.coverage_problems(wl.NAME)
    _, mismatched = tally(outcomes, result)
    traced_s = sum(reference_seconds(outcomes))
    overhead = traced_s / sum(reference_seconds(replay)) - 1
    scale = traced_s / sum(o.seconds for o in outcomes)
    metrics = tracer.metrics(len(outcomes), mismatched, overhead, scale)
    result["metrics"].update(metrics)
    lines = [f"{wl.NAME}: traced replay of {len(outcomes)} operations "
             f"(tracing overhead {overhead:.2f})"]
    for key, m in metrics.items():
        if m["value"]:
            lines.append(f"  {key:<40} {m['value']:>14.4f} {m['unit']}")
    lines += [f"  reference: {e}" for e in checker.examples]
    return lines


# ---------------------------------------------------------------------------
# All workloads, one process each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    results = {}
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "both"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            return 2
        results[name] = json.loads(lines[-1])
        correct = correct and results[name]["correct"]
    record = {"seed": args.seed, "seconds": args.seconds, "python": platform.python_version(),
              "nproc": os.cpu_count(), "workloads": results}
    out = HERE / "results" / f"seed-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"results written to {out}")
    summary = {"correct": correct,
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics; both: all")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, print)
    except BenchmarkError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
