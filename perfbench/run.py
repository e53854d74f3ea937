"""lambda-forge benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rational-conductors, quadratic-equivalence, witt-lattices,
cli-batch (see workloads.py for what each runs and why).  The library is
imported from ``src/`` of the checkout this file sits in; nothing is
installed.

--trace 0 runs the seed's session (a fixed sequence of operations) in a
fresh interpreter again and again for about S seconds, at least three
times and for at least 100 operations in all; a session always runs to
its end, and the last one is started only if it will most likely end less
than half a session after S.  Every repeat does the same work from the
same cold start.

Times are given at a fixed reference speed of the host.  On a shared 2-vCPU Xeon VM, where this benchmark was written, the
host's speed switches between two states about 1.5x apart, at times
every few hundred milliseconds and at times only after a minute, so a
run's raw times depend on the mix of states it happened to get.  The
worker therefore reads the host's speed every 50 ms between operations,
by timing a fixed pure-Python loop (worker.calibration_ns), and each
operation's time is scaled by CALIBRATION_REFERENCE_NS over the readings
just before and after it; a set-up time by the readings just before and
after it, taken in this process.  A change to the program moves these
figures as it moves raw times; only the host's state is divided out.

An operation's time is the median of its times over the repeats.
Latency percentiles are taken over these per-operation times, throughput
is correct operations per second of their sum, and set-up time is the
median over set-up-only interpreters started after each repeat.  Every
interpreter the benchmark starts runs with -S: the site hooks of the
machine it runs on are not part of the program, and on the VM above a
.pth file that imports certifi added 50-120 ms of noise to every start.

--trace 1 runs the fewest sessions that reach 100 operations, whatever S
is, each once untraced and once traced on the same inputs, so that its
counts depend on the seed alone; it reports the per-layer metrics, the
tracing overhead and the measured input properties, and writes the spans
to ``.bench_build/perfbench/spans-<workload>.tsv``.

Every operation's answer is checked, in every repeat, and every repeat
must give the same answers.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import calibration_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("rational-conductors", "quadratic-equivalence", "witt-lattices", "cli-batch")
MIN_OPS = 100  # so at least 10 samples lie beyond the 90th percentile
MIN_REPEATS = 3  # of the session in a --trace 0 run, whatever S is
# Set-up probes after each repeat, so that the set-up samples spread over
# the whole run instead of a few seconds of it.
SETUP_PROBES = 3  # set-up-only starts
# Times are reported at the host speed at which worker.calibration_ns()
# reads 1.5 ms: the fast state of the Xeon VM above, where it reads
# 1.4-1.5 ms (2.2-2.8 ms in the slow state).
CALIBRATION_REFERENCE_NS = 1_500_000
SESSION_PROPERTIES = {
    "input.new_conductor_share": "ratio",
    "input.label_working_set": "count",
    "witt.nonintegral_share": "ratio",
    "cli.nonzero_exits": "count",
    "cli.import_s": "s",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LAMBDA_FORGE_BOUND", None)
    env["PYTHONHASHSEED"] = "0"  # same seed, same set iteration order, same call counts
    return env


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_session(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker, time it from spawn to READY, and return that time
    with its JSON summary (None for a set-up-only start)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", WORKER, "--root", ROOT, *args], stdout=subprocess.PIPE, text=True, env=_child_env()
    )
    try:
        ready_s = None
        summary = None
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - t0
            elif line.startswith("{"):
                summary = json.loads(line)
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"worker exited with code {code}")
    return ready_s, summary


def _at_reference_speed(seconds: float, calibrations: list[int]) -> float:
    """A time measured between host-speed readings, scaled to the host
    speed at which a reading is CALIBRATION_REFERENCE_NS."""
    return seconds * CALIBRATION_REFERENCE_NS / statistics.mean(calibrations)


def _setup_time(workload: str, seed: int) -> float:
    """Time from spawn to READY of a set-up-only worker (interpreter start,
    package import, the workload's fixtures), at the reference host speed."""
    before = calibration_ns()
    ready_s = run_session(["--workload", workload, "--seed", str(seed), "--setup-only"])[0]
    return _at_reference_speed(ready_s, [before, calibration_ns()])


def _repeat_session(workload: str, seed: int, seconds: float) -> tuple[list[float], list[dict]]:
    """Session 0 of the seed, each time in a fresh interpreter, until time
    is up, MIN_REPEATS repeats and MIN_OPS operations were run.  A repeat
    is not started when it would most likely end more than half a repeat
    past ``seconds``, so runs last about ``seconds``.  Each repeat is
    followed by set-up probes.  Returns (set-up samples, summaries)."""
    setup, summaries = [], []
    base = ["--workload", workload, "--seed", str(seed), "--session", "0"]
    start = time.perf_counter()
    cycle_s = 0.0  # mean time of a repeat with its set-up probes
    while (
        len(summaries) < MIN_REPEATS
        or sum(s["ops"] for s in summaries) < MIN_OPS
        or time.perf_counter() - start + cycle_s / 2 < seconds
    ):
        summaries.append(run_session(base)[1])
        setup += [_setup_time(workload, seed) for _ in range(SETUP_PROBES)]
        cycle_s = (time.perf_counter() - start) / len(summaries)
    return setup, summaries


def _traced_sessions(workload: str, seed: int, spans_path: str) -> tuple[list[dict], list[dict]]:
    """Sessions 0, 1, 2, ... until MIN_OPS operations, each once untraced
    and once traced.  Sessions have a fixed size, so the traced sessions,
    and with them the per-layer counts, depend on the seed alone.
    Returns (untraced summaries, traced summaries)."""
    plain, with_trace = [], []
    session = 0
    while sum(s["ops"] for s in plain) < MIN_OPS:
        base = ["--workload", workload, "--seed", str(seed), "--session", str(session)]
        plain.append(run_session(base)[1])
        offset = sum(s["ops"] for s in with_trace)
        with_trace.append(run_session(base + ["--trace-out", spans_path, "--op-offset", str(offset)])[1])
        session += 1
    return plain, with_trace


def _nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _totals(summaries: list[dict]) -> dict:
    ops = sum(s["ops"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    lat = [x for s in summaries for x in s["latencies_ns"]]
    return {
        "ops": ops,
        "failed": failed,
        "throughput": (ops - failed) / (sum(lat) / 1e9),
        "busy_s": sum(lat) / 1e9,
        "samples": len(lat),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in summaries),
    }


def _scaled_latencies(summary: dict) -> list[float]:
    """A calibrated session's operation times in seconds at the reference
    host speed, each scaled by the readings just before and after it.  A
    reading that an interrupt stretched would scale its neighbours wrongly,
    so each reading is first replaced by the median of itself and the
    readings next to it."""
    index = [i for i, _ in summary["calibrations"]]  # of the next operation; the last follows every operation
    raw = [ns for _, ns in summary["calibrations"]]
    cal = [statistics.median(raw[max(0, k - 1) : k + 2]) for k in range(len(raw))]
    out, j = [], 0
    for i, ns in enumerate(summary["latencies_ns"]):
        while index[j + 1] <= i:
            j += 1
        out.append(_at_reference_speed(ns / 1e9, [cal[j], cal[j + 1]]))
    return out


def _per_op_medians(summaries: list[dict]) -> dict:
    """End-to-end figures of the repeats of one session: an operation's
    time is the median of its times at the reference host speed over the
    repeats, and it is correct only if it passed its check in every
    repeat."""
    times = [statistics.median(ts) for ts in zip(*(_scaled_latencies(s) for s in summaries))]
    failed_ops = {i for s in summaries for i in s["failed_ops"]}
    lat = sorted(times)
    return {
        "throughput": (len(times) - len(failed_ops)) / sum(times),
        "p50_ms": _nearest_rank(lat, 0.5) * 1e3,
        "p90_ms": _nearest_rank(lat, 0.9) * 1e3,
        "samples": len(lat),
        "same_answers": len({s["answers"] for s in summaries}) == 1,
    }


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    from tracer import layer_metrics, merge_aggregates

    aggregates: dict[str, list[int]] = {}
    for s in traced:
        merge_aggregates(aggregates, s["aggregates"])
    plain_t, traced_t = _totals(plain), _totals(traced)
    out = layer_metrics(aggregates, traced_t["busy_s"])
    for name, unit in SESSION_PROPERTIES.items():  # per session, median over the run's sessions
        values = [s["properties"][name] for s in plain if name in s["properties"]]
        out[name] = (statistics.median(values) if values else 0.0, unit)
    out["trace.untraced_throughput_ops_s"] = (plain_t["throughput"], "1/s")
    out["trace.traced_throughput_ops_s"] = (traced_t["throughput"], "1/s")
    out["trace.overhead_frac"] = (1 - traced_t["throughput"] / plain_t["throughput"], "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lambda_forge", "__init__.py")):
        print(f"error: no lambda_forge package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    print(
        f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"sha={_git_sha()} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    spans_path = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(trace_dir, exist_ok=True)
        spans_path = os.path.join(trace_dir, f"spans-{args.workload}.tsv")
        with open(spans_path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
    try:
        if args.trace:
            plain, traced = _traced_sessions(args.workload, args.seed, spans_path)
            metrics = _layer_metrics(plain, traced)
            passes = [("untraced", plain), ("traced", traced)]
        else:
            setup, plain = _repeat_session(args.workload, args.seed, args.seconds)
            t, per_op = _totals(plain), _per_op_medians(plain)
            metrics = {
                "throughput_ops_s": (per_op["throughput"], "1/s"),
                "latency_p50_ms": (per_op["p50_ms"], "ms"),
                "latency_p90_ms": (per_op["p90_ms"], "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (t["peak_rss_mb"], "MB"),
                "ok_frac": ((t["ops"] - t["failed"]) / t["ops"], "ratio"),
            }
            passes = [("untraced", plain)]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for label, summaries in passes:
        t = _totals(summaries)
        attempted += t["ops"]
        failed += t["failed"]
        print(
            f"# {label}: sessions={len(summaries)} ops={t['ops']} failed={t['failed']} "
            f"fail_frac={t['failed'] / t['ops']:.6f} latency_samples={t['samples']} "
            f"answers={','.join(s['answers'][:12] for s in summaries)}"
        )
    same_answers = True
    if not args.trace:
        same_answers = per_op["same_answers"]
        readings = [ns for s in plain for _, ns in s["calibrations"]]
        print(
            f"# median of {len(plain)} repeats: latency_samples={per_op['samples']} "
            f"setup_samples={len(setup)} same_answers={same_answers} "
            f"calibration_ms=median {statistics.median(readings) / 1e6:.3f} of {len(readings)}"
        )
    if spans_path:
        print(f"# spans: {os.path.relpath(spans_path, ROOT)} ({sum(s['spans_stored'] for s in traced)} stored)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": failed == 0 and same_answers,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
