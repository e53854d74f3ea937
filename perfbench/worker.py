"""One session of one workload in a fresh interpreter.

Usage:
    python3 worker.py --root ROOT --workload NAME --seed N [--session K]
                      [--setup-only] [--trace-out FILE --op-offset M]

Prints ``READY`` once the package is imported and the workload's fixtures
are built, then runs the session's operations in a closed loop (one
client: the next operation starts when the previous one has returned) and
prints one JSON summary line.  A fresh interpreter per session matters:
the package's caches are process-global, and a second session in the same
process would start warm.

The host's speed is read before the first operation, after the last one
and every CALIBRATE_EVERY_NS in between, by timing a fixed loop between
operations (see ``calibration_ns``); the summary lists each reading with
the index of the operation after it.

With ``--trace-out`` the layer boundaries are wrapped by the tracer, the
summary carries the per-span aggregates, and the spans are appended to
FILE as tab-separated rows when the session ends, with operation ids
offset by M.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

MAX_REPORTED_FAILURES = 5
MAX_STORED_SPANS = 100_000  # per session; aggregates still count every call
CALIBRATION_LOOP = 10_000  # iterations; about 1.5 ms
CALIBRATE_EVERY_NS = 50_000_000
_CALIBRATION_TABLE = dict.fromkeys(range(1024), 1)
_calibration_acc = 0


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop of dict lookups and global-variable
    updates, a reading of the host's speed right now.  It allocates no
    object that the garbage collector tracks, so the program's heap does
    not change its time."""
    global _calibration_acc
    table = _CALIBRATION_TABLE
    t0 = time.perf_counter_ns()
    for i in range(CALIBRATION_LOOP):
        _calibration_acc = (_calibration_acc + table[i & 1023] + i) & 0xFFFF
    return time.perf_counter_ns() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--op-offset", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.session, args.root)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(MAX_STORED_SPANS)
        tracer.install()

    ops = wl.SESSION_OPS
    latencies: list[int] = []
    digest = hashlib.sha256()
    failed_ops: list[int] = []
    calibrations: list[list[int]] = []  # [index of the next operation, loop time in ns]
    clock = time.perf_counter_ns
    next_calibration = clock()
    for i in range(ops):
        if clock() >= next_calibration:
            calibrations.append([i, calibration_ns()])
            next_calibration = clock() + CALIBRATE_EVERY_NS
        if tracer is not None:
            tracer.op = args.op_offset + i
        t0 = clock()
        try:
            ok, answer = wl.op(i)
        except Exception as exc:  # a failed operation is data; keep the loop running
            ok, answer = False, ("error", type(exc).__name__, str(exc))
            if len(failed_ops) < MAX_REPORTED_FAILURES:
                traceback.print_exc()
        end = clock()
        latencies.append(end - t0)
        digest.update(repr(answer).encode())
        if not ok:
            if len(failed_ops) < MAX_REPORTED_FAILURES:
                print(f"operation {i} failed its check: {answer!r}"[:500], file=sys.stderr)
            failed_ops.append(i)
    calibrations.append([ops, calibration_ns()])

    summary = {
        "ops": ops,
        "failed": len(failed_ops),
        "failed_ops": failed_ops,
        "latencies_ns": latencies,
        "calibrations": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answers": digest.hexdigest(),
        "properties": wl.properties(),
    }
    if args.trace_out:
        rows = list(tracer.span_rows())
        summary["aggregates"] = tracer.aggregates()
        summary["spans_stored"] = len(rows)
        with open(args.trace_out, "a") as fh:
            fh.writelines("\t".join(str(x) for x in row) + "\n" for row in rows)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
