"""Determinism self-check of the benchmark.

Usage (from the repository root): python3 perfbench/selfcheck.py

For every workload it makes the sessions of a traced run (``run.py
--trace 1``: each session once untraced and once traced, in fresh
interpreters, at the workload's own session size) twice with seed 1 and
once with seed 2, and checks:

- the two seed-1 runs give identical per-span call counts and an
  identical digest of all answers;
- tracing does not change the answers (untraced digests = traced digests);
- seed 2 gives different inputs (different digests);
- no operation failed its check in any session.

Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import sys

import run
from tracer import merge_aggregates


def traced_run(workload: str, seed: int, spans: str) -> tuple[list[dict], list[dict], dict[str, int]]:
    """(untraced summaries, traced summaries, span name -> calls) of a traced run."""
    plain, traced = run._traced_sessions(workload, seed, spans)
    aggregates: dict[str, list[int]] = {}
    for s in traced:
        merge_aggregates(aggregates, s["aggregates"])
    return plain, traced, {name: vals[0] for name, vals in aggregates.items()}


def main() -> int:
    spans = os.path.join(run.ROOT, ".bench_build", "perfbench", "selfcheck-spans.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    all_ok = True
    for workload in run.WORKLOAD_NAMES:
        plain, first, counts = traced_run(workload, 1, spans)
        _, second, second_counts = traced_run(workload, 1, spans)
        other_plain, other, _ = traced_run(workload, 2, spans)

        def answers(summaries: list[dict]) -> list[str]:
            return [s["answers"] for s in summaries]

        checks = {
            "same seed, same call counts": counts == second_counts,
            "same seed, same answers": answers(first) == answers(second),
            "tracing keeps the answers": answers(plain) == answers(first),
            "other seed, other inputs": answers(other) != answers(first),
            "no failed operation": not any(s["failed"] for s in plain + first + second + other_plain + other),
        }
        for label, ok in checks.items():
            print(f"{workload}: {label}: {'ok' if ok else 'FAILED'}")
            all_ok = all_ok and ok
        ops = sum(s["ops"] for s in first)
        print(f"{workload}: {len(first)} sessions, {ops} operations, {sum(counts.values())} layer calls")
    os.remove(spans)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
