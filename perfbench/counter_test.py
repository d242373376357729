#!/usr/bin/env python3
"""Checks that the benchmark's work counters are deterministic and seed-driven.

    python3 perfbench/counter_test.py

For every workload, two traced runs with the same seed must report exactly
the same machine-independent work counters. On cold-n30, whose panel of
traces is generated from the seed, a run with another seed must report
different counters, which shows the seed reaches the inputs. Every run must
also pass the benchmark's correctness gate. Takes a few minutes: each traced
run covers one whole pass over its workload's panel.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTERS = (
    "dts.points",
    "dts.closure_steps",
    "aux.vertices",
    "aux.arcs",
    "steiner.dijkstra_runs",
    "steiner.nodes_expanded",
    "steiner.relaxations",
    "batch.aux_reuses",
)


def counters(binary, workload, seed):
    lines = run.run_benchmark(binary, workload, seed, 1, 1)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s seed %d failed its correctness gate: %s"
                             % (workload, seed, lines[-1]))
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def main():
    binary = run.build()
    failures = []
    for workload in run.WORKLOADS:
        first = counters(binary, workload, 1)
        second = counters(binary, workload, 1)
        if first != second:
            failures.append("%s: counters differ across two runs with seed 1:"
                            " %s vs %s" % (workload, first, second))
        if workload == "cold-n30":
            other = counters(binary, workload, 2)
            changed = [n for n in COUNTERS if other[n] != first[n]]
            if not changed:
                failures.append("cold-n30: seeds 1 and 2 give identical "
                                "counters %s" % first)
        print("%-15s %s" % (workload, first))
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print("counter_test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
