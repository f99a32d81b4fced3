#!/usr/bin/env python3
"""Self-test of the repository benchmark: one short traced run per workload.

Covers `unique_prepare` too, which run.py keeps runnable although
BENCHMARK.json does not list it (see NOTES.md).

    python3 perfbench/selftest.py

Run from the root of a checkout. Each run must report correct answers, no
failures, and every per-layer metric BENCHMARK.json names. A workload that no
longer loads the layer it was chosen for trips the benchmark's mode guard,
which reports `correct: false` with the reason on stderr:

  * zipf_socket: the answer-cache hit share leaves [0.20, 0.40];
  * unique_prepare: cn.generate_ms is under half of
    engine.prepare_ms + engine.execute_ms;
  * disk_cold_pool: storage.page_misses is 0 (non-zero on the others).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("zipf_socket", "unique_prepare", "disk_cold_pool")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer"]]
    failures = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "3",
             "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            failures.append("%s: exit code %d\n%s" % (workload, proc.returncode,
                                                      proc.stderr[-2000:]))
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        missing = [n for n in names if n not in result["metrics"]]
        if not result["correct"] or result["failed"] != 0 or missing:
            guard = [l for l in proc.stderr.splitlines() if "xkperf:" in l]
            failures.append("%s: correct=%s failed=%d missing=%s\n%s" % (
                workload, result["correct"], result["failed"], missing,
                "\n".join(guard)))
        else:
            print("ok   %s (%d requests)" % (workload, result["attempted"]))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
