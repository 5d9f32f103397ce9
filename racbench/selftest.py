#!/usr/bin/env python3
"""Quick check of the benchmark itself: the attribution unit tests, then a
seconds-long smoke of every workload, untraced and traced, through the same
code paths and correctness checks as a full run.

    python3 racbench/selftest.py

Exits 0 when the tests pass and every smoke run is correct and reports
every metric BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def unit_tests():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    return unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()


def smoke(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--all", "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    ok = proc.returncode == 0 and len(lines) == len(spec["workloads"])
    for line in lines:
        missing = declared - set(line["metrics"])
        good = line["correct"] and line["failed"] == 0 and not missing
        print("smoke trace=%d %-18s %s%s" % (
            trace, line["workload"], "ok" if good else "FAILED",
            " missing " + ", ".join(sorted(missing)) if missing else ""))
        ok = ok and good
    return ok


def main():
    ok = unit_tests()
    for trace in (0, 1):
        ok = smoke(trace) and ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
