#!/usr/bin/env python3
"""Self-test of the cold-start benchmark at tiny sizes (64 devices, a
24-slice segmented week, a one-variant grid).

    python3 coldbench/selftest.py

For every workload it checks that:
  * the output digest is the same across two 4-thread runs and a 1-thread
    run, and equals the one recorded in coldbench/expected.json;
  * run.py prints every metric BENCHMARK.json lists, with its unit, for
    --trace 0 and --trace 1, with correct = true and failed = 0;
  * the traced run writes a Chrome trace-event file with spans in it.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run

SEED = run.DEFAULT_SEED


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "expected.json")) as f:
        expected = json.load(f)["tiny"]
    run.build()

    problems = []
    for workload in run.WORKLOADS:
        digests = [run.run_binary(workload, SEED, "tiny", threads)
                   for threads in (4, 4, 1)]
        seen = {d.get("digest") for d in digests}
        if not all(d.get("ok") for d in digests) or seen != {expected[workload]}:
            problems.append("%s: digests %s, expected %s"
                            % (workload, sorted(map(str, seen)), expected[workload]))

        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            where = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append("%s: no result (exit %d)" % (where, proc.returncode))
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("%s: exit %d, correct %s, failed %s" % (
                    where, proc.returncode, result["correct"], result["failed"]))
            for m in listed:
                got = result["metrics"].get(m["name"])
                if (got is None or got.get("unit") != m["unit"]
                        or not isinstance(got.get("value"), (int, float))):
                    problems.append("%s: metric %s printed as %r" % (where, m["name"], got))

        trace_path = os.path.join(run.OUT_DIR, "%s-seed%d-tiny-trace.trace.json"
                                  % (workload, SEED))
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            if not events or any(e["ph"] != "X" for e in events):
                problems.append("%s: trace has no complete events" % workload)
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: trace file unreadable: %s" % (workload, e))

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("OK" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
