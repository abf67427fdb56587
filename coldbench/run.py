#!/usr/bin/env python3
"""Cold-start benchmark: builds the coldbench binary, runs one workload in
fresh processes for a fixed time, checks every output digest, and prints the
metrics that BENCHMARK.json lists as one JSON object on the last line.

    python3 coldbench/run.py --workload fleet-steady --seed 7 --seconds 20 --trace 0

Run it from the root of an hhpim checkout. The binary is built from source
into .bench_build/ on first use; per-run records and trace files go to
.bench_out/. See coldbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "coldbench")

WORKLOADS = ("fleet-steady", "fleet-week", "grid-dse")
DEFAULT_SEED = 0x5EED2025
THREADS = 4          # worker threads of every timed repetition
MIN_REPS = 3         # per kind (untraced, traced), even past --seconds
REP_TIMEOUT_S = 150  # one repetition; the largest takes about 4 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; exits 2 on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "coldbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("coldbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def run_binary(workload, seed, size, threads, expect=None, trace_path=None):
    """One repetition in a fresh process. Returns its JSON record, or a
    record with ok=False when the process failed or printed no result."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--threads=%d" % threads, "--size=" + size]
    if expect:
        cmd.append("--expect=" + expect)
    if trace_path:
        cmd.append("--trace=" + trace_path)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timeout", "ops": 0}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"ok": False, "ops": 0,
               "error": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])}
    if proc.returncode != 0:
        rec["ok"] = False
    return rec


def reference_digest(workload, seed, size):
    """The digest every timed repetition must reproduce: that of a one-thread
    run of this seed, which for the default seed must also equal the
    recorded one. The run is untimed and doubles as the machine's warm-up."""
    rec = run_binary(workload, seed, size, threads=1)
    if not rec.get("ok"):
        log("coldbench: one-thread reference run failed: %s" % rec.get("error"))
        return None, "t1-failed"
    if seed != DEFAULT_SEED:
        return rec["digest"], "t1-run"
    with open(os.path.join(HERE, "expected.json")) as f:
        recorded = json.load(f)[size][workload]
    if rec["digest"] != recorded:
        log("coldbench: digest %s differs from the recorded %s"
            % (rec["digest"], recorded))
        return None, "recorded-mismatch"
    return recorded, "recorded+t1-run"


def host_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count()}
    facts["commit"] = None  # stays None outside a git checkout of ROOT
    try:
        top, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.split()
        if os.path.samefile(top, ROOT):
            facts["commit"] = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "coldbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()
    return facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny = self-test sizes")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-%s%s" % (args.workload, args.seed, args.size,
                               "-trace" if args.trace else "")
    trace_path = os.path.join(OUT_DIR, stem + ".trace.json")

    expect, ref_kind = reference_digest(args.workload, args.seed, args.size)

    # Timed repetitions, each a fresh process. With --trace 1 untraced and
    # traced repetitions alternate, so trace.overhead_frac compares like
    # with like.
    reps = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        same = [r for r in reps if r["traced"] == traced]
        elapsed = time.monotonic() - start
        if len(same) >= MIN_REPS and elapsed + statistics.median(
                r["elapsed_s"] for r in reps) > args.seconds:
            break
        t0 = time.monotonic()
        rec = run_binary(args.workload, args.seed, args.size, THREADS,
                         expect=expect or "0", trace_path=trace_path if traced else None)
        rec["traced"] = traced
        rec["elapsed_s"] = time.monotonic() - t0
        reps.append(rec)

    # An op is a device (fleet) or a run (grid); a failed repetition fails
    # all of its ops.
    ops_per_rep = max(r["ops"] for r in reps)
    if ops_per_rep == 0:
        log("coldbench: no repetition completed: %s" % reps[0].get("error"))
        sys.exit(1)
    attempted = ops_per_rep * len(reps)
    failed = ops_per_rep * sum(1 for r in reps if not r.get("ok"))

    # Medians over every repetition that measured something; whether its
    # output was right is reported by correct/failed, not by dropping it.
    def median_of(key, traced, group):
        vals = [r[group][key] for r in reps
                if r["traced"] == traced and r.get(group, {}).get(key) is not None]
        return statistics.median(vals) if vals else None

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.overhead_frac":
            traced_wall = median_of("wall_s", True, "metrics")
            plain_wall = median_of("wall_s", False, "metrics")
            value = (traced_wall / plain_wall - 1.0
                     if traced_wall and plain_wall else None)
        elif args.trace:
            value = median_of(name, True, "layers")
        else:
            value = median_of(name, False, "metrics")
        metrics[name] = {"value": value, "unit": m["unit"]}

    facts = host_facts()
    measured = next((r for r in reps if "compiler" in r), {})
    for key in ("hardware_concurrency", "compiler", "build_type"):
        facts[key] = measured.get(key)
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "threads": THREADS, "seconds": args.seconds, "trace": args.trace,
        "reference": ref_kind, "expected_digest": expect,
        "sim_savings_vs_baseline_pct": median_of(
            "sim_savings_vs_baseline_pct", False, "metrics"),
        "host": facts,
        "repetitions": reps,
        "trace_file": os.path.relpath(trace_path, ROOT) if args.trace else None,
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(info, f, indent=1)
        f.write("\n")

    print("host: " + json.dumps(facts, sort_keys=True))
    print("repetitions: %d (%d traced), reference digest %s (%s)" % (
        len(reps), sum(r["traced"] for r in reps), expect, ref_kind))
    if info["sim_savings_vs_baseline_pct"] is not None:
        print("sim_savings_vs_baseline_pct: %.4f %% (paper headline: up to 60.43 %%)"
              % info["sim_savings_vs_baseline_pct"])
    for name, m in metrics.items():
        print("%-28s %s %s" % (name, m["value"], m["unit"]))
    correct = expect is not None and failed == 0 and all(
        m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
