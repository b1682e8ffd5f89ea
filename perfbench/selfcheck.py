#!/usr/bin/env python3
"""Self-check of the benchmark harness at a tiny scale.

Run from the repository root:

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, exits 0, is correct, and emits
   exactly the metrics BENCHMARK.json names, each with its unit.
2. After one reference label is corrupted, every workload counts failures
   against it.

Works in `.perfbench/selfcheck` and removes it afterwards. Exits 1 on the
first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORK = os.path.join(ROOT, ".perfbench", "selfcheck")
SEED = 1
SCALE = "0.05"


def bench(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--week-scale", SCALE,
           "--stream-scale", SCALE, "--work", WORK]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s --trace %d exited %d" % (workload, trace, r.returncode))
    return json.loads(lines[-1])


def fail(msg):
    print("selfcheck FAILED: " + msg)
    sys.exit(1)


def corrupt_reference():
    """Flip the intent of the first reference label of every input set."""
    seed_dir = os.path.join(WORK, "seed-%d" % SEED)
    for name in os.listdir(seed_dir):
        d = os.path.join(seed_dir, name)
        path = os.path.join(d, "ref_labels.json")
        with open(path) as f:
            labels = json.load(f)
        first = labels[0]
        first["intent"] = "action" if first["intent"] == "information" else "information"
        with open(path, "w") as f:
            json.dump(labels, f)
        path = os.path.join(d, "ref_rows.tsv")
        with open(path) as f:
            rows = f.read().splitlines()
        fields = rows[0].split(" ")
        fields[1] = "0" if fields[1] == "1" else "1"
        rows[0] = " ".join(fields)
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")
        print("corrupted reference label %s in %s" % (first["community"], name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for workload in workloads:
            for trace in (0, 1):
                out = bench(workload, trace)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                if got != units[trace]:
                    fail("%s --trace %d metrics %s, expected %s"
                         % (workload, trace, sorted(got.items()), sorted(units[trace].items())))
                if not out["correct"] or out["failed"] or out["attempted"] < 1:
                    fail("%s --trace %d not correct on clean inputs: %s" % (workload, trace, out))
                print("ok   %-12s --trace %d: %d metrics, %d attempted, 0 failed"
                      % (workload, trace, len(got), out["attempted"]))
        corrupt_reference()
        for workload in workloads:
            for trace in (0, 1):
                out = bench(workload, trace)
                if out["correct"] or out["failed"] < 1:
                    fail("%s --trace %d missed the corrupted label: %s" % (workload, trace, out))
                print("ok   %-12s --trace %d: corrupted label counted, %d of %d failed"
                      % (workload, trace, out["failed"], out["attempted"]))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
