#!/usr/bin/env python3
"""Repository benchmark: infer_week, watch_week and serve_routes.

Run from the repository root:

    python3 perfbench/run.py --workload infer_week --seed 1 --seconds 10 --trace 0

The first run builds `bgpcomm` and the benchmark harness (`perfbench/harness`)
into `$CARGO_TARGET_DIR` (default `.bench_build`). Inputs are generated from
the seed through the library `Scenario` API and cached per seed under
`.perfbench/`, together with their reference labels. Every run checks its
outputs against those references.

With `--trace 0` the end-to-end metrics come from the production `bgpcomm`
binary (or, for `serve_routes`, the `LabelArtifact` API a consumer embeds),
untraced, with the two time metrics scaled to a reference host speed by a
calibration kernel run alongside. With `--trace 1` the workload is re-driven in-process by the
harness with a span around each call into a layer, and the per-layer metrics
are reported. The last line of stdout is one JSON object; a readable table
precedes it. See perfbench/README.md for every metric's definition.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
THREADS = 2  # perfbench-harness has the same constant (main.rs)
# Scale 1 is ≈455k observations; the streamed watch archive is a scale-0.5 week.
WEEK_SCALE = 1.0
STREAM_SCALE = 0.5
KEEP_SEEDS = 2
# Set-up runs after each measured run, so their samples spread over the window.
SETUP_PER_RUN = 5
MIN_RUNS = 3
WARMUP_S = 5.0
# Host-speed calibration (harness calibrate.rs): a kernel run before and
# after each measured window and every CAL_EVERY_S inside a CLI workload's,
# and its time on the reference host (a 2-vCPU VM in its faster phase).
# Time metrics are scaled to that host speed.
CAL_EVERY_S = 4.0
CAL_REF_S = 0.65

WORKLOADS = ("infer_week", "watch_week", "serve_routes")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


class Bench:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.week_scale = args.week_scale
        self.stream_scale = args.stream_scale
        self.work = os.path.abspath(args.work)
        self.out = os.path.join(self.work, "run")
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.cal = []

    # -- build ------------------------------------------------------------

    def build(self):
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                self.spec = json.load(f)
        except (OSError, ValueError) as e:
            raise Fatal("BENCHMARK.json: %s" % e)
        if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
                and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
            raise Fatal("run from the repository root: no Cargo.toml with crates/cli here")
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        for cmd in (["cargo", "build", "--release", "--offline", "-p", "bgpcomm"],
                    ["cargo", "build", "--release", "--offline", "--manifest-path",
                     os.path.join(BENCH, "harness", "Cargo.toml")]):
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                raise Fatal("build failed: " + " ".join(cmd))
        self.bgpcomm = os.path.join(target, "release", "bgpcomm")
        self.harness = os.path.join(target, "release", "perfbench-harness")

    def calibrate(self, runs=1):
        for _ in range(runs):
            self.cal.append(self.harness_json("calibrate")["seconds"])

    def harness_json(self, *argv):
        r = subprocess.run([self.harness, *argv], stdout=subprocess.PIPE, stderr=sys.stderr)
        if r.returncode != 0:
            raise Fatal("perfbench-harness %s exited %d" % (argv[0], r.returncode))
        return json.loads(r.stdout.decode().strip().splitlines()[-1])

    # -- inputs -----------------------------------------------------------

    def inputs(self, layout):
        """Generated inputs for this seed, cached; returns (dir, manifest)."""
        seed_dir = os.path.join(self.work, "seed-%d" % self.seed)
        scale = self.week_scale if layout == "week" else self.stream_scale
        d = os.path.join(seed_dir, "%s-%g" % (layout, scale))
        manifest = os.path.join(d, "inputs.json")
        if not os.path.isfile(manifest):
            tmp = d + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            t0 = time.perf_counter()
            self.harness_json("gen", "--seed", str(self.seed), "--scale", str(scale),
                              "--layout", layout, "--out", tmp)
            os.replace(tmp, d)
            log("generated %s inputs for seed %d in %.1f s" % (layout, self.seed,
                                                               time.perf_counter() - t0))
        os.utime(seed_dir)
        self.evict(seed_dir)
        with open(manifest) as f:
            return d, json.load(f)

    def evict(self, keep):
        seeds = [os.path.join(self.work, n) for n in os.listdir(self.work)
                 if n.startswith("seed-")]
        seeds.sort(key=os.path.getmtime, reverse=True)
        for old in [s for s in seeds if s != keep][KEEP_SEEDS - 1:]:
            shutil.rmtree(old, ignore_errors=True)

    # -- running bgpcomm ----------------------------------------------------

    def child(self, argv):
        """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
        with open(os.path.join(self.out, "child.stderr"), "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, wall, usage.ru_maxrss * 1024 / 1e6

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    def run_checked(self, argv, verify):
        """One run from clean outputs, verified: (wall seconds, peak RSS)."""
        self.reset_outputs()
        rc, wall, peak = self.child(argv)
        ok, what = (False, "exit code %d" % rc) if rc != 0 else verify()
        self.check(ok, what)
        return wall, peak

    def labels_match(self, path, ref_path):
        try:
            with open(path) as f:
                got = json.load(f)
        except (OSError, ValueError) as e:
            return False, "label file: %s" % e
        with open(ref_path) as f:
            ref = json.load(f)
        if got == ref:
            return True, ""
        wrong = sum(1 for a, b in zip(got, ref) if a != b) + abs(len(got) - len(ref))
        return False, "%d of %d labels differ from the reference" % (wrong, len(ref))

    # -- workloads ------------------------------------------------------------

    def infer_argv(self, d, files):
        argv = [self.bgpcomm, "infer"]
        for f in files:
            argv += ["--mrt", f]
        return argv + ["--siblings", os.path.join(d, "siblings.json"),
                       "--dict", os.path.join(d, "dictionary.json"),
                       "--threads", str(THREADS),
                       "--json", os.path.join(self.out, "labels.json"),
                       "--artifact-out", os.path.join(self.out, "labels.art")]

    def watch_argv(self, d, archive):
        return [self.bgpcomm, "watch", "--tail", archive, "--quiesce-after", "1",
                "--checkpoint", os.path.join(self.out, "watch.ckpt"),
                "--siblings", os.path.join(d, "siblings.json"),
                "--threads", str(THREADS),
                "--json", os.path.join(self.out, "labels.json")]

    def empty_archive(self):
        path = os.path.join(self.out, "empty.mrt")
        open(path, "wb").close()
        return path

    def reset_outputs(self):
        for name in ("labels.json", "labels.art", "watch.ckpt"):
            try:
                os.remove(os.path.join(self.out, name))
            except FileNotFoundError:
                pass

    def verify_infer(self, d):
        ok, what = self.labels_match(os.path.join(self.out, "labels.json"),
                                     os.path.join(d, "ref_labels.json"))
        if ok and not same_bytes(os.path.join(self.out, "labels.art"),
                                 os.path.join(d, "ref.art")):
            return False, "artifact differs from the reference artifact"
        return ok, what

    def verify_watch(self, d):
        ok, what = self.labels_match(os.path.join(self.out, "labels.json"),
                                     os.path.join(d, "ref_labels.json"))
        if ok and not os.path.isfile(os.path.join(self.out, "watch.ckpt")):
            return False, "no checkpoint left at quiescence"
        return ok, what

    def measure(self, m, argv, setup_argv, verify, state_file):
        """Warm up, then run argv back to back for the measuring time (at
        least MIN_RUNS times), each run followed by SETUP_PER_RUN runs of
        the set-up command; returns (inputs, runs, metrics)."""
        # Runs straight after input generation read ≈13% slower on
        # infer_week for several seconds; unmeasured runs let that settle.
        deadline = time.perf_counter() + WARMUP_S
        self.run_checked(argv, verify)
        while time.perf_counter() < deadline:
            self.run_checked(argv, verify)
        self.calibrate()
        setups, walls, rss, state = [], [], [], []
        deadline = time.perf_counter() + self.seconds
        next_cal = time.perf_counter() + CAL_EVERY_S
        while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
            wall, peak = self.run_checked(argv, verify)
            walls.append(wall)
            rss.append(peak)
            path = os.path.join(self.out, state_file)
            state.append(os.path.getsize(path) / 1e6 if os.path.isfile(path) else 0.0)
            for _ in range(SETUP_PER_RUN):
                self.reset_outputs()
                rc, wall, _ = self.child(setup_argv)
                self.check(rc == 0, "set-up run exited %d" % rc)
                setups.append(wall)
            if time.perf_counter() >= next_cal:
                self.calibrate()
                next_cal = time.perf_counter() + CAL_EVERY_S
        self.calibrate()
        return m, len(walls), {
            "setup_s": statistics.median(setups),
            "obs_per_s": m["observations"] / statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "state_mb": statistics.median(state),
        }

    def infer_week(self):
        d, m = self.inputs("week")
        files = [os.path.join(d, f) for f in m["files"]]
        return self.measure(m, self.infer_argv(d, files),
                            self.infer_argv(d, [self.empty_archive()]),
                            lambda: self.verify_infer(d), "labels.art")

    def watch_week(self):
        d, m = self.inputs("stream")
        return self.measure(m, self.watch_argv(d, os.path.join(d, "archive.mrt")),
                            self.watch_argv(d, self.empty_archive()),
                            lambda: self.verify_watch(d), "watch.ckpt")

    def served_artifact(self, d, files):
        """The artifact `infer_week`'s command writes, rebuilt by this binary."""
        self.run_checked(self.infer_argv(d, files), lambda: self.verify_infer(d))
        written = os.path.join(self.out, "labels.art")
        if not os.path.isfile(written):
            raise Fatal("infer wrote no artifact to serve")
        served = os.path.join(self.out, "served.art")
        os.replace(written, served)
        return served

    def serve_routes(self, trace_path=None):
        d, m = self.inputs("week")
        art = self.served_artifact(d, [os.path.join(d, f) for f in m["files"]])
        argv = ["serve", "--dir", d, "--artifact", art, "--seconds", str(self.seconds)]
        if trace_path:
            argv += ["--trace", trace_path]
        else:
            self.calibrate(2)
        r = self.harness_json(*argv)
        if not trace_path:
            self.calibrate(2)
        self.attempted += r["attempted"]
        self.failed += r["failed"]
        if r["failed"]:
            self.notes.append("%d of %d requests got a wrong answer"
                              % (r["failed"], r["attempted"]))
        return m, r

    # -- modes ----------------------------------------------------------------

    def end_to_end(self, workload):
        if workload == "serve_routes":
            m, r = self.serve_routes()
            metrics = {
                "setup_s": r["setup_s"],
                "obs_per_s": r["requests_per_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "state_mb": r["state_mb"],
            }
            extra = [
                ("lookups_per_s", r["lookups_per_s"], "lookups/s"),
                ("request_p50_us", r["request_p50_us"], "us (%d requests)" % r["requests"]),
                ("request_p99_us", r["request_p99_us"], "us (%d requests)" % r["requests"]),
                ("hit_ratio", r["hits"] / max(r["lookups"], 1), "hits/lookups"),
            ]
        else:
            m, runs, metrics = getattr(self, workload)()
            extra = [("runs", runs, "count")]
        # Scale the times to the reference host speed: `slow` > 1 when the
        # calibration kernel ran slower than on the reference host.
        cal = statistics.median(self.cal)
        slow = cal / CAL_REF_S
        extra += [("raw.setup_s", metrics["setup_s"], "s"),
                  ("raw.obs_per_s", metrics["obs_per_s"], "obs/s"),
                  ("host.calibration_s", cal, "s (median of %d)" % len(self.cal))]
        metrics["setup_s"] /= slow
        metrics["obs_per_s"] *= slow
        extra.append(("error_rate", self.failed / max(self.attempted, 1),
                      "failed/attempted (%d/%d)" % (self.failed, self.attempted)))
        inputs = [("input." + k, m[k], "count") for k in ("observations", "records", "bytes")]
        return metrics, self.units("end_to_end"), extra + inputs

    def units(self, kind):
        """{metric name: unit} of one metric list in BENCHMARK.json."""
        return {m["name"]: m["unit"] for m in self.spec[kind]}

    def traced(self, workload):
        units = self.units("per_layer")
        layers = dict.fromkeys(units, 0.0)
        trace_path = os.path.join(self.out, "spans.jsonl")
        if workload == "serve_routes":
            _, r = self.serve_routes(trace_path)
            layers.update(r["layers"])
        else:
            if workload == "infer_week":
                d, m = self.inputs("week")
                argv = self.infer_argv(d, [os.path.join(d, f) for f in m["files"]])
                verify = lambda: self.verify_infer(d)
                redrive = ["trace-infer", "--artifact-out", os.path.join(self.out, "traced.art")]
            else:
                d, _ = self.inputs("stream")
                argv = self.watch_argv(d, os.path.join(d, "archive.mrt"))
                verify = lambda: self.verify_watch(d)
                redrive = ["trace-watch", "--checkpoint", os.path.join(self.out, "traced.ckpt")]
            # Untraced runs and traced passes alternate, so a drift in the
            # host's speed reaches both sides of the closure alike.
            walls, passes = [], []
            deadline = time.perf_counter() + self.seconds
            while len(passes) < MIN_RUNS or time.perf_counter() < deadline:
                walls.append(self.run_checked(argv, verify)[0])
                r = self.harness_json(*redrive, "--dir", d,
                                      "--trace", trace_path, "--pass", str(len(passes)))
                self.check(r["failed"] == 0, "traced pass: labels differ from the reference")
                passes.append(r)
            for name in passes[0]["layers"]:
                layers[name] = statistics.median(p["layers"][name] for p in passes)
            # The closure: untraced wall time not covered by any traced layer.
            layers["cli.residual_s"] = (statistics.median(walls)
                                        - statistics.median(p["traced_s"] for p in passes))
        log("spans written to %s" % os.path.relpath(trace_path, ROOT))
        return layers, units, []

def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller worlds for the harness self-check (perfbench/selfcheck.py).
    ap.add_argument("--week-scale", type=float, default=WEEK_SCALE, help=argparse.SUPPRESS)
    ap.add_argument("--stream-scale", type=float, default=STREAM_SCALE, help=argparse.SUPPRESS)
    ap.add_argument("--work", default=os.path.join(ROOT, ".perfbench"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bench = Bench(args)
    try:
        bench.build()
        shutil.rmtree(bench.out, ignore_errors=True)
        os.makedirs(bench.out)
        if args.trace:
            values, units, extra = bench.traced(args.workload)
        else:
            values, units, extra = bench.end_to_end(args.workload)
    except Fatal as e:
        log("perfbench: %s" % e)
        return 1

    print("%s (seed %d, %g s, trace %d)" % (args.workload, args.seed, args.seconds, args.trace))
    for name, unit in units.items():
        print("  %-28s %16.6g %s" % (name, values[name], unit))
    for name, value, unit in extra:
        print("  %-28s %16.6g %s" % (name, value, unit))
    for note in bench.notes:
        print("  FAILED: %s" % note)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
