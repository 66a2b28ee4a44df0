#!/usr/bin/env python3
"""End-to-end graphlogd benchmark: build, run one workload, report.

Run from the repository root:

  python3 perfbench/run.py --workload closure_read --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --compare REPORT_A.json REPORT_B.json

A run builds graphlogd and the load generator (perfbench/e2e_bench.cc)
from this checkout's sources into $CARGO_TARGET_DIR (default
.bench_build), runs the workload against a spawned graphlogd, and prints
the human report, a stamp line, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Each
run also writes a stamped report file under <build>/reports/, which
--compare reads; it refuses to compare absolute numbers whose stamps
(machine, build type, workload configuration) differ.

Exit codes: 0 ok, 1 build or set-up failure, 2 usage or refused
comparison, 3 a wrong answer. No result line is printed unless the run
succeeded and every answer was checked.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
WORKLOADS = {
    # name: (closed-loop clients, graphlogd --fsync, sizes)
    "closure_read": (2, "off", "RandomDigraph 128 nodes/512 edges + Flights 150 flights/15 cities"),
    "point_churn": (1, "off", "RandomDigraph 12500 nodes/50000 edges"),
    # A writer and a reader, driven in lock-step by one load thread.
    "read_write": (2, "always", "RandomDigraph 12500 nodes/50000 edges"),
}
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def check_checkout():
    for path in ("CMakeLists.txt", "src", os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.exists(path):
            fail(1, "no %s here: run from the root of a full checkout" % path)


def build():
    """Configures once and builds e2e_bench and graphlogd; returns their paths."""
    check_checkout()
    out = os.path.join(build_root(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_root(), "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                      "--target", "e2e_bench", "graphlogd"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(1, "build failed (%s)" % " ".join(cmd))
    return (os.path.join(out, "e2e_bench"),
            os.path.join(out, "graphlog", "src", "net", "graphlogd"))


def source_digest():
    """Digest of the sources the benchmark builds (the checkout need not be
    a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", BENCH_DIR):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        return subprocess.check_output(["git", "rev-parse", "HEAD"],
                                       stderr=subprocess.DEVNULL,
                                       text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def make_stamp(args):
    clients, fsync, sizes = WORKLOADS[args.workload]
    return {
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "clients": clients,
        "num_threads": 1,
        "fsync": fsync,
        "sizes": "tiny" if args.tiny else sizes,
    }


# Stamp fields that must agree before absolute numbers are compared.
COMPARABLE = ("cpu_model", "nproc", "build_type", "workload", "trace",
              "seconds", "clients", "num_threads", "fsync", "sizes")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """The result line must carry exactly the declared metrics and units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    return None


def stop_group(proc):
    """SIGKILLs the process group led by `proc` and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_once(args, binaries, corrupt=False):
    """Runs e2e_bench; returns (exit code, report lines, result or None)."""
    bench, daemon = binaries
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(build_root(), "work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    reports = os.path.join(build_root(), "reports")
    os.makedirs(reports, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--graphlogd", daemon, "--work", work,
           "--trace-out", os.path.join(reports, tag + ".trace.json")]
    if args.tiny:
        cmd.append("--tiny")
    if corrupt:
        cmd.append("--corrupt-expected")
    # A process group of its own, so that a timeout can stop e2e_bench and
    # the graphlogd children it spawned, and wait until they are gone.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: e2e_bench timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
        return 1, [], None
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        return proc.returncode, lines, None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return 1, lines, None
    return 0, lines[:-1], result


def run(args):
    if args.workload not in WORKLOADS:
        fail(2, "unknown workload %r (%s)" % (args.workload, ", ".join(WORKLOADS)))
    binaries = build()
    code, lines, result = run_once(args, binaries)
    if code != 0:
        sys.stdout.write("\n".join(lines) + "\n" if lines else "")
        fail(code, "e2e_bench exited %d" % code)
    problem = check_result(result, args.trace)
    if problem:
        fail(1, problem)
    stamp = make_stamp(args)
    report = {"stamp": stamp, "report": lines, "result": result}
    path = os.path.join(build_root(), "reports", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    for line in lines:
        print(line)
    print("# stamp: " + json.dumps(stamp))
    print("# report: " + path)
    print(json.dumps(result))
    return 0


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    differ = [k for k in COMPARABLE if a["stamp"].get(k) != b["stamp"].get(k)]
    if differ:
        for k in differ:
            print("  %s: %r vs %r" % (k, a["stamp"].get(k), b["stamp"].get(k)))
        fail(2, "refusing to compare absolute numbers across stamps "
                "(differ in %s)" % ", ".join(differ))
    print("%-32s %14s %14s %8s" % ("metric", "A", "B", "B/A"))
    for name, m in a["result"]["metrics"].items():
        va = m["value"]
        vb = b["result"]["metrics"].get(name, {}).get("value")
        ratio = "" if vb is None or va == 0 else "%.3f" % (vb / va)
        print("%-32s %14.6g %14s %8s %s" % (name, va, "-" if vb is None else
                                             "%.6g" % vb, ratio, m["unit"]))
    return 0


def self_test(seconds):
    """Tiny sizes: every declared metric is printed with its unit on every
    workload in both modes, and a corrupted expected count is caught."""
    binaries = build()
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=3, seconds=seconds,
                                      trace=trace, tiny=True)
            code, _, result = run_once(args, binaries)
            problem = "exit %d" % code if code else check_result(result, trace)
            print("self-test %-12s trace=%d: %s" % (workload, trace, problem or "ok"))
            if problem:
                failures.append((workload, trace, problem))
        args = argparse.Namespace(workload=workload, seed=3, seconds=seconds,
                                  trace=0, tiny=True)
        code, _, result = run_once(args, binaries, corrupt=True)
        caught = code == 3 and result is None
        print("self-test %-12s corrupted expected count: %s"
              % (workload, "caught" if caught else "NOT caught (exit %d)" % code))
        if not caught:
            failures.append((workload, "corrupt", code))
    if failures:
        fail(1, "self-test failed: %s" % failures)
    print("self-test passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    args.tiny = False  # tiny sizes are for the self-test only
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test(1)
    if not args.workload:
        fail(2, "--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
