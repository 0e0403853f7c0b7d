#!/usr/bin/env python3
"""Build and run the TVDP benchmark from the root of a repository checkout.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload city_search --seed 1 --seconds 10 --trace 0

Every workload, untraced, with a table of the end-to-end metrics:

    python3 perfbench/run.py --all --seed 1 --seconds 10

The benchmark's own tests (generator, percentile helper, oracle checker,
trace summarizer):

    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark (a CMake project over
src/) in .bench_build/perfbench as a Release build. Fleet directories and
span files are written under .bench_build/perfbench as well. The last line
of a single run's standard output is the result JSON; a failed correctness
check exits non-zero without printing it.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["city_search", "acquisition", "search_during_ingest"]
# A run after the build must end within 180 s; the first run of a checkout
# also builds, and may take longer in total.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binaries."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "tvdp_perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr)


def cache_value(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def git_sha():
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except (OSError, IndexError):
        pass
    return fstype


def run_one(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD_DIR, "run-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    header = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "build_type_cmake": cache_value("CMAKE_BUILD_TYPE"),
        "durable_dir_filesystem": filesystem_of(workdir),
    }
    cmd = [os.path.join(BUILD_DIR, "tvdp_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0", "--workdir", workdir, "--header",
           json.dumps(header, sort_keys=True)]
    if trace:
        os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
        cmd += ["--spans", os.path.join(BUILD_DIR, "traces", "%s-seed%d.spans.jsonl"
                                        % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return 1, []
    finally:
        # Also on a timeout or when this script is interrupted or terminated:
        # the benchmark binary never outlives its launcher.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def main():
    # SIGTERM unwinds like Ctrl-C, so run_one stops its child first.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    if args.selftest:
        rc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
        rc |= subprocess.run([sys.executable, "-B", "-m", "unittest", "-q",
                              "test_trace_summary"], cwd=BENCH_DIR).returncode
        return 1 if rc else 0

    if args.all:
        table, status = [], 0
        for w in WORKLOADS:
            rc, lines = run_one(w, args.seed, args.seconds, False)
            for line in lines[:-1]:
                print(line)
            if rc != 0 or not lines:
                log("%s FAILED (exit %d)" % (w, rc))
                status = 1
                continue
            # Bounded metrics from the result, ungated ones from the summary.
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                table.append((w, name, m["value"], m["unit"]))
            for line in lines:
                if line.startswith("ungated "):
                    _, name, value, unit = line.split()
                    table.append((w, name, float(value), unit))
        print("%-22s %-28s %16s %s" % ("workload", "metric", "value", "unit"))
        for w, name, value, unit in table:
            print("%-22s %-28s %16.6f %s" % (w, name, value, unit))
        return status

    if not args.workload:
        parser.error("--workload, --all or --selftest is required")
    rc, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        for line in lines:
            print(line, file=sys.stderr)
        log("%s failed (exit %d)" % (args.workload, rc))
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
