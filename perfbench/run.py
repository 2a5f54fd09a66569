#!/usr/bin/env python3
"""Build and run the ADA end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, runs
adabench in a fresh scratch directory under .bench_build/scratch, checks the
result object and prints it as the last line of stdout.  Exits non-zero,
printing no result, when the build or the run fails.

The scratch directory is a RAM-backed tmpfs mounted in a private mount
namespace (unshare), so the backends' writes never queue behind the disk's
writeback, journal commits or discards -- on a shared virtual disk those make
1-frame stream publishes 10x slower and vary run to run.  The mount is
invisible outside the benchmark process and vanishes with it.  Where a
private mount is not permitted, the scratch directory is used as it is; the
result's info line names the file system either way.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
RUN_TIMEOUT_S = 170
TMPFS_SIZE = "2g"


def private_tmpfs(scratch):
    """Command prefix running the rest of a command with a private tmpfs on
    `scratch`, or [] when this host does not allow it."""
    prefix = ["unshare", "--mount", "--propagation", "private", "sh", "-c",
              'mount -t tmpfs -o size=%s,mode=700 adabench "$0" && exec "$@"' % TMPFS_SIZE,
              scratch]
    if not shutil.which("unshare"):
        return []
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no library sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "adabench")


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics %s, expected %s" % (got, want))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("run.py: build failed: %s" % err)

    # Leftovers of an interrupted earlier run go before anything is timed.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    scratch = os.path.join(SCRATCH, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch)
    cmd = private_tmpfs(scratch) + [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", os.path.join(scratch, "root")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        sys.exit("run.py: adabench exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: adabench exited with %d" % proc.returncode)
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError) as err:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: malformed result: %s" % err)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
