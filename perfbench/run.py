#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload cold_tiled|iscas_sweep|eco_serve \\
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (CMake, RelWithDebInfo); build
output goes to stderr so the last stdout line is the result JSON printed
by the benchmark binary. MFT_* variables are not passed on to the
benchmark, so no thread-count or fault knob can change what is measured;
a set MFT_FAULTS is refused outright.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_tiled", "iscas_sweep", "eco_serve")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "mft_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """git sha when the tree is a git checkout, plus a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "git:%s,src:%s" % (sha, digest.hexdigest()[:12])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    # A terminated run still stops its benchmark process and removes its
    # temp dir: SystemExit unwinds through subprocess.run and the finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if "MFT_FAULTS" in os.environ:
        print("error: refusing to run with MFT_FAULTS set", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build():
        print("error: could not build the benchmark", file=sys.stderr)
        return 1
    tmp = os.path.join(ROOT, ".bench_build", "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MFT_")}
    cmd = [os.path.join(BUILD, "mft_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id(), "--tmp-dir", tmp]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
