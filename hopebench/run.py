#!/usr/bin/env python3
"""Builds the hopebench binary from source and runs one workload.

    python3 hopebench/run.py --workload email_point --seed 1 --seconds 30 --trace 0
    python3 hopebench/run.py --selftest
    python3 hopebench/run.py --workload url_scan --uncompressed   # reference

The build goes to $CARGO_TARGET_DIR/hopebench (default
.bench_build/hopebench, relative to the repository root). Build output
goes to stderr; the binary's standard output is passed through, so the
last line is the JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("email_point", "url_scan", "serve_drift")
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hopebench")


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr; kills it at deadline."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(bdir, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("hopebench: no HOPE sources under " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, deadline) != 0:
            return False
    return run_quiet(["cmake", "--build", bdir, "-j", BUILD_JOBS],
                     deadline) == 0


def main():
    # A SIGTERM unwinds through the handlers below, which stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--uncompressed", action="store_true",
                        help="reference run of a tree workload without HOPE")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required unless --selftest is given")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    start = time.monotonic()
    bdir = build_dir()
    if not build(bdir, start + 840):
        print("hopebench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(bdir, "hopebench")
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    if args.selftest:
        cmd = [binary, "--selftest", "--out-dir", trace_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", trace_dir]
        if args.uncompressed:
            cmd.append("--uncompressed")
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        print("hopebench: run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
