#!/usr/bin/env python3
"""Builds and runs the WhitenRec serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload large-catalog --seed 1 --seconds 22 --trace 0

The first call configures and builds the library and the benchmark binary
(Release) under .bench_build/perfbench; later calls only rebuild what
changed. The binary's last stdout line is the result JSON; a run record
and, for --trace 1, the span files go to .bench_build/perfbench/records.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORDS = os.path.join(BUILD, "records")
BINARY = os.path.join(BUILD, "perfbench_serving")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def clean_env():
    # Library knobs from the caller's environment would change what is
    # measured; the benchmark runs on compiled-in defaults only.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("WHITENREC_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no WhitenRec sources next to {HERE}; cannot build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_serving",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The git commit when ROOT is a git work tree, else a source digest."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
        out = proc.stdout.split()
        if proc.returncode == 0 and len(out) == 2 and \
                os.path.realpath(out[0]) == os.path.realpath(ROOT):
            return out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        log("--seed must be >= 0 and --seconds in [1, 60]")
        return 2
    if not build():
        return 1
    os.makedirs(RECORDS, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record-dir", RECORDS, "--git-sha", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the binary's last line is not JSON")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("the binary's result has unexpected keys")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
