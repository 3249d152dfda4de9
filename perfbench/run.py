#!/usr/bin/env python3
"""End-to-end benchmark of the loglog engine.

Builds the library and the benchmark program from this checkout's sources, then runs
one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Two more modes:

    python3 perfbench/run.py --self-test
        builds and runs the test of the benchmark's metric arithmetic.
    python3 perfbench/run.py --selfcheck --workload <name> --seed <n> [--seconds <s>]
        runs the same seed twice and fails, printing the difference, unless
        the exact counts (count metrics and recovery.ops_redone) match.

The build directory is $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. Run from the checkout root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run stays under three minutes; the program gets what the build leaves.
PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, logfile):
    with open(logfile, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configures once and builds incrementally; returns the build dir."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"], logfile)
        if rc != 0:
            fail_build(bdir, logfile)
    rc = run_logged(["cmake", "--build", bdir, "-j", "3"], logfile)
    if rc != 0:
        fail_build(bdir, logfile)
    return bdir


def fail_build(bdir, logfile):
    with open(logfile, errors="replace") as f:
        tail = f.readlines()[-30:]
    log("build failed; last lines of %s:\n%s" % (logfile, "".join(tail)))
    # A failed configure must not leave a cache that skips it next time.
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        os.remove(cache)
    sys.exit(1)


def git_sha():
    """HEAD of the checkout, or "unknown" unless it is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def src_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_program(bdir, workload, seed, seconds, trace, echo=True):
    cmd = [os.path.join(bdir, "perfbench_main"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark program exceeded %d s" % PROGRAM_TIMEOUT_S)
        sys.exit(1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def counts_of(stdout):
    for line in stdout.splitlines():
        if line.startswith('{"counts"'):
            return {k: v["value"] for k, v in json.loads(line)["counts"].items()}
    return None


def selfcheck(bdir, args):
    results = []
    for attempt in (1, 2):
        rc, out = run_program(bdir, args.workload, args.seed, args.seconds,
                             False, echo=False)
        if rc != 0:
            log("run %d failed (exit %d)" % (attempt, rc))
            sys.stdout.write(out)
            return 1
        results.append(counts_of(out))
    first, second = results
    diff = {k: (first.get(k), second.get(k))
            for k in sorted(set(first) | set(second))
            if first.get(k) != second.get(k)}
    for k, (a, b) in diff.items():
        print("MISMATCH %s: %r vs %r" % (k, a, b))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "deterministic": not diff, "counts": first}))
    return 1 if diff else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")

    bdir = build()
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_math_test")]).returncode
    if args.selfcheck:
        return selfcheck(bdir, args)
    rc, _ = run_program(bdir, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return rc


if __name__ == "__main__":
    sys.exit(main())
