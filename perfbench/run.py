#!/usr/bin/env python3
"""Build and run the radiocast benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the self-tests, then runs one
workload. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero without that line
when the build, the self-tests or the run fail.

    python3 perfbench/run.py --write-expected <name>

regenerates perfbench/expected/<name>.json at the default seed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mega_decay", "token_det", "faults_observed", "sweep_campaign"]
MAX_SECONDS = 600


def run_timeout(seconds):
    """Seconds a run may take: the measured loop, the set-ups spread over it,
    and the traced run's replays, with a margin (170 s at 20 s)."""
    return 110 + 3 * seconds


def git_commit():
    """The git commit of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run(cmd, timeout):
    """Runs cmd to completion, forwarding its stdout; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", choices=WORKLOADS)
    args = ap.parse_args()
    if args.workload is None and args.write_expected is None:
        ap.error("--workload or --write-expected is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error("--seconds must be in (0, %d]" % MAX_SECONDS)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    bench_dir = os.path.join(build_dir, "perfbench")
    # Compiler and run temporaries stay inside the build tree.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    if not build(bench_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run([os.path.join(bench_dir, "perfbench_selftest")], 120) != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    scratch = os.path.join(build_dir, "runs", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(bench_dir, "perfbench"), "--scratch", scratch,
           "--commit", git_commit()]
    if args.write_expected:
        cmd += ["--workload", args.write_expected, "--write-expected",
                os.path.join(HERE, "expected", args.write_expected + ".json")]
        timeout = 1800
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--expected", os.path.join(HERE, "expected")]
        timeout = run_timeout(args.seconds)
    try:
        return run(cmd, timeout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
