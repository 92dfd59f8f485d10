#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload acbm-qcif --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The script configures and builds perfbench/CMakeLists.txt (the library as
the root CMakeLists.txt defines it, plus the benchmark program) into
.bench_build/perfbench, runs the program, relays its output, and checks the
determinism pin: the deterministic counts a run prints on its `pin` line
must equal those of every earlier run of the same binary with the same
workload, seed and seconds. A difference turns the result's "correct" to
false and the exit status to 1.

The last line of stdout is the program's JSON result. Build output goes to
stderr. Exit status: 0 on success, 1 on a failed check (the result line is
still printed), and non-zero without a result line when the build fails or
the program stops on an error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            # A failed configure can leave a cache behind; drop it so the
            # next run configures again.
            if step[1] == "-S":
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    return True


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the library sources and build file."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pin(args, binary, pin):
    """Compares `pin` with the last run of this binary on the same inputs;
    returns an error message or None."""
    pins = BUILD / "pins"
    pins.mkdir(exist_ok=True)
    record = pins / f"{args.workload}-seed{args.seed}-sec{args.seconds}.json"
    current = {"binary": file_digest(binary), "pin": pin}
    if record.exists():
        previous = json.loads(record.read_text())
        if previous["binary"] == current["binary"] and previous["pin"] != pin:
            return (f"deterministic counts differ from an earlier run with "
                    f"the same seed: earlier {previous['pin']} now {pin}")
    record.write_text(json.dumps(current, sort_keys=True) + "\n")
    return None


def run(args):
    if not build("perfbench"):
        return 1
    binary = BUILD / "perfbench"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace == 1:
        command += ["--spans-out", str(BUILD / f"spans-{args.workload}.json")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    # A run measures two phases at most (--trace 1), each a few seconds
    # longer than --seconds; anything far beyond that is a hang.
    watchdog = threading.Timer(2 * args.seconds + 110, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if len(lines) > 1:  # hold back the result line until checked
                print(lines[-2], flush=True)
        status = proc.wait(timeout=60)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench exited with status {status} and no result")
        return status or 1
    result = json.loads(lines[-1])
    pin_lines = [line for line in lines if line.startswith("pin ")]
    if pin_lines:
        error = check_pin(args, binary, json.loads(pin_lines[-1][4:]))
        if error:
            log("CHECK FAILED: " + error)
            result["correct"] = False
            status = status or 1
    print(json.dumps(result), flush=True)
    return status


def self_test():
    if not build("perfbench_arith_test"):
        return 1
    return subprocess.run([str(BUILD / "perfbench_arith_test")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's "
                             "own arithmetic")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    BUILD.mkdir(parents=True, exist_ok=True)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
