#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

--all runs every workload BENCHMARK.json lists, one after the other.

Run from the root of a source checkout.  The build (CMake, the
repository's default RelWithDebInfo type) goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; generated
inputs and span files go to .bench_build/perfbench-work.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Exits non-zero when the sources are missing,
the build fails, an output check fails, or the run overruns.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TARGET = os.path.join(ROOT,
                      os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(TARGET, "perfbench")
WORK = os.path.join(TARGET, "perfbench-work")
RUN_TIMEOUT_S = 170


def source_sha():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under %s/src; run from the "
              "root of a source checkout" % ROOT, file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(args, env):
    binary = os.path.join(BUILD, "perfbench")
    try:
        return subprocess.run([binary] + args, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main(argv):
    if not build():
        return 2
    env = dict(os.environ, PERFBENCH_SOURCE_SHA=source_sha())
    if argv == ["--self-test"]:
        return run(argv, env)
    if "--all" not in argv:
        return run(argv + ["--work-dir", WORK], env)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    rest = [a for a in argv if a != "--all"]
    codes = [run(["--workload", w] + rest + ["--work-dir", WORK], env)
             for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
