#!/usr/bin/env python3
"""Build and run the commit-path benchmark.

Usage (from the root of the repository):

  python3 commitbench/run.py --workload transfer|counter|local --seed N \
      --seconds S --trace 0|1
  python3 commitbench/run.py --self-test

Configures and builds the mca library from src/ together with the mcad daemon
and the commitbench binary into .bench_build/commitbench (RelWithDebInfo),
then runs it with the given arguments. Build output goes to standard
error; the last line of standard output is the JSON result. Data
directories and span files are written under .bench_build/run.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "commitbench")
WORK = os.path.join(ROOT, ".bench_build", "run")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("commitbench: no library sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "commitbench", "mcad", "-j", jobs],
                   check=True, stdout=sys.stderr)


def metrics_match_manifest(binary):
    """The binary's metric table and BENCHMARK.json name the same metrics."""
    listed = json.loads(subprocess.run([binary, "--list-metrics"], check=True,
                                       capture_output=True, text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    ours = {(m["name"], m["unit"], m["better"], m["end_to_end"]) for m in listed}
    theirs = {(m["name"], m["unit"], m["better"], True) for m in manifest["end_to_end"]}
    theirs |= {(m["name"], m["unit"], m["better"], False) for m in manifest["per_layer"]}
    for name in sorted(ours ^ theirs):
        print("self-test: metric table and BENCHMARK.json differ on %s" % (name,))
    return ours == theirs


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("commitbench: build failed: %s" % e)
    binary = os.path.join(BUILD, "commitbench")
    if "--self-test" in sys.argv[1:] and not metrics_match_manifest(binary):
        return 1
    args = [binary] + sys.argv[1:] + ["--work-dir", WORK]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
