#!/usr/bin/env python3
"""Builds and runs the recur benchmark.

Usage, from the root of a checkout:

    python3 recurbench/run.py --workload closure|resident|ingest|all \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary (recurbench/, compiled with the recur library
from src/) into .bench_build/recurbench, runs its statistics self-test,
then runs one workload (with "all", each in turn). The binary prints a
human-readable report; this script echoes it, saves the whole report as
JSON under .bench_out/, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

Exit codes: 0 a correct run; 1 an output check failed; 2 a build, set-up
or usage error; 3 an invalid run (an open-loop backlog grew). Only a run
that exits 0 or 1 prints a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "recurbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("closure", "resident", "ingest")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "recur sources (src/) not found next to recurbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(2, "build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "recurbench")


def commit_id():
    """The git commit when run in a repository, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "recurbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (report, the binary's exit code)."""
    work = os.path.join(WORK_DIR, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", work, "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, "the benchmark binary did not finish within %d s" %
             RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
        else:
            print(line)
    if proc.returncode == 3:
        fail(3, "invalid run: " + str(report and report.get("invalid")))
    if report is None or proc.returncode not in (0, 1):
        fail(2, "the benchmark binary failed (exit code %d)" %
             proc.returncode)

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
        workload, seed, trace))
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
    return report, proc.returncode


def pick_metrics(report, workload, wanted, trace, prefix=""):
    """The BENCHMARK.json metrics, by name, from a workload report."""
    source = report["layers" if trace else "e2e"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["value"] is None:
            fail(2, "metric %s is absent from the %s report" % (
                m["name"], workload))
        if got["unit"] != m["unit"]:
            fail(2, "metric %s has unit %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[prefix + m["name"]] = {"value": got["value"],
                                       "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wanted = contract_metrics(args.trace)
    binary = build()
    selftest = subprocess.run([binary, "--self-test"], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    print(selftest.stdout, end="")
    if selftest.returncode != 0:
        fail(2, "the benchmark's statistics self-test failed")

    # "all" runs every workload in turn; its metrics are keyed
    # <workload>.<metric>.
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        report, code = run_workload(binary, workload, args.seed, args.seconds,
                                    args.trace)
        prefix = workload + "." if args.workload == "all" else ""
        metrics.update(pick_metrics(report, workload, wanted, args.trace,
                                    prefix))
        correct = correct and bool(report["correct"]) and code == 0
        attempted += report["attempted"]
        failed += report["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
