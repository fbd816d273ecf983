#!/usr/bin/env python3
"""Real-clock benchmark of the tfr libraries (see perfbench/README.md).

    python3 perfbench/run.py --workload service --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one process each

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench on
first use, runs one workload in a fresh process and prints its result.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 every end_to_end metric named in
BENCHMARK.json, with --trace 1 every per_layer metric.  Every run is
stamped with its seed and a host and build fingerprint, and its full
output is kept under .bench_build/perfbench/results.  Exits non-zero,
without a result line, when the build or the run fails, and non-zero
after the result line when a workload's output is wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["service", "abd-faulty", "mcheck", "rt-locks"]
# A run stops starting passes after --seconds; the margin holds the set-up,
# the last pass and its traced twin (about 10 s on mcheck) with room to spare.
RUN_MARGIN_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_id():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark compiles."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True)
            return head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and ".bench_build" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def scratch_env():
    """Environment for child processes: temporary files stay in the
    checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no tfr sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)  # configured from another source tree
    env = scratch_env()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=850)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.is_file()


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, ident):
    """Runs one workload; returns the binary's result object or None."""
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--build-id", ident, "--out-dir", str(traces)]
    timeout = seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=scratch_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout} s")
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: exited {done.returncode} without a result")
        return None
    if done.returncode not in (0, 1):
        log(f"{workload}: exited {done.returncode}")
        return None
    return result


def result_metrics(result, spec, trace):
    """The metrics the result line carries, with BENCHMARK.json's units.
    Per-layer metrics of layers the workload does not run read 0."""
    if trace:
        measured = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        measured = result["end_to_end"]
        wanted = spec["end_to_end"]
    metrics = {}
    absent = []
    for entry in wanted:
        name = entry["name"]
        got = measured.get(name)
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {name} not measured")
            absent.append(name)
            got = {"value": 0.0, "unit": entry["unit"]}
        if got["unit"] != entry["unit"]:
            raise ValueError(f"{name}: unit {got['unit']} != {entry['unit']}")
        if got["value"] is None:
            raise ValueError(f"{name}: not a finite number")
        metrics[name] = {"value": got["value"], "unit": entry["unit"]}
    extra = sorted(set(measured) - {e["name"] for e in wanted})
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: {extra}")
    if absent:
        print(f"perfbench: {result['workload']} does not run the layers of: "
              + ", ".join(absent) + " (reported as 0)")
    return metrics


def report(result, spec, trace):
    """Prints the human summary; returns the result-line object."""
    print(f"perfbench: {result['workload']} seed={result['seed']} "
          f"trace={trace} passes={result['passes']} "
          f"correct={result['correct']}")
    for error in result["errors"]:
        print(f"perfbench: MISMATCH {error}")
    shown = dict(result["end_to_end"])
    shown.update(result["named"])
    for name, metric in shown.items():
        print(f"perfbench:   {name:<24} {metric['value']:.6g} "
              f"{metric['unit']}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result_metrics(result, spec, trace),
    }


def save(result, line, trace):
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{trace}.json")
    with open(path, "w") as f:
        json.dump({"run": result, "result": line,
                   "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S")}, f,
                  indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 2
    ident = build_id()

    workloads = [args.workload] if args.workload else WORKLOADS
    lines = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, seconds, args.trace, ident)
        if result is None:
            return 1
        try:
            lines[workload] = report(result, spec, args.trace)
        except (KeyError, ValueError) as error:
            log(f"{workload}: malformed result: {error}")
            return 1
        save(result, lines[workload], args.trace)

    if args.workload:
        line = lines[args.workload]
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, l in lines.items()
                        for name, metric in l["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
