#!/usr/bin/env python3
"""Record pipeline-benchmark timings in the BENCH_pipeline.json trajectory.

Runs `pipebench/run.py --trace 0` several times per workload for one or
more checkouts, each run as long as BENCHMARK.json's `run_seconds` and
at seed 1, and appends one entry per (checkout, workload) to
BENCH_pipeline.json at the repository root.  Each pipebench run reports
lower-quartile times over its own passes; an entry keeps the median,
first and third quartile of those per-run figures for `total_s` and for
every stage, with the host's core count, the build type, the checkout's
git revision and the output digest.

Usage, from the repository root:

    python3 tools/bench_record.py
    python3 tools/bench_record.py --checkout parent=/path/to/parent \\
        --checkout change=. --runs 10

With several checkouts the runs alternate, and so does the side that
runs first in each pair (parent, change, change, parent, ...), so slow
drifts of a shared host hit both sides alike; the script prints how
many pairs the last checkout won on `total_s`.  Each
checkout builds into its own directory (`.bench_build/` inside it, or
$CARGO_TARGET_DIR/<label> when that is set).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "mnoc-bench-pipeline-v1"
WORKLOADS = ("design_flow_256", "runtime_replay_256")
SEED = 1


def run_seconds():
    """The run length the benchmark declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


def quartiles(values):
    """Median, q1 and q3 with Python's inclusive method."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def git_revision(path):
    try:
        rev = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", path, "status",
                                "--porcelain", "--untracked-files=no"],
                               check=True, capture_output=True,
                               text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+dirty" if dirty else "")


def parse_report(stdout):
    """The figures one pipebench run prints on standard output."""
    run = {"stages": {}}
    in_stages = False
    for line in stdout.splitlines():
        host = re.match(r"host: nproc (\d+), pool (\d+) threads, "
                        r"build (\S+)", line)
        if host:
            run["nproc"] = int(host.group(1))
            run["pool"] = int(host.group(2))
            run["build_type"] = host.group(3)
        digest = re.match(r"digest: ([0-9a-f]+)", line)
        if digest:
            run["digest"] = digest.group(1)
        if line.startswith("stage times"):
            in_stages = True
            continue
        stage = re.match(r"  (\w+) ([0-9.e+-]+) s, ([0-9.e+-]+) s$",
                         line)
        if in_stages and stage:
            run["stages"][stage.group(1) + "_s"] = float(stage.group(2))
        elif in_stages and not line.startswith("  "):
            in_stages = False
    result = json.loads(stdout.strip().splitlines()[-1])
    run["correct"] = result["correct"]
    run["failed"] = result["failed"]
    run["metrics"] = {name: entry["value"]
                      for name, entry in result["metrics"].items()}
    return run


def run_once(path, label, workload, seconds):
    env = dict(os.environ)
    target = os.environ.get("CARGO_TARGET_DIR")
    env["CARGO_TARGET_DIR"] = (os.path.join(target, label) if target
                               else os.path.join(path, ".bench_build"))
    command = [sys.executable, os.path.join(path, "pipebench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=path, env=env, check=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return parse_report(done.stdout)


def summarize(label, path, workload, seconds, runs):
    first = runs[0]
    digests = {run.get("digest") for run in runs}
    stages = sorted({name for run in runs for name in run["stages"]})
    return {
        "label": label,
        "git": git_revision(path),
        "workload": workload,
        "seed": SEED,
        "seconds": seconds,
        "runs": len(runs),
        "nproc": first.get("nproc"),
        "pool": first.get("pool"),
        "build_type": first.get("build_type"),
        "digest": first.get("digest"),
        "digest_identical": len(digests) == 1,
        "correct": all(run["correct"] for run in runs),
        "total_s": quartiles([run["metrics"]["total_s"] for run in runs]),
        "setup_s": quartiles([run["metrics"]["setup_s"] for run in runs]),
        "peak_rss_mb": quartiles(
            [run["metrics"]["peak_rss_mb"] for run in runs]),
        "stages": {name: quartiles([run["stages"].get(name, 0.0)
                                    for run in runs])
                   for name in stages},
        "per_run_total_s": [run["metrics"]["total_s"] for run in runs],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", default=[],
                        metavar="LABEL=PATH",
                        help="checkout to time (repeatable; default: "
                             "this repository, labelled head)")
    parser.add_argument("--workload", action="append",
                        choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=5,
                        help="pipebench runs per checkout and workload "
                             "(at least 5)")
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_pipeline.json"))
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    checkouts = []
    for spec in args.checkout or [f"head={ROOT}"]:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            parser.error(f"--checkout wants LABEL=PATH, got {spec!r}")
        checkouts.append((label, os.path.abspath(path)))

    seconds = run_seconds()
    entries = []
    for workload in args.workload or WORKLOADS:
        runs = {label: [] for label, _ in checkouts}
        for index in range(args.runs):
            order = checkouts if index % 2 == 0 else checkouts[::-1]
            for label, path in order:
                run = run_once(path, label, workload, seconds)
                runs[label].append(run)
                print(f"{workload} {label} run {index + 1}: total_s "
                      f"{run['metrics']['total_s']:.4f} digest "
                      f"{run.get('digest')}", file=sys.stderr)
        for label, path in checkouts:
            entries.append(summarize(label, path, workload, seconds,
                                     runs[label]))
        if len(checkouts) > 1:
            base, last = checkouts[0][0], checkouts[-1][0]
            wins = sum(b["metrics"]["total_s"] < a["metrics"]["total_s"]
                       for a, b in zip(runs[base], runs[last]))
            print(f"{workload}: {last} faster than {base} in {wins} of "
                  f"{args.runs} pairs", file=sys.stderr)

    trajectory = {"schema": SCHEMA, "entries": []}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            trajectory = json.load(handle)
        if trajectory.get("schema") != SCHEMA:
            sys.exit(f"{args.out}: schema {trajectory.get('schema')!r}, "
                     f"expected {SCHEMA!r}")
    trajectory["entries"].extend(entries)
    with open(args.out, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    for entry in entries:
        total = entry["total_s"]
        print(f"{entry['workload']} {entry['label']}: total_s median "
              f"{total['median']:.4f} (q1 {total['q1']:.4f}, q3 "
              f"{total['q3']:.4f}), digest {entry['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
