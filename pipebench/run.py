#!/usr/bin/env python3
"""Build and run the mnoc-pt pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload design_flow_256 --seed 1 \
        --seconds 40 --trace 0
    python3 pipebench/run.py --self-test

Every call configures and builds the benchmark (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; the first call
compiles everything, later calls reuse the build and recompile only
what changed.  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  Exits non-zero
without a result when the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("pipebench: no mnoc-pt sources next to pipebench/")
    # Configure on every call, not only on the first: configuring is
    # what bakes the current git revision into the run manifest, and
    # the build directory outlives a checkout.  A cached configure takes
    # well under a second and rebuilds nothing when the revision is the
    # same.
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    os.chdir(ROOT)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    self_test = sys.argv[1:] == ["--self-test"]
    try:
        binary = build(build_dir,
                       "pipebench_test" if self_test else "pipebench")
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"pipebench: build failed: {error}")
    sys.stdout.flush()
    args = [] if self_test else sys.argv[1:]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
