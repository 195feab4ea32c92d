#!/usr/bin/env python3
"""Build the engine and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`) under `perfbench/`; the workload's write-ahead logs and
trace spans go beside it. The benchmark's own output is passed through;
its last line is the result object. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prov_analytics", "prov_churn", "social_point")
# glibc settings for the benchmark process: big blocks come from the heap
# (32 MiB is the largest mmap threshold glibc accepts) and freed memory
# stays there, so it is reused rather than handed back to the kernel and
# faulted in again. On a shared host the cost of a page fault varies enough
# to move prov_analytics round times by up to 40% between runs; with these
# settings a 5 s prov_analytics run takes about 4,300 minor faults instead
# of about 150,000. Extra allocation still shows as time and as peak RSS.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir, env):
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helpers' self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("engine sources not found in " + ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    # Compiler and program temporaries stay inside the build directory.
    tmp_dir = os.path.join(target, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        return fail("build failed")

    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              env=env).returncode

    work_dir = os.path.join(target, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        span_dir = os.path.join(target, "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-file", os.path.join(
            span_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, env=dict(env, **MALLOC_ENV)).returncode


if __name__ == "__main__":
    sys.exit(main())
