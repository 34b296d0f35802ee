#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload tdsp-road --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/CMakeLists.txt (the tsgraph library from
src/ plus the benchmark) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the binary. Build output goes to stderr;
the last line of stdout is the benchmark's JSON result. Scratch data lives
in the build directory and is removed when the run ends.

Extra flags for experiments (the defaults are the benchmark):
  --scale PERCENT        graph size, percent of the ~200k-vertex default
  --inject PLAN          fault plan re-armed before every job, e.g.
                         delay@compute:p0:x100:d1000 (sensitivity check)
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generation, set-up and the oracle come on top of the measured seconds.
OVERHEAD_BUDGET_S = 120


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no tsgraph sources at {os.path.join(ROOT, 'src')}; "
            "run from a full checkout")
        return None
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int)
    parser.add_argument("--inject")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    data_dir = os.path.join(build_dir, f"data-{os.getpid()}")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--data-dir={data_dir}"]
    for flag in ("scale", "inject"):
        value = getattr(args, flag)
        if value is not None:
            cmd.append(f"--{flag}={value}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + OVERHEAD_BUDGET_S)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish in time")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
