#!/usr/bin/env python3
"""Interleaved A/B (or A/A) runs of perfbench between two checkouts.

    tools/ab.py --workload meme-stream --pairs 10 PARENT CHANGE
    tools/ab.py --workload tdsp-road --pairs 10 --aa PARENT

PARENT and CHANGE are each a git revision of this repository or the path
of a checkout directory (`.` is the working tree). A revision is exported
with `git archive` into --work-dir, so the measured files are exactly the
committed ones and no worktree is left registered. Each side is built by
its own perfbench/run.py into its own CARGO_TARGET_DIR under --work-dir.

The script then runs N pairs, alternating which side goes first, and for
every metric prints each side's median and interquartile range, the change
of the medians, how many pairs the change won (by the metric's "better"
direction in BENCHMARK.json) and a two-sided sign-test p-value over the
untied pairs.

--aa runs one side against itself (one build, 2N runs in N pairs). An
end-to-end metric whose same-commit spread -- the gap between the two
medians or either side's IQR, relative to the median -- exceeds its
BENCHMARK.json bound is marked "unresolvable at this N": at this many
pairs a gap of the bound's size can come from noise alone.

The exported checkouts and builds are removed at the end. Exits 0 when
every run succeeded and reported correct, 1 otherwise.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(f"ab.py: {msg}", file=sys.stderr, flush=True)


def checkout(spec, work_dir, name):
    """Returns a directory holding the sources of `spec`."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          spec + "^{commit}"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    dest = os.path.join(work_dir, f"{name}-{rev[:12]}")
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {spec} failed")
    return dest


def run_once(src, target, args):
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=src, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py in {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def sign_test(wins, losses):
    """Two-sided exact binomial p-value of wins vs losses at p = 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {}
    for m in bench["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def fmt(v):
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return f"{v:.4g}"
    return f"{v:.3e}"


def report(pairs, aa):
    declared = declared_metrics()
    names = [n for n in declared if all(
        n in r["metrics"] for pair in pairs for r in pair)]
    a_name, b_name = ("A1", "A2") if aa else ("parent", "change")
    print(f"{len(pairs)} pairs; wins = pairs where {b_name} is better; "
          "p = two-sided sign test")
    header = (f"{'metric':40s} {a_name + ' median [IQR]':>28s} "
              f"{b_name + ' median [IQR]':>28s} {'change':>8s} "
              f"{'wins':>6s} {'p':>6s}")
    print(header)
    for name in names:
        better, bound = declared[name]
        a = [pair[0]["metrics"][name]["value"] for pair in pairs]
        b = [pair[1]["metrics"][name]["value"] for pair in pairs]
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        change = (mb - ma) / abs(ma) * 100 if ma != 0 else float("nan")
        line = (f"{name:40s} {fmt(ma):>10s} [{fmt(qa[0])}, {fmt(qa[1])}]"
                f"{'':>1s} {fmt(mb):>10s} [{fmt(qb[0])}, {fmt(qb[1])}] "
                f"{change:+7.1f}% {wins:>2d}/{len(pairs):<3d} "
                f"{sign_test(wins, losses):6.3f}")
        if aa and bound is not None:
            scale = abs(ma) if ma != 0 else 1.0
            spread = max(abs(mb - ma), qa[1] - qa[0], qb[1] - qb[0]) / scale
            if spread > bound:
                line += (f"  unresolvable at this N (spread {spread:.0%} > "
                         f"bound {bound:.0%})")
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="*", metavar="REV_OR_DIR")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".ab"))
    args = parser.parse_args()

    want = 1 if args.aa else 2
    if len(args.sides) != want or not args.workload or args.pairs < 1:
        parser.error(f"needs --workload, --pairs >= 1 and {want} "
                     "revision(s) or checkout directories")

    args.work_dir = os.path.abspath(args.work_dir)
    made_work_dir = not os.path.isdir(args.work_dir)
    os.makedirs(args.work_dir, exist_ok=True)
    specs = args.sides * 2 if args.aa else args.sides
    srcs = [checkout(s, args.work_dir, n) for s, n in zip(args.sides, "ab")]
    targets = [os.path.join(args.work_dir, f"target-{n}") for n in "ab"]
    if args.aa:  # one checkout and one build, run twice per pair
        srcs, targets = srcs * 2, targets[:1] * 2
    pairs = []
    ok = True
    try:
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                log(f"pair {i + 1}/{args.pairs}: "
                    f"{'ab'[side]} ({specs[side]})")
                results[side] = run_once(srcs[side], targets[side], args)
            if any(r is None or not r["correct"] or r["failed"]
                   for r in results):
                ok = False
                log(f"pair {i + 1}: a run failed or reported incorrect; "
                    "dropped")
                continue
            pairs.append(results)
    finally:
        for path in set(targets) | {p for p in srcs
                                    if p.startswith(args.work_dir + os.sep)}:
            shutil.rmtree(path, ignore_errors=True)
        if made_work_dir:
            shutil.rmtree(args.work_dir, ignore_errors=True)
    if pairs:
        report(pairs, args.aa)
    return 0 if ok and pairs else 1


if __name__ == "__main__":
    sys.exit(main())
