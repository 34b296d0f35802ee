#!/usr/bin/env python3
"""Wall-clock overhead gate for an observability feature.

Takes N feature-off and N feature-on `--json=` run stats of the same
workload, run as interleaved pairs, and compares the medians of their
`wall_clock_ns`. The gate fails when the on-median exceeds the off-median

  * by more than --max-overhead-pct of the off-median, and
  * by more than the off runs' own range, max - min (the noise floor: a
    gap the feature-off runs show among themselves is not overhead).

Both must hold, so a true overhead above the percentage fails once it
rises above the run-to-run spread, and the floor scales with the noise of
the host instead of being a fixed number of milliseconds. The range, not
the interquartile range, sets the floor: over five runs the IQR rests on
two order statistics and swings several-fold between identical runs, so
it let noise alone fail the gate.

Usage:
  check_overhead.py --label sampler --off off_*.json --on on_*.json
      [--max-overhead-pct 2]
"""

import argparse
import json
import statistics
import sys


def walls_ms(paths):
    walls = []
    for path in paths:
        with open(path) as f:
            walls.append(json.load(f)["wall_clock_ns"] / 1e6)
    return walls


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", default="feature",
                        help="what is switched on, for the report")
    parser.add_argument("--off", nargs="+", required=True,
                        help="--json= stats of the feature-off runs")
    parser.add_argument("--on", nargs="+", required=True,
                        help="--json= stats of the feature-on runs")
    parser.add_argument("--max-overhead-pct", type=float, default=2.0)
    args = parser.parse_args()

    if len(args.off) != len(args.on):
        print(f"check_overhead: FAIL: {len(args.off)} off runs but "
              f"{len(args.on)} on runs; pass interleaved pairs")
        return 1

    off = walls_ms(args.off)
    on = walls_ms(args.on)
    off_med = statistics.median(off)
    on_med = statistics.median(on)
    overhead_ms = on_med - off_med
    overhead_pct = 100.0 * overhead_ms / off_med if off_med > 0 else 0.0
    floor_ms = max(off) - min(off)

    print(f"{args.label} off: median {off_med:.1f} ms "
          f"(range {min(off):.1f}-{max(off):.1f}) over {len(off)} runs")
    print(f"{args.label} on:  median {on_med:.1f} ms "
          f"(range {min(on):.1f}-{max(on):.1f}) over {len(on)} runs")
    print(f"{args.label} overhead: {overhead_ms:+.1f} ms "
          f"({overhead_pct:+.2f}%); limit {args.max_overhead_pct}% and the "
          f"off runs' range {floor_ms:.1f} ms")

    if overhead_pct > args.max_overhead_pct and overhead_ms > floor_ms:
        print(f"check_overhead: FAIL: {args.label} overhead "
              f"{overhead_pct:.2f}% exceeds {args.max_overhead_pct}% and "
              f"{overhead_ms:.1f} ms exceeds the {floor_ms:.1f} ms noise "
              f"floor")
        return 1
    print("check_overhead: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
