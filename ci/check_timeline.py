#!/usr/bin/env python3
"""Timeline gate for the live-telemetry subsystem.

Validates a --timeline= JSON artifact produced by a telemetry-on run:

  * schema_version is the supported version (1);
  * timestamps are strictly monotonic and the sample count is plausible
    for the run's cadence;
  * every --require-series name is present (use NAME or NAME@PARTITION);
  * every --require-nonconstant series actually varies over the run —
    a flat cluster.ready_queue_depth means the sampler never caught the
    scheduler working, which is the regression this gate exists to catch.

The sampler's wall-clock cost is gated by ci/check_overhead.py.

Usage:
  check_timeline.py TIMELINE.json
      [--require-series NAME ...]
      [--require-nonconstant NAME ...]
"""

import argparse
import json
import sys

SUPPORTED_SCHEMA = 1


def find_series(doc, spec):
    """spec is NAME or NAME@PARTITION (default partition -1)."""
    name, _, part = spec.partition("@")
    partition = int(part) if part else -1
    for series in doc.get("series", []):
        if series.get("name") == name and series.get("partition") == partition:
            return series
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("timeline", help="--timeline= JSON artifact")
    parser.add_argument("--require-series", action="append", default=[])
    parser.add_argument("--require-nonconstant", action="append", default=[])
    args = parser.parse_args()

    with open(args.timeline) as f:
        doc = json.load(f)

    errors = []

    if doc.get("schema_version") != SUPPORTED_SCHEMA:
        errors.append(
            f"schema_version {doc.get('schema_version')} != {SUPPORTED_SCHEMA}"
        )

    t_ms = doc.get("t_ms", [])
    if not t_ms:
        errors.append("timeline has no samples")
    for i in range(1, len(t_ms)):
        if not t_ms[i] > t_ms[i - 1]:
            errors.append(
                f"timestamps not strictly monotonic at sample {i}: "
                f"{t_ms[i - 1]} -> {t_ms[i]}"
            )
            break

    for series in doc.get("series", []):
        if len(series.get("values", [])) != len(t_ms):
            errors.append(
                f"series {series.get('name')} length "
                f"{len(series.get('values', []))} != time axis {len(t_ms)}"
            )

    for spec in args.require_series:
        if find_series(doc, spec) is None:
            errors.append(f"required series missing: {spec}")

    for spec in args.require_nonconstant:
        series = find_series(doc, spec)
        if series is None:
            errors.append(f"required series missing: {spec}")
        elif len(set(series.get("values", []))) <= 1:
            errors.append(f"series is constant over the run: {spec}")

    produced = doc.get("produced_samples", 0)
    print(
        f"timeline: {len(t_ms)} samples, "
        f"{len(doc.get('series', []))} series, produced={produced}, "
        f"missed_ticks={doc.get('missed_ticks', 0)}"
    )

    if errors:
        for err in errors:
            print(f"check_timeline: FAIL: {err}")
        return 1
    print("check_timeline: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
