#!/usr/bin/env python3
"""Streaming-ingestion gate for `tsgcli stream` runs.

Parses the "stream summary:" block tsgcli prints and fails unless:

  * digest_match is "yes" (streamed == cold batch digest; needs --verify,
    and is not asked for in --rss-baseline mode),
  * sealed_timesteps equals --expect-timesteps (full horizon covered),
  * seal_queue_max_depth never exceeded seal_queue_capacity (the
    backpressure bound held),
  * subgraphs_skipped_incremental >= --min-skips (the incremental path
    actually elided clean subgraphs — a sparse stream must not recompute
    everything),
  * late_events == 0 (an in-order replay drops nothing), and
  * with --rss-baseline=FILE, peak_rss_mb exceeds the baseline run's
    peak_rss_mb by at most --max-rss-growth (a fraction): a longer stream
    of the same graph must not need more memory than a short one.

Usage: tsgcli stream ... --verify | tee stream.out
       check_stream.py stream.out [--expect-timesteps=N] [--min-skips=1]
       check_stream.py long.out --rss-baseline=short.out \\
           --max-rss-growth=0.25
"""

import argparse
import re
import sys


def parse_summary(text, need_digest=True):
    fields = {}
    for key in (
        "events_ingested",
        "late_events",
        "sealed_timesteps",
        "seal_queue_max_depth",
        "seal_queue_capacity",
        "subgraphs_skipped_incremental",
    ):
        m = re.search(rf"^\s*{key}:\s*(\d+)\s*$", text, re.MULTILINE)
        if m is None:
            raise SystemExit(f"check_stream: '{key}' missing from summary")
        fields[key] = int(m.group(1))
    m = re.search(r"^\s*peak_rss_mb:\s*([0-9.]+)\s*$", text, re.MULTILINE)
    fields["peak_rss_mb"] = float(m.group(1)) if m else None
    if not need_digest:
        return fields
    m = re.search(r"^\s*digest_match:\s*(\w+)\s*$", text, re.MULTILINE)
    if m is None:
        raise SystemExit(
            "check_stream: no digest_match line (run tsgcli stream with "
            "--verify)"
        )
    fields["digest_match"] = m.group(1)
    return fields


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("summary", help="captured tsgcli stream output")
    parser.add_argument("--expect-timesteps", type=int, default=None)
    parser.add_argument("--min-skips", type=int, default=1)
    parser.add_argument(
        "--rss-baseline",
        help="summary of a shorter run of the same graph; compare peaks",
    )
    parser.add_argument("--max-rss-growth", type=float, default=0.25)
    args = parser.parse_args()

    rss_mode = args.rss_baseline is not None
    with open(args.summary) as f:
        fields = parse_summary(f.read(), need_digest=not rss_mode)

    failures = []
    if rss_mode:
        with open(args.rss_baseline) as f:
            base = parse_summary(f.read(), need_digest=False)
        if fields["peak_rss_mb"] is None or base["peak_rss_mb"] is None:
            raise SystemExit("check_stream: 'peak_rss_mb' missing from summary")
        limit = base["peak_rss_mb"] * (1.0 + args.max_rss_growth)
        if fields["peak_rss_mb"] > limit:
            failures.append(
                f"peak RSS {fields['peak_rss_mb']:.1f} MB over "
                f"{fields['sealed_timesteps']} timesteps exceeds "
                f"{limit:.1f} MB ({base['peak_rss_mb']:.1f} MB over "
                f"{base['sealed_timesteps']} timesteps + "
                f"{args.max_rss_growth:.0%})"
            )
    elif fields["digest_match"] != "yes":
        failures.append("streamed digest diverges from the batch reference")
    if (
        args.expect_timesteps is not None
        and fields["sealed_timesteps"] != args.expect_timesteps
    ):
        failures.append(
            f"sealed {fields['sealed_timesteps']} timesteps, expected "
            f"{args.expect_timesteps}"
        )
    if fields["seal_queue_max_depth"] > fields["seal_queue_capacity"]:
        failures.append(
            f"seal queue depth {fields['seal_queue_max_depth']} exceeded "
            f"capacity {fields['seal_queue_capacity']}"
        )
    if fields["subgraphs_skipped_incremental"] < args.min_skips:
        failures.append(
            f"only {fields['subgraphs_skipped_incremental']} incremental "
            f"skips, expected >= {args.min_skips}"
        )
    if fields["late_events"] != 0:
        failures.append(f"{fields['late_events']} late events in an "
                        "in-order replay")

    if failures:
        for failure in failures:
            print(f"check_stream: FAIL: {failure}")
        return 1
    print(
        "check_stream: OK "
        f"(events={fields['events_ingested']}, "
        f"sealed={fields['sealed_timesteps']}, "
        f"queue_max={fields['seal_queue_max_depth']}/"
        f"{fields['seal_queue_capacity']}, "
        f"skips={fields['subgraphs_skipped_incremental']}"
        + (f", peak_rss_mb={fields['peak_rss_mb']:.1f}" if rss_mode else "")
        + ")"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
