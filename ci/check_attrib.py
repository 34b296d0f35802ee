#!/usr/bin/env python3
"""CI gate for the cost-attribution profiler.

Takes the --json= stats of a run with the profiler on (--run, produced
with --profile=) and checks:

  * the profiler-on run carries an `attribution` block with the supported
    schema version;
  * conservation: inbound traffic totals equal outbound totals. (The cells
    need no comparison with the superstep records: the engine meters each
    subgraph unit once and charges its cell in the seal that commits its
    record part, and tests/test_profile.cc asserts that per partition for
    every algorithm, fault-free and recovered);
  * the measured wait blame in the superstep records conserves the
    scheduler meters in the run's `metrics` delta: the parts'
    wait_caused_ns sum to cluster.barrier_wait_ns + engine.ready_wait_ns
    + cluster.seal_wait_ns, and their `stolen` flags sum to cluster.steals
    (an async run steals, so this covers the steal path that small test
    graphs may never take);
  * sketch sanity: every heavy hitter's error is bounded by its weight and
    by the sketch's total weight.

The profiler's wall-clock cost is gated by ci/check_overhead.py.

Usage:
  check_attrib.py --run attrib.json
"""

import argparse
import json
import sys

RUN_SCHEMA = 2  # runStatsToJson's schema_version
SUPPORTED_SCHEMA = 3  # the attribution block's schema_version


def blame_totals(doc):
    """Run totals of (wait caused ns, stolen tasks) over the records' parts."""
    caused = 0
    stolen = 0
    for rec in doc.get("supersteps", []):
        for part in rec.get("parts", []):
            caused += part["wait_caused_ns"]
            stolen += part["stolen"]
    return caused, stolen


def metric_total(doc, name):
    """A counter summed over partitions in the run's metrics delta."""
    return sum(m.get("value", 0) for m in doc.get("metrics", [])
               if m.get("name") == name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--run", required=True,
                        help="--json= stats of the profiler-on run")
    args = parser.parse_args()

    with open(args.run) as f:
        run = json.load(f)

    errors = []

    if run.get("schema_version") != RUN_SCHEMA:
        print(f"check_attrib: FAIL: run schema_version "
              f"{run.get('schema_version')} != {RUN_SCHEMA}")
        return 1
    attrib = run.get("attribution")
    if attrib is None:
        print("check_attrib: FAIL: profiler-on run has no attribution block")
        return 1
    if attrib.get("schema_version") != SUPPORTED_SCHEMA:
        errors.append(
            f"attribution schema_version {attrib.get('schema_version')} "
            f"!= {SUPPORTED_SCHEMA}"
        )

    # Row cells are fixed-order arrays: [compute_ns, computes, msgs_out,
    # bytes_out].
    out_msgs = sum(c[2] for row in attrib.get("rows", []) for c in row)
    out_bytes = sum(c[3] for row in attrib.get("rows", []) for c in row)
    in_msgs = sum(attrib.get("msgs_in", []))
    in_bytes = sum(attrib.get("bytes_in", []))
    if in_msgs != out_msgs:
        errors.append(f"inbound messages {in_msgs} != outbound {out_msgs}")
    if in_bytes != out_bytes:
        errors.append(f"inbound bytes {in_bytes} != outbound {out_bytes}")

    blamed_ns, victims = blame_totals(run)
    waited_ns = (metric_total(run, "cluster.barrier_wait_ns") +
                 metric_total(run, "engine.ready_wait_ns") +
                 metric_total(run, "cluster.seal_wait_ns"))
    if blamed_ns != waited_ns:
        errors.append(
            f"wait caused {blamed_ns} ns in the records != barrier + ready "
            f"+ seal wait {waited_ns} ns in the metrics delta"
        )
    steals = metric_total(run, "cluster.steals")
    if victims != steals:
        errors.append(f"stolen tasks {victims} in the records != "
                      f"cluster.steals {steals}")

    for name, weight_key in (("hot_compute", "sketch_weight_compute"),
                             ("hot_fanout", "sketch_weight_fanout")):
        total = attrib.get(weight_key, 0)
        for hot in attrib.get(name, []):
            if hot.get("error", 0) > hot.get("weight", 0):
                errors.append(
                    f"{name} vertex {hot.get('vertex')}: error "
                    f"{hot.get('error')} exceeds weight {hot.get('weight')}"
                )
            if hot.get("weight", 0) > total:
                errors.append(
                    f"{name} vertex {hot.get('vertex')}: weight "
                    f"{hot.get('weight')} exceeds sketch total {total}"
                )

    print(f"measured blame: {blamed_ns / 1e6:.1f} ms of wait caused, "
          f"{victims} stolen tasks")
    print(
        f"attribution: {len(attrib.get('subgraphs', []))} subgraphs, "
        f"{attrib.get('num_rows', 0)} rows, "
        f"{len(attrib.get('hot_compute', []))} hot-compute / "
        f"{len(attrib.get('hot_fanout', []))} hot-fanout vertices"
    )

    if errors:
        for err in errors:
            print(f"check_attrib: FAIL: {err}")
        return 1
    print("check_attrib: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
