#!/usr/bin/env python3
"""Rendezvous-elimination gate for the async schedule.

Compares the rendezvous wait (barrier + ready) of a BSP run and an async
run of the same workload: cluster.barrier_wait_ns + engine.ready_wait_ns,
summed over partitions. Fails unless the async rendezvous wait is at least
--min-reduction percent lower.

It also prints, ungated, cluster.seal_wait_ns and the full wait (barrier +
ready + seal) of both runs with its own reduction. Seal wait stays outside
the gate on purpose: it is an async worker's idle time until its wave's
last task ends and the wave seals. Stealing removes the barrier
rendezvous, not the wait for a wave's slowest task, so the gate reads only
the wait that stealing can remove.

Both inputs are tsgcli --json documents (runStatsToJson schema). The wait
counters live in the "metrics" array as registry deltas.

Usage: check_wait_reduction.py BSP.json ASYNC.json [--min-reduction=40]
"""

import argparse
import json
import sys


def metric_total(doc, name):
    total = 0
    for point in doc.get("metrics", []):
        if point.get("name") == name and point.get("kind") != "gauge":
            total += point.get("value", 0)
    return total


def waits_ms(doc):
    """(barrier, ready, seal) wait of one run, in ms."""
    return tuple(metric_total(doc, name) / 1e6 for name in (
        "cluster.barrier_wait_ns", "engine.ready_wait_ns",
        "cluster.seal_wait_ns"))


def reduction_pct(bsp, asy):
    return 100.0 * (1.0 - asy / bsp) if bsp > 0 else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("bsp", help="BSP run JSON (tsgcli --json output)")
    parser.add_argument("asynch", help="async run JSON")
    parser.add_argument("--min-reduction", type=float, default=40.0)
    args = parser.parse_args()

    with open(args.bsp) as f:
        bsp = json.load(f)
    with open(args.asynch) as f:
        asy = json.load(f)

    bsp_barrier, bsp_ready, bsp_seal = waits_ms(bsp)
    asy_barrier, asy_ready, asy_seal = waits_ms(asy)
    bsp_rendezvous = bsp_barrier + bsp_ready
    asy_rendezvous = asy_barrier + asy_ready
    if bsp_rendezvous <= 0:
        print("FAIL: BSP run recorded no barrier wait — wrong input file?")
        return 1

    for label, barrier, ready, seal in (
        ("BSP  ", bsp_barrier, bsp_ready, bsp_seal),
        ("async", asy_barrier, asy_ready, asy_seal),
    ):
        print(
            f"{label} rendezvous wait (barrier + ready) "
            f"{barrier + ready:.3f} ms (barrier {barrier:.3f}, "
            f"ready {ready:.3f}); seal wait {seal:.3f} ms; "
            f"full wait {barrier + ready + seal:.3f} ms"
        )
    print(
        f"steals {metric_total(asy, 'cluster.steals')}, "
        f"skipped rounds {metric_total(asy, 'cluster.barrier_skips')}, "
        f"waves {metric_total(asy, 'cluster.waves')}"
    )
    full = reduction_pct(bsp_rendezvous + bsp_seal, asy_rendezvous + asy_seal)
    print(f"full wait reduction (barrier + ready + seal, not gated) "
          f"{full:.1f}%")
    reduction = reduction_pct(bsp_rendezvous, asy_rendezvous)
    print(f"rendezvous wait reduction (barrier + ready) {reduction:.1f}% "
          f"(gate: >= {args.min_reduction:.0f}%)")
    if reduction < args.min_reduction:
        print("FAIL")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
