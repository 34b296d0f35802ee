#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json through run.py on ~2k-vertex graphs,
untraced and traced, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, every job correct;
  * the untraced run emits exactly the end_to_end metrics and the traced run
    exactly the per_layer metrics, each with its declared unit and a finite
    value, end-to-end values non-zero;
  * on the stream, the generator ran well inside the arrival window
    (stream.generator_late_ms_p90 < window) and no event was late.
Exits 0 when all hold, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "30", "--seconds", "1"]
# meme-stream's frozen open-loop rate (kOfferedRate in src/workloads.cc)
# and horizon; together with the events ingested they give the window.
OFFERED_RATE = 18000.0
TIMESTEPS = 50


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace), *TINY]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, declared):
    result = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    metrics = result["metrics"]
    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    assert not missing and not extra, f"{where}: missing {missing} extra {extra}"
    for name, unit in declared.items():
        entry = metrics[name]
        assert set(entry) == {"value", "unit"}, f"{where}: {name}"
        assert entry["unit"] == unit, f"{where}: {name} unit {entry['unit']}"
        assert math.isfinite(entry["value"]), f"{where}: {name} not finite"
        if trace == 0:
            assert entry["value"] != 0, f"{where}: {name} is 0"
    if trace == 1 and workload == "meme-stream":
        for s in ("bsp", "async"):
            events = metrics[f"stream.events_ingested.{s}"]["value"]
            window_ms = events / (TIMESTEPS * OFFERED_RATE) * 1e3
            late = metrics[f"stream.generator_late_ms_p90.{s}"]["value"]
            assert late < window_ms, f"{where}: generator {late} ms late"
            assert metrics[f"stream.late_events.{s}"]["value"] == 0, where
    print(f"ok  {where}: {len(metrics)} metrics, "
          f"{result['attempted']} jobs", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            check(workload, 0, end_to_end)
            check(workload, 1, per_layer)
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
