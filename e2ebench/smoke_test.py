#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at minimal size.

Run from the root of a checkout:

    python3 e2ebench/smoke_test.py

For every workload, runs the benchmark untraced and traced with
--minimal and checks that the run passes every output check, that every
metric BENCHMARK.json names is printed with its unit, that the work line
is identical for two untraced runs with one seed, and that the traced
unit's top-level spans plus unattributed_s equal its wall_s.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")

# Per workload, the per-layer metrics of the spans directly under a unit
# (a pass, a restart or an edit round); with unattributed_s they add up
# to wall_s.
TOP_LEVEL = {
    "cold_cascade": ["frontend.compile_s", "steensgaard.solve_s",
                     "cover.build_s", "fscs.run_s", "snapshot.build_s",
                     "query.first_touch_s", "query.warm_s", "teardown_s",
                     "bench.query_prep_s", "bench.check_prep_s"],
    "edit_serve": ["workload.generate_s", "frontend.compile_s",
                   "incremental.update_s", "racecheck.check_s",
                   "serve.publish_s", "query.first_touch_s", "query.warm_s",
                   "bench.query_prep_s", "bench.check_prep_s"],
}
TOP_LEVEL["warm_restart"] = TOP_LEVEL["cold_cascade"] + ["store.open_s"]


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--minimal"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, proc.returncode))
    tails, work, result = (json.loads(l) for l in lines[-3:])
    assert set(tails) == {"tails"}, tails
    assert set(work) == {"work"}, work
    return work["work"], result


def check_result(result, expected, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        what
    assert result["correct"] is True, (what, result)
    assert result["failed"] == 0 and result["attempted"] >= 1, (what, result)
    metrics = result["metrics"]
    for m in expected:
        assert m["name"] in metrics, (what, "missing", m["name"])
        assert metrics[m["name"]]["unit"] == m["unit"], (what, m["name"])
        value = metrics[m["name"]]["value"]
        assert isinstance(value, (int, float)), (what, m["name"])
    return metrics


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    failures = 0
    for wl in (w["name"] for w in spec["workloads"]):
        try:
            work, plain = run(wl, 0)
            e2e = check_result(plain, spec["end_to_end"], wl + " untraced")
            for m in spec["end_to_end"]:
                assert e2e[m["name"]]["value"] != 0, (wl, m["name"], "is 0")
            work_again, _ = run(wl, 0)
            assert work == work_again, (wl, "work differs between runs")

            _, traced = run(wl, 1)
            layers = check_result(traced, spec["per_layer"], wl + " traced")
            top = sum(layers[n]["value"] for n in TOP_LEVEL[wl])
            wall = layers["wall_s"]["value"]
            total = top + layers["unattributed_s"]["value"]
            assert wall > 0 and abs(total - wall) <= 1e-6 * wall + 1e-9, \
                (wl, "top-level spans + unattributed_s != wall_s", total,
                 wall)
            print("ok   %s" % wl)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (wl, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
