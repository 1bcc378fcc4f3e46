"""Self-test of the benchmark harness.

  python3 perfbench/selftest.py

Checks that self times computed from a synthetic span tree add up to the
root span's time and that the speed calibration scales synthetic samples as
documented, then runs all four workloads at smoke size on a second
seed, untraced and traced, and checks that every metric BENCHMARK.json names
is emitted with its unit, that no instance failed (fail_frac = 0) and that
the outputs matched the reference.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SEED = 2

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import speed  # noqa: E402


def check_span_tree() -> None:
    # root [0, 20]: a [1, 9] holds b [2, 5] and a nested a [6, 8];
    # c [10, 19] holds b [11, 17].
    events = [("enter", "bench.unit", "bench", 0),
              ("enter", "L1.a", "L1", 1), ("enter", "L2.b", "L2", 2),
              ("exit", 5), ("enter", "L1.a", "L1", 6), ("exit", 8), ("exit", 9),
              ("enter", "L3.c", "L3", 10), ("enter", "L2.b", "L2", 11),
              ("exit", 17), ("exit", 19), ("exit", 20)]
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])
    for ev in events:
        now[0] = float(ev[-1])
        if ev[0] == "enter":
            tracer.enter(ev[1], ev[2])
        else:
            tracer.exit()
    assert tracer.root_s == 20.0, tracer.root_s
    assert abs(sum(tracer.self_s.values()) - tracer.root_s) < 1e-12
    assert abs(sum(tracer.layer_self_s.values()) - tracer.root_s) < 1e-12
    expected_self = {"bench.unit": 3.0, "L1.a": 3.0 + 2.0, "L2.b": 3.0 + 6.0,
                     "L3.c": 3.0}
    assert dict(tracer.self_s) == expected_self, dict(tracer.self_s)
    assert tracer.incl_s["L1.a"] == 8.0  # the nested a is not counted twice
    assert tracer.calls["L1.a"] == 2 and tracer.calls["L2.b"] == 2
    assert tracer.layer_incl_s["L2"] == 9.0
    print("span tree: self times add up to the root span")


def check_calibration() -> None:
    # the kernel ran 2x its reference time in the two samples within a
    # second of an instance of 2 s, and 9x in two further away
    r = speed.REFERENCE_S
    cal = speed.Calibration()
    cal.samples = [(-5.0, -4.9, 9 * r), (0.2, 0.5, 2 * r), (3.2, 3.5, 2 * r),
                   (4.5, 4.8, 9 * r)]
    assert abs(cal.scaled(1.0, 3.0, 0.0) - 1.0) < 1e-12  # optimizer-bound
    assert abs(cal.scaled(1.0, 3.0, 1.0) - 2.0) < 1e-12  # dense: unscaled
    assert abs(cal.scaled(1.0, 3.0, 0.5) - 2.0 / 1.5) < 1e-12
    print("calibration: latencies scale by the samples around them")


def check_smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload["name"], "--seed", str(SMOKE_SEED), "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            label = f"{workload['name']} --trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], f"{label}: incorrect\n{proc.stdout}"
            assert result["failed"] == 0 and result["attempted"] >= 1, label
            got = result["metrics"]
            assert set(got) == {m["name"] for m in names}, (
                f"{label}: metrics differ: {set(got) ^ {m['name'] for m in names}}")
            for m in names:
                assert got[m["name"]]["unit"] == m["unit"], (label, m["name"])
                assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
            if trace == 0:
                assert got["pass_frac"]["value"] == 1.0, label  # fail_frac = 0
            print(f"{label}: {len(got)} metrics, {result['attempted']} instances, "
                  "all correct")


if __name__ == "__main__":
    check_span_tree()
    check_calibration()
    check_smoke()
    print("self-test passed")
