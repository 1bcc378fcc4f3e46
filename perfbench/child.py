"""One workload process: set-up, then a timed closed loop or a traced pass.

Started by run.py with the thread counts pinned; imports csl from the
checkout's src/ and writes one JSON result file.  Modes:

  setup   import csl, generate the inputs, run one warm-up instance
  run     set-up, then whole cycles back to back until --seconds have passed
  trace   set-up, then one cycle untraced and the same cycle traced

In the run mode, speed.py samples the host's speed between instances, and
the instance times are reported at its reference speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

def _environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def _run_units(wl, keys, tracer=None, calibration=None):
    """Run units back to back: [(key, raw output or None, intervals)], errors.

    Intervals are the (start, end, dense share) of the unit's instances; a unit
    that raises has no output and one interval, the whole unit.  With a
    calibration, a speed sample is taken before each unit that finds one due.
    """
    outputs, errors = [], []
    for key in keys:
        if calibration is not None and calibration.due():
            calibration.sample()
        if tracer is not None:
            tracer.enter("bench.unit", "bench")
        t0 = time.perf_counter()
        try:
            intervals, raw = wl.run(key, calibration)
            intervals = [(s, e, wl.dense_share(key, i))
                         for i, (s, e) in enumerate(intervals)]
        except Exception as exc:  # noqa: BLE001 - reported as failed instances
            intervals, raw = [(t0, time.perf_counter(), 0.0)], None
            errors.append(f"{key}: raised {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.exit()
        outputs.append((key, raw, intervals))
    return outputs, errors


def _check(wl, outputs, reference):
    """(attempted, intervals of the certified instances, failure reasons).

    An instance is certified when it ran, certified itself and matched the
    reference; every other attempted instance failed.
    """
    attempted, certified, failures = 0, [], []
    for key, raw, intervals in outputs:
        attempted += wl.instances_per_unit
        if raw is None:
            continue  # the reason was recorded when it raised
        try:
            reasons = [wl.check(rec, reference[key][i])
                       for i, rec in enumerate(wl.extract(key, raw))]
        except Exception as exc:  # noqa: BLE001 - malformed output fails its unit
            failures.append(f"{key}: output unreadable: {type(exc).__name__}: {exc}")
            continue
        if len(reasons) != len(intervals):
            failures.append(f"{key}: {len(reasons)} records for {len(intervals)} instances")
            continue
        for i, reason in enumerate(reasons):
            if reason:
                failures.append(f"{key}[{i}]: {reason}")
            else:
                certified.append(intervals[i])
    return attempted, certified, failures


def timed(wl, seconds: float, reference, calibration) -> dict:
    """Whole cycles until `seconds` have passed.

    A heavy workload's cycle is longer than the run, so it always runs one
    cycle; a rule that rounded to the nearest cycle would flip between one
    and two cycles with machine noise.

    Latencies are returned as measured and at the reference speed.
    ``busy_s`` is the time of every instance run, certified or not, at the
    reference speed.
    """
    outputs, errors = [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        out, err = _run_units(wl, wl.cycle(cycles), calibration=calibration)
        outputs += out
        errors += err
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    calibration.sample()  # every instance has a sample after it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, certified, failures = _check(wl, outputs, reference)
    busy_s = sum(calibration.scaled(s, e, w)
                 for _, _, intervals in outputs for s, e, w in intervals)
    return {"elapsed_s": elapsed, "cycles": cycles, "busy_s": busy_s,
            "latencies_s": [e - s for s, e, _ in certified],
            "scaled_latencies_s": [calibration.scaled(s, e, w)
                                   for s, e, w in certified],
            "kernel_s": calibration.durations(),
            "attempted": attempted, "failed": attempted - len(certified),
            "failures": errors + failures, "peak_rss_mb": peak_rss_mb}


def traced(wl, reference) -> dict:
    """The same fixed list untraced, then traced; per-layer metrics."""
    import numpy as np
    import scipy.optimize

    import csl
    import spans

    keys = wl.cycle(0)
    t0 = time.perf_counter()
    out_u, err_u = _run_units(wl, keys)
    untraced_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    modules = {layer: importlib.import_module(f"csl.{layer}")
               for layer in spans.LAYERS}
    installed = spans.Installation(tracer, csl, modules, np.linalg, scipy.optimize)
    try:
        out_t, err_t = _run_units(wl, keys, tracer)
    finally:
        installed.remove()
    traced_s = tracer.root_s

    attempted_u, cert_u, fail_u = _check(wl, out_u, reference)
    attempted_t, cert_t, fail_t = _check(wl, out_t, reference)
    metrics = spans.layer_metrics(tracer, traced_s)
    metrics["cli.artifact_bytes"] = (
        sum(wl.artifact_bytes(raw) for _, raw, _ in out_t if raw is not None), "B")
    metrics["trace.instances_per_s"] = (len(cert_t) / traced_s, "1/s")
    metrics["trace.untraced_instances_per_s"] = (len(cert_u) / untraced_s, "1/s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "frac")
    attempted = attempted_u + attempted_t
    return {"metrics": metrics, "instances": attempted_t, "attempted": attempted,
            "failed": attempted - len(cert_u) - len(cert_t),
            "failures": err_u + err_t + fail_u + fail_t}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import scipy

    import csl
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.tmp)
    wl.prepare()
    try:
        result = {"warmup_failures": wl.warmup()}
    except Exception as exc:  # noqa: BLE001 - reported, run is not correct
        result = {"warmup_failures": [f"warm-up raised {type(exc).__name__}: {exc}"]}
    setup_s = time.perf_counter() - t0
    result.update(csl_file=csl.__file__, env=_environment(np, scipy))
    result.update(setup_s=setup_s)
    if args.mode != "setup":
        with open(HERE / "reference" / f"{args.workload}.json") as fh:
            reference = json.load(fh)["instances"]
        if args.mode == "run":
            result.update(timed(wl, args.seconds, reference, speed.Calibration()))
        else:
            result.update(traced(wl, reference))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
