"""csl benchmark: one workload, one closed-loop caller, metrics as JSON.

Run from the root of a checkout:

  python3 perfbench/run.py --workload uab-grid --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload uab-grid --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --workload uab-grid --seed 2 --trace 0 --smoke

--trace 0 prints the end-to-end metrics (instance times at the reference
speed of speed.py), --trace 1 the per-layer metrics of a traced pass.  --smoke shrinks every workload to a few instances (self-test).

The last line of stdout is the result object; the lines before it record the
environment and a human-readable summary.  Exit code 0 means a result was
printed; anything else (no program to benchmark, a crash, a timeout) prints
no result.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import uuid
from pathlib import Path

import speed
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uab-grid", "split-bounds", "qss-protocol", "divergence-sweep")
SETUPS = 3  # fresh processes whose set-up time gives the median setup_s
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1  # pinned, <= nproc


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("CSL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def nearest_rank(values, q: float) -> float:
    """The ceil(q * N)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def line_counts(path: Path) -> dict:
    """Code, comment (comments and docstrings) and blank lines of a module."""
    text = path.read_text()
    lines = text.splitlines()
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    comment = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            comment.add(tok.start[0])
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            comment.update(range(body[0].lineno, body[0].end_lineno + 1))
    comment -= blank
    return {"loc": len(lines) - len(blank) - len(comment),
            "loc_comment": len(comment), "loc_blank": len(blank)}


def static_metrics() -> dict:
    out = {}
    for layer in LAYERS:
        path = ROOT / "src" / "csl" / f"{layer}.py"
        counts = line_counts(path) if path.exists() else dict.fromkeys(
            ("loc", "loc_comment", "loc_blank"), 0)
        for key, value in counts.items():
            out[f"{layer}.{key}"] = (value, "lines")
    return out


class ChildFailed(Exception):
    pass


def run_child(args, mode: str, tmp: Path, deadline: float) -> dict:
    out = tmp / f"{mode}-{uuid.uuid4().hex}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--tmp", str(tmp), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as fh:
        result = json.load(fh)
    expected = ROOT / "src" / "csl"
    if Path(result["csl_file"]).resolve().parent != expected.resolve():
        raise ChildFailed(f"imported csl from {result['csl_file']}, not {expected}")
    return result


def end_to_end(args, tmp: Path, deadline: float):
    """End-to-end metrics; instance times are at the reference speed."""
    setups = [run_child(args, "setup", tmp, deadline)
              for _ in range(1 if args.smoke else SETUPS - 1)]
    res = run_child(args, "run", tmp, deadline)
    setups.append(res)
    lat_ms = [1e3 * s for s in res["scaled_latencies_s"]]  # certified only
    n = len(lat_ms)
    if not n:
        raise ChildFailed("no instance certified:\n" + "\n".join(res["failures"][:10]))
    failures = [f for s in setups for f in s["warmup_failures"]] + res["failures"]
    failed_instances = res["failed"]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "instances_per_s": (n / res["busy_s"], "1/s"),
        "instance_ms_p50": (nearest_rank(lat_ms, 0.5), "ms"),
        "instance_ms_p90": (nearest_rank(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "pass_frac": (1.0 - failed_instances / res["attempted"], "frac"),
    }
    beyond = n - math.ceil(0.9 * n)
    raw_ms = [1e3 * s for s in res["latencies_s"]]
    kernel_ms = [1e3 * s for s in res["kernel_s"]]
    summary = (f"{args.workload} seed={args.seed}: {n} instances certified in "
               f"{res['cycles']} cycles over {res['elapsed_s']:.2f} s; "
               f"p50/p90 are nearest-rank over N={n} "
               f"({beyond} samples beyond p90"
               f"{'' if beyond >= 10 else ', fewer than 10'}); "
               f"fail_frac={failed_instances / res['attempted']:g} "
               f"({failed_instances}/{res['attempted']}); "
               f"setup_s over {len(setups)} processes: "
               + ", ".join(f"{s['setup_s']:.3f}" for s in setups)
               + f"\n# as measured: instances_per_s={n / res['elapsed_s']:.4f} "
               f"p50={nearest_rank(raw_ms, 0.5):.1f} ms "
               f"p90={nearest_rank(raw_ms, 0.9):.1f} ms; speed kernel "
               f"{len(kernel_ms)} samples, median "
               f"{statistics.median(kernel_ms):.1f} ms, quartiles "
               + "-".join(f"{q:.1f}" for q in statistics.quantiles(kernel_ms, n=4)[::2])
               + f" (reference {1e3 * speed.REFERENCE_S:.1f})")
    return metrics, res, failures, res["attempted"], failed_instances, summary


def per_layer(args, tmp: Path, deadline: float):
    res = run_child(args, "trace", tmp, deadline)
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    metrics.update(static_metrics())
    failures = res["warmup_failures"] + res["failures"]
    summary = (f"{args.workload} seed={args.seed}: traced {res['instances']} "
               f"instances (one cycle), tracing overhead "
               f"{metrics['trace.overhead'][0]:.1%}")
    return metrics, res, failures, res["attempted"], res["failed"], summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "csl" / "__init__.py").is_file():
        print(f"no csl package under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    ref = HERE / "reference" / f"{args.workload}.json"
    if not ref.is_file():
        print(f"missing reference {ref}", file=sys.stderr)
        return 2

    # Run scratch stays inside the checkout; each run has its own directory.
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            measure = per_layer if args.trace else end_to_end
            metrics, res, failures, attempted, failed, summary = measure(
                args, Path(tmp), start + DEADLINE_S)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = dict(res["env"], nproc=os.cpu_count(), cpu=cpu_model(),
               blas_threads=BLAS_THREADS, csl_threads=1)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# " + summary)
    for reason in failures[:10]:
        print(f"# FAILED {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
