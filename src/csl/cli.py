"""Command-line verification suites.

Every subcommand is a pure function of (config, seed): artifacts are written
atomically, floats carry 17 significant digits, and a run summary goes to
stdout as JSON.  Runtime appears only in the stdout summary, never in the
artifacts, so identical configs produce byte-identical files.

Exit codes: 0 all assertions pass, 1 assertion failure (summary carries a
machine-readable failure record), 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import convexsplit, divergences, infomeasures, matcore, protocols, smoothing


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def _atomic_write(path: str, text: str) -> None:
    """Write through a unique, fsynced temp file in the target directory.

    Concurrent writers to one path never share a temp file, a reader sees
    either the old or the new file, and a failed write leaves no temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp's 0600 would stick to the artifact
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_summary(suite: str, results: list, runtime: float) -> dict:
    """Aggregate (ok, violation) pairs; order-independent by construction."""
    if not results:
        raise ConfigError("empty result set")
    n_pass = sum(1 for ok, _ in results if ok)
    return {
        "suite": suite,
        "samples": len(results),
        "pass_rate": n_pass / len(results),
        "max_violation": max(v for _, v in results),
        "runtime": runtime,
    }


def _parallel_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _load_state_matrix(path: str):
    with open(path) as fh:
        data = json.load(fh)
    return matcore.state_from_dict(data)


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.replace("x", ",").split(",")
    if len(parts) != 2:
        raise ConfigError(f"dims must be two integers, got {text!r}")
    return int(parts[0]), int(parts[1])


# --- suites -----------------------------------------------------------------

def run_convex_split(cfg) -> tuple[list, list, list]:
    dR, dA = _parse_dims(cfg["dims"])
    n_max = int(cfg.get("n_max", 5))
    samples = int(cfg["samples"])
    seed = int(cfg["seed"])
    tol_res = float(cfg.get("tol_residual", 1e-10))
    tol_slack = float(cfg.get("tol_slack", 1e-8))

    def one(i):
        s = seed + 1000 * i
        rho = matcore.sample("rank-limited", matcore.RegisterLayout.of(("R", dR), ("A", dA)),
                             s, rank=1 + i % (dR * dA)).matrix
        sigma = matcore.sample("mixed-hilbert-schmidt", dA, s + 1).matrix
        n = 1 + i % n_max
        rng = np.random.default_rng(s + 2)
        weights = None
        if i % 2:
            w = rng.random(n)
            weights = w / w.sum()
        inst = convexsplit.ConvexSplitInstance(rho, sigma, np.eye(dR) / dR, n,
                                               (dR, dA), weights)
        rep = convexsplit.bounds_report(inst)
        ly = convexsplit.ly2024_compare(inst, 0.5)
        slack = {k: rep.bounds[k][1] - rep.bounds[k][0] for k in rep.bounds}
        ok = rep.residual <= tol_res and all(v >= -tol_slack for v in slack.values())
        violation = max(rep.residual - tol_res,
                        max(-v for v in slack.values()))
        row = [i, n, rep.t, rep.q2_lhs, rep.q2_rhs, rep.residual,
               rep.mu, rep.mu_max, rep.nu_n, slack["gmain0"], slack["split9"],
               slack["pmu0"], ly.details["exact_identity_tighter"]]
        return row, ok, violation

    out = _parallel_map(one, range(samples), int(cfg.get("threads", 1)))
    header = ["instance_id", "n", "t", "q2_lhs", "q2_rhs", "residual", "mu",
              "mu_max", "nu_n", "slack_gmain0", "slack_split9", "slack_pmu0",
              "ly2024_tighter"]
    rows = [r for r, _, _ in out]
    results = [(ok, v) for _, ok, v in out]
    return header, rows, results


def run_uab(cfg) -> tuple[list, list, list]:
    dA, dB = _parse_dims(cfg["dims"])
    samples = int(cfg["samples"])
    seed = int(cfg["seed"])
    alpha = float(cfg.get("alpha", 0.5))
    beta = float(cfg.get("beta", 2.0))
    eps = float(cfg.get("eps", 0.1))

    def one(i):
        s = seed + 1000 * i
        rho = matcore.sample("mixed-hilbert-schmidt",
                             matcore.RegisterLayout.of(("A", dA), ("B", dB)), s).matrix
        rep = smoothing.uab_chain_verify(rho, (dA, dB), alpha, beta, eps)
        worst = max(st.lhs - st.rhs for st in rep.steps)
        row = [i, alpha, beta, eps, rep.imax_truncated, rep.rhs_final,
               rep.rhs_final - rep.imax_truncated, rep.passed]
        return row, rep.passed, worst

    out = _parallel_map(one, range(samples), int(cfg.get("threads", 1)))
    header = ["instance_id", "alpha", "beta", "eps", "imax_upper", "rhs",
              "slack", "certified"]
    return header, [r for r, _, _ in out], [(ok, v) for _, ok, v in out]


def run_bounds_sweep(cfg) -> tuple[list, list, list]:
    which = cfg.get("sweep", "uab")
    dA, dB = _parse_dims(cfg["dims"])
    samples = int(cfg["samples"])
    seed = int(cfg["seed"])
    alpha = float(cfg.get("alpha", 0.5))
    beta = float(cfg.get("beta", 2.0))
    eps = float(cfg.get("eps", 0.1))
    header = ["instance_id", "alpha", "beta", "eps", "imax_upper", "rhs",
              "slack", "certified"]

    def one_uab(i):
        s = seed + 1000 * i
        rho = matcore.sample("mixed-hilbert-schmidt",
                             matcore.RegisterLayout.of(("A", dA), ("B", dB)), s).matrix
        cache = {}
        est = infomeasures.imax_smoothed_upper(rho, eps, (dA, dB), alpha=alpha,
                                               cache=cache)
        rhs = infomeasures.universal_rhs(rho, (dA, dB), alpha, beta, eps,
                                         cache=cache)
        ok = est.value_bits <= rhs + 1e-7
        row = [i, alpha, beta, eps, est.value_bits, rhs, rhs - est.value_bits, ok]
        return row, ok, est.value_bits - rhs

    def one_rld(i):
        s = seed + 1000 * i
        rho = matcore.sample("mixed-hilbert-schmidt", dA * dB, s).matrix
        sigma = matcore.sample("mixed-hilbert-schmidt", dA * dB, s + 1).matrix
        rep = infomeasures.check_rld_bound(rho, sigma, eps, beta)
        row = [i, alpha, beta, eps, rep.lhs, rep.rhs, rep.slack, rep.ok]
        return row, rep.ok, rep.lhs - rep.rhs

    one = {"uab": one_uab, "rld": one_rld}.get(which)
    if one is None:
        raise ConfigError(f"unknown sweep {which!r}")
    out = _parallel_map(one, range(samples), int(cfg.get("threads", 1)))
    return header, [r for r, _, _ in out], [(ok, v) for _, ok, v in out]


def run_qss_sim(cfg) -> tuple[dict, list]:
    state = _load_state_matrix(cfg["state"])
    if not isinstance(state, matcore.PureStateVector):
        raise ConfigError("qss-sim needs a pure state file (vector field)")
    dims = state.layout.dims
    if len(dims) != 3:
        raise ConfigError("qss-sim state must have three registers (R, A, A')")
    inst = protocols.QSSInstance(state.amplitudes, dims,
                                 float(cfg.get("eps", 0.6)),
                                 float(cfg.get("delta", 0.5)))
    res = protocols.qss_simulate(inst, seed=int(cfg["seed"]))
    record = {
        "n": res.n,
        "n_unclamped": res.n_unclamped,
        "cost_bits": res.cost_bits,
        "achieved_distance": res.achieved_distance,
        "distance_bound": res.distance_bound,
        "mu": res.mu,
        "i2_bits": res.i2_bits,
        "bound_ok": bool(res.bound_ok),
        "branch_probs": [float(p) for p in res.branch_probs],
        "sigma_opt": np.stack([res.sigma_opt.real, res.sigma_opt.imag],
                              axis=-1).tolist(),
    }
    return record, [(bool(res.bound_ok), res.achieved_distance - res.distance_bound)]


def run_divergence(cfg) -> tuple[dict, list]:
    alpha_raw = cfg["alpha"]
    alpha = math.inf if str(alpha_raw) in ("inf", "Infinity") else float(alpha_raw)
    rho = matcore._as_matrix(_load_state_matrix(cfg["rho"]))
    sigma = matcore._as_matrix(_load_state_matrix(cfg["sigma"]))
    value, branch = divergences.d_alpha_with_branch(rho, sigma, alpha)
    record = {"alpha": "inf" if math.isinf(alpha) else alpha,
              "value_bits": value, "branch": branch}
    return record, [(True, 0.0)]


def run_rev_shannon(cfg) -> tuple[dict, list]:
    with open(cfg["channel"]) as fh:
        data = json.load(fh)
    kraus = [np.asarray(K, dtype=float) if np.asarray(K).ndim == 2
             else np.asarray(K)[..., 0] + 1j * np.asarray(K)[..., 1]
             for K in data["kraus"]]
    spec = protocols.ChannelSpec(kraus, int(data["dim_in"]), int(data["dim_out"]))
    alpha = float(cfg.get("alpha", 0.5))
    beta = float(cfg.get("beta", 2.0))
    eps = float(cfg.get("eps", 0.1))
    n = int(cfg.get("n", 10))
    rhs, delta_n = protocols.reverse_shannon_bound(spec, alpha, beta, eps, n,
                                                   seed=int(cfg["seed"]))
    record = {"alpha": alpha, "beta": beta, "eps": eps, "n": n,
              "bits_per_use": rhs, "delta_n": delta_n}
    return record, [(True, 0.0)]


# --- plumbing ---------------------------------------------------------------

_FLAG_SPECS = {
    "verify-convex-split": [("dims", str), ("n-max", int), ("samples", int)],
    "verify-uab": [("dims", str), ("samples", int), ("alpha", float),
                   ("beta", float), ("eps", float)],
    "bounds-sweep": [("suite", str), ("dims", str), ("samples", int),
                     ("alpha", float), ("beta", float), ("eps", float)],
    "qss-sim": [("state", str), ("eps", float), ("delta", float)],
    "divergence": [("alpha", str), ("rho", str), ("sigma", str)],
    "rev-shannon": [("channel", str), ("alpha", float), ("beta", float),
                    ("eps", float), ("n", int)],
}

_REQUIRED = {
    "verify-convex-split": ["dims", "samples"],
    "verify-uab": ["dims", "samples"],
    "bounds-sweep": ["dims", "samples"],
    "qss-sim": ["state"],
    "divergence": ["alpha", "rho", "sigma"],
    "rev-shannon": ["channel"],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAG_SPECS.items():
        p = sub.add_parser(name)
        for flag, typ in flags:
            p.add_argument(f"--{flag}", type=typ, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def _merge_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key.replace("-", "_")] = value
    if "suite" in cfg and args.command == "bounds-sweep":
        cfg["sweep"] = cfg.pop("suite")
    if cfg.get("seed") is None:
        raise ConfigError("seed is mandatory")
    if "samples" in cfg and int(cfg["samples"]) < 1:
        raise ConfigError("samples must be >= 1")
    if cfg.get("threads") is None:
        cfg["threads"] = int(os.environ.get("CSL_THREADS", "1"))
    return cfg


_CSV_SUITES = {
    "verify-convex-split": ("convex-split", run_convex_split),
    "verify-uab": ("uab", run_uab),
    "bounds-sweep": ("bounds", run_bounds_sweep),
}

_JSON_SUITES = {
    "qss-sim": ("qss", run_qss_sim),
    "divergence": ("divergence", run_divergence),
    "rev-shannon": ("rev-shannon", run_rev_shannon),
}


def run_suite(command: str, cfg: dict) -> int:
    t0 = time.time()
    if command in _CSV_SUITES:
        suite, fn = _CSV_SUITES[command]
        for key in _REQUIRED[command]:
            if key not in cfg:
                raise ConfigError(f"missing required option --{key}")
        header, rows, results = fn(cfg)
        if cfg.get("out"):
            _write_csv(cfg["out"], header, rows)
        summary = emit_summary(suite, results, time.time() - t0)
    else:
        suite, fn = _JSON_SUITES[command]
        for key in _REQUIRED[command]:
            if key not in cfg:
                raise ConfigError(f"missing required option --{key}")
        record, results = fn(cfg)
        if cfg.get("out"):
            _atomic_write(cfg["out"], json.dumps(record, indent=2,
                                                 sort_keys=True) + "\n")
        summary = emit_summary(suite, results, time.time() - t0)
        summary["result"] = record
    passed = summary["pass_rate"] == 1.0
    if not passed:
        summary["failure"] = {
            "kind": "assertion",
            "pass_rate": summary["pass_rate"],
            "max_violation": summary["max_violation"],
        }
    print(json.dumps(summary, default=float))
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        return run_suite(args.command, cfg)
    except (ConfigError, matcore.ContractViolation, OSError, KeyError,
            ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
