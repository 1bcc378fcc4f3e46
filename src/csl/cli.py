"""Command-line verification suites.

Every subcommand is a pure function of (config, seed): artifacts are written
atomically, floats carry 17 significant digits, and a run summary goes to
stdout as JSON.  Runtime appears only in the stdout summary, never in the
artifacts, so identical configs produce byte-identical files.

Exit codes: 0 all assertions pass, 1 assertion failure or failed solver
certificate (summary carries a machine-readable failure record), 2
configuration error.
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


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def emit_summary(suite: str, results: list, runtime: float) -> dict:
    """Aggregate (ok, violation) pairs; order-independent by construction."""
    n_pass = sum(1 for ok, _ in results if ok)
    return {
        "suite": suite,
        "samples": len(results),
        "pass_rate": n_pass / len(results),
        "max_violation": max(v for _, v in results),
        "runtime": runtime,
    }


def _sampled(header: list, one, opts: dict) -> tuple[str, list, dict]:
    """The CSV of one(i, seed + 1000 i) -> (row, ok, violation) per sample.

    The samples run in order on the calling thread: on these small,
    Python-bound samples a thread pool measured no faster, so `--threads`
    is validated but changes nothing.
    """
    out = [one(i, opts["seed"] + 1000 * i) for i in range(opts["samples"])]
    return _csv_text(header, [r for r, _, _ in out]), [(ok, v) for _, ok, v in out], {}


def _option(cfg: dict, key: str, typ, default=None):
    """cfg[key], or default when absent or null, converted by typ.

    A missing value, one that does not convert and a NaN are configuration
    errors.
    """
    flag = "--" + key.replace("_", "-")
    value = cfg.get(key)
    if value is None:
        value = default
    if value is None:
        raise ConfigError(f"missing required option {flag}")
    try:
        value = typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"option {flag}: {exc}") from None
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"option {flag}: NaN")
    return value


def _load_json(path: str, what: str, parse):
    """parse(JSON content of path); malformed content is a ConfigError.

    A ContractViolation from parse (say, a matrix that is not a state) is
    kept as it is.
    """
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except matcore.ContractViolation:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read {what} {path}: {exc!r}") from None


def _load_state(path: str):
    """(array, dims) of a state file, validated by matcore.state_from_dict."""
    return _load_json(path, "state file", matcore.state_from_dict)


def _load_density(path: str) -> np.ndarray:
    """The density matrix of a state file; a vector file v gives |v><v|."""
    M, _ = _load_state(path)
    return np.outer(M, M.conj()) if M.ndim == 1 else M


def _parse_dims(text) -> tuple[int, int]:
    try:
        first, second = (int(p) for p in str(text).replace("x", ",").split(","))
    except ValueError:
        raise ConfigError(f"dims must be two integers, got {text!r}") from None
    if min(first, second) < 1:
        raise ConfigError(f"dims must be at least 1, got {text!r}")
    return first, second


def _count(value) -> int:
    count = int(value)
    if count < 1:
        raise ValueError(f"must be >= 1, got {count}")
    return count


# --- suites -----------------------------------------------------------------
#
# Each suite takes the converted options and returns (artifact text,
# [(ok, violation)], summary extras).

_CONVEX_SPLIT_HEADER = ["instance_id", "n", "t", "q2_lhs", "q2_rhs", "residual", "mu",
                        "mu_max", "nu_n", "slack_gmain0", "slack_split9", "slack_pmu0",
                        "ly2024_tighter"]


def run_convex_split(opts) -> tuple[str, list, dict]:
    dR, dA = opts["dims"]
    tol_res, tol_slack = opts["tol_residual"], opts["tol_slack"]

    def one(i, s):
        rho = matcore.sample("rank-limited", (dR, dA), s, rank=1 + i % (dR * dA))
        sigma = matcore.sample("mixed-hilbert-schmidt", dA, s + 1)
        n = 1 + i % opts["n_max"]
        rep = convexsplit.bounds_report(rho, sigma, n, (dR, dA))
        slack = rep.slack
        ok = rep.residual <= tol_res and all(v >= -tol_slack for v in slack.values())
        violation = max(rep.residual - tol_res, max(-v for v in slack.values()))
        row = [i, n, rep.t, rep.q2_lhs, rep.q2_rhs, rep.residual,
               rep.mu, rep.mu_max, rep.nu_n, slack["gmain0"], slack["split9"],
               slack["pmu0"], rep.ly2024_tighter]
        return row, ok, violation

    return _sampled(_CONVEX_SPLIT_HEADER, one, opts)


_UAB_HEADER = ["instance_id", "alpha", "beta", "eps", "imax_upper", "rhs",
               "slack", "certified"]


def run_uab(opts) -> tuple[str, list, dict]:
    dims, alpha, beta, eps = (opts[k] for k in ("dims", "alpha", "beta", "eps"))

    def one(i, s):
        rho = matcore.sample("mixed-hilbert-schmidt", dims, s)
        rep = smoothing.uab_chain_verify(rho, dims, alpha, beta, eps)
        worst = max(st.lhs - st.rhs for st in rep.steps)
        row = [i, alpha, beta, eps, rep.imax_truncated, rep.rhs_final,
               rep.rhs_final - rep.imax_truncated, rep.passed]
        return row, rep.passed, worst

    return _sampled(_UAB_HEADER, one, opts)


def run_bounds_sweep(opts) -> tuple[str, list, dict]:
    dims, alpha, beta, eps = (opts[k] for k in ("dims", "alpha", "beta", "eps"))
    d = dims[0] * dims[1]

    def one_uab(i, s):
        rho = matcore.sample("mixed-hilbert-schmidt", dims, s)
        cache = {}
        est, _ = smoothing.imax_smoothed_upper(rho, eps, dims, cache=cache)
        rhs = infomeasures.universal_rhs(rho, dims, alpha, beta, eps, cache=cache)
        ok = est <= rhs + 1e-7
        row = [i, alpha, beta, eps, est, rhs, rhs - est, ok]
        return row, ok, est - rhs

    def one_rld(i, s):
        rho = matcore.sample("mixed-hilbert-schmidt", d, s)
        sigma = matcore.sample("mixed-hilbert-schmidt", d, s + 1)
        rep = infomeasures.check_rld_bound(rho, sigma, eps, beta)
        row = [i, alpha, beta, eps, rep.lhs, rep.rhs, rep.slack, rep.ok]
        return row, rep.ok, rep.lhs - rep.rhs

    one = {"uab": one_uab, "rld": one_rld}.get(opts["suite"])
    if one is None:
        raise ConfigError(f"unknown suite {opts['suite']!r}")
    if one is one_uab:  # refuse bad orders before the first sample's solves
        infomeasures.f_alpha_beta(alpha, beta, eps)
    return _sampled(_UAB_HEADER, one, opts)


def run_qss_sim(opts) -> tuple[str, list, dict]:
    psi, dims = _load_state(opts["state"])
    if psi.ndim != 1:
        raise ConfigError("qss-sim needs a pure state file (vector field)")
    if len(dims) != 3:
        raise ConfigError("qss-sim state must have three registers (R, A, A')")
    res = protocols.qss_simulate(protocols.QSSInstance(psi, dims, opts["eps"], opts["delta"]))
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
    return (_json_text(record),
            [(bool(res.bound_ok), res.achieved_distance - res.distance_bound)],
            {"result": record})


def run_divergence(opts) -> tuple[str, list, dict]:
    alpha = opts["alpha"]
    value, branch = divergences.d_alpha_with_branch(
        _load_density(opts["rho"]), _load_density(opts["sigma"]), alpha)
    record = {"alpha": "inf" if math.isinf(alpha) else alpha,
              "value_bits": value, "branch": branch}
    return _json_text(record), [(True, 0.0)], {"result": record}


def run_rev_shannon(opts) -> tuple[str, list, dict]:
    def channel(data):
        kraus = [np.asarray(K, dtype=float) if np.asarray(K).ndim == 2
                 else np.asarray(K)[..., 0] + 1j * np.asarray(K)[..., 1]
                 for K in data["kraus"]]
        return protocols.ChannelSpec(kraus, int(data["dim_in"]), int(data["dim_out"]))

    spec = _load_json(opts["channel"], "channel file", channel)
    alpha, beta, eps, n = (opts[k] for k in ("alpha", "beta", "eps", "n"))
    rhs, delta_n = protocols.reverse_shannon_bound(spec, alpha, beta, eps, n)
    record = {"alpha": alpha, "beta": beta, "eps": eps, "n": n,
              "bits_per_use": rhs, "delta_n": delta_n}
    return _json_text(record), [(True, 0.0)], {"result": record}


# --- plumbing ---------------------------------------------------------------
#
# Each command's options, as key: (type, default); a default of None means
# required.  Flags get a --flag (key with "-" for "_"); config keys are read
# from the --config file only.  Every command also takes --seed (required),
# --threads, --out and --config.

_SAMPLING = {"dims": (_parse_dims, None), "samples": (_count, None)}
_ORDERS = {"alpha": (float, 0.5), "beta": (float, 2.0), "eps": (float, 0.1)}

# command: (suite name, runner, flags, config keys)
_COMMANDS = {
    "verify-convex-split": ("convex-split", run_convex_split,
                            {**_SAMPLING, "n_max": (_count, 5)},
                            {"tol_residual": (float, 1e-10), "tol_slack": (float, 1e-8)}),
    "verify-uab": ("uab", run_uab, {**_SAMPLING, **_ORDERS}, {}),
    "bounds-sweep": ("bounds", run_bounds_sweep,
                     {"suite": (str, "uab"), **_SAMPLING, **_ORDERS}, {}),
    "qss-sim": ("qss", run_qss_sim,
                {"state": (str, None), "eps": (float, 0.6), "delta": (float, 0.5)}, {}),
    "divergence": ("divergence", run_divergence,
                   {"alpha": (float, None), "rho": (str, None), "sigma": (str, None)}, {}),
    "rev-shannon": ("rev-shannon", run_rev_shannon,
                    {"channel": (str, None), **_ORDERS, "n": (int, 10)}, {}),
}


def _build_parser() -> argparse.ArgumentParser:
    """Flags are collected as text; _merge_config converts them."""
    parser = argparse.ArgumentParser(prog="csl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for key in [*flags, "seed", "out", "config", "threads"]:
            p.add_argument("--" + key.replace("_", "-"))
    return parser


def _merge_config(args) -> dict:
    """The command's converted options: its flags over the --config object.

    `CSL_THREADS` stands in for `--threads` in the sampling suites.
    """
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg.update((key, value) for key, value in vars(args).items() if value is not None)
    _, _, flags, keys = _COMMANDS[args.command]
    threads = os.environ.get("CSL_THREADS", 1) if "samples" in flags else 1
    table = {**flags, **keys, "seed": (int, None), "threads": (int, threads)}
    opts = {key: _option(cfg, key, typ, default) for key, (typ, default) in table.items()}
    opts["out"] = cfg.get("out")
    return opts


def run_suite(command: str, opts: dict) -> int:
    t0 = time.time()
    suite, fn, _, _ = _COMMANDS[command]
    text, results, extras = fn(opts)
    if opts["out"]:
        _atomic_write(opts["out"], text)
    summary = {**emit_summary(suite, results, time.time() - t0), **extras}
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
        return run_suite(args.command, _merge_config(args))
    except matcore.CertificateError as exc:
        print(json.dumps({"failure": {"kind": "certificate", "message": str(exc)}}))
        return 1
    except (ConfigError, matcore.ContractViolation, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
