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


def _map_samples(fn, samples: int, cfg: dict) -> list:
    """[fn(i) for i in range(samples)], in order.

    `--threads` (or `CSL_THREADS`) is still validated, but the samples run
    sequentially: on these small, Python-bound samples a thread pool
    measured no faster, so the option changes nothing.
    """
    _option(cfg, "threads", int, 1)
    return [fn(i) for i in range(samples)]


def _option(cfg: dict, key: str, typ, default=None):
    """cfg[key], or default when absent, converted by typ.

    A value that does not convert is a configuration error, like a missing one.
    """
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    try:
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"option --{key.replace('_', '-')}: {exc}") from None


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


# --- suites -----------------------------------------------------------------
#
# Each suite returns (artifact text, [(ok, violation)], summary extras).

def run_convex_split(cfg) -> tuple[str, list, dict]:
    dR, dA = _parse_dims(cfg["dims"])
    n_max = _option(cfg, "n_max", int, 5)
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    samples = _option(cfg, "samples", int)
    seed = _option(cfg, "seed", int)
    tol_res = _option(cfg, "tol_residual", float, 1e-10)
    tol_slack = _option(cfg, "tol_slack", float, 1e-8)

    def one(i):
        s = seed + 1000 * i
        rho = matcore.sample("rank-limited", (dR, dA), s, rank=1 + i % (dR * dA))
        sigma = matcore.sample("mixed-hilbert-schmidt", dA, s + 1)
        n = 1 + i % n_max
        rep = convexsplit.bounds_report(rho, sigma, n, (dR, dA))
        slack = rep.slack
        ok = rep.residual <= tol_res and all(v >= -tol_slack for v in slack.values())
        violation = max(rep.residual - tol_res, max(-v for v in slack.values()))
        row = [i, n, rep.t, rep.q2_lhs, rep.q2_rhs, rep.residual,
               rep.mu, rep.mu_max, rep.nu_n, slack["gmain0"], slack["split9"],
               slack["pmu0"], rep.ly2024_tighter]
        return row, ok, violation

    out = _map_samples(one, samples, cfg)
    header = ["instance_id", "n", "t", "q2_lhs", "q2_rhs", "residual", "mu",
              "mu_max", "nu_n", "slack_gmain0", "slack_split9", "slack_pmu0",
              "ly2024_tighter"]
    rows = [r for r, _, _ in out]
    results = [(ok, v) for _, ok, v in out]
    return _csv_text(header, rows), results, {}


_UAB_HEADER = ["instance_id", "alpha", "beta", "eps", "imax_upper", "rhs",
               "slack", "certified"]


def run_uab(cfg) -> tuple[str, list, dict]:
    dA, dB = _parse_dims(cfg["dims"])
    samples = _option(cfg, "samples", int)
    seed = _option(cfg, "seed", int)
    alpha = _option(cfg, "alpha", float, 0.5)
    beta = _option(cfg, "beta", float, 2.0)
    eps = _option(cfg, "eps", float, 0.1)

    def one(i):
        s = seed + 1000 * i
        rho = matcore.sample("mixed-hilbert-schmidt", (dA, dB), s)
        rep = smoothing.uab_chain_verify(rho, (dA, dB), alpha, beta, eps)
        worst = max(st.lhs - st.rhs for st in rep.steps)
        row = [i, alpha, beta, eps, rep.imax_truncated, rep.rhs_final,
               rep.rhs_final - rep.imax_truncated, rep.passed]
        return row, rep.passed, worst

    out = _map_samples(one, samples, cfg)
    return (_csv_text(_UAB_HEADER, [r for r, _, _ in out]),
            [(ok, v) for _, ok, v in out], {})


def run_bounds_sweep(cfg) -> tuple[str, list, dict]:
    which = cfg.get("sweep", "uab")
    dA, dB = _parse_dims(cfg["dims"])
    samples = _option(cfg, "samples", int)
    seed = _option(cfg, "seed", int)
    alpha = _option(cfg, "alpha", float, 0.5)
    beta = _option(cfg, "beta", float, 2.0)
    eps = _option(cfg, "eps", float, 0.1)

    def one_uab(i):
        s = seed + 1000 * i
        rho = matcore.sample("mixed-hilbert-schmidt", (dA, dB), s)
        cache = {}
        est = smoothing.imax_smoothed_upper(rho, eps, (dA, dB), cache=cache)
        rhs = infomeasures.universal_rhs(rho, (dA, dB), alpha, beta, eps,
                                         cache=cache)
        ok = est.value_bits <= rhs + 1e-7
        row = [i, alpha, beta, eps, est.value_bits, rhs, rhs - est.value_bits, ok]
        return row, ok, est.value_bits - rhs

    def one_rld(i):
        s = seed + 1000 * i
        rho = matcore.sample("mixed-hilbert-schmidt", dA * dB, s)
        sigma = matcore.sample("mixed-hilbert-schmidt", dA * dB, s + 1)
        rep = infomeasures.check_rld_bound(rho, sigma, eps, beta)
        row = [i, alpha, beta, eps, rep.lhs, rep.rhs, rep.slack, rep.ok]
        return row, rep.ok, rep.lhs - rep.rhs

    one = {"uab": one_uab, "rld": one_rld}.get(which)
    if one is None:
        raise ConfigError(f"unknown sweep {which!r}")
    out = _map_samples(one, samples, cfg)
    return (_csv_text(_UAB_HEADER, [r for r, _, _ in out]),
            [(ok, v) for _, ok, v in out], {})


def run_qss_sim(cfg) -> tuple[str, list, dict]:
    psi, dims = _load_state(cfg["state"])
    if psi.ndim != 1:
        raise ConfigError("qss-sim needs a pure state file (vector field)")
    if len(dims) != 3:
        raise ConfigError("qss-sim state must have three registers (R, A, A')")
    inst = protocols.QSSInstance(psi, dims,
                                 _option(cfg, "eps", float, 0.6),
                                 _option(cfg, "delta", float, 0.5))
    res = protocols.qss_simulate(inst)
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


def run_divergence(cfg) -> tuple[str, list, dict]:
    alpha = _option(cfg, "alpha", float)
    rho = _load_density(cfg["rho"])
    sigma = _load_density(cfg["sigma"])
    value, branch = divergences.d_alpha_with_branch(rho, sigma, alpha)
    record = {"alpha": "inf" if math.isinf(alpha) else alpha,
              "value_bits": value, "branch": branch}
    return _json_text(record), [(True, 0.0)], {"result": record}


def run_rev_shannon(cfg) -> tuple[str, list, dict]:
    def channel(data):
        kraus = [np.asarray(K, dtype=float) if np.asarray(K).ndim == 2
                 else np.asarray(K)[..., 0] + 1j * np.asarray(K)[..., 1]
                 for K in data["kraus"]]
        return protocols.ChannelSpec(kraus, int(data["dim_in"]), int(data["dim_out"]))

    spec = _load_json(cfg["channel"], "channel file", channel)
    alpha = _option(cfg, "alpha", float, 0.5)
    beta = _option(cfg, "beta", float, 2.0)
    eps = _option(cfg, "eps", float, 0.1)
    n = _option(cfg, "n", int, 10)
    rhs, delta_n = protocols.reverse_shannon_bound(spec, alpha, beta, eps, n)
    record = {"alpha": alpha, "beta": beta, "eps": eps, "n": n,
              "bits_per_use": rhs, "delta_n": delta_n}
    return _json_text(record), [(True, 0.0)], {"result": record}


# --- plumbing ---------------------------------------------------------------

# command: (suite name, runner, required options, flags)
_COMMANDS = {
    "verify-convex-split": ("convex-split", run_convex_split, ["dims", "samples"],
                            [("dims", str), ("n-max", int), ("samples", int)]),
    "verify-uab": ("uab", run_uab, ["dims", "samples"],
                   [("dims", str), ("samples", int), ("alpha", float),
                    ("beta", float), ("eps", float)]),
    "bounds-sweep": ("bounds", run_bounds_sweep, ["dims", "samples"],
                     [("suite", str), ("dims", str), ("samples", int),
                      ("alpha", float), ("beta", float), ("eps", float)]),
    "qss-sim": ("qss", run_qss_sim, ["state"],
                [("state", str), ("eps", float), ("delta", float)]),
    "divergence": ("divergence", run_divergence, ["alpha", "rho", "sigma"],
                   [("alpha", str), ("rho", str), ("sigma", str)]),
    "rev-shannon": ("rev-shannon", run_rev_shannon, ["channel"],
                    [("channel", str), ("alpha", float), ("beta", float),
                     ("eps", float), ("n", int)]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, _, flags) in _COMMANDS.items():
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
    if "samples" in cfg and _option(cfg, "samples", int) < 1:
        raise ConfigError("samples must be >= 1")
    if cfg.get("threads") is None:
        cfg["threads"] = os.environ.get("CSL_THREADS", "1")
    return cfg


def run_suite(command: str, cfg: dict) -> int:
    t0 = time.time()
    suite, fn, required, _ = _COMMANDS[command]
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required option --{key}")
    text, results, extras = fn(cfg)
    if cfg.get("out"):
        _atomic_write(cfg["out"], text)
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
        cfg = _merge_config(args)
        return run_suite(args.command, cfg)
    except matcore.CertificateError as exc:
        print(json.dumps({"failure": {"kind": "certificate", "message": str(exc)}}))
        return 1
    except (ConfigError, matcore.ContractViolation, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
