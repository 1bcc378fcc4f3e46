"""The four csl workloads.

Each workload owns a fixed pool of instances whose outputs were recorded at
the seed commit (``reference/<workload>.json``).  Inputs are generated here
with numpy alone from fixed generator seeds; the program only receives them
(except the CLI, which samples its own states from its ``--seed``).

A run visits the whole pool in *cycles*, each cycle in an order drawn from
the benchmark seed.  Runs with different seeds therefore do the same work in
a different order: per-state solver effort varies by tens of percent, and a
run holds too few heavy instances to average that out.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import tempfile
import time

import numpy as np

from csl import cli, convexsplit, divergences, matcore, protocols, smoothing

SOLVER_TOL = 1e-9  # solver values (ROADMAP item 2)
PROTOCOL_TOL = 1e-10  # protocol distances and probabilities (ROADMAP item 5)


# --- input generation -----------------------------------------------------------

def hs_state(d: int, rng) -> np.ndarray:
    """Hilbert-Schmidt random density matrix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    M = G @ G.conj().T
    return M / np.trace(M).real


def rank_limited_state(d: int, r: int, rng) -> np.ndarray:
    G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    M = G @ G.conj().T
    return M / np.trace(M).real


# --- comparison -------------------------------------------------------------------

def close(a, b, tol: float) -> bool:
    """|a - b| <= tol * max(1, |b|); infinities and nan must match exactly."""
    a, b = float(a), float(b)
    if math.isnan(b) or math.isnan(a):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(b) or math.isinf(a):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _diff(label: str, got, want, tol: float | None):
    """None when equal (exactly, or within tol), else a one-line reason."""
    if tol is None:
        return None if got == want else f"{label}: {got!r} != {want!r}"
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    if len(got) != len(want):
        return f"{label}: length {len(got)} != {len(want)}"
    for g, w in zip(got, want):
        if not close(g, w, tol):
            return f"{label}: {float(g)!r} vs reference {float(w)!r}"
    return None


def _first(reasons):
    return next((r for r in reasons if r is not None), None)


# --- workloads ------------------------------------------------------------------------

class Workload:
    """Common shape: a fixed pool, seed-ordered cycles, checks."""

    name = ""
    instances_per_unit = 1

    def __init__(self, seed: int, smoke: bool, tmp_dir: str):
        self.seed = seed
        self.smoke = smoke
        self.tmp_dir = tmp_dir
        self.inputs = {}

    def prepare(self) -> None:
        """Generate every pool input (part of set-up)."""
        raise NotImplementedError

    def pool(self) -> list:
        """Keys of every unit in the pool (all covered by the reference)."""
        return sorted(self.inputs)

    def smoke_keys(self) -> list:
        """The units of the smoke size."""
        return self.pool()[:1]

    def cycle(self, j: int) -> list:
        """Keys of the units run in cycle j: the pool, in a seed-drawn order."""
        if self.smoke:
            return self.smoke_keys()
        keys = self.pool()
        return random.Random(f"{self.name}:{self.seed}:{j}").sample(keys, len(keys))

    def run(self, key, calibration=None):
        """Run one unit; returns ((start, end) of each instance, raw output).

        A unit of several instances may take speed samples between them
        (``speed.Calibration``); the times exclude them.
        """
        raise NotImplementedError

    def dense_share(self, key, i: int) -> float:
        """Share of instance i's time in dense linear algebra (speed.py)."""
        return 0.0

    def extract(self, key, raw) -> list:
        """Per-instance JSON-able records of a raw output."""
        raise NotImplementedError

    def check(self, record, ref) -> str | None:
        """None if the record certifies and matches the reference, else why."""
        raise NotImplementedError

    def warmup(self) -> list:
        """Run one fixed instance from outside the pool; returns failures.

        The warm-up does not depend on the benchmark seed, so set-up costs
        the same on every run.
        """
        raise NotImplementedError

    def artifact_bytes(self, raw) -> int:
        return 0


UAB_GRID = [(a, b, e) for a in (0.3, 0.5, 0.9) for b in (1.5, 2.0, 4.0)
            for e in (0.05, 0.1, 0.3)]


class UabGrid(Workload):
    """Universal max-information chain over the criterion-08 grid."""

    name = "uab-grid"
    per_dims = 4

    def prepare(self):
        for dA, dB in ((2, 2), (2, 3)):
            for k in range(self.per_dims):
                rng = np.random.default_rng([71000, dB, k])
                self.inputs[f"{dA}x{dB}-{k}"] = (hs_state(dA * dB, rng), (dA, dB))
        self.grid = [(0.5, 2.0, 0.1)] if self.smoke else UAB_GRID

    def _chain(self, rho, dims):
        cache = {}  # fresh per state: nothing carries over between instances
        return [smoothing.uab_chain_verify(rho, dims, a, b, e, cache=cache)
                for a, b, e in self.grid]

    def run(self, key, calibration=None):
        rho, dims = self.inputs[key]
        t0 = time.perf_counter()
        reports = self._chain(rho, dims)
        return [(t0, time.perf_counter())], reports

    def extract(self, key, raw):
        points = {}
        for (a, b, e), rep in zip(self.grid, raw):
            points[f"{a},{b},{e}"] = {
                "passed": bool(rep.passed),
                "steps": [[s.name, float(s.lhs), float(s.rhs), bool(s.ok)]
                          for s in rep.steps],
            }
        return [{"key": key, "points": points}]

    def check(self, record, ref):
        for label, pt in record["points"].items():
            want = ref["points"][label]
            if not pt["passed"]:
                return f"{label}: chain not certified"
            # step names and verdicts exactly, step values to SOLVER_TOL
            reason = _diff(f"{label} steps", [s[0::3] for s in pt["steps"]],
                           [s[0::3] for s in want["steps"]], None)
            for got, exp in zip(pt["steps"], want["steps"]):
                reason = reason or _diff(f"{label} {got[0]}", got[1:3], exp[1:3],
                                         SOLVER_TOL)
            if reason:
                return reason
        return None

    def warmup(self):
        rho = hs_state(4, np.random.default_rng([79000]))
        reports = self._chain(rho, (2, 2))
        return [] if all(r.passed for r in reports) else ["warm-up chain not certified"]


CSV_EXACT = ("instance_id", "n", "ly2024_tighter")
# Share of a split-bounds row outside nu_n's optimizer (tau and the dense
# lhs kernels), by n, measured at the seed commit; rows with n <= 6 are
# optimizer time.
DENSE_SHARE_BY_N = {7: 0.2, 8: 0.7, 9: 0.95}


def _parse_number(text: str):
    return float(text) if any(c in text for c in ".eEn") else int(text)


class SplitBounds(Workload):
    """The CLI verify-convex-split suite, run in-process through csl.cli.main."""

    name = "split-bounds"
    cli_seed = 5000
    n_max = 9

    def prepare(self):
        self.samples = self.instances_per_unit = 2 if self.smoke else self.n_max
        self.inputs[str(self.cli_seed)] = self.cli_seed

    def _invoke(self, cli_seed: int, samples: int, calibration=None):
        """One CLI run; rows are delimited by the calls into bounds_report.

        The first row starts when cli.main is called and the last ends when
        it returns.  A speed sample due at a row boundary is taken there,
        outside both rows.
        """
        out_dir = tempfile.mkdtemp(prefix="split-", dir=self.tmp_dir)
        path = os.path.join(out_dir, "cs.csv")
        argv = ["verify-convex-split", "--dims", "2x2", "--n-max", str(self.n_max),
                "--samples", str(samples), "--seed", str(cli_seed),
                "--threads", "1", "--out", path]
        starts, ends = [], []
        rows = 0
        inner = convexsplit.bounds_report

        def marked(*args, **kwargs):
            nonlocal rows
            if rows:  # the boundary between the previous row and this one
                ends.append(time.perf_counter())
                if calibration is not None and calibration.due():
                    calibration.sample()
                starts.append(time.perf_counter())
            rows += 1
            return inner(*args, **kwargs)

        stdout = io.StringIO()
        convexsplit.bounds_report = marked
        try:
            with contextlib.redirect_stdout(stdout):
                starts.append(time.perf_counter())
                rc = cli.main(argv)
                ends.append(time.perf_counter())
        finally:
            convexsplit.bounds_report = inner
        if rows != samples:
            raise RuntimeError(f"saw {rows} rows, expected {samples}")
        return list(zip(starts, ends)), (rc, stdout.getvalue(), path)

    def run(self, key, calibration=None):
        return self._invoke(self.inputs[key], self.samples, calibration)

    def dense_share(self, key, i):
        return DENSE_SHARE_BY_N.get(1 + i % self.n_max, 0.0)  # row i has this n

    def artifact_bytes(self, raw) -> int:
        _, _, path = raw
        return os.path.getsize(path) if os.path.exists(path) else 0

    def extract(self, key, raw):
        rc, _, path = raw
        if rc != 0 or not os.path.exists(path):
            return [{"key": key, "exit_code": rc, "row": None}
                    for _ in range(self.samples)]
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        records = []
        for line in lines[1:]:
            row = {h: _parse_number(v) for h, v in zip(header, line.split(","))}
            records.append({"key": key, "exit_code": rc, "row": row})
        return records

    def check(self, record, ref):
        if record["exit_code"] != 0 or record["row"] is None:
            return f"cli exit code {record['exit_code']}"
        row, want = record["row"], ref["row"]
        if sorted(row) != sorted(want):
            return f"csv columns {sorted(row)} != {sorted(want)}"
        if row["residual"] > 1e-10:
            return f"row {row['instance_id']}: residual {row['residual']:.3e} > 1e-10"
        for col in ("slack_gmain0", "slack_split9", "slack_pmu0"):
            if row[col] < -1e-8:
                return f"row {row['instance_id']}: {col} {row[col]:.3e} < -1e-8"
        return _first(_diff(f"row {row['instance_id']} {col}", row[col], want[col],
                            None if col in CSV_EXACT else SOLVER_TOL)
                      for col in want)

    def warmup(self):
        _, (rc, _, _) = self._invoke(90000, 1)
        return [] if rc == 0 else [f"warm-up cli exit code {rc}"]


BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def _n_predicted(psi: np.ndarray, delta: float) -> int:
    """The protocol's n for a pure (2,1,2) state, from a closed form.

    For a pure state with Schmidt coefficients l_i the collision mutual
    information is minimized by a sigma diagonal in the Schmidt basis, giving
    mu = (sum_i l_i^(1/3))^3 - 1.
    """
    schmidt = np.linalg.svd(psi.reshape(2, 2), compute_uv=False) ** 2
    mu = float(np.sum(schmidt ** (1.0 / 3.0))) ** 3 - 1.0
    return max(1, math.ceil(mu * (1.0 / delta ** 2 - 1.0) - 1e-9))


def _haar_pure(rng, d: int) -> np.ndarray:
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return w / np.linalg.norm(w)


class QssProtocol(Workload):
    """State splitting: the flagship Bell instance (n = 9) plus small ones.

    The small instances are random (2,1,2) states with n <= 5, half at
    delta = 0.6 and half at delta = 0.4.  Of the 9 instances of a cycle the
    nearest-rank p90 (the 9th) is the n = 9 one and p50 a small one.
    """

    name = "qss-protocol"
    per_delta = 4
    max_small_n = 5
    deltas = (0.6, 0.4)

    def prepare(self):
        self.inputs["bell"] = (BELL, 0.6, 0.5)
        for delta in self.deltas:
            tag = round(10 * delta)
            found, k = 0, 0
            while found < self.per_delta:
                psi = _haar_pure(np.random.default_rng([81000, tag, k]), 4)
                if _n_predicted(psi, delta) <= self.max_small_n:
                    self.inputs[f"d{tag}-{k}"] = (psi, min(2 * delta, 0.9), delta)
                    found += 1
                k += 1

    def smoke_keys(self):
        return ["d6-0"]

    def dense_share(self, key, i):
        # the n = 9 Bell instance spends 95% of its time outside the
        # optimizer (measured at the seed commit); the small ones under 2%
        return 0.95 if key == "bell" else 0.0

    @staticmethod
    def _simulate(psi, eps, delta):
        return protocols.qss_simulate(protocols.QSSInstance(psi, (2, 1, 2), eps=eps,
                                                            delta=delta))

    def run(self, key, calibration=None):
        t0 = time.perf_counter()
        res = self._simulate(*self.inputs[key])
        return [(t0, time.perf_counter())], res

    def extract(self, key, raw):
        return [{
            "key": key,
            "n": int(raw.n),
            "n_unclamped": int(raw.n_unclamped),
            "bound_ok": bool(raw.bound_ok),
            "achieved_distance": float(raw.achieved_distance),
            "distance_bound": float(raw.distance_bound),
            "branch_probs": [float(p) for p in raw.branch_probs],
            "mu": float(raw.mu),
        }]

    def check(self, record, ref):
        if not record["bound_ok"]:
            return f"{record['key']}: protocol bound not met"
        if record["n"] != record["n_unclamped"]:
            return f"{record['key']}: n clamped to {record['n']}"
        return _first([
            _diff("n", record["n"], ref["n"], None),
            _diff("n_unclamped", record["n_unclamped"], ref["n_unclamped"], None),
            _diff("bound_ok", record["bound_ok"], ref["bound_ok"], None),
            _diff("achieved_distance", record["achieved_distance"],
                  ref["achieved_distance"], PROTOCOL_TOL),
            _diff("branch_probs", record["branch_probs"], ref["branch_probs"],
                  PROTOCOL_TOL),
            _diff("mu", record["mu"], ref["mu"], SOLVER_TOL),
        ])

    def warmup(self):
        rng = np.random.default_rng([89000])
        psi = _haar_pure(rng, 4)
        while not 2 <= _n_predicted(psi, 0.6) <= 4:
            psi = _haar_pure(rng, 4)
        res = self._simulate(psi, 0.9, 0.6)
        return [] if res.bound_ok else ["warm-up protocol bound not met"]


ALPHAS = (0.0, 0.3, 0.6, 1.0, 2.0, 4.0, math.inf)
EPS_LEVELS = (0.05, 0.1, 0.3)
# Dimensions of the pairs, in the tier-1 proportions: of the 96 distinct
# pairs the divergence tests evaluate, 35 have d = 2, 51 d = 3 and 10 d = 4.
PAIR_DIMS = (2, 3, 2, 3, 2, 3, 2, 3, 3, 4)


def _pair(rng, k: int):
    d = PAIR_DIMS[k]
    rho = hs_state(d, rng)
    sigma = rank_limited_state(d, d - 1, rng) if k % 4 == 3 else hs_state(d, rng)
    return rho, sigma, EPS_LEVELS[k % 3]


def _split_instance(rng, k: int):
    """Criterion-01-style instance: dims in {2,3}, n in 1..5, mixed ranks."""
    dR, dA = 2 + (k // 2) % 2, 2 + (k // 4) % 2
    n = 1 + k % 5
    rho = rank_limited_state(dR * dA, 1 + k % (dR * dA), rng)
    sigma = hs_state(dA, rng)
    rho_R = np.trace(rho.reshape(dR, dA, dR, dA), axis1=1, axis2=3)
    omega = hs_state(dR, rng) if k % 2 else rho_R
    weights = None
    if k % 3 == 0 and n > 1:
        w = rng.random(n)
        weights = w / w.sum()
    return convexsplit.ConvexSplitInstance(rho, sigma, omega, n, (dR, dA), weights)


class DivergenceSweep(Workload):
    """Small pairs through the divergence family, plus split-identity checks."""

    name = "divergence-sweep"
    # The tier-1 mix: criterion 01 and tests/test_divergences.py make 1000
    # split checks and hand 96 distinct pairs to the divergence family.
    splits = 100

    def prepare(self):
        for k in range(len(PAIR_DIMS)):
            self.inputs[f"p-{k}"] = _pair(np.random.default_rng([73000, k]), k)
        for k in range(self.splits):
            self.inputs[f"s-{k}"] = _split_instance(np.random.default_rng([74000, k]),
                                                    k)

    def smoke_keys(self):
        return ["p-0", "s-0", "p-1", "s-1"]

    @staticmethod
    def _pair_family(rho, sigma, eps):
        return ([divergences.d_alpha(rho, sigma, a) for a in ALPHAS],
                matcore.trace_distance(rho, sigma),
                matcore.purified_distance(rho, sigma),
                divergences.d_min_eps(rho, sigma, eps))

    def run(self, key, calibration=None):
        t0 = time.perf_counter()
        if key.startswith("p-"):
            out = self._pair_family(*self.inputs[key])
        else:
            out = convexsplit.split_equality_check(self.inputs[key])
        return [(t0, time.perf_counter())], out

    def extract(self, key, raw):
        if key.startswith("p-"):
            values, td, pd, dme = raw
            return [{"key": key, "d_alpha": [float(v) for v in values],
                     "trace_distance": float(td), "purified_distance": float(pd),
                     "d_min_eps": float(dme)}]
        return [{"key": key, "q2_lhs": float(raw.q2_lhs), "q2_rhs": float(raw.q2_rhs),
                 "residual": float(raw.residual), "t": float(raw.t),
                 "mu": float(raw.mu), "mu_max": float(raw.mu_max)}]

    def check(self, record, ref):
        if "residual" in record and not record["residual"] <= 1e-10:
            return f"{record['key']}: residual {record['residual']:.3e} > 1e-10"
        return _first(_diff(f"{record['key']} {field}", record[field], ref[field],
                            SOLVER_TOL)
                      for field in record if field != "key")

    def warmup(self):
        rng = np.random.default_rng([79500])
        self._pair_family(*_pair(rng, 0))
        rep = convexsplit.split_equality_check(_split_instance(rng, 2))
        return [] if rep.residual <= 1e-10 else ["warm-up split residual too large"]


WORKLOADS = {w.name: w for w in (UabGrid, SplitBounds, QssProtocol, DivergenceSweep)}
