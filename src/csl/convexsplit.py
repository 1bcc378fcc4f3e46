"""Convex-split mixtures and the exact collision-entropy identity.

The mixture tau places rho's A-part in one of n slots (sigma elsewhere) and
averages.  Its collision divergence to omega (x) sigma^n decomposes exactly
into two single-copy terms; everything else here (trace-distance, purified
-distance, and Umegaki bounds, plus the spectral-pinching variant) is
derived from that identity and verified densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import INF, d_alpha, d_max, q2
from .infomeasures import BoundReport
from .matcore import (
    ContractViolation,
    _as_matrix,
    fidelity,
    trace_distance,
)
from .optim import (
    OptimizerReport,
    _support_basis,
    minimize_convex_over_states,
    q_alpha_grad,
)

# Dense tau operators live on R (x) A^n; protocols handle larger n with
# pure states only.
DENSE_DIM_CAP = 4096


@dataclass
class ConvexSplitInstance:
    rho_RA: np.ndarray
    sigma_A: np.ndarray
    omega_R: np.ndarray
    n: int
    dims: tuple[int, int]  # (|R|, |A|)
    weights: np.ndarray | None = None  # default uniform

    def __post_init__(self):
        dR, dA = self.dims
        self.rho_RA = _as_matrix(self.rho_RA)
        self.sigma_A = _as_matrix(self.sigma_A)
        self.omega_R = _as_matrix(self.omega_R)
        if self.n < 1:
            raise ContractViolation("n must be >= 1")
        if self.rho_RA.shape[0] != dR * dA:
            raise ContractViolation("rho_RA does not match dims")
        if self.sigma_A.shape[0] != dA or self.omega_R.shape[0] != dR:
            raise ContractViolation("sigma/omega do not match dims")
        if self.weights is None:
            self.weights = np.full(self.n, 1.0 / self.n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if len(self.weights) != self.n:
                raise ContractViolation("weights length must equal n")
            if abs(self.weights.sum() - 1.0) > 1e-12 or (self.weights < -1e-15).any():
                raise ContractViolation("weights must be a probability vector")

    @property
    def rho_R(self) -> np.ndarray:
        dR, dA = self.dims
        return np.trace(self.rho_RA.reshape(dR, dA, dR, dA), axis1=1, axis2=3)

    @property
    def t_collision(self) -> float:
        return float(np.sum(self.weights**2))


@dataclass
class SplitReport:
    q2_lhs: float
    q2_rhs: float
    residual: float
    t: float
    mu: float
    mu_max: float
    nu_n: float | None = None
    bounds: dict = field(default_factory=dict)
    # nu_n's solver report (iterations, Frank-Wolfe gap); kept off artifacts.
    nu_report: OptimizerReport | None = None


def build_tau(instance: ConvexSplitInstance) -> np.ndarray:
    """Weighted mixture sum_x p_x rho^{R A_x} (x) sigma^{other slots}."""
    dR, dA = instance.dims
    n = instance.n
    dim = dR * dA**n
    if dim > DENSE_DIM_CAP:
        raise ContractViolation(
            f"dense tau dimension {dim} exceeds cap {DENSE_DIM_CAP}"
        )
    base = instance.rho_RA
    for _ in range(n - 1):
        base = np.kron(base, instance.sigma_A)
    shape = (dR,) + (dA,) * n
    T = base.reshape(shape + shape)
    tau = np.zeros_like(T)
    for x in range(n):
        # Registers are [R, A(rho), A_2..A_n]; send rho's A slot to slot x.
        order = [0] + [0] * n
        rest = iter(range(2, n + 1))
        for j in range(1, n + 1):
            order[j] = 1 if j == x + 1 else next(rest)
        perm = order + [a + n + 1 for a in order]
        tau = tau + instance.weights[x] * T.transpose(perm)
    return tau.reshape(dim, dim)


def _reference_product(instance: ConvexSplitInstance) -> np.ndarray:
    out = instance.omega_R
    for _ in range(instance.n):
        out = np.kron(out, instance.sigma_A)
    return out


def _reference_eig(instance: ConvexSplitInstance):
    """Factored eigensystem of omega (x) sigma^n.

    Eigenvalues of the product are products of factor eigenvalues, so the
    support decision is made per factor; a global spectral cut on the dense
    product would misread deep-but-genuine eigenvalues (lambda_min^n) as
    kernel directions.  Returns (V, w, supported mask) with w exact products.
    """
    from .matcore import RANK_TOL, eig_hermitian

    wo, Vo = eig_hermitian(instance.omega_R)
    ws, Vs = eig_hermitian(instance.sigma_A)
    wo = np.clip(wo, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    keep_o = wo > RANK_TOL * wo.max(initial=0.0)
    keep_s = ws > RANK_TOL * ws.max(initial=0.0)
    V, w, keep = Vo, wo, keep_o
    for _ in range(instance.n):
        V = np.kron(V, Vs)
        w = np.multiply.outer(w, ws).reshape(-1)
        keep = np.multiply.outer(keep, keep_s).reshape(-1)
    return V, w, keep


def _dense_lhs_q2(tau: np.ndarray, instance: ConvexSplitInstance) -> float:
    """Q_2(tau || omega (x) sigma^n) in the reference's factored eigenbasis."""
    V, w, keep = _reference_eig(instance)
    X = V.conj().T @ tau @ V
    leak = float(np.trace(tau).real) - float(np.sum(X.diagonal().real[keep]))
    if leak > 1e-10:
        return INF
    Xs = X[np.ix_(keep, keep)]
    inv_sqrt = 1.0 / np.sqrt(w[keep])
    return float(np.sum(np.abs(Xs) ** 2 * np.outer(inv_sqrt, inv_sqrt)))


def _dense_lhs_umegaki(tau: np.ndarray, instance: ConvexSplitInstance) -> float:
    """D(tau || omega (x) sigma^n) with log eigenvalues as sums of factor logs."""
    from .matcore import RANK_TOL, eig_hermitian

    V, w, keep = _reference_eig(instance)
    X = V.conj().T @ tau @ V
    diag = X.diagonal().real
    leak = float(np.trace(tau).real) - float(np.sum(diag[keep]))
    if leak > 1e-10:
        return INF
    wt = np.clip(np.linalg.eigvalsh(tau), 0.0, None)
    wt = wt[wt > RANK_TOL * wt.max(initial=0.0)]
    neg_h = float(np.sum(wt * np.log2(wt)))
    cross = float(np.sum(diag[keep] * np.log2(w[keep])))
    return neg_h - cross


def mu_quantities(rho_RA, sigma_A, dims: tuple[int, int]) -> tuple[float, float]:
    """mu = Q_2 against the pinned product minus 1; mu_max = 2^D_max - 1."""
    R = _as_matrix(rho_RA)
    dR, dA = dims
    rho_R = np.trace(R.reshape(dR, dA, dR, dA), axis1=1, axis2=3)
    ref = np.kron(rho_R, _as_matrix(sigma_A))
    q = q2(R, ref)
    mu = INF if math.isinf(q) else max(q - 1.0, 0.0)
    dm = d_max(R, ref)
    mu_max = INF if math.isinf(dm) else max(2.0**dm - 1.0, 0.0)
    return mu, mu_max


def split_equality_check(instance: ConvexSplitInstance) -> SplitReport:
    """Dense LHS vs the two-term decomposition; residual is relative."""
    tau = build_tau(instance)
    lhs = _dense_lhs_q2(tau, instance)
    t = instance.t_collision
    ref1 = np.kron(instance.omega_R, instance.sigma_A)
    term_R = q2(instance.rho_R, instance.omega_R)
    term_RA = q2(instance.rho_RA, ref1)
    if math.isinf(term_R) or math.isinf(term_RA):
        rhs = INF
    else:
        rhs = (1.0 - t) * term_R + t * term_RA
    if math.isinf(lhs) or math.isinf(rhs):
        residual = 0.0 if math.isinf(lhs) and math.isinf(rhs) else INF
    else:
        residual = abs(lhs - rhs) / max(1.0, lhs)
    mu, mu_max = mu_quantities(instance.rho_RA, instance.sigma_A, instance.dims)
    return SplitReport(lhs, rhs, residual, t, mu, mu_max)


def nu_n(rho_RA, sigma_A, n: int,
         dims: tuple[int, int]) -> tuple[float, np.ndarray, OptimizerReport]:
    """min over omega of (n-1)/n Q_2(rho_R||omega) + 1/n Q_2(rho_RA||omega (x) sigma).

    Both terms are jointly convex; the minimum lies on supp(rho_R) by data
    processing under the pinching onto it, so omega is solved for there and
    certified by the convex solver's Frank-Wolfe gap.  When rho_RA leaves
    R (x) supp(sigma) every omega gives inf, which is returned exactly.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    R = _as_matrix(rho_RA)
    dR, dA = dims
    rho_R = np.trace(R.reshape(dR, dA, dR, dA), axis1=1, axis2=3)
    VR = _support_basis(rho_R)
    VS = _support_basis(_as_matrix(sigma_A))
    W = np.kron(VR, VS)
    Rc = W.conj().T @ R @ W
    if float(np.trace(R).real - np.trace(Rc).real) > 1e-10:
        omega = np.eye(dR) / dR
        return INF, omega, OptimizerReport(INF, omega, 0, True, 0.0)
    rho_Rc = VR.conj().T @ rho_R @ VR
    Sc = VS.conj().T @ _as_matrix(sigma_A) @ VS
    one = np.ones((1, 1))

    def fun_grad(omega):
        qb, gb = q_alpha_grad(Rc, Sc, omega, 2.0, sigma_first=True)
        if n == 1:
            return qb, gb
        qa, ga = q_alpha_grad(rho_Rc, one, omega, 2.0)
        return (n - 1) / n * qa + qb / n, (n - 1) / n * ga + gb / n

    report = minimize_convex_over_states(fun_grad, VR.shape[1])
    report.argopt = VR @ report.argopt @ VR.conj().T
    return report.value, report.argopt, report


def bounds_report(instance: ConvexSplitInstance) -> SplitReport:
    """Every derived bound evaluated against dense LHS quantities.

    The bounds hold for the canonical mixture, so omega is pinned to rho_R
    and the weights to uniform (the minimizing choice); mu/n formulas do not
    cover skewed weights.  Bound names: gmain0 (Umegaki vs mu_max), pinsker
    (trace vs mu_max), split7 (purified vs mu_max), gmain8 (exact collision
    value), split9 (purified vs nu_n), pmu0 (purified vs mu), trace_sqrt
    (trace vs mu).
    """
    pinned = ConvexSplitInstance(instance.rho_RA, instance.sigma_A,
                                 instance.rho_R, instance.n, instance.dims)
    rep = split_equality_check(pinned)
    tau = build_tau(pinned)
    ref = _reference_product(pinned)
    n = instance.n
    mu, mu_max = rep.mu, rep.mu_max
    nu, _, rep.nu_report = nu_n(instance.rho_RA, instance.sigma_A, n, instance.dims)
    rep.nu_n = nu

    lhs_umegaki = _dense_lhs_umegaki(tau, pinned)
    q2_lhs = _dense_lhs_q2(tau, pinned)
    lhs_d2 = math.log2(q2_lhs) if not math.isinf(q2_lhs) else INF
    lhs_trace = trace_distance(tau, ref)
    F = fidelity(tau, ref)
    lhs_p2 = max(1.0 - F * F, 0.0)

    b = {}
    b["gmain0"] = (lhs_umegaki, math.log2(1.0 + mu_max / n) if not math.isinf(mu_max) else INF)
    b["pinsker"] = (lhs_trace, math.sqrt(mu_max / (2 * n)) if not math.isinf(mu_max) else INF)
    b["split7"] = (lhs_p2, mu_max / (n + mu_max) if not math.isinf(mu_max) else 1.0)
    b["gmain8"] = (lhs_d2, math.log2(1.0 + mu / n) if not math.isinf(mu) else INF)
    b["split9"] = (lhs_p2, 1.0 - 1.0 / nu)
    b["pmu0"] = (lhs_p2, mu / (mu + n) if not math.isinf(mu) else 1.0)
    # Prefactor 1/2 follows from 1 + (2 T)^2 <= Q_2 = 1 + mu/n; a smaller
    # constant would already fail on the maximally entangled closed instance.
    b["trace_sqrt"] = (lhs_trace, 0.5 * math.sqrt(mu / n) if not math.isinf(mu) else INF)
    rep.bounds = b
    return rep


def spectrum_cardinality(P, tol_scale: float = 1e-8) -> int:
    """|spec| with gap-based clustering at 1e-8 of the largest eigenvalue."""
    w = np.sort(np.linalg.eigvalsh(_as_matrix(P)))
    tol = tol_scale * max(abs(float(w[-1])), 1.0e-300)
    count = 1
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            count += 1
    return count


def ly2024_compare(instance: ConvexSplitInstance, s: float) -> BoundReport:
    """Spectral-pinching bound vs the exact-identity bound at parameter s.

    Evaluates (l^s / (s n^s)) 2^{s D_{1+s}} against log(1 + mu/n), the
    crossover threshold on log n (with the spectrum count l standing in for
    the comparison constant v), and checks the dense Umegaki value against
    the smaller of the two.
    """
    if not (0.0 < s <= 1.0):
        raise ContractViolation(f"s must be in (0,1], got {s}")
    R = _as_matrix(instance.rho_RA)
    dR, dA = instance.dims
    n = instance.n
    rho_R = np.trace(R.reshape(dR, dA, dR, dA), axis1=1, axis2=3)
    ref1 = np.kron(rho_R, instance.sigma_A)
    ell = spectrum_cardinality(ref1)
    mu, _ = mu_quantities(R, instance.sigma_A, instance.dims)

    d1s = d_alpha(R, ref1, 1.0 + s)
    ryr_rhs = (ell**s / (s * n**s)) * 2.0 ** (s * d1s) if not math.isinf(d1s) else INF
    imp_rhs = math.log2(1.0 + mu / n) if not math.isinf(mu) else INF

    a_s = s * d1s
    a_1 = d_alpha(R, ref1, 2.0)
    if s == 1.0 or math.isinf(a_1) or math.isinf(a_s):
        crossover_log_n = -INF  # degenerate: both bounds coincide in form
    else:
        crossover_log_n = (a_1 - a_s - s * math.log2(ell)
                           - math.log2(1.0 / s)) / (1.0 - s)

    rhs = min(ryr_rhs, imp_rhs)
    lhs_verified = dR * dA**n <= DENSE_DIM_CAP
    if lhs_verified:
        pinned = ConvexSplitInstance(R, instance.sigma_A, rho_R, n,
                                     instance.dims, instance.weights)
        lhs = _dense_lhs_umegaki(build_tau(pinned), pinned)
        ok = lhs <= rhs + 1e-8
    else:
        lhs = math.nan  # dense tau out of reach; only the RHS comparison runs
        ok = True
    return BoundReport(
        "pinching-vs-exact-identity", lhs, rhs, ok,
        {
            "s": s,
            "ell": ell,
            "ryr_rhs": ryr_rhs,
            "imp_rhs": imp_rhs,
            "crossover_log_n": crossover_log_n,
            "exact_identity_tighter": bool(imp_rhs <= ryr_rhs),
            "lhs_verified": lhs_verified,
        },
    )
