"""Spectrum-level smoothing machinery.

Unitarily invariant smoothing reduces to sorted spectra: classical
Renyi-entropy smoothing over the total-variation ball, the truncation
effect built from two aligned spectra, the step-by-step verifier for the
universal max-information bound, and the feasible-point upper estimate of
the smoothed max-information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .infomeasures import (
    C_SMOOTH,
    SmoothedEstimate,
    _bipartite,
    _spectrum_renyi,
    h_min_from_sdp,
    universal_rhs,
)
from .matcore import (
    ContractViolation,
    Spectrum,
    _as_matrix,
    eig_hermitian,
    kron,
    purified_distance,
    reduced,
    trace_distance,
)
from .optim import dominance_residual, dominating_trace_min

@dataclass
class TruncationResult:
    effect: np.ndarray  # Lambda, diagonal in omega's eigenbasis
    m: int  # cutoff index (1-based)
    survival: float  # Tr[Lambda omega Lambda]
    omega_trunc: np.ndarray  # normalized truncated state
    s_min_kept: float  # smallest retained s_x = lambda_min_nz of Lambda omega Lambda


def _steepest_smoothing(p, delta: float) -> np.ndarray:
    """The steepest element of the total-variation delta-ball around p.

    delta of mass moved from the smallest entries onto the largest; sorted
    non-increasing.  It majorizes every point of the ball (Horodecki,
    Oppenheim & Sparaciari, J. Phys. A 51, 305301, 2018), whatever entropy
    is then taken of it.
    """
    if not (0.0 <= delta < 0.5):
        raise ContractViolation(f"delta must be in [0,1/2), got {delta}")
    q = np.sort(np.asarray(p, dtype=float))[::-1].copy()
    remaining = delta
    for i in range(len(q) - 1, 0, -1):
        take = min(q[i], remaining)
        q[i] -= take
        q[0] += take
        remaining -= take
        if remaining <= 0:
            break
    return q


def smooth_renyi_entropy_min(p, delta: float, alpha: float):
    """H_alpha minimized over the total-variation delta-ball around p.

    For alpha < 1, H_alpha is Schur-concave, so its minimum over the ball is
    its value at the steepest element, in closed form.  Returns (value,
    witness spectrum).
    """
    if not (0.0 < alpha < 1.0):
        raise ContractViolation(f"alpha must be in (0,1), got {alpha}")
    q = _steepest_smoothing(p, delta)
    return _spectrum_renyi(q, alpha), q


def truncation_effect(omega, tau_spectrum, delta: float) -> TruncationResult:
    """Build the tail-truncation effect from omega's spectrum and a target.

    With q = spec(omega) and t = tau_spectrum both sorted non-increasing and
    s_x = min(q_x, t_x), the cutoff m is the smallest index such that the
    tail sum_{x>m} s_x is at most delta; the effect keeps the top m
    eigenvectors with amplitudes sqrt(s_x/q_x).  Survival is at least
    1 - 2 delta, so the truncated state is sqrt(2 delta)-close to omega.
    """
    if not (0.0 < delta < 0.5):
        raise ContractViolation(f"delta must be in (0,1/2), got {delta}")
    W = _as_matrix(omega)
    q, V = eig_hermitian(W)
    q = np.clip(q, 0.0, None)
    d = len(q)
    t = np.sort(np.asarray(tau_spectrum, dtype=float))[::-1]
    if len(t) < d:
        t = np.concatenate([t, np.zeros(d - len(t))])
    t = t[:d]
    s = np.minimum(q, t)
    if s.sum() <= delta:
        raise ContractViolation("degenerate spectra: total overlap below delta")
    tails = np.concatenate([np.cumsum(s[::-1])[::-1][1:], [0.0]])  # tails[k] = sum_{x>k+1}
    # smallest 1-based m with tail <= delta; ties resolve to the smaller m,
    # so exact-tie comparisons get a float-noise allowance
    m = int(np.argmax(tails <= delta + 1e-12)) + 1
    ratios = np.zeros(d)
    kept = np.arange(d) < m
    nz = kept & (q > 0)
    ratios[nz] = s[nz] / q[nz]
    Lam = (V * np.sqrt(ratios)) @ V.conj().T
    survival = float(s[:m].sum())
    omega_trunc = (Lam @ W @ Lam) / survival
    s_kept = s[:m][s[:m] > 0]
    s_min = float(s_kept.min()) if len(s_kept) else 0.0
    return TruncationResult(Lam, m, survival, omega_trunc, s_min)


def apply_truncation(rho_ab, effect_a: np.ndarray, dims: tuple[int, int]):
    """Apply an A-local effect to a bipartite state; returns (state, survival)."""
    dA, dB = dims
    R = _as_matrix(rho_ab)
    L = kron(effect_a, np.eye(dB))
    out = L @ R @ L.conj().T
    survival = float(np.trace(out).real)
    return out / survival, survival


def _truncated_witness(R, dims, delta: float):
    """rho_AB truncated on A to the steepest delta-smoothing of rho_A's spectrum.

    Returns (the smoothed spectrum, the TruncationResult, the normalized
    truncated state); none of them depends on a Renyi order.
    """
    rho_A = reduced(R, dims, 0)
    p = np.sort(np.clip(np.linalg.eigvalsh(rho_A), 0.0, None))[::-1]
    spectrum = _steepest_smoothing(p, delta)
    tr = truncation_effect(rho_A, spectrum, delta)
    omega, _ = apply_truncation(R, tr.effect, dims)
    return spectrum, tr, omega


def _witness_imax(R, dims, omega, cache: dict, h_min: bool = False) -> float:
    """Certified I_max of omega = (Lam (x) 1) rho (Lam (x) 1)/s, in bits.

    Lam is diagonal in rho_A's eigenbasis with non-increasing weights, so
    omega_A keeps the top k of rho_A's eigenvectors: the witness's cutoff
    class.  I_max is unchanged by a filter L (x) 1 with L invertible on
    supp(omega_A), since it conjugates both sides of rho_A (x) Y >= rho_AB
    (Berta, Christandl & Renner, CMP 306, 579, 2011).  So the SDP runs once
    per class, on rho when nothing is cut and on P_k rho P_k / Tr otherwise
    (P_k the top-k eigenprojector of rho_A, tensored with 1_B), and the
    cache keys it on k alone.  With ``h_min`` the cache also holds, on
    return, the SDP result of H_min(A|B) of rho under "h_min"
    (h_min_from_sdp reads it), solved in one stack with the class when
    both are missing.  The class's Y is feasible for every witness of the
    class with the same Tr Y; dominance_residual checks it against this
    witness before the value is used.
    """
    omega_A = reduced(omega, dims, 0)
    k = int(np.count_nonzero(Spectrum(omega_A).keep))
    key = ("imax_class", k)
    problems = {}  # cache key -> (M_A, rho_AB) of each SDP still to solve
    if key not in cache:
        SA = Spectrum(reduced(R, dims, 0))
        state = R
        if k != np.count_nonzero(SA.keep):
            Vk = SA.V[:, :k]
            P = kron(Vk @ Vk.conj().T, np.eye(dims[1]))
            state = P @ R @ P
            state = state / np.trace(state).real
        problems[key] = (reduced(state, dims, 0), state)
    if h_min and "h_min" not in cache:
        problems["h_min"] = (np.eye(dims[0]), R)
    if problems:
        cache.update(zip(problems, dominating_trace_min(
            np.array([M for M, _ in problems.values()]),
            np.array([r for _, r in problems.values()]), dims)))
    res = cache[key]
    dominance_residual(omega_A, res.certificate, omega, res.gap_bits,
                       f" for the witness of class {k}")
    return res.value_bits


def imax_smoothed_upper(rho_ab, eps: float, dims,
                        cache: dict | None = None) -> SmoothedEstimate:
    """Feasible-point upper estimate of the smoothed max-information.

    Witness pool: rho itself plus tail-truncated states over a delta grid;
    every witness is checked inside the trace-distance eps-ball before its
    I_max is taken.  A witness's I_max is its cutoff class's (see
    _witness_imax), so rho and every witness that cuts nothing share one
    SDP, and a class's certificate is checked against each witness.
    One-sided: the true smoothed value can only be smaller.
    """
    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must be in (0,1), got {eps}")
    R, dA, dB = _bipartite(rho_ab, dims)
    cache = cache if cache is not None else {}
    best_v = _witness_imax(R, (dA, dB), R, cache)
    best_w = R
    grid = {C_SMOOTH * eps * eps, eps * eps / 2.0, eps / 4.0, eps / 2.0}
    for delta in sorted(d for d in grid if 0.0 < d < min(eps, 0.5)):
        try:
            _, _, omega = _truncated_witness(R, (dA, dB), delta)
        except ContractViolation:
            continue
        if trace_distance(omega, R) > eps + 1e-9:
            continue
        v = _witness_imax(R, (dA, dB), omega, cache)
        if v < best_v:
            best_v, best_w = v, omega
    return SmoothedEstimate(best_v, best_w)


@dataclass
class ChainStep:
    name: str
    lhs: float
    rhs: float
    ok: bool


@dataclass
class ChainReport:
    steps: list
    passed: bool
    imax_truncated: float
    rhs_final: float


def uab_chain_verify(rho_ab, dims: tuple[int, int], alpha: float, beta: float,
                     eps: float, cache: dict | None = None) -> ChainReport:
    """Verify the proof pipeline of the universal max-information bound.

    Uses the feasible smoothing point omega = rho (always inside its own
    ball), so every step is a sufficient per-instance certification: a
    failure would flag this implementation, never the bound itself.
    Parameter split: eps1 = (sqrt(3)-1) eps, delta = c eps^2 with
    c = 2 - sqrt(3), so that sqrt(2 delta) = eps1 and delta + eps1 = eps.

    ``cache`` belongs to one rho and may be shared across (alpha, beta, eps).
    It holds, per delta, the steepest delta-smoothing of spec(rho_A), the
    smallest weight its truncation keeps, and the truncated witness's
    I_max and trace and purified distances to rho; the I_max SDP's result
    per cutoff class (see _witness_imax), so a grid whose witnesses cut
    nothing solves one I_max SDP, yet each witness's I_max is checked
    against its own certificate residual; H_min(A|B)'s SDP once; and
    H_alpha(A) per alpha and H_up_beta(A|B) per beta (universal_rhs).  The first
    class's I_max SDP and the H_min SDP are solved as one stack of two
    (dominating_trace_min), each member with the bits of its lone solve;
    a later cutoff class is a stack of one.
    The steepest smoothing majorizes the whole delta-ball for every alpha,
    so the witness depends on (rho, eps) only: alpha enters only through
    h_delta (a closed-form sum over the cached spectrum), H_alpha(A) and
    f(alpha, beta, eps), and a shared cache returns the same bits as a
    fresh one.
    """
    if not (0.0 < alpha < 1.0 and beta > 1.0 and 0.0 < eps < 1.0):
        raise ContractViolation("need alpha in (0,1), beta > 1, eps in (0,1)")
    R = _as_matrix(rho_ab)
    delta = C_SMOOTH * eps * eps
    eps1 = (math.sqrt(3.0) - 1.0) * eps
    cache = cache if cache is not None else {}

    key_t = ("trunc", round(delta, 14))
    if key_t not in cache:
        spectrum, tr, omega = _truncated_witness(R, dims, delta)
        cache[key_t] = (spectrum, tr.s_min_kept,
                        _witness_imax(R, dims, omega, cache, h_min=True),
                        trace_distance(omega, R), purified_distance(omega, R))
    spectrum, s_min_kept, imax_val, dist, pdist = cache[key_t]
    h_delta = _spectrum_renyi(spectrum, alpha)
    h_min = h_min_from_sdp(cache["h_min"])  # left by _witness_imax(h_min=True)

    steps = []
    steps.append(ChainStep("ball-membership", dist, eps1, dist <= eps1 + 1e-9))
    lhs2 = -math.log2(s_min_kept)
    rhs2 = h_delta + math.log2(1.0 / delta) / (1.0 - alpha)
    steps.append(ChainStep("lambda-min-vs-smoothed-entropy", lhs2, rhs2,
                           lhs2 <= rhs2 + 1e-8))
    rhs3 = lhs2 - h_min
    steps.append(ChainStep("imax-vs-minentropy", imax_val, rhs3,
                           imax_val <= rhs3 + 1e-7))
    rhs4 = universal_rhs(R, dims, alpha, beta, eps, cache=cache)
    steps.append(ChainStep("final-certification", imax_val, rhs4,
                           imax_val <= rhs4 + 1e-7))
    # Gentle-measurement audit rides along with the ball check.
    if pdist > math.sqrt(2 * delta) + 1e-9:
        steps.append(ChainStep("gentle-measurement", pdist,
                               math.sqrt(2 * delta), False))
    return ChainReport(steps, all(s.ok for s in steps), imax_val, rhs4)
