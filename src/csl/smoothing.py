"""Spectrum-level smoothing machinery.

Unitarily invariant smoothing reduces to sorted spectra: the minimal trace
distance over unitary orbits, classical Renyi-entropy smoothing over the
total-variation ball, the truncation effect built from two aligned spectra,
and the step-by-step verifier for the universal max-information bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    RANK_TOL,
    ContractViolation,
    _as_matrix,
    eig_hermitian,
    purified_distance,
    trace_distance,
)

@dataclass
class SpectrumPair:
    """Two non-increasing spectra and their entrywise minimum."""

    p: np.ndarray
    q: np.ndarray
    s: np.ndarray = field(init=False)

    def __post_init__(self):
        self.p = np.sort(np.asarray(self.p, dtype=float))[::-1]
        self.q = np.sort(np.asarray(self.q, dtype=float))[::-1]
        if self.p.shape != self.q.shape:
            raise ContractViolation("spectra must have equal length")
        self.s = np.minimum(self.p, self.q)


@dataclass
class TruncationResult:
    effect: np.ndarray  # Lambda, diagonal in omega's eigenbasis
    m: int  # cutoff index (1-based)
    survival: float  # Tr[Lambda omega Lambda]
    omega_trunc: np.ndarray  # normalized truncated state
    s_min_kept: float  # smallest retained s_x = lambda_min_nz of Lambda omega Lambda


def min_unitary_trace_distance(rho, sigma) -> tuple[float, np.ndarray]:
    """min over unitaries U of T(rho, U sigma U^dag) = half l1 of sorted spectra.

    The aligning unitary maps sigma's sorted eigenbasis onto rho's, which
    makes the difference diagonal and attains the value exactly.
    """
    R, S = _as_matrix(rho), _as_matrix(sigma)
    wr, Vr = eig_hermitian(R)
    ws, Vs = eig_hermitian(S)
    value = 0.5 * float(np.abs(wr - ws).sum())
    U = Vr @ Vs.conj().T
    return value, U


def _renyi_of_spectrum(q: np.ndarray, alpha: float) -> float:
    q = np.asarray(q, dtype=float)
    q = q[q > 0]
    return (1.0 / (1.0 - alpha)) * math.log2(float(np.sum(q**alpha)))


def smooth_renyi_entropy_min(p, delta: float, alpha: float):
    """H_alpha minimized over the total-variation delta-ball around p.

    For alpha < 1, H_alpha is Schur-concave, and the ball holds a steepest
    element that majorizes every other point of it: delta of mass moved from
    the smallest entries onto the largest (Horodecki, Oppenheim & Sparaciari,
    J. Phys. A 51, 305301, 2018).  Its H_alpha is the minimum, in closed
    form.  Returns (value, witness spectrum).
    """
    if not (0.0 < alpha < 1.0):
        raise ContractViolation(f"alpha must be in (0,1), got {alpha}")
    if not (0.0 <= delta < 0.5):
        raise ContractViolation(f"delta must be in [0,1/2), got {delta}")
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = p.copy()
    remaining = delta
    for i in range(len(q) - 1, 0, -1):
        take = min(q[i], remaining)
        q[i] -= take
        q[0] += take
        remaining -= take
        if remaining <= 0:
            break
    return _renyi_of_spectrum(q, alpha), q


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
    L = np.kron(effect_a, np.eye(dB))
    out = L @ R @ L.conj().T
    survival = float(np.trace(out).real)
    return out / survival, survival


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
    """
    from . import infomeasures

    if not (0.0 < alpha < 1.0 and beta > 1.0 and 0.0 < eps < 1.0):
        raise ContractViolation("need alpha in (0,1), beta > 1, eps in (0,1)")
    dA, dB = dims
    R = _as_matrix(rho_ab)
    delta = infomeasures.C_SMOOTH * eps * eps
    eps1 = (math.sqrt(3.0) - 1.0) * eps
    cache = cache if cache is not None else {}

    rho_A = np.trace(R.reshape(dA, dB, dA, dB), axis1=1, axis2=3)
    p = np.sort(np.clip(np.linalg.eigvalsh(rho_A), 0.0, None))[::-1]

    key_t = ("trunc", round(delta, 14), round(alpha, 14))
    if key_t not in cache:
        h_delta, tau_spec = smooth_renyi_entropy_min(p, delta, alpha)
        tr = truncation_effect(rho_A, tau_spec, delta)
        omega_l, _ = apply_truncation(R, tr.effect, dims)
        imax_val = infomeasures.imax_certified(omega_l, dims)
        cache[key_t] = (h_delta, tr, omega_l, imax_val)
    h_delta, tr, omega_l, imax_val = cache[key_t]

    if "h_min" not in cache:
        cache["h_min"] = infomeasures.h_min_conditional(R, dims)
    h_min = cache["h_min"]

    steps = []
    dist = trace_distance(omega_l, R)
    pdist = purified_distance(omega_l, R)
    steps.append(ChainStep("ball-membership", dist, eps1, dist <= eps1 + 1e-9))
    lhs2 = -math.log2(tr.s_min_kept)
    rhs2 = h_delta + math.log2(1.0 / delta) / (1.0 - alpha)
    steps.append(ChainStep("lambda-min-vs-smoothed-entropy", lhs2, rhs2,
                           lhs2 <= rhs2 + 1e-8))
    rhs3 = lhs2 - h_min
    steps.append(ChainStep("imax-vs-minentropy", imax_val, rhs3,
                           imax_val <= rhs3 + 1e-7))
    rhs4 = infomeasures.universal_rhs(R, dims, alpha, beta, eps, cache=cache)
    steps.append(ChainStep("final-certification", imax_val, rhs4,
                           imax_val <= rhs4 + 1e-7))
    # Gentle-measurement audit rides along with the ball check.
    if pdist > math.sqrt(2 * delta) + 1e-9:
        steps.append(ChainStep("gentle-measurement", pdist,
                               math.sqrt(2 * delta), False))
    return ChainReport(steps, all(s.ok for s in steps), imax_val, rhs4)
