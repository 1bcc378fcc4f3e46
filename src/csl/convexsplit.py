"""Convex-split mixtures and the exact collision-entropy identity.

The mixture tau places rho's A-part in one of n slots (sigma elsewhere) and
averages.  Its collision divergence to omega (x) sigma^n decomposes exactly
into two single-copy terms; everything else here (trace-distance, purified
-distance, and Umegaki bounds, plus the spectral-pinching variant) is
derived from that identity and verified against a left-hand side evaluated
independently from tau.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .divergences import INF, d_alpha, d_max, q2
from .matcore import (
    ContractViolation,
    Spectrum,
    _as_matrix,
    _eigvalsh,
    _herm,
    _svdvals,
    kron,
    reduced,
    support_cut,
)
from .optim import Certified, QAlphaKernel, minimize_convex_over_states

# Cap on the largest block the reference frame decomposes (a dense tau on
# R (x) A^n is one block); protocols handle larger n with pure states only.
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
        return reduced(self.rho_RA, self.dims, 0)

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
    nu: Certified | None = None  # nu_n's certified solve (bounds_report only)
    bounds: dict = field(default_factory=dict)
    ly2024_tighter: bool | None = None

    @property
    def nu_n(self) -> float | None:
        return None if self.nu is None else self.nu.value

    @property
    def slack(self) -> dict:
        """rhs - lhs per bound, and +inf where rhs = +inf: an infinite bound
        holds for every left-hand side, an infinite one included."""
        return {k: INF if rhs == INF else rhs - lhs for k, (lhs, rhs) in self.bounds.items()}


class _Block(NamedTuple):
    """One block X_lambda of X = (+)_lambda X_lambda (x) I_mult, with the
    reference's eigenvalues w and per-factor support mask keep on it."""

    mult: int
    X: np.ndarray
    w: np.ndarray
    keep: np.ndarray


def _schur_weyl(instance: ConvexSplitInstance) -> bool:
    """Uniform weights on qubit slots: X splits into closed-form blocks."""
    return instance.dims[1] == 2 and np.ptp(instance.weights) == 0.0


def _schur_weyl_blocks(rho, ws, wo, keep_o, keep_s, n: int, p: float) -> list[_Block]:
    """X = p sum_x rho^{R A_x} (x) diag(ws)^{others} on R (x) singlet^k (x) Sym^m.

    For lambda = (n-k, k), m = n - 2k, the Dicke state with j ones in Sym^m
    has z = m-j+k zeros and o = j+k ones in all; diag(ws)^n acts on it as
    s0^z s1^o.  The slot sum of |a><b| (x) diag(ws)^{others} is the
    derivative of g^n at g = diag(ws) in direction |a><b|, which on the
    block is d/de det(g)^k Sym^m(g): diagonal for a = b, and
    sqrt(j(m-j+1)) s0^{z} s1^{o-1} from Dicke j to j-1 for |0><1|.  The
    block's multiplicity is the dimension C(n,k) - C(n,k-1) of the
    permutation irrep.  Powers are tabulated with 0^0 = 1, so a
    rank-deficient sigma needs no special case.
    """
    dR = len(wo)
    e = np.arange(n + 1)
    s0, s1 = ws[0] ** e, ws[1] ** e  # s0[e] = s0^e; r0, r1 for the clipped values
    r0, r1 = np.clip(ws, 0.0, None)[:, None] ** e
    rho = rho.reshape(dR, 2, dR, 2)
    blocks = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        j = np.arange(m + 1)
        z, o = m - j + k, j + k
        D = np.zeros((2, 2, m + 1, m + 1))
        D[0, 0, j, j] = z * s0[np.maximum(z - 1, 0)] * s1[o]  # 0 where z = 0
        D[1, 1, j, j] = o * s0[z] * s1[np.maximum(o - 1, 0)]
        D[0, 1, j[:-1], j[1:]] = np.sqrt(j[1:] * (m - j[1:] + 1)) * s0[z[1:]] * s1[o[1:] - 1]
        D[1, 0] = D[0, 1].T
        X = p * np.einsum("rasb,abjk->rjsk", rho, D).reshape(dR * (m + 1), -1)
        w = np.outer(wo, r0[z] * r1[o]).ravel()
        # A product that underflows to 0 carries no mass (mult w < 2^n 1e-308).
        kept = ((z == 0) | keep_s[0]) & ((o == 0) | keep_s[1])
        keep = np.outer(keep_o, kept).ravel() & (w > 0)
        mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        blocks.append(_Block(mult, X, w, keep))
    return blocks


def _mixture_entries(rho, ws, weights, dR: int, dA: int):
    """X = sum_x p_x rho^{R A_x} (x) diag(ws)^{others} as its nonzero entries.

    Row (r, a_1..a_n) meets column (r', b_1..b_n) only where the A-strings
    differ in at most one slot.  Where they differ in slot x alone the entry
    is p_x rho[r a_x, r' b_x] prod_{y != x} ws[a_y]; equal strings carry the
    dR x dR block sum_x p_x rho[r a_x, r' a_x] prod_{y != x} ws[a_y].  Rows
    and columns are flat indices of R (x) A_1 (x) ... (x) A_n, each pair at
    most once.
    """
    n = len(weights)
    S = dA**n
    s = np.arange(S)
    rho = rho.reshape(dR, dA, dR, dA).transpose(1, 3, 0, 2)  # [a, b, r, r']
    reg = np.arange(dR) * S

    def flat(strings, r):  # flat indices of (r, string), laid out as [string, r, r']
        return np.broadcast_to(strings[:, None, None] + r, (len(strings), dR, dR)).ravel()

    rows, cols, vals = [], [], []
    same = np.zeros((S, dR, dR), dtype=complex)
    for x, p in enumerate(weights):
        stride = dA ** (n - 1 - x)
        a = (s // stride) % dA
        others = functools.reduce(np.multiply.outer,
                                  [np.ones(dA) if y == x else ws for y in range(n)])
        term = p * rho[a] * others.reshape(S, 1, 1, 1)  # [s, b, r, r']
        same += term[s, a]
        s_m, b_m = np.nonzero(np.arange(dA) != a[:, None])
        vals.append(term[s_m, b_m].ravel())
        rows.append(flat(s_m, reg[:, None]))
        cols.append(flat(s_m + (b_m - a[s_m]) * stride, reg))
    rows.append(flat(s, reg[:, None]))
    cols.append(flat(s, reg))
    vals.append(same.ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


class _ReferenceFrame:
    """tau and omega (x) sigma^n in the reference's eigenbasis, as blocks.

    With V = V_omega (x) V_sigma^n, X = V^dag tau V is the mixture of
    rotated factors (V acts slot by slot, so it commutes with the mixture's
    slot permutations), and the reference is diag(w) with w the exact
    products of factor eigenvalues.  X and diag(w) are held as a list of
    blocks (mult, X_lambda, w_lambda, keep_lambda), and every value below is
    a multiplicity-weighted sum over them.  With uniform weights and qubit
    slots they are the Schur-Weyl blocks of _schur_weyl_blocks; otherwise
    there is one dense block, held as X's nonzero entries (_mixture_entries):
    Q_2 and the support test are sums over them, and the dense block is
    scattered from them only when a spectral value asks for it.  No block
    may exceed DENSE_DIM_CAP.

    The reference's support ``keep`` is decided per factor: a global cut on
    w would misread deep-but-genuine eigenvalues (lambda_min^n) as kernel
    directions.  tau's eigenvalues are cut per block, at support_cut of the
    block's own spectrum, which is where its decomposition stops resolving
    them; a global cut would drop blocks whose every eigenvalue is small but
    whose multiplicity is large (a few percent of tau's mass at n = 50).

    ``omega`` and ``sigma`` are the factors' Spectra, decomposed here once
    for every consumer of the split report.
    """

    def __init__(self, instance: ConvexSplitInstance):
        dR, dA = instance.dims
        size = dR * (instance.n + 1) if _schur_weyl(instance) else dR * dA**instance.n
        if size > DENSE_DIM_CAP:
            raise ContractViolation(f"block dimension {size} exceeds cap {DENSE_DIM_CAP}")
        if math.comb(instance.n, instance.n // 2) > sys.float_info.max:
            raise ContractViolation(f"block multiplicities at n = {instance.n} overflow a float")
        self.omega, self.sigma = Spectrum(instance.omega_R), Spectrum(instance.sigma_A)
        wo, ws = self.omega.w, self.sigma.w
        W = kron(self.omega.V, self.sigma.V)
        rho = W.conj().T @ instance.rho_RA @ W
        factors = [np.clip(f, 0.0, None) for f in (wo, ws)]
        keep_o, keep_s = (f > support_cut(f) for f in factors)
        if _schur_weyl(instance):
            self.entries = None
            self.blocks = _schur_weyl_blocks(rho, ws, factors[0], keep_o, keep_s,
                                             instance.n, instance.weights[0])
            self.leaks = sum(b.mult * float(b.X.diagonal().real[~b.keep].sum())
                             for b in self.blocks) > 1e-10
        else:
            self.entries = _mixture_entries(rho, ws, instance.weights, dR, dA)
            n = instance.n
            self.w = functools.reduce(np.multiply.outer, [factors[0]] + [factors[1]] * n).ravel()
            self.keep = functools.reduce(np.multiply.outer, [keep_o] + [keep_s] * n).ravel()
            i, j, v = self.entries
            self.leaks = float(v.real[(i == j) & ~self.keep[i]].sum()) > 1e-10

    @functools.cached_property
    def blocks(self) -> list[_Block]:
        """The dense class's one block, scattered from X's entries.  (The
        Schur-Weyl blocks are set in __init__ and shadow this.)"""
        i, j, v = self.entries
        X = np.zeros((self.w.size, self.w.size), dtype=v.dtype)
        X[i, j] = v
        return [_Block(1, X, self.w, self.keep)]

    @functools.cached_property
    def spectra(self) -> list[Spectrum]:
        """tau's spectrum, one Spectrum per block."""
        return [Spectrum(b.X) for b in self.blocks]

    def q2(self) -> float:
        """Q_2(tau || omega (x) sigma^n), elementwise in this basis."""
        if self.leaks:
            return INF
        if self.entries is not None:
            i, j, v = self.entries
            q = np.where(self.keep, self.w, INF) ** -0.25  # 0 off the support
            return float(np.sum(np.abs(q[i] * v * q[j]) ** 2))
        total = 0.0
        for b in self.blocks:
            k = b.keep
            q = b.w[k] ** -0.25  # |X_ij|^2 / sqrt(w_i w_j) without overflow
            total += b.mult * float(np.sum(np.abs(q[:, None] * b.X[np.ix_(k, k)] * q) ** 2))
        return total

    def umegaki(self) -> float:
        """D(tau || omega (x) sigma^n) from tau's eigenvalues and the diagonal of X."""
        if self.leaks:
            return INF
        total = 0.0
        for b, s in zip(self.blocks, self.spectra):
            lam = s.w[s.keep]
            total += b.mult * (float(np.sum(lam * np.log2(lam)))
                               - float(np.sum(b.X.diagonal().real[b.keep]
                                              * np.log2(b.w[b.keep]))))
        return total

    def fidelity(self) -> float:
        """F(tau, ref) = sum_lambda mult ||sqrt(lam) U^dag sqrt(diag w)||_1 per block,
        on tau's kept eigenvalues and the reference's support."""
        total = 0.0
        for b, s in zip(self.blocks, self.spectra):
            s.require_psd()
            M = (s.basis * np.sqrt(s.w[s.keep])).conj().T[:, b.keep] * np.sqrt(b.w[b.keep])
            total += b.mult * float(_svdvals(M).sum())
        return min(total, 1.0)

    def trace_distance(self) -> float:
        return float(sum(b.mult * 0.5 * np.abs(_eigvalsh(b.X - np.diag(b.w))).sum()
                         for b in self.blocks))


def _mu(q: float, dm: float) -> tuple[float, float]:
    """(mu, mu_max) from Q_2 and D_max against the pinned product."""
    mu = INF if math.isinf(q) else max(q - 1.0, 0.0)
    mu_max = INF if math.isinf(dm) else max(2.0**dm - 1.0, 0.0)
    return mu, mu_max


def split_equality_check(instance: ConvexSplitInstance) -> SplitReport:
    """The frame's LHS vs the two-term decomposition; residual is relative."""
    return _split_report(instance, _ReferenceFrame(instance))[0]


def _split_report(instance: ConvexSplitInstance,
                  frame: _ReferenceFrame) -> tuple[SplitReport, Spectrum]:
    """The report against the frame's LHS, and the Spectrum of omega (x) sigma.

    Each operator is decomposed once: omega and sigma by the frame, the
    pinned product rho_R (x) sigma (mu's reference) here, and omega (x) sigma
    only when omega's ``_herm`` is not rho_R bit for bit.  When it is, the
    two products are one operator and Q_2(rho_RA || omega (x) sigma) serves
    mu as well; rho_R is the ``_herm`` of its partial trace, so an omega
    taken as the bare partial trace of rho_RA counts as rho_R.
    """
    R, rho_R, sigma = instance.rho_RA, instance.rho_R, instance.sigma_A
    t = instance.t_collision
    lhs = frame.q2()
    product = Spectrum(kron(rho_R, sigma))
    pinned = _herm(instance.omega_R).tobytes() == rho_R.tobytes()
    ref1 = product if pinned else Spectrum(kron(instance.omega_R, sigma))
    term_R = q2(rho_R, frame.omega)
    term_RA = q2(R, ref1)
    if math.isinf(term_R) or math.isinf(term_RA):
        rhs = INF
    else:
        rhs = (1.0 - t) * term_R + t * term_RA
    if math.isinf(lhs) or math.isinf(rhs):
        residual = 0.0 if math.isinf(lhs) and math.isinf(rhs) else INF
    else:
        residual = abs(lhs - rhs) / max(1.0, lhs)
    mu, mu_max = _mu(term_RA if pinned else q2(R, product), d_max(R, product))
    return SplitReport(lhs, rhs, residual, t, mu, mu_max), ref1


def nu_n(rho_RA, sigma_A, n: int, dims: tuple[int, int]) -> Certified:
    """min over omega of (n-1)/n Q_2(rho_R||omega) + 1/n Q_2(rho_RA||omega (x) sigma).

    Both terms are jointly convex; the minimum lies on supp(rho_R) by data
    processing under the pinching onto it, so omega is solved for there and
    certified by the convex solver's Frank-Wolfe gap, from one QAlphaKernel
    call per Newton step that holds both terms.  The solve starts at rho_R,
    the first term's minimizer and the limit as n -> inf.  The result's
    witness is omega, lifted to R.  When rho_RA leaves R (x) supp(sigma)
    every omega gives inf, which is returned exactly: value, lower and
    upper inf, witness I/dR.
    """
    R = _as_matrix(rho_RA)
    return _nu_n(R, Spectrum(reduced(R, dims, 0)), Spectrum(sigma_A), n)


def _nu_n(R: np.ndarray, rho_R: Spectrum, sigma: Spectrum, n: int) -> Certified:
    """nu_n of rho_RA = R from the Spectra of rho_R and sigma."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    dR = len(rho_R.w)
    VR, VS = rho_R.basis, sigma.basis
    W = kron(VR, VS)
    Rc = W.conj().T @ R @ W
    if float(np.trace(R).real - np.trace(Rc).real) > 1e-10:
        return Certified(INF, INF, INF, np.eye(dR) / dR, 0)
    rho_Rc = VR.conj().T @ rho_R.matrix @ VR
    Sc = VS.conj().T @ sigma.matrix @ VS
    terms = [((n - 1) / n, rho_Rc, np.ones((1, 1)), False)] if n > 1 else []
    kernel = QAlphaKernel(2.0, terms + [(1.0 / n, Rc, Sc, True)])
    res = minimize_convex_over_states(kernel, VR.shape[1], start=rho_Rc / np.trace(rho_Rc).real)
    return replace(res, witness=VR @ res.witness @ VR.conj().T)


def bounds_report(rho_RA, sigma_A, n: int, dims: tuple[int, int]) -> SplitReport:
    """Every derived bound evaluated against the reference frame's LHS values.

    The bounds hold for the canonical mixture: omega = rho_R and uniform
    weights (the minimizing choice); mu/n formulas do not cover skewed
    weights.  Bound names: gmain0 (Umegaki vs mu_max), pinsker (trace vs
    mu_max), split7 (purified vs mu_max), gmain8 (exact collision value),
    split9 (purified vs nu_n), pmu0 (purified vs mu), trace_sqrt (trace vs
    mu), ly2024 (Umegaki vs the smaller of gmain8's log(1 + mu/n) and the
    spectral-pinching bound (l^s / (s n^s)) 2^{s D_{1+s}} at s = 1/2, with
    the spectrum count l of rho_R (x) sigma standing in for the comparison
    constant v).  ``ly2024_tighter`` records log(1 + mu/n) <= the pinching
    bound.  rho_R (= omega), sigma and rho_R (x) sigma are each decomposed
    once, and their Spectra serve the frame, the split report, nu_n and
    D_1.5.
    """
    # Validated as given, then pinned to omega = rho_R.
    pinned = ConvexSplitInstance(rho_RA, sigma_A, np.eye(dims[0]), n, dims)
    pinned.omega_R = pinned.rho_R
    R = pinned.rho_RA
    frame = _ReferenceFrame(pinned)
    rep, ref1 = _split_report(pinned, frame)
    mu, mu_max = rep.mu, rep.mu_max
    rep.nu = _nu_n(R, frame.omega, frame.sigma, n)

    lhs_umegaki = frame.umegaki()
    lhs_d2 = math.log2(rep.q2_lhs) if not math.isinf(rep.q2_lhs) else INF
    lhs_trace = frame.trace_distance()
    F = frame.fidelity()
    lhs_p2 = max(1.0 - F * F, 0.0)
    ell = spectrum_cardinality(ref1)
    d15 = d_alpha(R, ref1, 1.5)
    pinching = (ell**0.5 / (0.5 * n**0.5)) * 2.0 ** (0.5 * d15) if not math.isinf(d15) else INF

    b = {}
    b["gmain0"] = (lhs_umegaki, math.log2(1.0 + mu_max / n) if not math.isinf(mu_max) else INF)
    b["pinsker"] = (lhs_trace, math.sqrt(mu_max / (2 * n)) if not math.isinf(mu_max) else INF)
    b["split7"] = (lhs_p2, mu_max / (n + mu_max) if not math.isinf(mu_max) else 1.0)
    b["gmain8"] = (lhs_d2, math.log2(1.0 + mu / n) if not math.isinf(mu) else INF)
    b["split9"] = (lhs_p2, 1.0 - 1.0 / rep.nu_n)
    b["pmu0"] = (lhs_p2, mu / (mu + n) if not math.isinf(mu) else 1.0)
    # Prefactor 1/2 follows from 1 + (2 T)^2 <= Q_2 = 1 + mu/n; a smaller
    # constant would already fail on the maximally entangled closed instance.
    b["trace_sqrt"] = (lhs_trace, 0.5 * math.sqrt(mu / n) if not math.isinf(mu) else INF)
    b["ly2024"] = (lhs_umegaki, min(pinching, b["gmain8"][1]))
    rep.ly2024_tighter = b["gmain8"][1] <= pinching
    rep.bounds = b
    return rep


def spectrum_cardinality(P) -> int:
    """|spec| with gap-based clustering at 1e-8 of the largest eigenvalue.

    P is an operator or its Spectrum, whose eigenvalues are then reused.
    """
    w = Spectrum.of(P).w[::-1]
    tol = 1e-8 * max(abs(float(w[-1])), 1.0e-300)
    count = 1
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            count += 1
    return count
