"""Executable state-splitting protocol and the channel-simulation cost bound.

The splitting simulator runs the full purified protocol: borrow n entangled
pairs, apply the Uhlmann alignment isometry on the sender's side, measure
the outcome register, swap the indicated slot, and measure the distance of
the final branch mixture to the ideal target.  All protocol states are kept
as pure vectors; the final distance is evaluated inside the small subspace
spanned by the branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import q2
from .infomeasures import (
    BoundReport,
    conditional_renyi_up,
    f_alpha_beta,
    imax_smoothed_upper,
    mutual_info_alpha,
    renyi_entropy,
)
from .matcore import ContractViolation, _as_matrix, fidelity
from .optim import maximize_over_pure

AMPLITUDE_CAP = 2**24


@dataclass
class ChannelSpec:
    kraus: list
    dim_in: int
    dim_out: int

    def __post_init__(self):
        self.kraus = [np.asarray(K, dtype=complex) for K in self.kraus]
        acc = sum(K.conj().T @ K for K in self.kraus)
        if np.abs(acc - np.eye(self.dim_in)).max() > 1e-10:
            raise ContractViolation("Kraus operators are not trace preserving")

    def apply_local(self, rho, dims_ref: int):
        """Apply the channel to the second factor of ref (x) input."""
        R = _as_matrix(rho)
        out = np.zeros((dims_ref * self.dim_out,) * 2, dtype=complex)
        for K in self.kraus:
            L = np.kron(np.eye(dims_ref), K)
            out += L @ R @ L.conj().T
        return out


@dataclass
class QSSInstance:
    psi: np.ndarray  # pure vector on R (x) A (x) A'
    dims: tuple[int, int, int]  # (|R|, |A|, |A'|)
    eps: float
    delta: float

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        dR, dA, dAp = self.dims
        if len(self.psi) != dR * dA * dAp:
            raise ContractViolation("psi does not match dims")
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-10:
            raise ContractViolation("psi must be normalized")
        if not (0.0 < self.delta < self.eps < 1.0):
            raise ContractViolation("need 0 < delta < eps < 1")


@dataclass
class QSSResult:
    n: int
    cost_bits: float
    achieved_distance: float
    sigma_opt: np.ndarray
    bound_ok: bool
    mu: float
    i2_bits: float
    distance_bound: float  # sqrt(mu/(mu+n))
    n_unclamped: int
    branch_probs: np.ndarray = field(default=None)


def qss_optimal_sigma(rho_RB, dims: tuple[int, int], seed: int = 0):
    """Optimal product-reference state for the collision mutual information.

    The optimizer's state is projected onto supp(rho_B): mass outside the
    output marginal's support never helps and shows up as dust that breaks
    the mu -> 0 limit.
    """
    from .matcore import RANK_TOL, support_projector

    value, report = mutual_info_alpha(rho_RB, 2.0, dims, seed=seed,
                                      return_report=True)
    dR, dB = dims
    rho_B = np.trace(_as_matrix(rho_RB).reshape(dR, dB, dR, dB),
                     axis1=0, axis2=2)
    Pi = support_projector(rho_B)
    sigma = Pi @ report.argopt @ Pi
    tr = float(np.trace(sigma).real)
    if tr <= RANK_TOL:
        return report.argopt, value
    sigma = (sigma + sigma.conj().T) / (2 * tr)
    return sigma, value


def _uhlmann_factors(psi_target, psi_source, shared_dim: int):
    """Singular factors (U, W, singulars) of the cross-overlap operator.

    The optimal alignment is V = W U^dag; the shared-factor rank keeps the
    factorization cheap even when the local spaces are large.
    """
    s = np.asarray(psi_source, dtype=complex).reshape(-1)
    t = np.asarray(psi_target, dtype=complex).reshape(-1)
    if len(s) % shared_dim or len(t) % shared_dim:
        raise ContractViolation("vector lengths not divisible by shared_dim")
    sa = len(s) // shared_dim
    ta = len(t) // shared_dim
    if ta < sa:
        raise ContractViolation("target local dimension smaller than source")
    S = s.reshape(shared_dim, sa)
    T = t.reshape(shared_dim, ta)
    # C = S^T conj(T) = Qa (Ra conj(Rb)^T) conj(Qb)^T; SVD only the middle
    # (rank <= shared_dim) factor.
    Qa, Ra = np.linalg.qr(S.T)
    Qb, Rb = np.linalg.qr(T.T)
    Um, sv, Vmh = np.linalg.svd(Ra @ Rb.conj().T)
    U = Qa @ Um  # (sa, k)
    W = Qb @ Vmh.conj().T  # (ta, k)
    return U, W, sv


def _complete_columns(M: np.ndarray, cols: int) -> np.ndarray:
    """Extend orthonormal columns to `cols` columns of an isometry."""
    d, have = M.shape
    if have >= cols:
        return M[:, :cols]
    rng = np.random.default_rng(0)
    extra = rng.standard_normal((d, cols - have)) + 1j * rng.standard_normal(
        (d, cols - have))
    extra -= M @ (M.conj().T @ extra)
    Q, _ = np.linalg.qr(extra)
    return np.hstack([M, Q[:, : cols - have]])


def uhlmann_isometry(psi_target, psi_source, shared_dim: int) -> np.ndarray:
    """Local isometry aligning two purifications over a common shared factor.

    Both vectors must be laid out shared-factor-first.  Returns V with
    V^dag V = I on the source local space (requires target local dim >=
    source local dim) such that |<t|(I (x) V)|s>| equals the fidelity of the
    reduced states on the shared factor.
    """
    U, W, _ = _uhlmann_factors(psi_target, psi_source, shared_dim)
    sa = U.shape[0]
    U_full = _complete_columns(U, sa)
    W_full = _complete_columns(W, sa)
    return W_full @ U_full.conj().T  # (ta, sa)


def _pad_vector(psi, dims, target_dims):
    """Embed a pure vector register-wise into larger local dimensions."""
    T = np.asarray(psi, dtype=complex).reshape(dims)
    out = np.zeros(target_dims, dtype=complex)
    out[tuple(slice(0, d) for d in dims)] = T
    return out.reshape(-1)


def _swap_axes_vec(T, i, j):
    if i == j:
        return T
    return np.swapaxes(T, i, j)


def qss_simulate(instance: QSSInstance, seed: int = 0) -> QSSResult:
    """Run the full splitting protocol and measure the achieved distance."""
    dR, dA0, dAp0 = instance.dims
    d = max(dA0, dAp0)  # padded common dimension of A, A', B
    psi = _pad_vector(instance.psi, (dR, dA0, dAp0), (dR, d, d))

    # rho_RB: the ideal channel renames A' to B; marginal over A.
    T3 = psi.reshape(dR, d, d)
    rho_RAB = np.einsum("iab,jcd->iabjcd", T3, T3.conj())
    rho_RB = np.einsum("iabjad->ibjd", rho_RAB).reshape(dR * d, dR * d)

    sigma, i2 = qss_optimal_sigma(rho_RB, (dR, d), seed=seed)
    mu = max(q2(rho_RB, np.kron(_marginal_R(psi, dR, d), sigma)) - 1.0, 0.0)

    n_unclamped = max(1, math.ceil(mu * (1.0 / instance.delta**2 - 1.0) - 1e-9))
    n = n_unclamped
    while n > 1 and dR * n * (d * d) ** n > AMPLITUDE_CAP:
        n -= 1

    # Purification of sigma: |phi> = sum_j sqrt(lam_j) |j>_Atilde |u_j>_B, so
    # the B marginal is sigma itself.
    w, V = np.linalg.eigh(sigma)
    w = np.clip(w, 0.0, None)
    phi_t = (V * np.sqrt(w)).T  # indices (Atilde, B)

    # The outcome register must hold the sender's local space: ta >= sa needs
    # nL * d^n >= d^2 * d^n.
    nL = max(n, d * d)
    # Source: R (x) [A A' Atilde^n] (x) B^n, shared factor = R (x) B^n.
    # Build as tensor with axes (R, A, A', At_1..At_n, B_1..B_n).
    acc = psi.reshape(dR, d, d)
    for _ in range(n):
        acc = np.tensordot(acc, phi_t, axes=0)
    # acc axes: R, A, A', (At_1, B_1), ..., (At_n, B_n) interleaved
    perm = [0, 1, 2] + [3 + 2 * i for i in range(n)] + [4 + 2 * i for i in range(n)]
    source = acc.transpose(perm)

    # Target: |tau> on R (x) [L Atilde^n] (x) B^n.
    rho_vec = psi.reshape(dR, d, d)  # axes R, A->At_x slot, A'->B_x slot
    target = np.zeros((dR, nL) + (d,) * n + (d,) * n, dtype=complex)
    for x in range(n):
        branch = rho_vec
        for _ in range(n - 1):
            branch = np.tensordot(branch, phi_t, axes=0)
        # axes: R, At_x, B_x, then pairs for slots != x in increasing order
        others = [y for y in range(n) if y != x]
        at_axes = [0] * n
        b_axes = [0] * n
        at_axes[x] = 1
        b_axes[x] = 2
        for idx, y in enumerate(others):
            at_axes[y] = 3 + 2 * idx
            b_axes[y] = 4 + 2 * idx
        perm_x = [0] + at_axes + b_axes
        target[:, x] += branch.transpose(perm_x) / math.sqrt(n)

    # Shared factor first: move B^n axes right after R, keep sender local last.
    sh_src = source.transpose([0] + list(range(3 + n, 3 + 2 * n)) + [1, 2]
                              + list(range(3, 3 + n)))
    sh_tgt = target.transpose([0] + list(range(2 + n, 2 + 2 * n)) + [1]
                              + list(range(2, 2 + n)))
    shared = dR * d**n
    # The completion columns of the full isometry annihilate the source, so
    # applying V = W U^dag through its factors is exact and much cheaper.
    U, W, _ = _uhlmann_factors(sh_tgt.reshape(-1), sh_src.reshape(-1), shared)
    Smat = sh_src.reshape(shared, d * d * d**n)
    out = (Smat @ U.conj()) @ W.T  # = Smat @ V.T, (shared, nL * d^n)
    out = out.reshape((dR,) + (d,) * n + (nL,) + (d,) * n)
    # axes: R, B_1..B_n, L, At_1..At_n

    # Ideal final state: rho^{R At_1 B_1} (x) phi^{(x)(n-1)} on remaining slots.
    ideal = rho_vec
    for _ in range(n - 1):
        ideal = np.tensordot(ideal, phi_t, axes=0)
    at_axes = [1] + [3 + 2 * i for i in range(n - 1)]
    b_axes = [2] + [4 + 2 * i for i in range(n - 1)]
    ideal = ideal.transpose([0] + b_axes + at_axes)  # R, B^n, At^n
    ideal_vec = ideal.reshape(-1)

    # Measure L, swap slot x with slot 1 on both sides, collect branches.
    branches = []
    probs = []
    for x in range(nL):
        bx = out[(slice(None),) + (slice(None),) * n + (x,)]
        # axes: R, B_1..B_n, At_1..At_n
        if x < n:
            bx = _swap_axes_vec(bx, 1, 1 + x)  # B_x <-> B_1
            bx = _swap_axes_vec(bx, 1 + n, 1 + n + x)  # At_x <-> At_1
        v = bx.reshape(-1)
        p = float(np.vdot(v, v).real)
        probs.append(p)
        if p > 1e-15:
            branches.append(v)

    # Amplitude outside the aligned subspace (rank-deficient overlap) shows
    # up as missing mass; treat it as an orthogonal failure branch.
    lost = max(1.0 - float(sum(probs)), 0.0)
    achieved = _mixture_vs_pure_distance(branches, ideal_vec, extra_weight=lost)
    dist_bound = math.sqrt(mu / (mu + n)) if mu > 0 else 0.0
    cost = 0.5 * math.log2(n)
    bound_ok = (
        achieved <= dist_bound + 1e-7
        and cost <= 0.5 * i2 + math.log2(1.0 / instance.delta) + 1e-7
    )
    return QSSResult(n, cost, achieved, sigma, bound_ok, mu, i2, dist_bound,
                     n_unclamped, np.array(probs))


def _marginal_R(psi, dR, d):
    T = np.asarray(psi).reshape(dR, d * d)
    return T @ T.conj().T


def _mixture_vs_pure_distance(branch_vectors, pure_vector,
                              extra_weight: float = 0.0) -> float:
    """Trace distance between an unnormalized branch mixture and a pure state.

    All operators live in the span of the branches plus the target, so the
    spectrum of the difference is computed in that small subspace.
    """
    basis = list(branch_vectors) + [pure_vector]
    # Orthonormalize via the Gram matrix (dimensions are tiny).
    M = np.array(basis)
    G = M.conj() @ M.T  # G[i,j] = <b_i|b_j>
    w, U = np.linalg.eigh((G + G.conj().T) / 2)
    keep = w > 1e-13 * max(w.max(), 1.0)
    # coords[i] = representation of basis[i] in the orthonormal frame.
    coords = (U[:, keep] * (1.0 / np.sqrt(w[keep]))).conj().T @ G  # (r, len(basis))
    k = coords.shape[0]
    mix = np.zeros((k, k), dtype=complex)
    for i in range(len(branch_vectors)):
        c = coords[:, i]
        mix += np.outer(c, c.conj())
    ct = coords[:, -1]
    ct = ct / np.linalg.norm(ct)
    diff = mix - np.outer(ct, ct.conj())
    dist = 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())
    # Mass on a direction orthogonal to every tracked vector contributes a
    # clean extra eigenvalue.
    return dist + 0.5 * extra_weight


def qss_cost_report(instance: QSSInstance, seed: int = 0) -> BoundReport:
    """Simulated cost against the protocol bound and the smoothed cost bounds."""
    res = qss_simulate(instance, seed=seed)
    term_bound = 0.5 * res.i2_bits + math.log2(1.0 / instance.delta)
    # Smoothed upper bound: feasible witness rho' = rho (one-sided estimate).
    ub = 0.5 * res.i2_bits + math.log2(1.0 / instance.delta)
    dR, dA0, dAp0 = instance.dims
    d = max(dA0, dAp0)
    psi = _pad_vector(instance.psi, (dR, dA0, dAp0), (dR, d, d))
    T3 = psi.reshape(dR, d, d)
    rho_RB = np.einsum("iab,jad->ibjd", T3, T3.conj()).reshape(dR * d, dR * d)
    lb_est = 0.5 * imax_smoothed_upper(rho_RB, instance.eps, (dR, d)).value_bits
    ok = res.cost_bits <= term_bound + 1e-7
    return BoundReport(
        "splitting-cost", res.cost_bits, term_bound, ok,
        {
            "upper_bound_smoothed": ub,
            "lower_bound_estimate_one_sided": lb_est,
            "achieved_distance": res.achieved_distance,
            "n": res.n,
            "bound_ok": res.bound_ok,
        },
    )


def channel_alpha_beta_info(channel: ChannelSpec, alpha: float, beta: float,
                            restarts: int = 4, seed: int = 0, maxiter: int = 200):
    """max over pure inputs of H_alpha(A) - optimized conditional beta-entropy.

    The reference A mirrors the channel input; alpha = beta = 1 routes to the
    ordinary mutual information of the channel output.
    """
    dI, dO = channel.dim_in, channel.dim_out
    dim = dI * dI  # pure states on A (x) input

    def objective(v):
        rho_in = np.outer(v, v.conj())
        omega = channel.apply_local(rho_in, dI)
        omega_A = np.trace(omega.reshape(dI, dO, dI, dO), axis1=1, axis2=3)
        if alpha == 1.0 and beta == 1.0:
            omega_B = np.trace(omega.reshape(dI, dO, dI, dO), axis1=0, axis2=2)
            return (renyi_entropy(omega_A, 1) + renyi_entropy(omega_B, 1)
                    - renyi_entropy(omega, 1))
        h_up = conditional_renyi_up(omega, beta, (dI, dO))
        return renyi_entropy(omega_A, alpha) - h_up

    # Maximally entangled input is the natural first guess.
    ent = np.eye(dI).reshape(-1) / math.sqrt(dI)
    report = maximize_over_pure(objective, dim, restarts=restarts, seed=seed,
                                extra_starts=[ent])
    return report.value, report


def reverse_shannon_delta_n(dim_in: int, alpha: float, beta: float, eps: float,
                            n: int) -> float:
    """Per-use overhead of the n-fold simulation bound."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    k = dim_in * dim_in - 1
    eps_n = eps / (2.0 * (n + 1) ** k)
    return (f_alpha_beta(alpha, beta, eps_n) / n
            + 4.0 * k * math.log2(n + 1.0) / n)


def reverse_shannon_bound(channel: ChannelSpec, alpha: float, beta: float,
                          eps: float, n: int, restarts: int = 4,
                          seed: int = 0) -> tuple[float, float]:
    """(bits-per-use upper bound, overhead delta_n) for n-fold simulation."""
    delta_n = reverse_shannon_delta_n(channel.dim_in, alpha, beta, eps, n)
    info, _ = channel_alpha_beta_info(channel, alpha, beta, restarts=restarts,
                                     seed=seed)
    return info + delta_n, delta_n
