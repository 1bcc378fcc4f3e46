"""Executable state-splitting protocol and the channel-simulation cost bound.

The splitting simulator runs the full purified protocol: borrow n entangled
pairs, apply the Uhlmann alignment isometry on the sender's side, measure
the outcome register, swap the indicated slot, and measure the distance of
the final branch mixture to the ideal target.  All protocol states are kept
as pure vectors.  Source, target and ideal are axis permutations of one
tensor power psi (x) phi^(n-1) (times one more phi for the source), and the
final distance comes from the Gram matrix of the branches and the ideal.

The alignment is applied in factored form (`_aligned_source`): it needs
only the triangular factor of the source's QR, so the source's Q factor and
the tall factors of the full isometry are never formed.  The SVD input
Ra Rb^H of `_uhlmann_factors` must keep its bits: when the target is
rank-deficient it has zero singular values, and the vectors LAPACK returns
for them carry source mass into `achieved_distance` and `branch_probs`
(ROADMAP item 1 makes the alignment canonical).

The protocol's sigma = argmin D_2(rho_RB || rho_R (x) sigma) comes from
`mutual_info_alpha`, a multi-start L-BFGS-B descent whose starts run in
lockstep, one stacked `d_alpha` call per round across all of them; its
steps and differencing are scipy's own, bit for bit, because the distance
amplifies a 1e-14 change of sigma to 1e-3.  The cost
bound's information term maximizes H_alpha(A) - H_beta^up(A|B) over input
density operators with the same `minimize_over_states`, evaluating the
members of each stack one by one (each runs a certified solve).  Neither the
protocol nor the bound takes a seed: their random starts are fixed, so their
outputs are functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import q2
from .infomeasures import (
    conditional_renyi_up,
    f_alpha_beta,
    mutual_info_alpha,
    renyi_entropy,
)
from .matcore import (
    RANK_TOL,
    ContractViolation,
    Spectrum,
    _as_matrix,
    _eigh,
    _eigvalsh,
    _herm,
    kron,
    reduced,
)
from .optim import minimize_over_states

AMPLITUDE_CAP = 2**24


@dataclass
class ChannelSpec:
    kraus: list
    dim_in: int
    dim_out: int

    def __post_init__(self):
        self.kraus = [np.asarray(K, dtype=complex) for K in self.kraus]
        shape = (self.dim_out, self.dim_in)
        if min(shape) < 1 or any(K.shape != shape for K in self.kraus):
            raise ContractViolation(f"Kraus operators must be (dim_out, dim_in) = {shape}")
        if not all(np.isfinite(K).all() for K in self.kraus):
            raise ContractViolation("Kraus operators must be finite")
        acc = sum(K.conj().T @ K for K in self.kraus)
        if not np.abs(acc - np.eye(self.dim_in)).max() <= 1e-10:
            raise ContractViolation("Kraus operators are not trace preserving")

    def apply_local(self, rho, dims_ref: int):
        """Apply the channel to the second factor of ref (x) input."""
        R = _as_matrix(rho)
        out = np.zeros((dims_ref * self.dim_out,) * 2, dtype=complex)
        for K in self.kraus:
            L = kron(np.eye(dims_ref), K)
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
        if not abs(np.linalg.norm(self.psi) - 1.0) <= 1e-10:  # NaN fails too
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


def qss_optimal_sigma(rho_RB, dims: tuple[int, int]):
    """Optimal product-reference state for the collision mutual information.

    The optimizer's state is projected onto supp(rho_B): mass outside the
    output marginal's support never helps and shows up as dust that breaks
    the mu -> 0 limit.
    """
    value, found = mutual_info_alpha(rho_RB, 2.0, dims)
    Pi = Spectrum(reduced(_as_matrix(rho_RB), dims, 1)).projector()
    sigma = Pi @ found @ Pi
    tr = float(np.trace(sigma).real)
    if tr <= RANK_TOL:
        return found, value
    return _herm(sigma) / tr, value


def _uhlmann_factors(psi_target, psi_source, shared_dim: int):
    """Factors (Ra, Qb, Um, sv, Vmh) of the cross-overlap operator.

    With S, T the shared-first matrices of source and target, S^T = Qa Ra
    and T^T = Qb Rb (reduced QR), the overlap is
    S^T conj(T) = Qa (Ra Rb^H) Qb^H, and only the small middle factor
    Ra Rb^H = Um diag(sv) Vmh goes through the SVD.  The optimal alignment
    is V = W U^H with U = Qa Um and W = Qb Vmh^H.  Qa itself is not formed:
    the aligned source S V^T needs only Ra.
    """
    s = np.asarray(psi_source, dtype=complex).reshape(-1)
    t = np.asarray(psi_target, dtype=complex).reshape(-1)
    if len(s) % shared_dim or len(t) % shared_dim:
        raise ContractViolation("vector lengths not divisible by shared_dim")
    sa = len(s) // shared_dim
    ta = len(t) // shared_dim
    if ta < sa:
        raise ContractViolation("target local dimension smaller than source")
    # mode "r" runs the same geqrf as the reduced mode, so Ra keeps its bits.
    Ra = np.linalg.qr(s.reshape(shared_dim, sa).T, mode="r")
    Qb, Rb = np.linalg.qr(t.reshape(shared_dim, ta).T)
    Um, sv, Vmh = np.linalg.svd(Ra @ Rb.conj().T)
    return Ra, Qb, Um, sv, Vmh


def _aligned_source(factors) -> np.ndarray:
    """S V^T for the optimal alignment V, from `_uhlmann_factors`' output.

    The completion columns of the full isometry annihilate the source, and
    S conj(Qa) = Ra^T, so S V^T = Ra^T conj(Um Vmh) Qb^T exactly: a
    (shared, target local) matrix.  V pairs the k = len(Um) columns of Um
    with the first k rows of Vmh (Vmh has more when the source local space
    is smaller than the shared one and the target's is not).
    """
    Ra, Qb, Um, _, Vmh = factors
    return (Ra.T @ (Um @ Vmh[: len(Um)]).conj()) @ Qb.T


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
    _, Qb, Um, _, Vmh = _uhlmann_factors(psi_target, psi_source, shared_dim)
    S = np.asarray(psi_source, dtype=complex).reshape(shared_dim, -1)
    Qa, _ = np.linalg.qr(S.T)  # only the full isometry needs Qa
    sa = S.shape[1]
    U_full = _complete_columns(Qa @ Um, sa)
    W_full = _complete_columns(Qb @ Vmh.conj().T, sa)
    return W_full @ U_full.conj().T  # (ta, sa)


def _pad_vector(psi, dims, target_dims):
    """Embed a pure vector register-wise into larger local dimensions."""
    T = np.asarray(psi, dtype=complex).reshape(dims)
    out = np.zeros(target_dims, dtype=complex)
    out[tuple(slice(0, d) for d in dims)] = T
    return out.reshape(-1)


def qss_simulate(instance: QSSInstance) -> QSSResult:
    """Run the full splitting protocol and measure the achieved distance."""
    dR, dA0, dAp0 = instance.dims
    d = max(dA0, dAp0)  # padded common dimension of A, A', B
    psi = _pad_vector(instance.psi, (dR, dA0, dAp0), (dR, d, d))

    rho_RB = _rho_RB(psi, dR, d)
    sigma, i2 = qss_optimal_sigma(rho_RB, (dR, d))
    mu = max(q2(rho_RB, kron(reduced(rho_RB, (dR, d), 0), sigma)) - 1.0, 0.0)

    n_unclamped = max(1, math.ceil(mu * (1.0 / instance.delta**2 - 1.0) - 1e-9))
    n = n_unclamped
    while n > 1 and dR * n * (d * d) ** n > AMPLITUDE_CAP:
        n -= 1

    # Purification of sigma: |phi> = sum_j sqrt(lam_j) |j>_Atilde |u_j>_B, so
    # the B marginal is sigma itself.
    w, V = _eigh(sigma)
    w = np.clip(w, 0.0, None)
    phi_t = (V * np.sqrt(w)).T  # indices (Atilde, B)

    def power(k):  # psi (x) phi^(x)k, axes R, A, A', (At, B) pairs
        acc = psi.reshape(dR, d, d)
        for _ in range(k):
            acc = np.tensordot(acc, phi_t, axes=0)
        return acc

    def slots(x):  # power(n-1) as B_1..B_n, At_1..At_n; psi's A', A in slot x
        pairs = [(3 + 2 * i, 4 + 2 * i) for i in range(n - 1)]
        pairs.insert(x, (1, 2))
        return [b for _, b in pairs] + [a for a, _ in pairs]

    # The outcome register must hold the sender's local space: ta >= sa needs
    # nL * d^n >= d^2 * d^n.
    nL = max(n, d * d)
    # Source: R (x) [A A' Atilde^n] (x) B^n, shared factor = R (x) B^n; lay
    # it out shared-first: R, B_1..B_n, A, A', At_1..At_n.
    base = power(n - 1)
    source = np.ascontiguousarray(np.tensordot(base, phi_t, axes=0).transpose(
        [0] + [4 + 2 * i for i in range(n)] + [1, 2] + [3 + 2 * i for i in range(n)]))
    # Target: |tau> on R (x) [L Atilde^n] (x) B^n, laid out shared-first:
    # R, B_1..B_n, L, At_1..At_n; branch x holds psi's A, A' in slot x.
    target = np.zeros((dR,) + (d,) * n + (nL,) + (d,) * n, dtype=complex)
    for x in range(n):
        target[(slice(None),) * (1 + n) + (x,)] += base.transpose([0] + slots(x))
    del base
    target /= math.sqrt(n)  # in place: no branch-sized temporary

    shared = dR * d**n
    factors = _uhlmann_factors(target, source, shared)
    del source, target  # consumed: the aligned source needs only the factors
    out = _aligned_source(factors)  # (shared, nL * d^n)
    del factors
    out = out.reshape((dR,) + (d,) * n + (nL,) + (d,) * n)
    # axes: R, B_1..B_n, L, At_1..At_n

    # Measure L and swap slot x with slot 1 on both sides; the ideal final
    # state rho^{R At_1 B_1} (x) phi^{(x)(n-1)} follows the branches.  It is
    # built first, so that its freed intermediates do not sit above the
    # branch copies and keep the heap from shrinking.
    ideal = power(n - 1).transpose([0] + slots(0)).reshape(-1)
    vecs = []
    for x in range(nL):
        bx = out[(slice(None),) + (slice(None),) * n + (x,)]
        # axes: R, B_1..B_n, At_1..At_n
        if x < n:
            bx = np.swapaxes(bx, 1, 1 + x)  # B_x <-> B_1
            bx = np.swapaxes(bx, 1 + n, 1 + n + x)  # At_x <-> At_1
        vecs.append(bx.reshape(-1))
    del out, bx  # every branch is a copy
    vecs.append(ideal)
    G = np.empty((nL + 1, nL + 1), dtype=complex)
    for i in range(nL + 1):
        for j in range(i, nL + 1):
            G[i, j] = np.vdot(vecs[i], vecs[j])
            G[j, i] = np.conj(G[i, j])
    probs = G.diagonal()[:nL].real.copy()

    # Amplitude outside the aligned subspace (rank-deficient overlap) shows
    # up as missing mass: an orthogonal failure branch, which adds lost/2.
    lost = max(1.0 - float(sum(probs)), 0.0)
    achieved = _mixture_vs_pure_distance(G) + 0.5 * lost
    dist_bound = math.sqrt(mu / (mu + n)) if mu > 0 else 0.0
    cost = 0.5 * math.log2(n)
    bound_ok = (
        achieved <= dist_bound + 1e-7
        and cost <= 0.5 * i2 + math.log2(1.0 / instance.delta) + 1e-7
    )
    return QSSResult(n, cost, achieved, sigma, bound_ok, mu, i2, dist_bound,
                     n_unclamped, probs)


def _rho_RB(psi, dR, d):
    """rho_RB of psi on R (x) A (x) A': the ideal channel renames A' to B,
    and A is traced out."""
    T3 = psi.reshape(dR, d, d)
    return np.einsum("iab,jad->ibjd", T3, T3.conj()).reshape(dR * d, dR * d)


def _mixture_vs_pure_distance(G: np.ndarray) -> float:
    """Trace distance between sum_i |b_i><b_i| and |t><t| from their Gram matrix.

    G is the Gram matrix of [b_1, ..., b_m, t].  With A = [b_1 ... b_m t] and
    J = diag(1, ..., 1, -1) the difference is A J A^H, whose nonzero spectrum
    is that of G^1/2 J G^1/2 (unitarily similar to R^H J R for G = R R^H).
    """
    w, U = _eigh(G)
    R = U * np.sqrt(np.clip(w, 0.0, None))
    J = np.ones(len(G))
    J[-1] = -1.0
    return 0.5 * float(np.abs(_eigvalsh(R.conj().T @ (J[:, None] * R))).sum())


def channel_alpha_beta_info(channel: ChannelSpec, alpha: float, beta: float):
    """max over inputs of H_alpha(A) - optimized conditional beta-entropy.

    The reference A purifies the channel input: both terms depend on the
    input only through rho_in (a local unitary on A changes neither), so the
    search runs over rho_in in D(dim_in) and the objective feeds the channel
    the purification vec(sqrt(rho_in)^T).  The first start, I/d, is the
    maximally entangled input.  At alpha = beta = 1 the value is the ordinary
    mutual information of the channel output, since conditional_renyi_up is
    then H(AB) - H(B).  Returns (value, rho_in), rho_in the maximizing
    input.
    """
    dI, dO = channel.dim_in, channel.dim_out

    def info(rho_in):
        w, U = _eigh(rho_in)
        v = ((U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T).T.reshape(-1)
        omega = channel.apply_local(np.outer(v, v.conj()), dI)
        h_up = conditional_renyi_up(omega, beta, (dI, dO))
        return renyi_entropy(reduced(omega, (dI, dO), 0), alpha) - h_up

    # Each member of the descent's stack runs a certified solve of its own.
    value, rho_in = minimize_over_states(lambda stack: [-info(s) for s in stack], dI,
                                         restarts=4)
    return -value, rho_in


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
                          eps: float, n: int) -> tuple[float, float]:
    """(bits-per-use upper bound, overhead delta_n) for n-fold simulation."""
    delta_n = reverse_shannon_delta_n(channel.dim_in, alpha, beta, eps, n)
    info, _ = channel_alpha_beta_info(channel, alpha, beta)
    return info + delta_n, delta_n
