"""Sandwiched Renyi divergence family, its named special cases, and the
hypothesis-testing divergence.

All logarithms are base 2 (values in bits).  Infinite divergence is a value
(math.inf), never an exception.  The second argument of the Q/D functionals
may be any PSD operator (conditional entropies pass I (x) sigma), or its
matcore.Spectrum, which is then not decomposed again.  At the sandwiched
orders `d_alpha` also takes a stack of them, shape (m, d, d), or the
Spectrum of the stack, and returns each member's value as alone; one
reference and a stack share one support rule and one `_q`.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import CertificateError, ContractViolation, Spectrum, _as_matrix, _eigh

INF = math.inf

# Trace mass below this counts as orthogonal / off-support.
_PERP_TOL = 1e-14


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -INF


def supp_contained(rho, sigma) -> bool:
    """supp(rho) subseteq supp(sigma), judged via rank_tol spectral cuts."""
    return Spectrum.of(sigma).contains(_as_matrix(rho))


def perpendicular(rho, sigma):
    """Tr[rho sigma] vanishes (per member when sigma is a stack)."""
    R, S = _as_matrix(rho), _as_matrix(sigma)
    return np.trace(R @ S, axis1=-2, axis2=-1).real <= _PERP_TOL


def _q(R: np.ndarray, S: Spectrum, alpha: float):
    """Tr (S^e R S^e)^alpha, e = (1-alpha)/(2 alpha), with no support check.

    For a stack S, one value per member: one ``eigh`` for the stack of
    sandwiched operators.  The symmetrized X is Hermitian bit for bit, so it
    goes to ``eigh`` as it is, with no check; its eigenvalues are summed in
    non-increasing order, as eig_hermitian gives them.
    """
    Se = S.power((1.0 - alpha) / (2.0 * alpha))
    X = Se @ R @ Se
    X = (X + X.conj().mT) / 2  # exact in theory; kills float asymmetry
    w = np.clip(_eigh(X)[0][..., ::-1], 0.0, None)
    return np.sum(w**alpha, axis=-1)


def q_alpha(rho, sigma, alpha: float) -> float:
    """Q_alpha = Tr (sigma^((1-a)/2a) rho sigma^((1-a)/2a))^a.

    Returns inf when alpha > 1 and rho is not supported inside sigma.
    """
    if not (alpha > 0 and alpha != 1):
        raise ContractViolation(f"q_alpha needs alpha in (0,1) or (1,inf), got {alpha}")
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    if alpha > 1 and not S.contains(R):
        return INF
    return float(_q(R, S, alpha))


def _sandwiched(R: np.ndarray, S: Spectrum, alpha: float) -> np.ndarray:
    """D_alpha, alpha in [1/2, 1) or (1, inf), against S or each member of it.

    The support rule: infinite for alpha > 1 whenever rho leaves supp(sigma),
    for alpha < 1 only for orthogonal supports.  `_q` runs once, on the
    finite members.  The result has S's leading shape: 0-d for one operator.
    """
    finite = S.contains(R) if alpha > 1 else ~perpendicular(R, S)
    n = np.count_nonzero(finite)
    if alpha < 1 and n < finite.size:
        finite = finite | S.contains(R)
        n = np.count_nonzero(finite)
    values = np.full(finite.shape, INF)
    if n:
        q = _q(R, S if n == values.size else S[finite], alpha)
        values[finite] = [(1.0 / (alpha - 1.0)) * _log2(v) for v in q.reshape(-1).tolist()]
    return values


def d_alpha_with_branch(rho, sigma, alpha: float) -> tuple[float, str]:
    """Piecewise sandwiched divergence; returns (bits, branch name)."""
    if not alpha >= 0:  # NaN fails too
        raise ContractViolation(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return d_min(rho, sigma), "min"
    if alpha == 1:
        return d_umegaki(rho, sigma), "umegaki"
    if math.isinf(alpha):
        return d_max(rho, sigma), "max"
    R = _as_matrix(rho)
    if alpha < 0.5:
        S = _as_matrix(sigma)
        if perpendicular(R, S):
            return INF, "infinite"
        q = _q(S, Spectrum(R), 1.0 - alpha)
        return (1.0 / (alpha - 1.0)) * _log2(q), "low"
    value = float(_sandwiched(R, Spectrum.of(sigma), alpha))
    return value, "infinite" if value == INF else "sandwiched"


def d_alpha(rho, sigma, alpha: float):
    """D_alpha(rho || sigma) in bits.

    sigma may be a stack of references (m, d, d), or its Spectrum, at the
    sandwiched orders alpha in [1/2, 1) and (1, inf): the result is then an
    array of m values, each bit for bit the value of that member alone.  One
    reference and a stack alike run `_sandwiched`: one ``eigh`` for the
    references and one for the sandwiched operators, with the Hermitian, PSD
    and support checks per member.  A stack at any other order is refused.
    """
    if 0.5 <= alpha < INF and alpha != 1:
        values = _sandwiched(_as_matrix(rho), Spectrum.of(sigma), alpha)
        return values if values.ndim else float(values)
    if _as_matrix(sigma).ndim == 3:
        raise ContractViolation(
            f"a stack of references needs alpha in [1/2, 1) or (1, inf), got {alpha}")
    return d_alpha_with_branch(rho, sigma, alpha)[0]


def d_min(rho, sigma) -> float:
    """-log Tr[sigma Pi_rho]."""
    R, S = _as_matrix(rho), _as_matrix(sigma)
    t = float(np.trace(S @ Spectrum(R).projector()).real)
    if t <= _PERP_TOL:
        return INF
    return -_log2(t)


def d_umegaki(rho, sigma) -> float:
    """Tr[rho log rho] - Tr[rho log sigma]; inf off support."""
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    if not S.contains(R):
        return INF
    r = Spectrum(R)
    ent = sum(lam * math.log2(lam) for lam in r.w[r.keep])
    cross = sum(float((v.conj() @ R @ v).real) * math.log2(lam)
                for lam, v in zip(S.w[S.keep], S.basis.T))
    return float(ent - cross)


def d_max(rho, sigma) -> float:
    """log of the smallest t with t sigma >= rho."""
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    if not S.contains(R):
        return INF
    Sm = S.power(-0.5)
    # Entries grow as 1/lambda_min(sigma); the symmetrized X is Hermitian
    # bit for bit, so ``eigh`` takes it with no check.
    X = Sm @ R @ Sm
    w = _eigh((X + X.conj().T) / 2)[0]
    lam = float(max(w.max(initial=0.0), 0.0))
    if lam <= 0:
        return -INF
    return _log2(lam)


def q2(rho, sigma) -> float:
    """Collision functional Q_2 = Tr[rho sigma^(-1/2) rho sigma^(-1/2)]."""
    return q_alpha(rho, sigma, 2.0)


def d2(rho, sigma) -> float:
    """Collision relative entropy log2 Q_2."""
    q = q2(rho, sigma)
    return INF if math.isinf(q) else _log2(q)


# --- hypothesis-testing divergence -----------------------------------------

def _threshold_test(R: np.ndarray, S: np.ndarray, t: float):
    """(t, Tr[rho P], P, w) for the projective test P = Pi_+(t rho - sigma),
    w the eigenvalues of t rho - sigma, from one ``eigh``."""
    w, V = _eigh(t * R - S)
    P = V[:, w > 0]
    return t, float(np.einsum("ji,jk,ki->", P.conj(), R, P).real), P, w


def _bracket_primal(S: np.ndarray, lo, hi, eps: float):
    """(Tr[rho Lambda], Tr[sigma Lambda]) for Lambda = lam P_hi + (1-lam) P_lo.

    lam in [0, 1] puts Tr[rho Lambda] at 1 - eps when the two threshold
    tests bracket it; Lambda is then an optimal test (quantum Neyman-Pearson).
    """
    (_, r_lo, P_lo, _), (_, r_hi, P_hi, _) = lo, hi
    s_lo, s_hi = (float(np.einsum("ji,jk,ki->", P.conj(), S, P).real) for P in (P_lo, P_hi))
    lam = 1.0 if r_hi == r_lo else min(max(((1.0 - eps) - r_lo) / (r_hi - r_lo), 0.0), 1.0)
    return lam * r_hi + (1.0 - lam) * r_lo, lam * s_hi + (1.0 - lam) * s_lo


def d_min_eps(rho, sigma, eps: float) -> float:
    """Exact hypothesis-testing divergence via the Neyman-Pearson family.

    The concave dual t(1-eps) - Tr[(t rho - sigma)_+] peaks where its
    supergradient (1-eps) - Tr[rho Pi_+(t rho - sigma)], which falls with t,
    changes sign; that t is bisected to machine precision.  The primal is
    the mixture of the projective tests Pi_+ at the two ends of the bracket
    that carries rho-mass 1 - eps.  Self-certified: that mass is checked to
    1e-12, and the achieved Tr[sigma Lambda] against the dual to 1e-8.
    """
    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must be in (0,1), got {eps}")
    R, S = _as_matrix(rho), _as_matrix(sigma)
    # Lambda = Pi_rho has full rho-mass and no sigma-mass.
    if perpendicular(R, S) and not supp_contained(R, S) and math.isinf(d_min(R, S)):
        return INF

    need = 1.0 - eps
    empty = np.zeros((len(R), 0))
    lo, hi = (0.0, 0.0, empty, empty[0]), _threshold_test(R, S, 1.0)  # Pi_+(-sigma) = 0
    while need - hi[1] > 0 and hi[0] < 1e12:
        lo, hi = hi, _threshold_test(R, S, 2.0 * hi[0])
    # Capped for a root at t = 0 (rho's mass on ker sigma reaches 1 - eps),
    # where hi halves toward zero and the answer is inf.
    for _ in range(200):
        mid = 0.5 * (lo[0] + hi[0])
        if not lo[0] < mid < hi[0]:
            break
        test = _threshold_test(R, S, mid)
        lo, hi = (test, hi) if need - test[1] > 0 else (lo, test)
    mass, value = _bracket_primal(S, lo, hi, eps)
    if abs(mass - need) > 1e-12:
        raise CertificateError(f"hypothesis-testing primal has rho-mass {mass:.15g}, "
                               f"not 1 - eps = {need:.15g}")
    if value <= _PERP_TOL:
        return INF
    gap = value - max(t * need - float(np.clip(w, 0.0, None).sum()) for t, _, _, w in (lo, hi))
    if gap > 1e-8:
        raise CertificateError(f"hypothesis-testing primal/dual gap {gap:.3e} exceeds 1e-8")
    return -_log2(value)
