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
from typing import NamedTuple

import numpy as np

from .matcore import _EPS, CertificateError, ContractViolation, Spectrum, _as_matrix, _eigh, _herm

INF = math.inf

# Trace mass below this counts as orthogonal / off-support.
_PERP_TOL = 1e-14


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -INF


def _operand(rho, sigma) -> np.ndarray:
    """rho as a matrix, checked to act on the space of sigma: one operator,
    its Spectrum, or the last two axes of a stack of them."""
    R = _as_matrix(rho)
    shape = np.shape(sigma.matrix if isinstance(sigma, Spectrum) else sigma)
    if R.shape != shape[-2:]:
        raise ContractViolation(f"dimension mismatch {R.shape} vs {shape}")
    return R


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
    sandwiched operators.  X is Hermitian up to round-off, so its ``_herm``
    goes to ``eigh`` with no check; its eigenvalues are summed in
    non-increasing order, as a Spectrum holds them.
    """
    Se = S.power((1.0 - alpha) / (2.0 * alpha))
    w = np.clip(_eigh(_herm(Se @ R @ Se))[0][..., ::-1], 0.0, None)
    return np.sum(w**alpha, axis=-1)


def q_alpha(rho, sigma, alpha: float) -> float:
    """Q_alpha = Tr (sigma^((1-a)/2a) rho sigma^((1-a)/2a))^a.

    Returns inf when alpha > 1 and rho is not supported inside sigma.
    """
    if not (alpha > 0 and alpha != 1):
        raise ContractViolation(f"q_alpha needs alpha in (0,1) or (1,inf), got {alpha}")
    R, S = _operand(rho, sigma), Spectrum.of(sigma)
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
    R = _operand(rho, sigma)
    if alpha == 0:
        return d_min(R, sigma), "min"
    if alpha == 1:
        return d_umegaki(R, sigma), "umegaki"
    if math.isinf(alpha):
        return d_max(R, sigma), "max"
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
        values = _sandwiched(_operand(rho, sigma), Spectrum.of(sigma), alpha)
        return values if values.ndim else float(values)
    if _as_matrix(sigma).ndim == 3:
        raise ContractViolation(
            f"a stack of references needs alpha in [1/2, 1) or (1, inf), got {alpha}")
    return d_alpha_with_branch(rho, sigma, alpha)[0]


def d_min(rho, sigma) -> float:
    """-log Tr[sigma Pi_rho]."""
    R, S = _operand(rho, sigma), _as_matrix(sigma)
    t = float(np.trace(S @ Spectrum(R).projector()).real)
    if t <= _PERP_TOL:
        return INF
    return -_log2(t)


def d_umegaki(rho, sigma) -> float:
    """Tr[rho log rho] - Tr[rho log sigma]; inf off support."""
    R, S = _operand(rho, sigma), Spectrum.of(sigma)
    if not S.contains(R):
        return INF
    r = Spectrum(R)
    ent = sum(lam * math.log2(lam) for lam in r.w[r.keep])
    cross = sum(float((v.conj() @ R @ v).real) * math.log2(lam)
                for lam, v in zip(S.w[S.keep], S.basis.T))
    return float(ent - cross)


def d_max(rho, sigma) -> float:
    """log of the smallest t with t sigma >= rho."""
    R, S = _operand(rho, sigma), Spectrum.of(sigma)
    if not S.contains(R):
        return INF
    Sm = S.power(-0.5)
    # Entries grow as 1/lambda_min(sigma), and so does X's asymmetry, so
    # X's ``_herm`` goes to ``eigh`` with no check.
    w = _eigh(_herm(Sm @ R @ Sm))[0]
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

# The search stops once the mixture's gap bound is below this share of its
# sigma-mass, and after at most _MAX_TESTS decompositions.
_GAP_SHARE = 2.0**-50
_MAX_TESTS = 100


class _Test(NamedTuple):
    """One projective test P = Pi_+(t rho - sigma) and where to look next."""

    t: float
    r: float  # Tr[rho P]
    s: float  # Tr[sigma P]
    dual: float  # t (1 - eps) - Tr[(t rho - sigma)_+]
    step: float  # the next t toward Tr[rho P] = 1 - eps
    newton: bool  # step is a Newton step, not a step past a crossing
    reach: float  # how far from t round-off hides a crossing at t (>= ulp/2)


def _threshold_test(R: np.ndarray, S: np.ndarray, t: float, need: float) -> _Test:
    """The test at t, from one ``eigh`` of A = t rho - sigma = V diag(w) V^H.

    g(t) = Tr[rho Pi_+(A)] never decreases.  An eigenvalue w_i moves at
    rate rho~_ii, rho~ = V^H rho V, and g jumps by rho~_ii where it crosses
    zero, near t - w_i / rho~_ii; between crossings g is smooth, with
    g' = 2 sum_{w_i > 0 >= w_j} |rho~_ij|^2 / (w_i - w_j).  The step toward
    g = need is the nearer of the Newton step and the next crossing, aimed
    past the crossing by the eigenvalues' round-off tau, so that it crosses.
    Eigenvectors with rho~_ii at round-off lie in ker rho and never cross.
    """
    n = len(R)
    w, V = _eigh(t * R - S)
    k = int(np.searchsorted(w, 0.0, side="right"))  # w ascends: w[k:] > 0
    Rt = V.conj().T @ R @ V
    P = V[:, k:]
    d, wl = Rt.diagonal().real.tolist(), w.tolist()
    r = sum(d[k:])
    s = float(np.einsum("ji,jk,ki->", P.conj(), S, P).real)
    slope = 2.0 * float((abs(Rt[k:, :k]) ** 2 / (w[k:, None] - w[:k])).sum())
    tau = n * _EPS * max(-wl[0], wl[-1])
    up = r < need
    floor = n * _EPS * max(d)
    side = [i for i in (range(k) if up else range(k, n)) if d[i] > floor]
    if up:
        newton = t + (need - r) / slope if slope > 0 else INF
        cross = min((t + (tau - wl[i]) / d[i] for i in side), default=INF)
        step = max(min(newton, cross), math.nextafter(t, INF))
    else:
        newton = t - (r - need) / slope if slope > 0 else -INF
        cross = max((t - (tau + wl[i]) / d[i] for i in side), default=-INF)
        step = min(max(newton, cross), math.nextafter(t, -INF))
    reach = max([2 * tau / d[i] for i in side if abs(wl[i]) <= 2 * tau]
                + [0.5 * math.ulp(t)])
    dual = t * need - sum(wl[k:])
    return _Test(t, r, s, dual, step, newton == step, reach)


def _resolved(lo: _Test, hi: _Test, need: float) -> bool:
    """The bracket lo < t* <= hi is as tight as float arithmetic makes it.

    Either every test left carries sigma-mass at most _PERP_TOL (the value is
    inf), or the bracket lies within the round-off of one crossing (adjacent
    floats at the least), or the mixture's gap to the dual,
    at most (t_hi - t_lo) min(need - r_lo, r_hi - need), is at round-off.
    """
    width = hi.t - lo.t
    return (hi.s <= _PERP_TOL or width <= lo.reach + hi.reach
            or width * min(need - lo.r, hi.r - need) <= _GAP_SHARE * hi.s)


def _bracket_primal(lo: _Test, hi: _Test, eps: float):
    """(Tr[rho Lambda], Tr[sigma Lambda]) for Lambda = lam P_hi + (1-lam) P_lo.

    lam in [0, 1] puts Tr[rho Lambda] at 1 - eps when the two threshold
    tests bracket it; Lambda is then an optimal test (quantum Neyman-Pearson).
    """
    r_lo, r_hi = lo.r, hi.r
    lam = 1.0 if r_hi == r_lo else min(max(((1.0 - eps) - r_lo) / (r_hi - r_lo), 0.0), 1.0)
    return lam * r_hi + (1.0 - lam) * r_lo, lam * hi.s + (1.0 - lam) * lo.s


def d_min_eps(rho, sigma, eps: float) -> float:
    """Exact hypothesis-testing divergence via the Neyman-Pearson family.

    The concave dual t(1-eps) - Tr[(t rho - sigma)_+] peaks where its
    supergradient (1-eps) - Tr[rho Pi_+(t rho - sigma)], which falls with t,
    changes sign.  That t is bracketed by a safeguarded search: from each
    decomposition, a Newton step on the smooth piece or a step past the next
    eigenvalue crossing, whichever comes first (`_threshold_test`), and a
    bisection only when that step leaves the bracket.  While no test has
    reached 1 - eps, a Newton step is taken twice over, so that a concave
    piece, which Newton climbs from below, is bracketed.  A step to t <= 0 goes
    to t = _PERP_TOL instead, where Tr[sigma P] <= t Tr[rho P] <= _PERP_TOL, so
    a root at t -> 0+ (rho's mass on ker sigma reaches 1 - eps) gives inf in
    O(1) steps.  The search ends at a bracket as tight as float arithmetic
    makes it (`_resolved`).  The primal is the mixture of the projective
    tests Pi_+ at the two ends of the bracket that carries rho-mass 1 - eps.
    Self-certified: that mass is checked to 1e-12, and the achieved
    Tr[sigma Lambda] against the dual to 1e-8.
    """
    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must be in (0,1), got {eps}")
    R, S = _operand(rho, sigma), _as_matrix(sigma)
    # Lambda = Pi_rho has full rho-mass and no sigma-mass.
    if perpendicular(R, S) and not supp_contained(R, S) and math.isinf(d_min(R, S)):
        return INF

    need = 1.0 - eps
    lo, hi = _Test(0.0, 0.0, 0.0, 0.0, INF, False, 0.0), None  # Pi_+(-sigma) = 0
    t = 1.0
    for _ in range(_MAX_TESTS):
        test = _threshold_test(R, S, t, need)
        if test.r < need:
            lo = test
        else:
            hi = test
        if hi is None:
            if t >= 1e12:
                break
            t = 2.0 * test.step - t if test.newton else test.step
            if not math.isfinite(t):
                t = 2.0 * test.t
            continue
        if _resolved(lo, hi, need):
            break
        t = test.step
        if t <= 0.0 and lo.t == 0.0:
            t = _PERP_TOL
        if not lo.t < t < hi.t:
            t = 0.5 * (lo.t + hi.t)
    hi = lo if hi is None else hi
    mass, value = _bracket_primal(lo, hi, eps)
    if abs(mass - need) > 1e-12:
        raise CertificateError(f"hypothesis-testing primal has rho-mass {mass:.15g}, "
                               f"not 1 - eps = {need:.15g}")
    if value <= _PERP_TOL:
        return INF
    gap = value - max(lo.dual, hi.dual)
    if gap > 1e-8:
        raise CertificateError(f"hypothesis-testing primal/dual gap {gap:.3e} exceeds 1e-8")
    return -_log2(value)
