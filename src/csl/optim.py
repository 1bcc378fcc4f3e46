"""Shared optimization engines.

Three engines: a certified solver for convex functionals of a density
operator (damped Newton from a given start, Frank-Wolfe gap), fed by the one
kernel `QAlphaKernel`, which gives a weighted sum of sandwiched Q_alpha
terms (alpha > 1, positive weights) with its gradient, exact Hessian and a
bound on what its spectral cut drops from one call on one state; a
primal-dual interior-point solver for the max-information semidefinite
program, which takes a stack of problems and iterates the members of one
shape together, one LAPACK call per step for all of them, each member
keeping the bits of its lone solve (a single problem is a stack of one); and
one multi-start L-BFGS-B descent over density operators for the two problems
left off the convex solver: `mutual_info_alpha`'s sigma, whose protocol
outputs are pinned to that descent's last bits, and the channel
maximization, which is not known to be concave.  The two certified solvers
return one type, `Certified`: the value, a bracket [lower, upper] around the
true optimum, the witness state or certificate, and the steps taken.  The
descent certifies nothing and returns a plain (value, state) pair.  Its
starts run in lockstep through scipy's reverse-communication L-BFGS-B
routine `_lbfgsb.setulb`, each stepped as
scipy.optimize._lbfgsb_py._minimize_lbfgsb (scipy 1.17) steps it: one
objective call per round, across all starts, on the stack of every asking
run's point and its 2d^2 forward-difference neighbours, with scipy's own
steps and arithmetic.  So the descent keeps every bit it had when
scipy.optimize.minimize ran one start at a time and differenced one state at
a time.  Desk-scale dimensions (<= 36 total) keep all of these cheap; no
external SDP engine is used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import _lbfgsb

from .matcore import (
    _EPS,
    CertificateError,
    ContractViolation,
    LinAlgError,
    Spectrum,
    _as_matrix,
    _cholesky,
    _eigh,
    _eigvalsh,
    _herm,
    _inv,
    _lstsq,
    _solve,
    kron,
    q_alpha_cut,
    reduced,
)


@dataclass(frozen=True)
class Certified:
    """A certified solve: the true optimum lies in [lower, upper], around value.

    ``witness`` is the solver's state or certificate (sigma of the convex
    solver, Y of the SDP), ``steps`` its Newton or interior-point steps, and
    ``dual`` the SDP's dual point Z.
    """

    value: float
    lower: float
    upper: float
    witness: np.ndarray
    steps: int
    dual: np.ndarray | None = None

    @property
    def gap(self) -> float:
        """upper - lower, and 0.0 for an exact value (infinities included)."""
        return 0.0 if self.lower == self.upper else self.upper - self.lower


def _gram_state(x: np.ndarray, d: int) -> np.ndarray:
    """Map 2d^2 reals to a density matrix via sigma = G^dag G / Tr.

    A stack of parameter vectors (m, 2d^2) maps member by member to (m, d, d).
    """
    G = (x[..., : d * d] + 1j * x[..., d * d :]).reshape(x.shape[:-1] + (d, d))
    M = G.conj().mT @ G
    tr = np.trace(M, axis1=-2, axis2=-1).real[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tr > 0, M / tr, np.eye(d) / d)


def _state_to_params(sigma: np.ndarray) -> np.ndarray:
    d = sigma.shape[0]
    w, V = _eigh(_herm(sigma))
    w = np.clip(w, 1e-12, None)
    G = (V * np.sqrt(w)) @ V.conj().T
    return np.concatenate([G.real.reshape(-1), G.imag.reshape(-1)])


# The forward-difference step of scipy's L-BFGS-B (its `eps` option), and
# the step scipy's approx_derivative falls back to, times max(1, |x_i|),
# where x_i + 1e-8 rounds to x_i: sqrt of the float64 machine epsilon.
_FD_STEP = 1e-8
_FD_FALLBACK = float(np.finfo(np.float64).eps) ** 0.5
# scipy's default cap of 15000 objective evaluations for L-BFGS-B.  Each
# point is worth 1 + 2d^2 evaluations, so a run stops at its first iteration
# past 15000 // (1 + 2d^2) points: the rule scipy applied when it differenced
# one state at a time.
_MAXFUN = 15000
# Iterations of one run, and the settings scipy's L-BFGS-B driver passes to
# setulb for ftol 1e-14, gtol 1e-10 and its defaults maxcor 10, maxls 20.
_MAXITER = 500
_MAXCOR, _MAXLS = 10, 20
_FACTR = 1e-14 / np.finfo(float).eps
_PGTOL = 1e-10
# setulb's task codes: evaluate f and g at x, a new iteration, stop, and the
# stop reasons scipy records for maxiter and maxfun.
_FG, _NEW_X, _STOP, _AT_MAXITER, _AT_MAXFUN = 3, 1, 5, 504, 502


def _stacked_gradients(x: np.ndarray, objective, dim: int):
    """f and the forward-difference gradient at each row of the Gram
    parameters x (k, n), from one objective call on the k (1 + n) states
    sigma(x_j), sigma(x_j + h_j1 e_1), ..., sigma(x_j + h_jn e_n)."""
    k, n = x.shape
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where((x + _FD_STEP) - x == 0,
                 _FD_FALLBACK * sign * np.maximum(1.0, np.abs(x)), _FD_STEP)
    X = np.repeat(x[:, None], n + 1, axis=1)
    X[:, np.arange(1, n + 1), np.arange(n)] = x + h
    f = np.asarray(objective(_gram_state(X.reshape(-1, n), dim)), dtype=float)
    f = np.where(np.isfinite(f), f, 1e12).reshape(k, n + 1)
    return f[:, 0].tolist(), (f[:, 1:] - f[:, :1]) / ((x + h) - x)


class _Run:
    """One start's L-BFGS-B run, stepped through scipy's reverse-communication
    routine setulb as scipy.optimize._lbfgsb_py._minimize_lbfgsb steps it
    (no bounds, g cast to float64 before each call), with the memo of its
    ScalarFunction: a request for the point evaluated last reuses its f and
    g and does not count as an evaluation.
    """

    def __init__(self, x0: np.ndarray):
        n = len(x0)
        m = _MAXCOR
        self.x, self.f, self.g = np.array(x0, dtype=np.float64), np.array(0.0), np.zeros(n)
        self.no_bounds = np.zeros(n), np.zeros(n, np.int32)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task, self.ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
        self.lsave, self.isave = np.zeros(4, np.int32), np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.iterations = self.nfev = 0
        self.memo = None  # (x, f, g) of the point evaluated last

    def advance(self, maxfun: int) -> bool:
        """Step setulb until it asks for a new point (True) or stops (False)."""
        zero, nbd = self.no_bounds
        while True:
            self.g = self.g.astype(np.float64)
            _lbfgsb.setulb(_MAXCOR, self.x, zero, zero, nbd, self.f, self.g, _FACTR, _PGTOL,
                           self.wa, self.iwa, self.task, self.lsave, self.isave, self.dsave,
                           _MAXLS, self.ln_task)
            if self.task[0] == _FG:
                if self.memo is None or not np.array_equal(self.x, self.memo[0]):
                    return True
                _, self.f, self.g = self.memo
            elif self.task[0] == _NEW_X:
                self.iterations += 1
                if self.iterations >= _MAXITER:
                    self.task[:] = _STOP, _AT_MAXITER
                elif self.nfev > maxfun:
                    self.task[:] = _STOP, _AT_MAXFUN
            else:
                return False

    def take(self, f: float, g: np.ndarray):
        """Record f and g at the point asked for."""
        self.f, self.g = f, g
        self.memo = (self.x.copy(), f, g)
        self.nfev += 1


def minimize_over_states(objective, dim: int, restarts: int = 32,
                         extra_starts=()) -> tuple[float, np.ndarray]:
    """Multi-start L-BFGS-B descent of a state functional over D(dim).

    ``objective(stack)`` takes states stacked as (m, dim, dim) and returns
    their m values.  The starts are I/d, then `extra_starts`, then random
    Gram states from `np.random.default_rng(0)` up to `restarts`; each runs
    in the Gram parametrization sigma = G^dag G / Tr, x in R^(2 dim^2).
    Returns the best run's last (value, state), ties going to the earlier
    start; nothing certifies it.  A non-finite value counts as 1e12, member
    by member, and an objective that is never finite gives (inf, I/d).

    The starts run in lockstep, one objective call per round across all of
    them: each live run steps scipy's L-BFGS-B (maxiter 500, ftol 1e-14,
    gtol 1e-10) until it asks for a new point or stops, and the call takes
    the stack sigma(x), sigma(x + h_1 e_1), ..., sigma(x + h_n e_n),
    n = 2 dim^2, for every run that asked.  A run's gradient is the forward
    difference g_i = (f_i - f_0)/((x_i + h_i) - x_i) with scipy's own
    arithmetic for L-BFGS-B without a gradient: absolute step h_i = 1e-8,
    or sqrt(eps) sign(x_i) max(1, |x_i|) where x_i + 1e-8 rounds to x_i.
    Every run keeps scipy's stopping rules, its budget of 15000 evaluations
    (1 + n per point) included, so its output is bit for bit that of
    scipy.optimize.minimize differencing one state at a time.  The step
    stays pinned: `qss_simulate`'s outputs amplify a 1e-14 change of the
    sigma found here to 1e-3.
    """
    rng = np.random.default_rng(0)

    starts = [_state_to_params(np.eye(dim) / dim)]
    for s in extra_starts:
        starts.append(_state_to_params(_as_matrix(s)))
    while len(starts) < restarts:
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M = G.conj().T @ G
        starts.append(_state_to_params(M / np.trace(M).real))

    maxfun = _MAXFUN // (1 + 2 * dim * dim)
    runs = [_Run(x0) for x0 in starts]
    live = runs
    while live:
        live = [r for r in live if r.advance(maxfun)]
        if live:
            f, g = _stacked_gradients(np.array([r.x for r in live]), objective, dim)
            for r, fr, gr in zip(live, f, g):
                r.take(fr, gr)
    best = min(runs, key=lambda r: float(r.f))
    if float(best.f) >= 1e12:  # never finite
        return math.inf, np.eye(dim) / dim
    return float(best.f), _gram_state(best.x, dim)


# --- certified convex solver ------------------------------------------------

def _divided(lam: np.ndarray, e: float) -> np.ndarray:
    """Gamma_ij = (l_i^e - l_j^e)/(l_i - l_j), e l_j^(e-1) where l_i = l_j, for lam > 0.

    Taken as l_j^(e-1) expm1(e L)/expm1(L), L = log(l_i/l_j): stable at
    (near-)degenerate pairs, where it tends to e l_j^(e-1).
    """
    lg = np.log(lam)
    L = lg[:, None] - lg[None, :]
    den = np.expm1(L)
    ratio = np.full_like(L, e)
    np.divide(np.expm1(e * L), den, out=ratio, where=den != 0.0)
    return ratio * lam ** (e - 1.0)


# Relative spread below which a triple's second divided difference is taken
# as f''(mean)/2: that error (spread^2) then stays under the difference
# quotient's cancellation error (eps/spread), both near 1e-10.
_COINCIDENT = 1e-5


def _divided2(lam: np.ndarray, G1: np.ndarray, e: float, order) -> np.ndarray:
    """f[l_i, l_m, l_j] for f(t) = t^e, shape (n, n, n), from G1 = _divided(lam, e).

    lam ascends and ``order`` holds the sorted indices (lo, mid, hi) of each
    triple, so the quotient (f[x, y] - f[y, z])/(x - z), x >= y >= z, divides
    by the triple's widest pair; it covers a = c != b as (f'(a) - f[a, b])/
    (a - b).  Triples within _COINCIDENT of each other, the fully degenerate
    ones among them, take f''(mean)/2.
    """
    lo, mid, hi = order
    x, y, z = lam[hi], lam[mid], lam[lo]
    spread = x - z
    close = spread <= _COINCIDENT * x
    quotient = (G1[hi, mid] - G1[mid, lo]) / np.where(close, 1.0, spread)
    return np.where(close, 0.5 * e * (e - 1.0) * ((x + y + z) / 3.0) ** (e - 2.0), quotient)


class QAlphaKernel:
    """f(sigma) = sum_t c_t Q_alpha(rho_t || K_t (x) sigma), alpha > 1 and
    every c_t > 0, with its gradient and Hessian in sigma from one call on
    one sigma.

    ``terms`` lists (c_t, rho_t, K_t, sigma_first); rho_t may be given as
    its Spectrum, sigma_first puts sigma before K_t, and every K_t must be
    positive definite.  Built once per solve: rho_t = F_t F_t^dag over its
    eigenvalues above q_alpha_cut (round-off), and with p = (1-alpha)/alpha,
    Y_t = c_t^(1/alpha) F_t^dag (K_t^p (x) sigma^p) F_t has the nonzero
    spectrum of the sandwiched operator scaled so that f = Tr Y^alpha, Y the
    direct sum of the Y_t: one eigendecomposition serves every term.  Y is
    linear in P = sigma^p, Y = sum_ab P_ab Phi_ab with Phi precomputed; a
    call rotates Phi into sigma's eigenbasis, where P is diagonal.

    A call returns (f, G, hessian, cut): df = Tr[G dsigma], and hessian()
    and cut() work from that call's own intermediates.  hessian() builds the
    Hessian H in the coordinates of _traceless_basis(dim) from first and
    second Daleckii-Krein divided differences (Bhatia, Matrix Analysis,
    ch. V): alpha Tr[D(Y^(alpha-1))[B_l] B_k] with B_k = F^dag (K^p (x)
    DP[E_k]) F, plus Tr[M D^2P[E_k, E_l]] with M the gradient in P.  cut()
    bounds what the cut on each rho_t's spectrum drops: f_full - f lies in
    [0, cut()] at sigma, f_full being f on the whole of each rho_t.  The cut
    only lowers each Q_t, and with m_t the mass of rho_t's cut eigenvalues
    and t = lambda_max(K_t^p (x) sigma^p), Q_t lies under (Q_>^(1/alpha) +
    m t)^alpha (Weyl monotonicity, Minkowski); weighted by c_t these add up,
    and cut() is zero when nothing is cut.
    """

    def __init__(self, alpha: float, terms):
        if not (alpha > 1 and all(t[0] > 0 for t in terms)):  # NaN fails too
            raise ContractViolation("QAlphaKernel needs alpha > 1 and positive weights")
        self.alpha, self.p = alpha, (1.0 - alpha) / alpha
        blocks, self.cuts = [], []
        for c, rho, K, sigma_first in terms:
            S = Spectrum.of(rho)
            keep = S.w > q_alpha_cut(S.w)
            F = S.V[:, keep] * np.sqrt(S.w[keep] * c ** (1.0 / alpha))
            low = S.w[~keep]
            low = low[low > 0]  # the cut eigenvalues that carry mass
            kw, kV = _eigh(_as_matrix(K))
            if kw[0] <= 0:
                raise ContractViolation("QAlphaKernel needs every K positive definite")
            Kp = (kV * kw**self.p) @ kV.conj().T
            dk, r = len(kw), F.shape[1]
            self.dim = S.w.shape[0] // dk
            if sigma_first:
                Fr = F.reshape(self.dim, dk, r)
                blocks.append(np.einsum("axi,xy,byj->abij", Fr.conj(), Kp, Fr))
            else:
                Fr = F.reshape(dk, self.dim, r)
                blocks.append(np.einsum("xai,xy,ybj->abij", Fr.conj(), Kp, Fr))
            # (rows of Y, scaled cut mass, cut count, lambda_max(K^p))
            self.cuts.append((r, c ** (1.0 / alpha) * float(low.sum()), len(low),
                              float((kw**self.p).max())))
        d, n = self.dim, sum(B.shape[-1] for B in blocks)
        Phi, o = np.zeros((d, d, n, n), dtype=complex), 0
        for B in blocks:
            r = B.shape[-1]
            Phi[:, :, o:o + r, o:o + r] = B
            o += r
        self.n, self.Phi = n, Phi.reshape(d * d, n * n)
        self.E = _traceless_basis(d)
        self.order = np.sort(np.indices((d,) * 3), axis=0)

    def __call__(self, sigma: np.ndarray):
        alpha, d, k, n = self.alpha, self.dim, len(self.E), self.n
        ls, U = _eigh(sigma)
        if ls[0] <= 0:
            raise ContractViolation("QAlphaKernel needs sigma positive definite")
        # Row (c, d) of rot Phi is sum_ab U_ac conj(U_bd) Phi_ab.
        rot = (U[:, None, :, None] * U.conj()[None, :, None, :]).reshape(d * d, d * d).T
        Pt = rot @ self.Phi
        Y = (ls**self.p @ Pt[:: d + 1]).reshape(n, n)
        y, V = _eigh(Y)
        # Below eps lambda_max eigh cannot resolve Y's eigenvalues; the floor
        # keeps their powers and divided differences finite.
        y = np.maximum(y, _EPS * y[-1])
        Uh, Vh = U.conj().T, V.conj().T
        yg = y ** (alpha - 1.0)
        G1 = _divided(ls, self.p)
        # M_dc = alpha Tr[Y^(alpha-1) Phi_cd]: the gradient in P, dQ = Tr[M dP].
        Mt = alpha * (Pt @ ((V * yg) @ Vh).T.reshape(-1)).reshape(d, d).T
        G = U @ (G1 * Mt) @ Uh

        def hessian():
            Et = Uh @ self.E @ U  # E_k in sigma's eigenbasis, and DP[E_k] there
            B = (Vh @ ((G1 * Et).reshape(k, d * d) @ Pt).reshape(k, n, n) @ V).reshape(k, n * n)
            H = alpha * ((_divided(y, alpha - 1.0).reshape(-1) * B) @ B.conj().T).real
            A = np.einsum("kim,imj,lmj->kl", Et,
                          Mt.T[:, None, :] * _divided2(ls, G1, self.p, self.order), Et)
            H = H + (A + A.T).real
            return (H + H.T) / 2

        def cut():
            s_top = max(1.0, float(ls[0] ** self.p))
            bound, o = 0.0, 0
            for r, mass, count, k_top in self.cuts:
                if count:
                    q = float(np.sum(np.clip(_eigvalsh(Y[o:o + r, o:o + r]), 0, None)**alpha))
                    bound += (q ** (1.0 / alpha) + mass * k_top * s_top) ** alpha - q
                o += r
            return bound

        return float(yg @ y), _herm(G), hessian, cut


def frank_wolfe_gap(grad: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[G sigma] - lambda_min(G): bounds f(sigma) - min f for convex f."""
    lo = float(_eigvalsh(grad)[0])
    return max(float(np.einsum("ij,ji->", grad, sigma).real) - lo, 0.0)


@functools.cache
def _traceless_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the traceless Hermitian d x d matrices, (d^2-1, d, d).

    Cached per d and read-only: every solve and kernel of one size shares it.
    """
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            for v in (1.0, -1j):  # symmetric and antisymmetric pairs
                E = np.zeros((d, d), dtype=complex)
                E[i, j], E[j, i] = v / math.sqrt(2), np.conj(v) / math.sqrt(2)
                basis.append(E)
    for k in range(1, d):
        D = np.zeros(d)
        D[:k] = 1.0
        D[k] = -k
        basis.append(np.diag(D / math.sqrt(k * (k + 1))).astype(complex))
    basis = np.array(basis, dtype=complex).reshape(-1, d, d)
    basis.flags.writeable = False
    return basis


# Largest certificate gap, in the reported value's units: the Frank-Wolfe
# gap of the convex solver plus its kernel's cut bound, the bracket of the
# SDP in bits.
GAP_TOL = 1e-9
# Most negative eigenvalue of M_A (x) Y - rho_AB that a certified SDP
# solution may leave.
RESIDUAL_TOL = 1e-7
# Newton steps of the convex solver before it gives up on its gap, and the
# halvings its line search tries.
_NEWTON_STEPS = 30
_HALVINGS = 14
# Relative rise of f that its line search still counts as round-off: near
# the optimum a Newton step changes f by less than f's own evaluation error,
# and a smaller gap then carries the last steps.
_FLAT = 1e-12


def minimize_convex_over_states(fun, dim: int, value_of=None, start=None) -> Certified:
    """Minimize a convex functional over D(dim), certified by the Frank-Wolfe gap.

    ``fun(sigma)`` takes one state and returns (f, G, hessian, cut): df =
    Tr[G dsigma], hessian() the Hessian in the coordinates of
    _traceless_basis(dim), and cut() a bound on what f leaves out, so that
    the functional f stands for lies in [f, f + cut()] (QAlphaKernel's cut).
    ``value_of`` maps f increasingly onto the reported value (identity by
    default); the result's value and bracket are in its units, its witness
    is the returned sigma.  ``start`` is a positive definite first iterate
    (I/dim by default), scaled to trace 1.

    Damped Newton in the traceless tangent space (for convex f it converges
    from any start; Boyd & Vandenberghe, Convex Optimization, sec. 9.5): one
    ``fun`` call per iterate, and its Hessian and inverse Cholesky factor
    only where a Newton step is taken from it.  A step that would leave the
    positive cone starts 0.99 of the way to its boundary; it is halved until the
    candidate is positive definite and shows an Armijo decrease of f or,
    once f is flat to round-off, a smaller gap.  `steps` counts Newton
    steps.  The bracket is [value_of(f - fw), value_of(f + cut())] at the
    returned sigma, fw the Frank-Wolfe gap in f's units, with cut() from
    that sigma's own call: it holds both the reported value value_of(f) and
    the true minimum.  Raises CertificateError when its gap stays above
    GAP_TOL: an unconverged solve never returns a value.
    """
    value_of = value_of if value_of is not None else (lambda f: f)

    def bracket(f, fw, above=0.0):
        return value_of(f - fw), value_of(f + above)

    def certificate(f, fw, above=0.0):
        lower, upper = bracket(f, fw, above)
        return upper - lower if math.isfinite(lower) else math.inf

    d = dim
    E = _traceless_basis(d)

    def expand(sigma):
        """f, G, hessian (it builds the Hessian), cut, the value, the
        certificate gap, the Cholesky factor and the Frank-Wolfe gap at
        sigma."""
        try:
            L = _cholesky(sigma)
        except LinAlgError:
            raise ContractViolation("sigma left the positive cone") from None
        f, grad, hessian, cut = fun(sigma)
        fw = frank_wolfe_gap(grad, sigma)
        return f, grad, hessian, cut, value_of(f), certificate(f, fw), L, fw

    sigma = np.eye(d, dtype=complex) / d if start is None else start / np.trace(start).real
    f, grad, hessian, cut, value, gap, L, fw = expand(sigma)
    # Converge well past GAP_TOL: the value's error is second order in
    # sigma's, the gap first order, so the value then carries ~1e-15 error.
    # At d = 1 the only state is optimal: no step is taken.
    steps = 0
    while d > 1 and gap > 1e-3 * GAP_TOL and steps < _NEWTON_STEPS:
        g = np.einsum("kij,ji->k", E, grad).real
        step = _lstsq(hessian(), -g)
        D = np.einsum("k,kij->ij", step, E)
        slope = float(g @ step)
        if not slope < 0:  # no descent direction left
            break
        # Start inside the cone: 0.99 of the way to its boundary along D.
        Li = _inv(L)
        mu = float(_eigvalsh(Li @ D @ Li.conj().T)[0])
        t = min(1.0, -0.99 / mu) if mu < 0 else 1.0
        for _ in range(_HALVINGS):
            cand = sigma + t * D
            try:
                new = expand(cand)
            except ContractViolation:  # outside the open set of definite states
                new = None
            # Once f is flat to round-off, a smaller gap carries the last steps.
            if new is not None and (
                    new[0] <= f + 1e-4 * t * slope
                    or (new[0] <= f + _FLAT * abs(f) and new[5] < gap)):
                break
            t *= 0.5
        else:
            break
        steps += 1
        sigma = cand
        f, grad, hessian, cut, value, gap, L, fw = new
    above = cut() if gap <= GAP_TOL else 0.0
    gap = certificate(f, fw, above)
    if not gap <= GAP_TOL:
        raise CertificateError(
            f"convex solver stopped with Frank-Wolfe gap {gap:.3e} > {GAP_TOL:.1e}"
            + (" with the cut bound" if above else ""))
    return Certified(value, *bracket(f, fw, above), sigma, steps)


# --- max-information SDP ----------------------------------------------------

def dominance_residual(M_A: np.ndarray, rho_AB: np.ndarray, res: Certified,
                       what: str = "") -> float:
    """lambda_min(M_A (x) Y - rho_AB) for the certificate Y = res.witness of
    an SDP result.

    Raises CertificateError unless res's bracket is at most GAP_TOL bits
    wide and the residual at least -RESIDUAL_TOL; ``what`` tells which Y
    failed.
    """
    D = kron(M_A, res.witness) - rho_AB
    residual = float(_eigvalsh(_herm(D))[0])
    if not (res.gap <= GAP_TOL and residual >= -RESIDUAL_TOL):
        raise CertificateError(f"max-information SDP not certified{what} "
                               f"(bracket {res.gap:.3e} bits, residual {residual:.3e})")
    return residual


def _step_lengths(L_inv, dM) -> list:
    """Per member, 0.98 of the largest step keeping L L^H + a dM > 0, at most 1:
    one eigvalsh call on the stacked L^-1 dM L^-H."""
    lam = _eigvalsh(L_inv @ dM @ L_inv.conj().mT)[:, 0].tolist()
    return [min(1.0, -0.98 / v) if v < 0 else 1.0 for v in lam]


def _inverse_factors(X, S):
    """The inverse Cholesky factors of X and S, stacked, or None if one fails."""
    try:
        return _inv(_cholesky(np.concatenate([X, S])))
    except LinAlgError:
        return None


def _lift(D, Y):
    """D (x) Y member by member, for stacks D (k, rA, rA) and Y (k, rB, rB)."""
    (k, rA, _), rB = D.shape, Y.shape[-1]
    return (D[:, :, None, :, None] * Y[:, None, :, None, :]).reshape(k, rA * rB, rA * rB)


def _dual_map(mA, Z):
    """Tr_A[(D (x) 1) Z] member by member, D = diag(mA): mA (k, rA), Z (k, n, n)."""
    k, rA = mA.shape
    rB = Z.shape[-1] // rA
    return np.einsum("ma,maiaj->mij", mA, Z.reshape(k, rA, rB, rA, rB))


def _hkm(mA: np.ndarray, C: np.ndarray, rB: int):
    """The HKM iteration on a stack of compressed problems of one shape.

    mA (k, rA) holds each D's diagonal and C (k, n, n), n = rA rB, each
    compressed rho.  Every LAPACK call runs once on the members still
    running; vdot, trace and the Mehrotra sigma run member by member, so
    each member's bits are those of its solve alone.  Returns the
    iteration each member stopped at and the stacks of their best iterates
    made exactly feasible: Y shifted by its slack deficit, X rescaled by
    Q^-1/2, Q = Tr_A[(D (x) 1) X].
    """
    k, rA = mA.shape
    n, eye = rA * rB, np.eye(rB)
    D = np.zeros((k, rA, rA))
    D[:, range(rA), range(rA)] = mA
    dm = np.repeat(mA, rB, axis=-1)  # diagonal of D (x) 1
    t_min = _eigvalsh(C / np.sqrt(dm[:, :, None] * dm[:, None, :])).max(axis=-1)
    Y = np.array([2.0 * max(float(t), 1e-12) * eye.astype(complex) for t in t_min])
    X = np.array([np.eye(n, dtype=complex) / a.sum() for a in mA])
    live = np.arange(k)  # the members still running, in stack order
    best = [(math.inf, Y[i], X[i]) for i in range(k)]
    prev, stopped = [math.inf] * k, [0] * k
    lmA, lD, ldm, lC = mA, D, dm, C  # mA, D, dm and C of the members in live

    for it in range(101):
        S = _lift(lD, Y) - lC
        keep = []
        for j, i in enumerate(live.tolist()):
            rel = 1.0 - float(np.vdot(lC[j], X[j]).real) / float(Y[j].trace().real)
            if rel < best[i][0]:
                best[i] = (rel, Y[j], X[j])
            # Stop at the target, or once round-off keeps the gap from halving.
            if not (rel <= 1e-12 or prev[i] / 2 < rel < 1e-10 or it == 100):
                keep.append(j)
            prev[i], stopped[i] = rel, it
        if len(keep) < len(live):  # the stopped members leave the stack
            live, X, Y, S = live[keep], X[keep], Y[keep], S[keep]
        L = _inverse_factors(X, S) if len(live) else None
        if L is None and len(live):  # a member with no Cholesky factor stops alone
            keep = [j for j in range(len(live))
                    if _inverse_factors(X[j:j + 1], S[j:j + 1]) is not None]
            live, X, Y, S = live[keep], X[keep], Y[keep], S[keep]
            L = _inverse_factors(X, S) if len(live) else None
        if L is None:
            break
        if len(lC) > len(live):
            lmA, lD, ldm, lC = mA[live], D[live], dm[live], C[live]
        m = len(live)
        Si = L[m:].conj().mT @ L[m:]
        mu = [float(np.vdot(X[j], S[j]).real) / n for j in range(m)]
        # The HKM Schur complement dY -> herm Tr_A[(D (x) 1) X (D (x) dY) S^-1]
        # as a complex matrix on row-major vec(dY): it commutes with the
        # adjoint, so Hermitian right-hand sides have Hermitian solutions.
        K = np.einsum("maibj,mbpaq->miqjp",
                      (ldm[:, :, None] * X * ldm[:, None, :]).reshape(m, rA, rB, rA, rB),
                      Si.reshape(m, rA, rB, rA, rB))
        K = (K + K.transpose(0, 4, 3, 2, 1)).reshape(m, rB * rB, rB * rB) / 2

        def direction(R):  # linearized X S = R S (R = 0: predictor), X stays feasible
            rhs = _herm(_dual_map(lmA, R)) - eye
            dY = _herm(_solve(K, rhs.reshape(m, -1, 1)).reshape(m, rB, rB))
            dS = _lift(lD, dY)
            return dY, dS, _herm(R - X - X @ dS @ Si)

        dYp, dSp, dXp = direction(np.zeros((m, n, n)))
        a = _step_lengths(L, np.concatenate([dXp, dSp]))
        t = np.array(a)[:, None, None]
        Xa, Sa = X + t[:m] * dXp, S + t[m:] * dSp
        coef = []
        for j in range(m):
            mu_aff = float(np.vdot(Xa[j], Sa[j]).real) / n
            sigma = min(1.0, mu_aff / mu[j]) ** max(1.0, 3.0 * min(a[j], a[m + j]) ** 2)
            coef.append(sigma * mu[j])
        dY, dS, dX = direction(np.array(coef)[:, None, None] * Si - dXp @ dSp @ Si)
        t = np.array(_step_lengths(L, np.concatenate([dX, dS])))[:, None, None]
        X, Y = X + t[:m] * dX, Y + t[m:] * dY

    Y, X = np.array([b[1] for b in best]), np.array([b[2] for b in best])
    slack = _eigvalsh(_lift(D, Y) - C)[:, 0].tolist()
    Y = Y + np.array([max(-v, 0.0) / a.min() for v, a in zip(slack, mA)])[:, None, None] * eye
    q, U = _eigh(_dual_map(mA, X))
    B = (U / np.sqrt(np.clip(q, 1e-300, None))[:, None, :]) @ U.conj().mT
    Qh = _lift(np.broadcast_to(np.eye(rA), (k, rA, rA)), B)  # 1 (x) Q^-1/2
    return stopped, Y, Qh @ X @ Qh


def dominating_trace_min(M_A: np.ndarray, rho_AB: np.ndarray,
                         dims: tuple[int, int]) -> list[Certified]:
    """log2 min Tr[Y] over Y with M_A (x) Y >= rho_AB, bracketed by a
    primal-dual pair, for each member of a stack: one Certified per member,
    Certified(log2 Tr Y, log2 Tr[rho Z], log2 Tr Y, Y, iterations, dual=Z).

    M_A (m, dA, dA) and rho_AB (m, dA dB, dA dB) hold m problems; one
    problem is a stack of one.  Each is compressed onto supp(M_A) (x)
    supp(rho_B), where the optimum lies, with D = diag(m_A) and C the
    compressed rho; the dual is max Tr[C X] over X >= 0 with Tr_A[(D (x) 1)
    X] = 1 (Y >= 0 follows from m_a Y >= C_aa).  From the feasible pair
    Y = 2 t_min 1, X = 1/Tr D, each iteration takes 0.98 of the largest
    feasible HKM step with a Mehrotra predictor and corrector (Helmberg,
    Rendl, Vanderbei & Wolkowicz 1996; Todd, Toh & Tutuncu 1998), from one
    Cholesky factor each of X and S = D (x) Y - C.  Members of one
    compressed shape (rA, rB) iterate together: each iteration factors and
    inverts every member's X and S in one call, takes the four step lengths
    in two eigvalsh calls and solves the Schur complements in one call per
    direction.  Each member keeps its own Mehrotra sigma, step lengths,
    stop test (relative gap 1e-12, or a stall below 1e-10), best iterate
    and 100-iteration cap, and leaves the stack when it stops; one whose X
    or S has no Cholesky factor stops alone.  So every member gets exactly
    the bits it would get alone.  The best iterate is made exactly
    feasible: Y shifted by its slack deficit gives the upper value Tr Y, X
    rescaled by Q^-1/2 (Q = Tr_A[(D (x) 1) X]) the lower value Tr[C X] =
    Tr[rho Z] of the lifted dual point Z >= 0, Tr_A[(M_A (x) 1) Z] <= 1.
    The value is the upper side.  Raises CertificateError, for the
    first member in stack order that fails it, unless the bracket is at
    most GAP_TOL bits and the full-space residual at least -RESIDUAL_TOL
    (dominance_residual).
    """
    dA, dB = dims
    M_A, rho_AB = _as_matrix(M_A), _as_matrix(rho_AB)
    m = len(M_A) if M_A.ndim == 3 else -1
    if M_A.shape != (m, dA, dA) or rho_AB.shape != (m, dA * dB, dA * dB):
        raise ContractViolation("dimension mismatch in dominating_trace_min")

    SA = Spectrum(M_A)
    SB = Spectrum(np.array([reduced(r, dims, 1) for r in rho_AB]))
    members, groups = [], {}
    for i in range(m):
        VA, VB = SA[i].basis, SB[i].basis
        W = kron(VA, VB)
        C = W.conj().T @ rho_AB[i] @ W
        members.append((SA.w[i][SA.keep[i]], _herm(C), VB, W))
        groups.setdefault((VA.shape[1], VB.shape[1]), []).append(i)
    solved = {}
    for (rA, rB), idx in groups.items():
        its, Ys, Xs = _hkm(np.array([members[i][0] for i in idx]),
                           np.array([members[i][1] for i in idx]), rB)
        solved.update(zip(idx, zip(its, Ys, Xs)))

    out = []
    for i in range(m):
        _, C, VB, W = members[i]
        it, Y, X = solved[i]
        upper, lower = math.log2(Y.trace().real), float(np.vdot(C, X).real)
        res = Certified(upper, math.log2(lower) if lower > 0 else -math.inf, upper,
                        VB @ Y @ VB.conj().T, it, dual=W @ X @ W.conj().T)
        dominance_residual(M_A[i], rho_AB[i], res)
        out.append(res)
    return out


def imax_sdp(rho_ab, dims: tuple[int, int]) -> Certified:
    """I_max(A:B) as min Tr[Y] with rho_A (x) Y >= rho_AB (Y = t sigma): a
    stack of one."""
    rho_AB = _as_matrix(rho_ab)
    return dominating_trace_min(reduced(rho_AB, dims, 0)[None], rho_AB[None], dims)[0]
