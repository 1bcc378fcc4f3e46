"""Dense complex Hermitian linear algebra, the spectral kernel, and metrics.

A state is a plain complex NumPy array, a density matrix or a unit vector,
and the functions that need its registers take their sizes as a ``dims``
tuple next to it.  Input from outside the program is validated once, by
``state_from_dict``.  All metrics go through Hermitian eigendecompositions
(never iterative norm estimation) so results are deterministic and hit
tight tolerances.

One rule makes an operator Hermitian: ``_herm``, (X + X^H)/2 over the last
two axes, which is Hermitian bit for bit with a real diagonal and leaves the
values of an X that already is unchanged.  ``reduced`` returns the
``_herm`` of its partial trace.  ``Spectrum`` is the one place that checks
a Hermitian input (to TOL_HERM), and it decomposes that input's ``_herm``.
An operator that is Hermitian only up to round-off goes to a bare LAPACK
call as its ``_herm``.  No other module symmetrizes by hand.

Every small dense decomposition in the package goes through the private
functions below, which call the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` as the wrappers ``eigh``, ``eigvalsh``,
``cholesky``, ``inv``, ``solve``, ``lstsq`` and ``svd(compute_uv=False)``
of numpy 2.4's ``numpy/linalg/_linalg.py`` call them: the same gufunc, the
same signature for float64 and complex128, and a failure raised as
``LinAlgError`` through the floating-point error callback those wrappers
install with ``np.errstate``, here set on numpy's error-state context
variable directly.  So each result has numpy's bits, without numpy's
per-call wrapper (its error state, type promotion and casts), which costs
more than the LAPACK call itself at these sizes.  Inputs are float64 or
complex128 arrays; a stack fails if any member fails.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg as _lapack

TOL_HERM = 1e-10
# Trace mass of an operator outside a support above this means it leaves it.
SUPPORT_TOL = 1e-10
# Eigenvalues <= RANK_TOL * lambda_max count as zero (pseudo-inverse powers).
RANK_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)


class ContractViolation(ValueError):
    """An input violated a documented precondition or invariant."""


class CertificateError(ArithmeticError):
    """A solver's certificate (duality gap, feasibility, convergence) failed."""


# --- LAPACK -------------------------------------------------------------------

def _raising(message: str):
    """The error state numpy.linalg calls its gufuncs under: a failure, which
    sets the invalid flag, raises LinAlgError(message); nothing warns."""
    def fail(err, flag):
        raise LinAlgError(message)

    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_NO_CONVERGENCE = _raising("Eigenvalues did not converge")
_NOT_DEFINITE = _raising("Matrix is not positive definite")
_SINGULAR = _raising("Singular matrix")
_LSTSQ_FAILED = _raising("SVD did not converge in Linear Least Squares")
_SVD_FAILED = _raising("SVD did not converge")


def _lapack_call(errors, gufunc, *args, signature: str):
    token = _extobj_contextvar.set(errors)
    try:
        return gufunc(*args, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def _eigh(a: np.ndarray):
    """np.linalg.eigh(a): eigenvalues ascending and their eigenvectors."""
    sig = "D->dD" if a.dtype.kind == "c" else "d->dd"
    return _lapack_call(_NO_CONVERGENCE, _lapack.eigh_lo, a, signature=sig)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a): eigenvalues ascending."""
    sig = "D->d" if a.dtype.kind == "c" else "d->d"
    return _lapack_call(_NO_CONVERGENCE, _lapack.eigvalsh_lo, a, signature=sig)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower factor."""
    sig = "D->D" if a.dtype.kind == "c" else "d->d"
    return _lapack_call(_NOT_DEFINITE, _lapack.cholesky_lo, a, signature=sig)


def _inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a)."""
    sig = "D->D" if a.dtype.kind == "c" else "d->d"
    return _lapack_call(_SINGULAR, _lapack.inv, a, signature=sig)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for right-hand sides b of shape (..., n, k)."""
    sig = "DD->D" if "c" in (a.dtype.kind, b.dtype.kind) else "dd->d"
    return _lapack_call(_SINGULAR, _lapack.solve, a, b, signature=sig)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a, b, rcond=None)[0] for one matrix a and a vector b."""
    m, n = a.shape
    sig = "DDd->Ddid" if "c" in (a.dtype.kind, b.dtype.kind) else "ddd->ddid"
    x = _lapack_call(_LSTSQ_FAILED, _lapack.lstsq, a, b[:, None], _EPS * max(n, m),
                     signature=sig)[0]
    return x[:, 0]


def _svdvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.svd(a, compute_uv=False): singular values, non-increasing."""
    sig = "D->d" if a.dtype.kind == "c" else "d->d"
    return _lapack_call(_SVD_FAILED, _lapack.svd, a, signature=sig)


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, Spectrum):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _check_hermitian(M: np.ndarray, what: str = "matrix"):
    """Raise unless M (every member of a stack) is Hermitian to TOL_HERM."""
    dev = np.max(np.abs(M - M.conj().mT)) if M.size else 0.0
    if dev > TOL_HERM:
        raise ContractViolation(f"{what} not Hermitian (max deviation {dev:.3e})")


def _herm(Z: np.ndarray) -> np.ndarray:
    """(Z + Z^H)/2 over the last two axes: Hermitian bit for bit."""
    return (Z + Z.conj().mT) / 2


def support_cut(w: np.ndarray) -> float:
    """Eigenvalues at or below RANK_TOL * lambda_max count as zero.

    For a stack of spectra (last axis) the cut is per spectrum.
    """
    return RANK_TOL * w.max(axis=-1, initial=0.0)


def q_alpha_cut(w: np.ndarray, alpha: float) -> float:
    """Where a Q_alpha kernel cuts the spectrum w of its state (last axis).

    For alpha > 1 a cut eigenvalue l enters Q_alpha only as (l t)^alpha, so
    cutting at round-off, 64 eps lambda_max, costs ~1e-13 of Q; a RANK_TOL
    cut there would cost ~1e-9, which a log divided by alpha - 1 turns into
    more than a certificate allows near alpha = 1.  For alpha < 1 round-off
    eigenvalues count as l^alpha, so the cut stays at support_cut.
    """
    if alpha > 1:
        return 64 * _EPS * w.max(axis=-1, initial=0.0)
    return support_cut(w)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A (x) B of two matrices as one broadcast product.

    Every entry is the one product a_ij b_kl, so the bits are np.kron's;
    only np.kron's general-rank set-up is skipped.
    """
    (a0, a1), (b0, b1) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(a0 * b0, a1 * b1)


class Spectrum:
    """One eigendecomposition of a Hermitian operator, or of each member of a
    stack (m, n, n) from one ``eigh`` call, and its support cut.

    The input is checked Hermitian to TOL_HERM and its ``_herm`` goes to
    ``eigh``: ``w`` is non-increasing, ``V`` holds the eigenvectors in that
    order, and ``keep`` marks the eigenvalues above support_cut(w).  A stack
    (m, n, n) gives each member's eigenpairs exactly as alone, w of shape
    (m, n) and V of shape (m, n, n).  Build it once per operator and
    pass it on: powers, the support and containment tests all reuse it, and
    its projector is built on first use and kept read-only.  On
    a stack every method acts member by member, each exactly as on that
    member alone, and ``S[idx]`` selects members without decomposing again.
    """

    def __init__(self, H):
        self.matrix = _as_matrix(H)
        _check_hermitian(self.matrix)
        w, V = _eigh(_herm(self.matrix))
        self.w, self.V = w[..., ::-1].copy(), V[..., ::-1].copy()
        self.cut = support_cut(self.w)
        self.keep = (self.w.T > self.cut).T  # the cut per member of a stack

    @classmethod
    def of(cls, H) -> "Spectrum":
        return H if isinstance(H, cls) else cls(H)

    def __getitem__(self, idx) -> "Spectrum":
        S = object.__new__(Spectrum)
        S.matrix, S.w, S.V, S.cut, S.keep = (
            a[idx] for a in (self.matrix, self.w, self.V, self.cut, self.keep))
        return S

    def require_psd(self) -> None:
        # A member fails below -max(1e-10, its cut); the first test is the fast path.
        if self.w.min(initial=0.0) < -1e-10 and (self.w.T < -np.maximum(self.cut, 1e-10)).any():
            raise ContractViolation(f"matrix not PSD (min eigenvalue {self.w.min():.3e})")

    def power(self, exponent: float) -> np.ndarray:
        """The operator to ``exponent`` on its support; cut eigenvalues map to zero."""
        self.require_psd()
        out = np.zeros_like(self.w)
        out[self.keep] = self.w[self.keep] ** exponent
        return (self.V * out[..., None, :]) @ self.V.conj().mT

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal columns spanning the support of one operator."""
        if self.w.ndim != 1:
            raise ContractViolation(f"basis needs one operator, got a stack of {len(self.w)}")
        return self.V[:, self.keep]

    @functools.cached_property
    def _projector(self) -> np.ndarray:
        P = (self.V * self.keep[..., None, :]) @ self.V.conj().mT
        P.flags.writeable = False
        return P

    def projector(self) -> np.ndarray:
        """The orthogonal projector onto the support, shared and read-only."""
        return self._projector

    def contains(self, R: np.ndarray):
        """supp(R) inside the support (a numpy bool per member): R's trace
        outside it is at most SUPPORT_TOL."""
        Pi = self.projector()
        return abs(np.trace(R - Pi @ R @ Pi, axis1=-2, axis2=-1).real) <= SUPPORT_TOL


def reduced(M: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a matrix on registers of sizes ``dims``.

    ``keep`` is one register position or a sequence of them; every other
    register is traced out, highest position first.  The result is the
    ``_herm`` of that trace: Hermitian bit for bit, and for a Hermitian M
    within round-off of the bare trace.
    """
    keep = {keep} if isinstance(keep, int) else set(keep)
    dims = tuple(dims)
    T = np.asarray(M).reshape(dims + dims)
    for i in reversed(range(len(dims))):
        if i not in keep:
            T = np.trace(T, axis1=i, axis2=i + T.ndim // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return _herm(T.reshape(d_keep, d_keep))


def trace_distance(rho, sigma) -> float:
    """Half the Schatten-1 norm of the difference."""
    A, B = _as_matrix(rho), _as_matrix(sigma)
    if A.shape != B.shape:
        raise ContractViolation(f"dimension mismatch {A.shape} vs {B.shape}")
    w = _eigvalsh(_herm(A - B))
    return float(0.5 * np.abs(w).sum())


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1."""
    A, B = _as_matrix(rho), _as_matrix(sigma)
    if A.shape != B.shape:
        raise ContractViolation(f"dimension mismatch {A.shape} vs {B.shape}")
    sa = Spectrum(A).power(0.5)
    sb = Spectrum(B).power(0.5)
    s = _svdvals(sa @ sb)
    return float(min(s.sum(), 1.0))


def purified_distance(rho, sigma) -> float:
    """P(rho, sigma) = sqrt(1 - F^2)."""
    F = fidelity(rho, sigma)
    return float(np.sqrt(max(0.0, 1.0 - F * F)))


def sample(kind: str, dims, seed, rank: int | None = None) -> np.ndarray:
    """Seeded random state on registers of sizes ``dims`` (a tuple or one int).

    'pure-haar' gives a unit vector; 'mixed-hilbert-schmidt' and
    'rank-limited' give density matrices.  The draws depend only on the total
    dimension.
    """
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    if kind == "pure-haar":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)
    if kind in ("mixed-hilbert-schmidt", "rank-limited"):
        r = d if kind == "mixed-hilbert-schmidt" else (
            rank if rank is not None else max(1, d // 2))
        G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        M = G @ G.conj().T
        return M / np.trace(M).real
    raise ContractViolation(f"unknown sample kind {kind!r}")


# --- state file format ------------------------------------------------------

def _pairs_to_complex(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if not np.isfinite(a).all():
        raise ContractViolation("state entries must be finite")
    return a[..., 0] + 1j * a[..., 1]


def state_from_dict(data: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validate a JSON state record and return (array, dims).

    ``layout`` lists [label, dim] pairs: labels unique, dims positive.
    Every entry must be finite.  A ``matrix`` must be a density operator of
    the layout's dimension: Hermitian, eigenvalues >= -1e-10 and trace 1,
    each to 1e-10.  A ``vector`` must be a unit vector (norm 1 to 1e-10) of
    that dimension.
    """
    labels = [str(lbl) for lbl, _ in data["layout"]]
    dims = tuple(int(d) for _, d in data["layout"])
    if len(set(labels)) != len(labels):
        raise ContractViolation(f"duplicate register labels: {labels}")
    if any(d <= 0 for d in dims):
        raise ContractViolation("register dimensions must be positive")
    dim = math.prod(dims)
    if "matrix" in data:
        M = _pairs_to_complex(data["matrix"])
        if M.shape != (dim, dim):
            raise ContractViolation(f"matrix shape {M.shape} does not match layout dim {dim}")
        _check_hermitian(M, what="density operator")
        w = _eigvalsh(_herm(M))
        if not w.min() >= -1e-10:
            raise ContractViolation(f"negative eigenvalue {w.min():.3e}")
        tr = float(np.trace(M).real)
        if not abs(tr - 1.0) <= 1e-10:
            raise ContractViolation(f"trace {tr} deviates from 1")
        return M, dims
    if "vector" in data:
        v = _pairs_to_complex(data["vector"]).reshape(-1)
        if v.shape != (dim,):
            raise ContractViolation(f"vector length {v.shape} does not match layout dim {dim}")
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= 1e-10:
            raise ContractViolation(f"norm {nrm} deviates from 1")
        return v, dims
    raise ContractViolation("state dict needs a 'matrix' or 'vector' field")
