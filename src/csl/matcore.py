"""Dense complex Hermitian linear algebra, the spectral kernel, and metrics.

A state is a plain complex NumPy array, a density matrix or a unit vector,
and the functions that need its registers take their sizes as a ``dims``
tuple next to it.  Input from outside the program is validated once, by
``state_from_dict``.  All metrics go through Hermitian eigendecompositions
(never iterative norm estimation) so results are deterministic and hit
tight tolerances.
"""

from __future__ import annotations

import functools
import math

import numpy as np

TOL_HERM = 1e-10
# Trace mass of an operator outside a support above this means it leaves it.
SUPPORT_TOL = 1e-10
# Eigenvalues <= RANK_TOL * lambda_max count as zero (pseudo-inverse powers).
RANK_TOL = 1e-9


class ContractViolation(ValueError):
    """An input violated a documented precondition or invariant."""


class CertificateError(ArithmeticError):
    """A solver's certificate (duality gap, feasibility, convergence) failed."""


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, Spectrum):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _check_hermitian(M: np.ndarray, what: str = "matrix"):
    """Raise unless M (every member of a stack) is Hermitian to TOL_HERM."""
    dev = np.max(np.abs(M - M.conj().mT)) if M.size else 0.0
    if dev > TOL_HERM:
        raise ContractViolation(f"{what} not Hermitian (max deviation {dev:.3e})")


def eig_hermitian(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues non-increasing.

    A stack (m, n, n) takes one ``eigh`` call and gives each member's
    eigenpairs exactly as alone: w of shape (m, n), V of shape (m, n, n).
    """
    M = _as_matrix(H)
    _check_hermitian(M)
    Ms = (M + M.conj().mT) / 2
    w, V = np.linalg.eigh(Ms)
    return w[..., ::-1].copy(), V[..., ::-1].copy()


def support_cut(w: np.ndarray) -> float:
    """Eigenvalues at or below RANK_TOL * lambda_max count as zero.

    For a stack of spectra (last axis) the cut is per spectrum.
    """
    return RANK_TOL * w.max(axis=-1, initial=0.0)


class Spectrum:
    """One eigendecomposition of a Hermitian operator, or of each member of a
    stack (m, n, n) from one ``eigh`` call, and its support cut.

    ``w`` (non-increasing) and ``V`` come from eig_hermitian; ``keep`` marks
    the eigenvalues above support_cut(w).  Build it once per operator and
    pass it on: powers, the support and containment tests all reuse it, and
    its projector is built on first use and kept read-only.  On
    a stack every method acts member by member, each exactly as on that
    member alone, and ``S[idx]`` selects members without decomposing again.
    """

    def __init__(self, H):
        self.matrix = _as_matrix(H)
        self.w, self.V = eig_hermitian(self.matrix)
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
    register is traced out, highest position first.
    """
    keep = {keep} if isinstance(keep, int) else set(keep)
    dims = tuple(dims)
    T = np.asarray(M).reshape(dims + dims)
    for i in reversed(range(len(dims))):
        if i not in keep:
            T = np.trace(T, axis1=i, axis2=i + T.ndim // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return T.reshape(d_keep, d_keep)


def trace_distance(rho, sigma) -> float:
    """Half the Schatten-1 norm of the difference."""
    A, B = _as_matrix(rho), _as_matrix(sigma)
    if A.shape != B.shape:
        raise ContractViolation(f"dimension mismatch {A.shape} vs {B.shape}")
    w = np.linalg.eigvalsh((A - B + (A - B).conj().T) / 2)
    return float(0.5 * np.abs(w).sum())


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1."""
    A, B = _as_matrix(rho), _as_matrix(sigma)
    if A.shape != B.shape:
        raise ContractViolation(f"dimension mismatch {A.shape} vs {B.shape}")
    sa = Spectrum(A).power(0.5)
    sb = Spectrum(B).power(0.5)
    s = np.linalg.svd(sa @ sb, compute_uv=False)
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
        w = np.linalg.eigvalsh((M + M.conj().T) / 2)
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
