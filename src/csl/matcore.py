"""Dense complex Hermitian linear algebra, register bookkeeping, and metrics.

States are immutable value objects wrapping numpy arrays.  All metrics go
through Hermitian eigendecompositions (never iterative norm estimation) so
results are deterministic and hit tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_HERM = 1e-10
# Eigenvalues <= RANK_TOL * lambda_max count as zero (pseudo-inverse powers).
RANK_TOL = 1e-9


class ContractViolation(ValueError):
    """An input violated a documented precondition or invariant."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; the ambient dimension is the product of dims."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(lbl), int(d)) for lbl, d in self.registers)
        object.__setattr__(self, "registers", regs)
        labels = [lbl for lbl, _ in regs]
        if len(set(labels)) != len(labels):
            raise ContractViolation(f"duplicate register labels: {labels}")
        if any(d <= 0 for _, d in regs):
            raise ContractViolation("register dimensions must be positive")

    @classmethod
    def of(cls, *registers: tuple[str, int]) -> "RegisterLayout":
        return cls(tuple(registers))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.registers)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def dim_of(self, label: str) -> int:
        for lbl, d in self.registers:
            if lbl == label:
                return d
        raise ContractViolation(f"no register {label!r} in {self.labels}")

    def positions(self, labels) -> list[int]:
        order = {lbl: i for i, (lbl, _) in enumerate(self.registers)}
        missing = [lbl for lbl in labels if lbl not in order]
        if missing:
            raise ContractViolation(f"labels {missing} not in layout {self.labels}")
        return [order[lbl] for lbl in labels]

    def restrict(self, labels) -> "RegisterLayout":
        keep = set(labels)
        return RegisterLayout(tuple(r for r in self.registers if r[0] in keep))

    def concat(self, other: "RegisterLayout") -> "RegisterLayout":
        return RegisterLayout(self.registers + other.registers)


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, DensityOperator):
        return x.matrix
    if isinstance(x, PureStateVector):
        return x.to_density().matrix
    if isinstance(x, Effect):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _check_hermitian(M: np.ndarray, tol: float = TOL_HERM, what: str = "matrix"):
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if dev > tol:
        raise ContractViolation(f"{what} not Hermitian (max deviation {dev:.3e})")


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD unit-trace matrix with a register layout."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        M = np.array(self.matrix, dtype=complex)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        if M.shape != (self.layout.dim, self.layout.dim):
            raise ContractViolation(
                f"matrix shape {M.shape} does not match layout dim {self.layout.dim}"
            )
        _check_hermitian(M, what="density operator")
        w = np.linalg.eigvalsh((M + M.conj().T) / 2)
        if w.min() < -1e-10:
            raise ContractViolation(f"negative eigenvalue {w.min():.3e}")
        tr = float(np.trace(M).real)
        if abs(tr - 1.0) > 1e-10:
            raise ContractViolation(f"trace {tr} deviates from 1")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def marginal(self, keep) -> "DensityOperator":
        return partial_trace(self, keep)


@dataclass(frozen=True)
class PureStateVector:
    """Unit complex vector with a register layout."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)
        if v.shape != (self.layout.dim,):
            raise ContractViolation(
                f"vector length {v.shape} does not match layout dim {self.layout.dim}"
            )
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-10:
            raise ContractViolation(f"norm {nrm} deviates from 1")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def to_density(self) -> DensityOperator:
        v = self.amplitudes
        return DensityOperator(np.outer(v, v.conj()), self.layout)

    def marginal(self, keep) -> DensityOperator:
        return partial_trace(self.to_density(), keep)


@dataclass(frozen=True)
class Effect:
    """Operator with spectrum in [0, 1]; measurement element."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.array(self.matrix, dtype=complex)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        _check_hermitian(M, what="effect")
        w = np.linalg.eigvalsh((M + M.conj().T) / 2)
        if w.min() < -1e-10 or w.max() > 1 + 1e-10:
            raise ContractViolation(f"effect spectrum [{w.min()}, {w.max()}] outside [0,1]")


def eig_hermitian(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues non-increasing."""
    M = _as_matrix(H)
    _check_hermitian(M)
    Ms = (M + M.conj().T) / 2
    w, V = np.linalg.eigh(Ms)
    return w[::-1].copy(), V[:, ::-1].copy()


def power_on_support(P, exponent: float) -> np.ndarray:
    """P^exponent on the support of P; eigenvalues below rank_tol map to zero."""
    M = _as_matrix(P)
    w, V = eig_hermitian(M)
    lmax = max(w.max(initial=0.0), 0.0)
    cut = RANK_TOL * max(lmax, 0.0)
    if w.min(initial=0.0) < -max(1e-10, cut):
        raise ContractViolation(f"matrix not PSD (min eigenvalue {w.min():.3e})")
    out = np.zeros_like(w)
    nz = w > cut
    out[nz] = w[nz] ** exponent
    return (V * out) @ V.conj().T


def support_projector(P) -> np.ndarray:
    """Projector onto eigenvectors with eigenvalue above rank_tol * lambda_max."""
    M = _as_matrix(P)
    w, V = eig_hermitian(M)
    nz = w > RANK_TOL * max(w.max(initial=0.0), 0.0)
    Vn = V[:, nz]
    return Vn @ Vn.conj().T


def tensor(a, b):
    """Kronecker product; layouts concatenate when both operands carry one."""
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.matrix, b.matrix), a.layout.concat(b.layout))
    if isinstance(a, PureStateVector) and isinstance(b, PureStateVector):
        return PureStateVector(
            np.kron(a.amplitudes, b.amplitudes), a.layout.concat(b.layout)
        )
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(M, keep, layout: RegisterLayout | None = None):
    """Trace out every register whose label is not in ``keep``."""
    if isinstance(keep, str):
        keep = [keep]
    if isinstance(M, DensityOperator):
        layout = M.layout
        mat = M.matrix
        wrap = True
    else:
        if layout is None:
            raise ContractViolation("partial_trace of a raw matrix needs a layout")
        mat = np.asarray(M, dtype=complex)
        wrap = False
    dims = layout.dims
    k = len(dims)
    keep_pos = sorted(layout.positions(keep))
    drop_pos = [i for i in range(k) if i not in keep_pos]
    T = mat.reshape(dims + dims)
    for i in reversed(drop_pos):
        T = np.trace(T, axis1=i, axis2=i + T.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep_pos])) if keep_pos else 1
    out = T.reshape(d_keep, d_keep)
    if wrap:
        sub = RegisterLayout(tuple(layout.registers[i] for i in keep_pos))
        return DensityOperator(out, sub)
    return out


def purify(rho: DensityOperator, ancilla_label: str | None = None) -> PureStateVector:
    """Spectral purification; ancilla padded to the full system dimension."""
    w, V = eig_hermitian(rho.matrix)
    d = rho.dim
    if ancilla_label is None:
        ancilla_label = "".join(rho.layout.labels) + "'"
    amps = np.zeros((d, d), dtype=complex)
    for i in range(d):
        if w[i] > 0:
            amps[:, i] = np.sqrt(w[i]) * V[:, i]
    layout = rho.layout.concat(RegisterLayout.of((ancilla_label, d)))
    v = amps.reshape(-1)
    v = v / np.linalg.norm(v)
    return PureStateVector(v, layout)


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
    sa = power_on_support(A, 0.5)
    sb = power_on_support(B, 0.5)
    s = np.linalg.svd(sa @ sb, compute_uv=False)
    return float(min(s.sum(), 1.0))


def purified_distance(rho, sigma) -> float:
    """P(rho, sigma) = sqrt(1 - F^2)."""
    F = fidelity(rho, sigma)
    return float(np.sqrt(max(0.0, 1.0 - F * F)))


def helstrom_channel(rho, sigma):
    """Two-outcome measurement preserving the trace distance of the pair.

    Returns (effect_plus, apply) where ``apply`` maps a state to its
    two-outcome diagonal distribution (p, 1 - p).
    """
    A, B = _as_matrix(rho), _as_matrix(sigma)
    w, V = eig_hermitian(A - B)
    pos = V[:, w > 0]
    Pi = pos @ pos.conj().T
    effect = Effect(_clip_effect(Pi))

    def apply(state) -> np.ndarray:
        M = _as_matrix(state)
        p = float(np.trace(Pi @ M).real)
        p = min(max(p, 0.0), 1.0)
        return np.array([p, 1.0 - p])

    return effect, apply


def _clip_effect(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    w = np.clip(w, 0.0, 1.0)
    return (V * w) @ V.conj().T


def sample(kind: str, layout, seed, rank: int | None = None):
    """Seeded random states: 'pure-haar', 'mixed-hilbert-schmidt', 'rank-limited'."""
    if isinstance(layout, int):
        layout = RegisterLayout.of(("A", layout))
    rng = np.random.default_rng(seed)
    d = layout.dim
    if kind == "pure-haar":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return PureStateVector(v / np.linalg.norm(v), layout)
    if kind == "mixed-hilbert-schmidt":
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M = G @ G.conj().T
        return DensityOperator(M / np.trace(M).real, layout)
    if kind == "rank-limited":
        r = rank if rank is not None else max(1, d // 2)
        G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        M = G @ G.conj().T
        return DensityOperator(M / np.trace(M).real, layout)
    raise ContractViolation(f"unknown sample kind {kind!r}")


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# --- state file format ------------------------------------------------------

def _complex_to_pairs(arr: np.ndarray):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _pairs_to_complex(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def state_to_dict(state) -> dict:
    layout = [[lbl, d] for lbl, d in state.layout.registers]
    if isinstance(state, DensityOperator):
        return {"layout": layout, "matrix": _complex_to_pairs(state.matrix)}
    if isinstance(state, PureStateVector):
        return {"layout": layout, "vector": _complex_to_pairs(state.amplitudes)}
    raise ContractViolation(f"cannot serialize {type(state).__name__}")


def state_from_dict(data: dict):
    layout = RegisterLayout(tuple((lbl, int(d)) for lbl, d in data["layout"]))
    if "matrix" in data:
        return DensityOperator(_pairs_to_complex(data["matrix"]), layout)
    if "vector" in data:
        return PureStateVector(_pairs_to_complex(data["vector"]), layout)
    raise ContractViolation("state dict needs a 'matrix' or 'vector' field")
