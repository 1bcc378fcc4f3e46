import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from csl import matcore
from csl.matcore import (
    RANK_TOL,
    ContractViolation,
    Spectrum,
    fidelity,
    kron,
    purified_distance,
    q_alpha_cut,
    reduced,
    sample,
    state_from_dict,
    support_cut,
    trace_distance,
)


def bell_pair():
    """The maximally entangled vector on R x A, dims (2, 2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return v


def pairs(a):
    """Complex entries as the state file's [re, im] pairs."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def test_spectrum_descending():
    S = Spectrum(np.diag([0.1, 0.9, 0.5]))
    w, V = S.w, S.V
    assert np.all(np.diff(w) <= 0)
    assert np.abs(V.conj().T @ V - np.eye(3)).max() < 1e-12


def test_power_on_support_pseudoinverse():
    P = np.diag([0.5, 0.5, 0.0])
    M = Spectrum(P).power(-1.0)
    assert np.allclose(M, np.diag([2.0, 2.0, 0.0]))


def _mixed_stack():
    """3x3 members of full rank, rank 2, rank 1, with an eigenvalue just under
    the cut, and at scale 1e-4 with an eigenvalue 1e-10 that its own cut
    keeps and the largest member's cut would drop."""
    rng = np.random.default_rng(3)
    spectra = [[0.5, 0.3, 0.2], [0.6, 0.4, 0.0], [1.0, 0.0, 0.0],
               [0.7, 0.3, 0.5e-9], [1e-4, 1e-10, 0.0]]
    out = []
    for w in spectra:
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U, _ = np.linalg.qr(G)
        out.append((U * np.array(w)) @ U.conj().T)
    return np.array(out)


def test_stacked_spectrum_members_equal_single_spectra():
    stack = _mixed_stack()
    S = Spectrum(stack)
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    held = S.contains(rho)
    assert held.shape == (len(stack),)
    P, Pw = S.projector(), S.power(-0.5)
    for i, member in enumerate(stack):
        alone = Spectrum(member)
        for got, k in ((S, i), (S[i:i + 1], 0)):
            assert np.array_equal(got.w[k], alone.w) and np.array_equal(got.V[k], alone.V)
            assert got.cut[k] == alone.cut
            assert np.array_equal(got.keep[k], alone.keep)
        assert np.array_equal(P[i], alone.projector())
        B = alone.basis
        assert np.abs(P[i] - B @ B.conj().T).max() <= 1e-15
        assert np.array_equal(Pw[i], alone.power(-0.5))
        assert held[i] == alone.contains(rho)
        assert np.array_equal(S[i].projector(), alone.projector())
    assert [int(k.sum()) for k in S.keep] == [3, 2, 1, 2, 2]
    assert held.tolist() == [True, False, False, False, False]
    assert np.array_equal(P[0], S.V[0] @ S.V[0].conj().T)  # full support: bit for bit
    picked = S[np.array([False, True, False, True, True])]
    assert np.array_equal(picked.power(0.5), S.power(0.5)[[1, 3, 4]])


def test_stacked_spectrum_checks_each_member():
    stack = _mixed_stack()
    stack[2] = np.diag([0.6, 0.5, -0.1])
    with pytest.raises(ContractViolation, match="not PSD"):
        Spectrum(stack).power(0.5)
    Spectrum(stack[[0, 1, 3, 4]]).require_psd()
    with pytest.raises(ContractViolation, match="stack"):
        Spectrum(_mixed_stack()).basis
    assert Spectrum(stack[0]).basis.shape == (3, 3)


def test_partial_trace_bell():
    psi = bell_pair()
    red = reduced(np.outer(psi, psi.conj()), (2, 2), 0)
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("kept", [2, 3])
@pytest.mark.parametrize("traced", [2, 3, 4, 5])
def test_reduced_is_bitwise_hermitian(kept, traced):
    # A sampled state G G^H / Tr is Hermitian up to round-off, and so, on
    # most of these shapes, is its bare partial trace; reduced's is Hermitian
    # bit for bit, with a real diagonal.
    for keep, dims in ((0, (kept, traced)), (1, (traced, kept))):
        for seed in range(4):
            rho = sample("mixed-hilbert-schmidt", dims, 90 + seed)
            A = reduced(rho, dims, keep)
            assert np.array_equal(A, A.conj().T), (dims, keep, seed)
            assert not np.diag(A).imag.any()
            bare = np.trace(rho.reshape(dims + dims), axis1=1 - keep, axis2=3 - keep)
            assert np.abs(A - bare).max() <= 1e-16


def test_tensor_and_trace_roundtrip():
    a = sample("mixed-hilbert-schmidt", 2, 0)
    b = sample("mixed-hilbert-schmidt", 3, 1)
    ab = np.kron(a, b)
    assert np.allclose(reduced(ab, (2, 3), 0), a, atol=1e-12)
    assert np.allclose(reduced(ab, (2, 3), 1), b, atol=1e-12)


def test_kron_has_np_kron_bits():
    rng = np.random.default_rng(3)
    cases = [(sample("mixed-hilbert-schmidt", 3, 1), sample("mixed-hilbert-schmidt", 2, 2)),
              (np.eye(2), rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))),
              (rng.standard_normal((2, 3)), np.eye(4)[:, :2])]
    for A, B in cases:
        got, want = kron(A, B), np.kron(A, B)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_q_alpha_cut_is_round_off_above_one():
    # alpha > 1 cuts at 64 eps lambda_max, every other order at support_cut;
    # a stack of spectra is cut member by member.
    w = np.array([[2.0, RANK_TOL, 1e-15], [0.5, 0.25, 0.0]])
    eps = np.finfo(np.float64).eps
    assert np.array_equal(q_alpha_cut(w, 1.01), 64 * eps * np.array([2.0, 0.5]))
    for alpha in (0.5, 0.99):
        assert np.array_equal(q_alpha_cut(w, alpha), support_cut(w))
    assert (w[0] > q_alpha_cut(w[0], 2.0)).tolist() == [True, True, False]
    assert (w[0] > q_alpha_cut(w[0], 0.5)).tolist() == [True, False, False]


def test_purify_recovers_marginal():
    rho = sample("rank-limited", 3, 2, rank=2)
    S = Spectrum(rho)
    w, V = S.w, S.V
    # spectral purification sum_i sqrt(w_i) |v_i>|i> on A x A'
    psi = (V * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)
    red = reduced(np.outer(psi, psi.conj()), (3, 3), 0)
    assert np.abs(red - rho).max() < 1e-10


def test_trace_distance_fidelity_basics():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    assert abs(trace_distance(rho, sig) - 1.0) < 1e-12
    assert fidelity(rho, sig) < 1e-8
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    assert abs(purified_distance(rho, rho)) < 1e-6


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(5)
    for i in range(20):
        rho = sample("mixed-hilbert-schmidt", 3, 10 + i)
        sig = sample("mixed-hilbert-schmidt", 3, 50 + i)
        T = trace_distance(rho, sig)
        F = fidelity(rho, sig)
        assert 1.0 - F <= T + 1e-9
        assert T <= math.sqrt(1.0 - F * F) + 1e-9


def test_state_dict_roundtrip():
    psi = bell_pair()
    again, dims = state_from_dict({"layout": [["R", 2], ["A", 2]], "vector": pairs(psi)})
    assert np.allclose(again, psi)
    assert dims == (2, 2)
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    back, dims = state_from_dict({"layout": [["A", 2], ["B", 2]], "matrix": pairs(rho)})
    assert np.allclose(back, rho)
    assert dims == (2, 2)


def test_readme_state_file_is_valid():
    # The example state file in README.md must load as written; only the
    # file is checked, the protocol is not run on it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    state = next(b for b in blocks if "layout" in b)
    psi, dims = state_from_dict(state)  # raises ContractViolation if invalid
    assert dims == (2, 1, 2) and psi.shape == (4,)


def test_sample_seeded_reproducible():
    a = sample("pure-haar", 5, 42)
    b = sample("pure-haar", 5, 42)
    assert np.array_equal(a, b)


def test_projector_is_built_once_and_read_only():
    # contains() on a shared Spectrum takes the one cached projector; a
    # write into it would corrupt every later support test.
    S = Spectrum(_mixed_stack())
    P = S.projector()
    assert S.projector() is P
    assert np.array_equal(P, (S.V * S.keep[..., None, :]) @ S.V.conj().mT)
    S.contains(np.eye(3) / 3)
    assert S.projector() is P
    with pytest.raises(ValueError):
        P[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        S[1].projector()[0, 0] = 0.0


# --- the LAPACK layer ---------------------------------------------------------

def _layer_inputs(n: int, dtype, rng):
    """Hermitian n x n matrices of dtype: generic, degenerate, with eigenvalues
    near RANK_TOL, rank-deficient, and one whose strict upper triangle is
    noise (eigh reads the lower triangle only)."""
    G = rng.standard_normal((n, n))
    if dtype == complex:
        G = G + 1j * rng.standard_normal((n, n))
    U = np.linalg.qr(G)[0]
    spectra = [rng.random(n) + 0.1,
               np.where(np.arange(n) < (n + 1) // 2, 0.5, 0.25),
               np.r_[1.0, np.full(n - 1, RANK_TOL)] * (1 + 0.1 * rng.random(n)),
               np.where(np.arange(n) < max(1, n // 2), rng.random(n) + 0.1, 0.0)]
    out = [(U * w) @ U.conj().T for w in spectra]
    noisy = out[0].copy()
    noisy[np.triu_indices(n, 1)] = G[np.triu_indices(n, 1)]
    return np.array(out + [noisy], dtype=dtype)


def _same(ours, theirs, *args):
    """ours(*args) has numpy's bits (value, dtype and shape), or both raise LinAlgError."""
    try:
        want = theirs(*args)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            ours(*args)
        return
    got = ours(*args)
    for g, w in zip(got if isinstance(got, tuple) else (got,),
                    want if isinstance(want, tuple) else (want,)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def _numpy_lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _numpy_svdvals(a):
    return np.linalg.svd(a, compute_uv=False)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", range(1, 9))
def test_lapack_layer_has_numpy_bits(n, dtype):
    # Each function on single matrices and on the stack of them, against the
    # numpy.linalg function it stands for.  The positive definite shift keeps
    # Cholesky on its success path; the general matrices take inv, solve,
    # lstsq and the singular values.
    rng = np.random.default_rng([n, dtype == complex])
    H = _layer_inputs(n, dtype, rng)
    P = H + 1e-3 * np.eye(n)
    A = rng.standard_normal((len(H), n, n)).astype(dtype) + H
    b = rng.standard_normal((len(H), n, 2)).astype(dtype)
    cases = [(matcore._eigh, np.linalg.eigh, (H,)),
             (matcore._eigvalsh, np.linalg.eigvalsh, (H,)),
             (matcore._cholesky, np.linalg.cholesky, (P,)),
             (matcore._inv, np.linalg.inv, (A,)),
             (matcore._inv, np.linalg.inv, (H,)),
             (matcore._solve, np.linalg.solve, (A, b)),
             (matcore._svdvals, _numpy_svdvals, (A,)),
             (matcore._svdvals, _numpy_svdvals, (H,))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ours, theirs, args in cases:
            _same(ours, theirs, *args)  # the stack
            for member in zip(*args):
                _same(ours, theirs, *member)
        # Singular values at 2 eps fall under lstsq's cut, eps max(n, m).
        tiny = np.diag(np.r_[1.0, np.full(n - 1, 2 * np.finfo(float).eps)]).astype(dtype)[None]
        for a, v in zip(np.concatenate([A, H, tiny]), rng.standard_normal((2 * len(H) + 1, n))):
            _same(matcore._lstsq, _numpy_lstsq, a, v)


@pytest.mark.parametrize("dtype", [float, complex])
def test_lapack_layer_failures_raise_as_numpy(dtype):
    # One member that is not positive definite fails the whole stack's
    # Cholesky, and a singular solve or inverse fails, each with numpy's
    # LinAlgError and no warning; the other members alone still factor.
    rng = np.random.default_rng(5)
    P = _layer_inputs(3, dtype, rng)[:2] + 1e-3 * np.eye(3)
    bad = P.copy()
    bad[1, 2, 2] = -1.0
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ours, theirs, args in [(matcore._cholesky, np.linalg.cholesky, (bad,)),
                                   (matcore._solve, np.linalg.solve, (singular, np.ones((2, 1)))),
                                   (matcore._inv, np.linalg.inv, (singular,))]:
            with pytest.raises(np.linalg.LinAlgError) as want:
                theirs(*args)
            with pytest.raises(np.linalg.LinAlgError) as got:
                ours(*args)
            assert str(got.value) == str(want.value)
        assert np.array_equal(matcore._cholesky(bad[:1]), np.linalg.cholesky(P[:1]))
