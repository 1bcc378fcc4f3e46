import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from csl.matcore import (
    ContractViolation,
    Spectrum,
    eig_hermitian,
    fidelity,
    purified_distance,
    reduced,
    sample,
    state_from_dict,
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


def test_eig_hermitian_descending():
    w, V = eig_hermitian(np.diag([0.1, 0.9, 0.5]))
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


def test_tensor_and_trace_roundtrip():
    a = sample("mixed-hilbert-schmidt", 2, 0)
    b = sample("mixed-hilbert-schmidt", 3, 1)
    ab = np.kron(a, b)
    assert np.allclose(reduced(ab, (2, 3), 0), a, atol=1e-12)
    assert np.allclose(reduced(ab, (2, 3), 1), b, atol=1e-12)


def test_purify_recovers_marginal():
    rho = sample("rank-limited", 3, 2, rank=2)
    w, V = eig_hermitian(rho)
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
