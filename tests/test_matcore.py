import json
import math
import re
from pathlib import Path

import numpy as np

from csl.matcore import (
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
