import math

import numpy as np
import pytest

from csl.matcore import (
    ContractViolation,
    DensityOperator,
    PureStateVector,
    RegisterLayout,
    eig_hermitian,
    fidelity,
    partial_trace,
    power_on_support,
    purified_distance,
    purify,
    sample,
    state_from_dict,
    state_to_dict,
    tensor,
    trace_distance,
)


def bell_pair():
    layout = RegisterLayout.of(("R", 2), ("A", 2))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return PureStateVector(v, layout)


def test_layout_rejects_duplicates():
    with pytest.raises(ContractViolation):
        RegisterLayout.of(("A", 2), ("A", 3))


def test_density_operator_contract():
    with pytest.raises(ContractViolation):
        DensityOperator(np.array([[1.0, 0.5], [0.4, 0.0]]), RegisterLayout.of(("A", 2)))
    with pytest.raises(ContractViolation):
        DensityOperator(np.diag([0.7, 0.7]), RegisterLayout.of(("A", 2)))


def test_eig_hermitian_descending():
    w, V = eig_hermitian(np.diag([0.1, 0.9, 0.5]))
    assert np.all(np.diff(w) <= 0)
    assert np.abs(V.conj().T @ V - np.eye(3)).max() < 1e-12


def test_power_on_support_pseudoinverse():
    P = np.diag([0.5, 0.5, 0.0])
    M = power_on_support(P, -1.0)
    assert np.allclose(M, np.diag([2.0, 2.0, 0.0]))


def test_partial_trace_bell():
    psi = bell_pair()
    rho = psi.to_density()
    red = partial_trace(rho, keep=["R"])
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_tensor_and_trace_roundtrip():
    a = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2)), 0)
    b = sample("mixed-hilbert-schmidt", RegisterLayout.of(("B", 3)), 1)
    ab = tensor(a, b)
    assert np.allclose(partial_trace(ab, keep=["A"]).matrix, a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(ab, keep=["B"]).matrix, b.matrix, atol=1e-12)


def test_purify_recovers_marginal():
    rho = sample("rank-limited", RegisterLayout.of(("A", 3)), 2, rank=2)
    psi = purify(rho)
    red = partial_trace(psi.to_density(), keep=["A"])
    assert np.abs(red.matrix - rho.matrix).max() < 1e-10


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
        rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 3)), 10 + i).matrix
        sig = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 3)), 50 + i).matrix
        T = trace_distance(rho, sig)
        F = fidelity(rho, sig)
        assert 1.0 - F <= T + 1e-9
        assert T <= math.sqrt(1.0 - F * F) + 1e-9


def test_state_dict_roundtrip():
    psi = bell_pair()
    again = state_from_dict(state_to_dict(psi))
    assert np.allclose(again.amplitudes, psi.amplitudes)
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 3)
    back = state_from_dict(state_to_dict(rho))
    assert np.allclose(back.matrix, rho.matrix)
    assert back.layout == rho.layout


def test_sample_seeded_reproducible():
    a = sample("pure-haar", 5, 42).amplitudes
    b = sample("pure-haar", 5, 42).amplitudes
    assert np.array_equal(a, b)
