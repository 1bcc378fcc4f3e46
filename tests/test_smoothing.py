import math

import numpy as np
import pytest

from csl import infomeasures
from csl.matcore import (
    ContractViolation,
    RegisterLayout,
    purified_distance,
    sample,
    trace_distance,
)
from csl.optim import ImaxResult
from csl.smoothing import (
    SpectrumPair,
    apply_truncation,
    min_unitary_trace_distance,
    smooth_renyi_entropy_min,
    truncation_effect,
    uab_chain_verify,
)


def test_spectrum_pair_sorts_and_minimum():
    pair = SpectrumPair([0.1, 0.6, 0.3], [0.5, 0.2, 0.3])
    assert np.array_equal(pair.p, [0.6, 0.3, 0.1])
    assert np.array_equal(pair.q, [0.5, 0.3, 0.2])
    assert np.array_equal(pair.s, [0.5, 0.3, 0.1])
    assert pair.s.sum() >= 1.0 - 0.2  # overlap large for close spectra


def test_min_unitary_trace_distance_achieved():
    # The returned unitary attains the sorted-spectrum value exactly.
    for seed in range(25):
        d = 2 + seed % 4
        rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", d)), seed).matrix
        sig = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", d)),
                     seed + 99).matrix
        value, U = min_unitary_trace_distance(rho, sig)
        achieved = trace_distance(rho, U @ sig @ U.conj().T)
        assert abs(achieved - value) < 1e-10
        # and no rotation does better than the sorted-spectrum value
        assert value <= trace_distance(rho, sig) + 1e-12


def _renyi(q, alpha):
    q = q[q > 0]
    return math.log2(float(np.sum(q**alpha))) / (1.0 - alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.9])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_smooth_renyi_entropy_min_steepest(d, alpha):
    # The witness lies in the delta-ball and majorizes every point of it
    # (p itself and 200 random ones, half of them as far along their ray
    # from p as the ball allows), so no point of the ball has a smaller H_alpha.
    rng = np.random.default_rng([d, int(alpha * 10)])
    for delta in (0.1, 0.3):
        p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        value, q = smooth_renyi_entropy_min(p, delta, alpha)
        assert abs(q.sum() - 1.0) <= 1e-15 and q.min() >= 0.0
        assert 0.5 * np.abs(q - p).sum() <= delta + 1e-15
        x = rng.dirichlet(np.ones(d), size=200)
        reach = np.minimum(1.0, delta / (0.5 * np.abs(x - p).sum(axis=1)))
        s = reach * np.where(np.arange(200) % 2, 1.0, rng.uniform(size=200))
        points = np.vstack([p, p + s[:, None] * (x - p)])
        assert (0.5 * np.abs(points - p).sum(axis=1) <= delta + 1e-15).all()
        partial = np.cumsum(-np.sort(-points, axis=1), axis=1)
        assert (np.cumsum(q) >= partial - 1e-15).all()
        for point in points:
            assert value <= _renyi(point, alpha) + 1e-12


def test_smooth_renyi_entropy_min_monotone_in_delta():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    vals = [smooth_renyi_entropy_min(p, d, 0.5)[0] for d in [0.0, 0.05, 0.1, 0.2]]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-9


def test_smooth_renyi_entropy_grid_oracle():
    # Simplex grid oracle at dim 2: q = (p1 + t, p2 - t), t <= delta.
    p = np.array([0.7, 0.3])
    delta, alpha = 0.1, 0.5
    val, q = smooth_renyi_entropy_min(p, delta, alpha)
    grid = np.linspace(0.0, delta, 2001)
    best = min(
        (1.0 / (1.0 - alpha)) * math.log2((p[0] + t) ** alpha + (p[1] - t) ** alpha)
        for t in grid
    )
    assert val <= best + 1e-6


def test_truncation_effect_example():
    # spectrum (3/4, 1/4) with target (3/4, 0): tail s_2 = 0 <= delta keeps m=1.
    omega = np.diag([0.75, 0.25])
    res = truncation_effect(omega, [0.75, 0.0], 0.2)
    assert res.m == 1
    assert abs(res.survival - 0.75) < 1e-12
    assert abs(res.s_min_kept - 0.75) < 1e-12


def test_truncation_m_smallest_and_tie_break():
    omega = np.diag([0.4, 0.3, 0.2, 0.1])
    # delta = 0.3: tail after m=2 is exactly 0.3 -> m = 2 on the tie.
    res = truncation_effect(omega, [0.4, 0.3, 0.2, 0.1], 0.3)
    assert res.m == 2
    assert abs(res.survival - 0.7) < 1e-12


def test_truncation_survival_and_gentle_measurement():
    for seed in range(20):
        omega = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 4)), seed).matrix
        q = np.sort(np.linalg.eigvalsh(omega))[::-1]
        for delta in [0.05, 0.2]:
            res = truncation_effect(omega, q, delta)
            assert res.survival >= 1.0 - 2 * delta - 1e-12
            assert purified_distance(res.omega_trunc, omega) <= math.sqrt(
                2 * delta) + 1e-9
            w = np.linalg.eigvalsh(res.effect)
            assert w.min() > -1e-12 and w.max() < 1.0 + 1e-12


def test_truncation_rejects_disjoint_spectra():
    omega = np.diag([0.9, 0.1])
    with pytest.raises(ContractViolation):
        truncation_effect(omega, [0.0, 0.0], 0.2)


def test_apply_truncation_survival():
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 3).matrix
    state, survival = apply_truncation(rho, np.diag([1.0, 0.0]), (2, 2))
    assert 0.0 < survival <= 1.0
    assert abs(np.trace(state).real - 1.0) < 1e-12


def test_uab_chain_verify_passes():
    for seed in range(5):
        rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)),
                     seed).matrix
        rep = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1)
        assert rep.passed, [(s.name, s.lhs, s.rhs) for s in rep.steps]
        assert rep.imax_truncated <= rep.rhs_final + 1e-7


def test_uab_chain_cache_reuse():
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 8).matrix
    cache = {}
    rep1 = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1, cache=cache)
    rep2 = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1, cache=cache)
    assert rep1.imax_truncated == rep2.imax_truncated
    assert rep1.rhs_final == rep2.rhs_final
    assert "h_min" in cache


@pytest.mark.parametrize("converged, residual", [(False, 0.0), (True, -1e-3)])
def test_uab_chain_rejects_uncertified_imax(monkeypatch, converged, residual):
    # A non-converged or infeasible SDP certificate must stop the chain
    # instead of certifying a step.
    def uncertified(rho_ab, dims):
        return ImaxResult(0.0, np.eye(dims[1]), converged, residual)

    monkeypatch.setattr(infomeasures, "imax_sdp", uncertified)
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)),
                 3).matrix
    with pytest.raises(ContractViolation, match="not certified"):
        uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1)
    with pytest.raises(ContractViolation, match="not certified"):
        infomeasures.imax_smoothed_upper(rho, 0.1, (2, 2))
    with pytest.raises(ContractViolation, match="not certified"):
        infomeasures.imax_bound_lemma(rho, (2, 2))
