import dataclasses
import itertools
import math

import numpy as np
import pytest

from csl import infomeasures, optim, smoothing
from csl.matcore import (
    CertificateError,
    ContractViolation,
    purified_distance,
    reduced,
    sample,
)
from csl.optim import imax_sdp
from csl.smoothing import (
    apply_truncation,
    imax_smoothed_upper,
    smooth_renyi_entropy_min,
    truncation_effect,
    uab_chain_verify,
)


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
        omega = sample("mixed-hilbert-schmidt", 4, seed)
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
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    state, survival = apply_truncation(rho, np.diag([1.0, 0.0]), (2, 2))
    assert 0.0 < survival <= 1.0
    assert abs(np.trace(state).real - 1.0) < 1e-12


def test_uab_chain_verify_passes():
    for seed in range(5):
        rho = sample("mixed-hilbert-schmidt", (2, 2), seed)
        rep = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1)
        assert rep.passed, [(s.name, s.lhs, s.rhs) for s in rep.steps]
        assert rep.imax_truncated <= rep.rhs_final + 1e-7


def test_uab_chain_cache_reuse():
    rho = sample("mixed-hilbert-schmidt", (2, 2), 8)
    cache = {}
    rep1 = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1, cache=cache)
    rep2 = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1, cache=cache)
    assert rep1.imax_truncated == rep2.imax_truncated
    assert rep1.rhs_final == rep2.rhs_final
    # The witness is keyed on delta alone: no Renyi order in the key.  Its
    # I_max SDP is keyed on the cutoff class, here the uncut one (k = dA),
    # and H_alpha(A) on alpha.
    delta = infomeasures.C_SMOOTH * 0.1 * 0.1
    assert set(cache) == {("trunc", round(delta, 14)), ("imax_class", 2), "h_min",
                          ("h_alpha", 0.5), ("h_up", 2.0)}


UAB_GRID = list(itertools.product((0.3, 0.5, 0.9), (1.5, 2.0, 4.0), (0.05, 0.1, 0.3)))


def _steps(rep):
    return [(s.name, s.lhs, s.rhs, s.ok) for s in rep.steps], rep.passed


@pytest.mark.parametrize("dims, seed", [((2, 2), 41), ((2, 3), 42)])
def test_uab_chain_shared_cache_matches_fresh(dims, seed):
    # One cache shared over the whole grid gives every step's lhs and rhs
    # with exactly the bits of a fresh cache per point.
    rho = sample("mixed-hilbert-schmidt", dims[0] * dims[1], seed)
    cache = {}
    for alpha, beta, eps in UAB_GRID:
        shared = uab_chain_verify(rho, dims, alpha, beta, eps, cache=cache)
        fresh = uab_chain_verify(rho, dims, alpha, beta, eps)
        assert _steps(shared) == _steps(fresh), (alpha, beta, eps)
        assert (shared.imax_truncated, shared.rhs_final) == (
            fresh.imax_truncated, fresh.rhs_final)


def _count_solves(monkeypatch):
    """Count SDP members (I_max and H_min), the stacked SDP calls that solve
    them, and conditional_renyi_up calls."""
    calls = {"sdp": 0, "sdp_calls": 0, "renyi_up": 0}
    solve = optim.dominating_trace_min

    def sdp(M_A, rho_AB, dims):
        calls["sdp"] += len(M_A)
        calls["sdp_calls"] += 1
        return solve(M_A, rho_AB, dims)

    def renyi_up(*args, **kwargs):
        calls["renyi_up"] += 1
        return conditional_renyi_up(*args, **kwargs)

    conditional_renyi_up = infomeasures.conditional_renyi_up
    for module in (optim, infomeasures, smoothing):
        monkeypatch.setattr(module, "dominating_trace_min", sdp)
    monkeypatch.setattr(infomeasures, "conditional_renyi_up", renyi_up)
    return calls


@pytest.mark.parametrize("dims, seed", [((2, 2), 43), ((2, 3), 44)])
def test_uab_chain_solves_per_state(monkeypatch, dims, seed):
    # On one cache the 27-point grid solves one I_max SDP per cutoff class
    # (one here: no delta cuts these states) plus H_min, both in one stacked
    # call, and one conditional_renyi_up per beta (3).
    calls = _count_solves(monkeypatch)
    rho = sample("mixed-hilbert-schmidt", dims[0] * dims[1], seed)
    cache = {}
    for alpha, beta, eps in UAB_GRID:
        assert uab_chain_verify(rho, dims, alpha, beta, eps, cache=cache).passed
    assert calls == {"sdp": 2, "sdp_calls": 1, "renyi_up": 3}



def test_uab_chain_solves_h_min_alone_on_a_cache_holding_the_class(monkeypatch):
    # A cache that imax_smoothed_upper filled holds the uncut class but not
    # H_min: the chain solves H_min as a stack of one, with the bits of a
    # fresh cache.
    rho = sample("mixed-hilbert-schmidt", (2, 2), 46)
    fresh = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1)
    cache = {}
    imax_smoothed_upper(rho, 0.1, (2, 2), cache=cache)
    calls = _count_solves(monkeypatch)
    shared = uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1, cache=cache)
    assert calls == {"sdp": 1, "sdp_calls": 1, "renyi_up": 1}
    assert _steps(shared) == _steps(fresh)
    assert (shared.imax_truncated, shared.rhs_final) == (fresh.imax_truncated, fresh.rhs_final)

def _filtered_on_a(rho, dims, weights):
    """(L (x) 1) rho (L (x) 1)/Tr with L = diag(weights) on A."""
    L = np.kron(np.diag(weights), np.eye(dims[1]))
    out = L @ rho @ L
    return out / np.trace(out).real


@pytest.mark.parametrize("dims, seed, weights", [
    ((2, 3), 50, [1.0, 0.15]),
    ((3, 2), 51, [1.0, 1.0, 0.15]),
])
def test_uab_chain_cut_class_matches_witness_sdp(monkeypatch, dims, seed, weights):
    # rho_A's smallest eigenvalue lies below 2 delta at eps = 0.3 and above it
    # at eps = 0.1, so the eps = 0.3 witness cuts one direction of A: its
    # class (dA - 1) is solved on P rho P / Tr, not on rho.  Each witness's
    # I_max equals its own SDP, and the grid runs 3 SDPs: two classes and
    # H_min, in two stacked calls (the first class with H_min, then the cut
    # class alone).
    rho = _filtered_on_a(sample("mixed-hilbert-schmidt", dims[0] * dims[1], seed),
                         dims, weights)
    lam = np.linalg.eigvalsh(reduced(rho, dims, 0))[0]
    assert 2 * infomeasures.C_SMOOTH * 0.1**2 < lam < 2 * infomeasures.C_SMOOTH * 0.3**2
    calls = _count_solves(monkeypatch)
    cache = {}
    for alpha, beta, eps in UAB_GRID:
        assert uab_chain_verify(rho, dims, alpha, beta, eps, cache=cache).passed
    assert calls == {"sdp": 3, "sdp_calls": 2, "renyi_up": 3}
    classes = {k[1] for k in cache if k[0] == "imax_class"}
    assert classes == {dims[0], dims[0] - 1}
    rho_A = reduced(rho, dims, 0)
    p = np.sort(np.linalg.eigvalsh(rho_A))[::-1]
    for eps in (0.05, 0.1, 0.3):
        delta = infomeasures.C_SMOOTH * eps * eps
        _, spectrum = smooth_renyi_entropy_min(p, delta, 0.5)
        omega, _ = apply_truncation(
            rho, truncation_effect(rho_A, spectrum, delta).effect, dims)
        own = imax_sdp(omega, dims).value_bits
        assert abs(cache[("trunc", round(delta, 14))][2] - own) <= 1e-10, eps


def test_imax_smoothed_upper_one_sdp_when_nothing_is_cut(monkeypatch):
    # rho and every witness that cuts nothing share the uncut class's SDP,
    # and no uncut witness can beat rho by round-off.
    rho = sample("mixed-hilbert-schmidt", (2, 2), 45)
    calls = _count_solves(monkeypatch)
    est = imax_smoothed_upper(rho, 0.1, (2, 2))
    assert calls["sdp"] == 1
    assert np.array_equal(est.witness, rho)
    assert est.value_bits == imax_sdp(rho, (2, 2)).value_bits


def _narrowed_rho_b(rho, dims, keep):
    """reduced, with rho_B's smallest eigenvalue dropped: an SDP that reads it
    solves on too small a support of B, so its bracket closes there while
    its Y misses a direction that rho_AB weighs."""
    out = reduced(rho, dims, keep)
    if keep == 1:
        w, V = np.linalg.eigh(out)
        out = (V[:, 1:] * w[1:]) @ V[:, 1:].conj().T
    return out


@pytest.mark.parametrize("case", ["wide-bracket", "negative-residual"])
def test_uab_chain_rejects_uncertified_imax(monkeypatch, case):
    # An SDP whose bracket does not close, or whose Y leaves a negative
    # residual on the full space, must stop the chain instead of certifying
    # a step.
    if case == "wide-bracket":
        monkeypatch.setattr(optim, "GAP_TOL", -1.0)
    else:
        monkeypatch.setattr(optim, "reduced", _narrowed_rho_b)
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    with pytest.raises(CertificateError, match="not certified") as exc:
        uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1)
    residual = float(str(exc.value).rsplit("residual ", 1)[1].rstrip(")"))
    assert (residual < -1e-3) == (case == "negative-residual"), residual
    with pytest.raises(CertificateError, match="not certified"):
        imax_smoothed_upper(rho, 0.1, (2, 2))


def test_class_certificate_is_checked_against_each_witness(monkeypatch):
    # A class solve that passes its own checks but returns a Y too small for
    # the witness must not certify that witness's I_max.  The class is the
    # first member of every stack the chain and the estimate solve.
    solve = smoothing.dominating_trace_min

    def shrunk(M_A, rho_AB, dims):
        res = solve(M_A, rho_AB, dims)
        return [dataclasses.replace(res[0], certificate=0.5 * res[0].certificate)] + res[1:]

    monkeypatch.setattr(smoothing, "dominating_trace_min", shrunk)
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    with pytest.raises(CertificateError, match="not certified for the witness"):
        uab_chain_verify(rho, (2, 2), 0.5, 2.0, 0.1)
    with pytest.raises(CertificateError, match="not certified for the witness"):
        imax_smoothed_upper(rho, 0.1, (2, 2))
