"""Closed-form oracles and invariances of the information solvers.

I_max(A:B) = log min{Tr Y : rho_A (x) Y >= rho_AB} is unchanged when rho is
replaced by (L (x) 1) rho (L (x) 1)^H / Tr for L invertible on A: both sides
of the constraint are conjugated by L (x) 1.  A filter on B has no such
symmetry.  On classical states both SDPs have closed forms (Koenig, Renner
& Schaffner, IEEE TIT 55, 4337, 2009), and so do Sibson's I_alpha (Sibson,
1969) and Arimoto's H_up_beta (Arimoto, 1977); on pure states I_alpha is
2 H_{1/(2 alpha - 1)}(rho_B), and the sandwiched D_alpha(|psi><psi| || sigma)
is alpha/(alpha-1) log2 <psi|sigma^((1-alpha)/alpha)|psi>.  D_alpha is also
unchanged when an isometry embeds both arguments in a larger space.

The paper's bounds are independent of the systems' dimensions: the chain of
the universal max-information bound, the optimized conditional Renyi
entropy and the convex-split bounds take the same values under local
unitaries and when a local isometry embeds each system in one more
dimension.
"""

import math

import numpy as np
import pytest

from csl.convexsplit import bounds_report
from csl.divergences import d_alpha
from csl.infomeasures import (conditional_renyi_up, h_min_conditional, mutual_info_alpha,
                              renyi_entropy)
from csl.matcore import RANK_TOL, CertificateError, reduced, sample
from csl.optim import imax_sdp
from csl.smoothing import uab_chain_verify
from helpers import random_unitary

DIMS = [(2, 2), (2, 3), (3, 2)]


def _filtered(rho, L):
    out = L @ rho @ L.conj().T
    return out / np.trace(out).real


def _random_filter(d, rng):
    """A well-conditioned invertible d x d matrix, generic (not normal)."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.eye(d) + 0.4 * G


@pytest.mark.parametrize("dims", DIMS)
def test_imax_invariant_under_invertible_filter_on_a(dims):
    dA, dB = dims
    rng = np.random.default_rng([17, dA, dB])
    for seed in range(3):
        rho = sample("mixed-hilbert-schmidt", dims, 1700 + 10 * dA + seed)
        want = imax_sdp(rho, dims).value
        for _ in range(2):
            L = _random_filter(dA, rng)
            rho_A = reduced(rho, dims, 0)
            assert np.linalg.norm(L @ rho_A - rho_A @ L) > 1e-2  # not a function of rho_A
            got = imax_sdp(_filtered(rho, np.kron(L, np.eye(dB))), dims).value
            assert abs(got - want) <= 1e-10, (seed, got, want)


@pytest.mark.parametrize("dims", DIMS)
def test_imax_moves_under_filter_on_b(dims):
    # Negative control: the same kind of filter on B changes I_max.
    dA, dB = dims
    rng = np.random.default_rng([18, dA, dB])
    for seed in range(3):
        rho = sample("mixed-hilbert-schmidt", dims, 1800 + 10 * dA + seed)
        want = imax_sdp(rho, dims).value
        M = _random_filter(dB, rng)
        got = imax_sdp(_filtered(rho, np.kron(np.eye(dA), M)), dims).value
        assert abs(got - want) > 1e-3, (seed, got, want)


def _classical_states():
    """Diagonal p(a, b), 2x2 to 3x3, with zero entries, a zero row of A and
    a zero column of B (a rank-deficient rho_B)."""
    out = []
    for dA, dB in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        rng = np.random.default_rng([19, dA, dB])
        for case in range(3):
            p = rng.random((dA, dB))
            if case >= 1:
                p[rng.random((dA, dB)) < 0.3] = 0.0
                p[0, -1] = 0.0
            if case == 2:
                p[:, -1] = 0.0  # rho_B rank-deficient
                if dA == 3:
                    p[1, :] = 0.0  # rho_A rank-deficient too
            out.append(((dA, dB), p / p.sum()))
    return out


CLASSICAL = _classical_states()


def _diag_state(p):
    return np.diag(p.reshape(-1)).astype(complex)


@pytest.mark.parametrize("dims, p", CLASSICAL)
def test_imax_classical_closed_form(dims, p):
    # I_max = log2 sum_b max_{a: p(a) > 0} p(b|a).
    pa = p.sum(axis=1)
    cond = p[pa > 0] / pa[pa > 0, None]
    want = math.log2(float(cond.max(axis=0).sum()))
    res = imax_sdp(_diag_state(p), dims)
    assert abs(res.value - want) <= 1e-10, (res.value, want)


@pytest.mark.parametrize("dims, p", CLASSICAL)
def test_h_min_classical_closed_form(dims, p):
    # H_min(A|B) = -log2 sum_b max_a p(a, b).
    want = -math.log2(float(p.max(axis=0).sum()))
    got = h_min_conditional(_diag_state(p), dims)
    assert abs(got - want) <= 1e-10, (got, want)


ORDERS = [1.5, 2.0, 4.0]


@pytest.mark.parametrize("dims, p", [c for c in CLASSICAL if (c[1].sum(axis=0) > 0).all()])
def test_sibson_mutual_information_classical_closed_form(dims, p):
    # I_alpha = alpha/(alpha-1) log2 sum_b (sum_a p(a) p(b|a)^alpha)^(1/alpha),
    # with rho_B full rank (below it the descent's sigma leaks mass under the cut).
    pa = p.sum(axis=1)[:, None]
    for alpha in ORDERS:
        inner = np.sum(pa * np.divide(p, pa, out=np.zeros_like(p), where=pa > 0) ** alpha,
                       axis=0)
        want = alpha / (alpha - 1) * math.log2(float(np.sum(inner ** (1 / alpha))))
        got, _ = mutual_info_alpha(_diag_state(p), alpha, dims)
        assert abs(got - want) <= 1e-10, (alpha, got, want)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3)])
def test_mutual_information_of_pure_states(dims):
    # I_alpha(A:B) = 2 H_{1/(2 alpha - 1)}(rho_B) on pure states whose rho_B
    # is full rank (dA >= dB).
    for seed in range(2):
        v = sample("pure-haar", dims, 500 + seed)
        rho = np.outer(v, v.conj())
        rho_B = reduced(rho, dims, 1)
        for alpha in ORDERS:
            want = 2 * renyi_entropy(rho_B, 1 / (2 * alpha - 1))
            got, _ = mutual_info_alpha(rho, alpha, dims)
            assert abs(got - want) <= 1e-10, (seed, alpha, got, want)


@pytest.mark.parametrize("dims, p", CLASSICAL)
def test_arimoto_conditional_entropy_classical_closed_form(dims, p):
    # H_up_beta(A|B) = beta/(1-beta) log2 sum_b (sum_a p(a, b)^beta)^(1/beta).
    for beta in ORDERS:
        want = beta / (1 - beta) * math.log2(
            float(np.sum(np.sum(p ** beta, axis=0) ** (1 / beta))))
        got = conditional_renyi_up(_diag_state(p), beta, dims)
        assert abs(got - want) <= 1e-10, (beta, got, want)


def _near_cut_classical_states():
    """3x2 classical p(a, b) with one entry at 0.95 RANK_TOL of the largest."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(6):
        p = rng.random((3, 2))
        p[np.unravel_index(rng.integers(6), p.shape)] = 0.95 * RANK_TOL * p.max()
        out.append(p / p.sum())
    return out


@pytest.mark.parametrize("p", _near_cut_classical_states())
def test_arimoto_near_the_cut_certifies_or_refuses(p):
    # The entry lies under rho's support cut but above the kernel's
    # round-off cut, which keeps it: the solve meets Arimoto's form or
    # raises, at every order.
    for beta in ORDERS:
        want = beta / (1 - beta) * math.log2(
            float(np.sum(np.sum(p ** beta, axis=0) ** (1 / beta))))
        try:
            got = conditional_renyi_up(_diag_state(p), beta, (3, 2))
        except CertificateError:
            continue
        assert abs(got - want) <= 1e-9, (beta, got, want)


D_ORDERS = (0.75, 1.5, 2.0, 4.0)


def _pure_d_alpha(v, sigma, alpha):
    w, U = np.linalg.eigh(sigma)
    S = (U * w ** ((1 - alpha) / alpha)) @ U.conj().T
    return alpha / (alpha - 1) * math.log2(float((v.conj() @ S @ v).real))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sandwiched_d_alpha_of_pure_states(d):
    # One reference and a stack of them meet the closed form alike.
    sigmas = np.array([sample("mixed-hilbert-schmidt", d, 600 + k) for k in range(3)])
    for seed in range(2):
        v = sample("pure-haar", d, 610 + seed)
        rho = np.outer(v, v.conj())
        for alpha in D_ORDERS:
            stacked = d_alpha(rho, sigmas, alpha)
            for i, sigma in enumerate(sigmas):
                want = _pure_d_alpha(v, sigma, alpha)
                for got in (d_alpha(rho, sigma, alpha), stacked[i]):
                    assert abs(got - want) <= 1e-10, (alpha, i, got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sandwiched_d_alpha_invariant_under_isometric_embedding(d):
    # V sigma V^H is rank-deficient on d + 2 dimensions, so the support cut
    # decides which eigenvalues count, on one reference and on a stack.
    rng = np.random.default_rng(620 + d)
    G = rng.standard_normal((d + 2, d)) + 1j * rng.standard_normal((d + 2, d))
    V, _ = np.linalg.qr(G)
    sigmas = np.array([sample("mixed-hilbert-schmidt", d, 630 + k) for k in range(3)])
    v = sample("pure-haar", d, 640)
    rhos = [sample("mixed-hilbert-schmidt", d, 641), np.outer(v, v.conj()),
            sample("rank-limited", d, 642, rank=max(1, d - 1))]
    for rho in rhos:
        big = V @ rho @ V.conj().T
        big_sigmas = V @ sigmas @ V.conj().T
        for alpha in D_ORDERS:
            stacked = d_alpha(big, big_sigmas, alpha)
            for i, sigma in enumerate(sigmas):
                want = d_alpha(rho, sigma, alpha)
                for got in (d_alpha(big, big_sigmas[i], alpha), stacked[i]):
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (alpha, i, got, want)


def _isometry(d, rng):
    """A random isometry from C^d into C^(d+1)."""
    G = rng.standard_normal((d + 1, d)) + 1j * rng.standard_normal((d + 1, d))
    return np.linalg.qr(G)[0]


def _close(got, want, tol):
    return got == want or abs(got - want) <= tol * max(1.0, abs(want))


def _mapped_states(dims, kind, seed):
    """(rho, its image, the image's dims) for local unitaries on A and B or
    local isometries into (dA + 1, dB + 1)."""
    dA, dB = dims
    rng = np.random.default_rng([seed, dA, dB])
    rho = sample("mixed-hilbert-schmidt", dims, seed + 10 * dA + dB)
    if kind == "unitary":
        M, image_dims = np.kron(random_unitary(dA, rng), random_unitary(dB, rng)), dims
    else:
        M, image_dims = np.kron(_isometry(dA, rng), _isometry(dB, rng)), (dA + 1, dB + 1)
    return rho, M @ rho @ M.conj().T, image_dims


@pytest.mark.parametrize("kind", ["unitary", "embed"])
@pytest.mark.parametrize("dims", DIMS)
def test_uab_chain_steps_independent_of_the_dimensions(dims, kind):
    for seed in (7000, 7001):
        rho, image, image_dims = _mapped_states(dims, kind, seed)
        want = uab_chain_verify(rho, dims, 0.5, 2.0, 0.1).steps
        got = uab_chain_verify(image, image_dims, 0.5, 2.0, 0.1).steps
        assert [s.name for s in got] == [s.name for s in want]
        for g, w in zip(got, want):
            assert _close(g.lhs, w.lhs, 1e-10) and _close(g.rhs, w.rhs, 1e-10), (seed, g, w)


@pytest.mark.parametrize("kind", ["unitary", "embed"])
@pytest.mark.parametrize("dims", DIMS)
def test_conditional_renyi_up_independent_of_the_dimensions(dims, kind):
    for seed in (7100, 7101):
        rho, image, image_dims = _mapped_states(dims, kind, seed)
        for beta in (1.5, 2.0, 4.0):
            want = conditional_renyi_up(rho, beta, dims)
            got = conditional_renyi_up(image, beta, image_dims)
            assert _close(got, want, 1e-12), (seed, beta, got, want)


@pytest.mark.parametrize("kind", ["unitary", "pad"])
@pytest.mark.parametrize("dims", DIMS)
def test_convex_split_bounds_independent_of_the_dimensions(dims, kind):
    # Local unitaries on R and A rotate sigma with A; padding embeds R in
    # dR + 1 dimensions.
    dR, dA = dims
    rng = np.random.default_rng([72, dR, dA])
    for seed, n in ((7200, 2), (7201, 3)):
        rho = sample("rank-limited", dims, seed, rank=1 + (seed % 2) * 2)
        sigma = sample("mixed-hilbert-schmidt", dA, seed + 50)
        if kind == "unitary":
            UA = random_unitary(dA, rng)
            M = np.kron(random_unitary(dR, rng), UA)
            args = (M @ rho @ M.conj().T, UA @ sigma @ UA.conj().T, n, dims)
        else:
            M = np.kron(_isometry(dR, rng), np.eye(dA))
            args = (M @ rho @ M.conj().T, sigma, n, (dR + 1, dA))
        want = bounds_report(rho, sigma, n, dims).bounds
        got = bounds_report(*args).bounds
        assert got.keys() == want.keys()
        for name, (lhs, rhs) in want.items():
            g_lhs, g_rhs = got[name]
            assert _close(g_lhs, lhs, 1e-10) and _close(g_rhs, rhs, 1e-10), \
                (seed, name, got[name], want[name])
