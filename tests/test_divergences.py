import functools
import math

import numpy as np
import pytest

from csl.divergences import (
    d2,
    d_alpha,
    d_alpha_with_branch,
    d_max,
    d_min,
    d_min_eps,
    d_umegaki,
    perpendicular,
    q2,
    q_alpha,
    supp_contained,
)
from csl import divergences
from csl.matcore import (
    RANK_TOL,
    CertificateError,
    ContractViolation,
    Spectrum,
    sample,
)
from helpers import binary_entropy, bisection_d_min_eps, patch_lapack, random_unitary

ALPHA_GRID = [0.3, 0.49, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0, math.inf]


def rand_pair(seed, d=3, rank=None):
    rho = sample("rank-limited" if rank else "mixed-hilbert-schmidt",
                 d, seed, rank=rank)
    sig = sample("mixed-hilbert-schmidt", d, seed + 7919)
    return rho, sig


def test_same_state_zero():
    rho, _ = rand_pair(0)
    for a in ALPHA_GRID:
        assert abs(d_alpha(rho, rho, a)) < 1e-8


def test_pure_vs_mixed_closed_form():
    # |0><0| against I/2: every member of the family equals 1 bit.
    rho = np.diag([1.0, 0.0])
    sig = np.eye(2) / 2
    for a in ALPHA_GRID:
        assert abs(d_alpha(rho, sig, a) - 1.0) < 1e-10


def test_classical_collision_value():
    p = np.diag([0.75, 0.25])
    u = np.eye(2) / 2
    # Q_2 = sum p^2 / u = 2 * (0.5625 + 0.0625) = 1.25
    assert abs(q2(p, u) - 1.25) < 1e-12
    assert abs(d2(p, u) - math.log2(1.25)) < 1e-12


def test_branch_dispatch():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])  # perpendicular
    assert perpendicular(rho, sig)
    assert d_alpha_with_branch(rho, sig, 0.3)[1] == "infinite"
    assert math.isinf(d_alpha(rho, sig, 2.0))
    full = np.diag([0.6, 0.4])
    assert d_alpha_with_branch(full, np.eye(2) / 2, 0.3)[1] == "low"
    assert d_alpha_with_branch(full, np.eye(2) / 2, 0.7)[1] == "sandwiched"
    # alpha > 1 without support containment is infinite
    wide = np.diag([0.5, 0.5])
    narrow = np.diag([1.0, 0.0])
    assert not supp_contained(wide, narrow)
    assert math.isinf(d_alpha(wide, narrow, 2.0))
    assert d_alpha_with_branch(wide, narrow, 2.0)[1] == "infinite"


def test_monotone_in_alpha():
    for seed in range(10):
        rho, sig = rand_pair(seed)
        vals = [d_alpha(rho, sig, a) for a in ALPHA_GRID]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-7


def test_data_processing_partial_trace():
    dims = (2, 2)
    for seed in range(10):
        rho = sample("mixed-hilbert-schmidt", dims, seed)
        sig = sample("mixed-hilbert-schmidt", dims, seed + 100)
        rA = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        sA = np.trace(sig.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        for a in [0.5, 1.0, 2.0, math.inf]:
            assert d_alpha(rA, sA, a) <= d_alpha(rho, sig, a) + 1e-7


def test_chi_squared_vs_collision():
    # Q_2 = 1 + chi^2 on commuting (classical) pairs, chi^2 = sum (p-q)^2 / q.
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.random(4)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        chi2 = float(np.sum((p - q) ** 2 / q))
        assert abs(q2(np.diag(p), np.diag(q)) - 1.0 - chi2) < 1e-9


def test_a6_trace_and_purified_forms():
    from csl.matcore import purified_distance, trace_distance

    for seed in range(50):
        rho, sig = rand_pair(seed, d=3)
        D2 = d2(rho, sig)
        T = trace_distance(rho, sig)
        P = purified_distance(rho, sig)
        assert D2 >= math.log2(1.0 + 4 * T * T) - 1e-9
        assert D2 >= -math.log2(1.0 - P * P) - 1e-9


def test_classical_tightness_of_a6():
    # Two-point distributions achieve log2(1 + eps^2) with T = eps/2.
    for eps in [0.25, 0.5, 1.0]:
        t = eps / 2.0
        rho = np.diag([0.5 + t, 0.5 - t])
        sig = np.eye(2) / 2
        assert abs(d2(rho, sig) - math.log2(1.0 + eps * eps)) < 1e-12


def test_direct_sum_property():
    # Block-diagonal pairs: Q_2 of the direct sum is the weighted sum of blocks.
    rng = np.random.default_rng(3)
    for seed in range(10):
        r1, s1 = rand_pair(seed, d=2)
        r2, s2 = rand_pair(seed + 40, d=2)
        p = rng.uniform(0.2, 0.8)
        R = np.block([[p * r1, np.zeros((2, 2))], [np.zeros((2, 2)), (1 - p) * r2]])
        S = np.block([[p * s1, np.zeros((2, 2))], [np.zeros((2, 2)), (1 - p) * s2]])
        q_direct = q2(R, S)
        q_sum = p * q2(r1, s1) + (1 - p) * q2(r2, s2)
        assert abs(q_direct - q_sum) <= 1e-10 * max(1.0, q_direct)


def test_d_min_eps_classical_closed_form():
    # diag(3/4, 1/4) vs I/2 at eps = 1/4: keep the heavy outcome only.
    rho = np.diag([0.75, 0.25])
    sig = np.eye(2) / 2
    val = d_min_eps(rho, sig, 0.25)
    assert abs(val - 1.0) < 1e-9


def test_d_min_eps_monotone_in_eps():
    rho, sig = rand_pair(11)
    vals = [d_min_eps(rho, sig, e) for e in [0.05, 0.1, 0.2, 0.4]]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-7


def test_d_min_eps_bounds_htda_betab():
    for seed in range(20):
        rho, sig = rand_pair(seed, d=2)
        for eps in [0.1, 0.3]:
            dh = d_min_eps(rho, sig, eps)
            for alpha in [0.3, 0.6]:
                lower = d_alpha(rho, sig, alpha) + (alpha / (1 - alpha)) * (
                    binary_entropy(alpha) / alpha - math.log2(1.0 / eps)
                )
                assert dh >= lower - 1e-7
            for beta in [1.5, 2.0]:
                upper = d_alpha(rho, sig, beta) + (beta / (beta - 1)) * math.log2(
                    1.0 / (1.0 - eps)
                )
                assert dh <= upper + 1e-7


def test_invalid_alpha_rejected():
    rho, sig = rand_pair(1)
    with pytest.raises(ContractViolation):
        d_alpha(rho, sig, -0.5)
    with pytest.raises(ContractViolation):
        d_alpha(rho, sig, math.nan)
    with pytest.raises(ContractViolation):
        q_alpha(rho, sig, 1.0)


def test_limits_match_named_divergences():
    rho, sig = rand_pair(2)
    assert d_alpha(rho, sig, 0.0) == pytest.approx(d_min(rho, sig))
    assert d_alpha(rho, sig, 1.0) == pytest.approx(d_umegaki(rho, sig))
    assert d_alpha(rho, sig, math.inf) == pytest.approx(d_max(rho, sig))
    # alpha -> 1 continuity from both sides
    assert d_alpha(rho, sig, 0.9999) == pytest.approx(d_umegaki(rho, sig), abs=1e-3)
    assert d_alpha(rho, sig, 1.0001) == pytest.approx(d_umegaki(rho, sig), abs=1e-3)


def _d_alpha_oracle(R, S, alpha):
    """D_alpha for alpha > 1 from two separate decompositions of S.

    One eigendecomposition of S decides the support, a second one builds
    S^((1-alpha)/(2 alpha)); this is how d_alpha evaluated it before every
    operand's spectrum was shared, and the qss-protocol reference pins its bits.
    """
    E = Spectrum(S)
    w, V = E.w, E.V
    B = V[:, w > RANK_TOL * max(w.max(initial=0.0), 0.0)]
    Pi = B @ B.conj().T
    if abs(float(np.trace(R - Pi @ R @ Pi).real)) > 1e-10:
        return math.inf
    E = Spectrum(S)
    w, V = E.w, E.V
    nz = w > RANK_TOL * max(w.max(initial=0.0), 0.0)
    p = np.zeros_like(w)
    p[nz] = w[nz] ** ((1.0 - alpha) / (2.0 * alpha))
    Se = (V * p) @ V.conj().T
    X = Se @ R @ Se
    wx = Spectrum((X + X.conj().T) / 2).w
    q = float(np.sum(np.clip(wx, 0.0, None) ** alpha))
    return (1.0 / (alpha - 1.0)) * math.log2(q)


def test_d_alpha_bits_match_two_decomposition_oracle():
    rng = np.random.default_rng(404)
    pairs = []
    for k in range(25):
        d = (2, 3, 4, 6)[k % 4]
        rho = sample("mixed-hilbert-schmidt", d, 1000 + k)
        sig = sample("rank-limited" if k % 5 == 0 else "mixed-hilbert-schmidt",
                     d, 2000 + k, rank=d - 1)
        pairs.append((rho, sig))
    # References as mutual_info_alpha builds them: rho_A (x) sigma.
    for k in range(25):
        dA, dB = ((2, 2), (2, 3), (3, 2))[k % 3]
        rho = sample("mixed-hilbert-schmidt", dA * dB, 3000 + k)
        rho_A = np.trace(rho.reshape(dA, dB, dA, dB), axis1=1, axis2=3)
        G = rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB))
        if k % 6 == 0:
            G[1:] = 0.0  # rank-one sigma: rho leaves the support
        sig = G.conj().T @ G
        pairs.append((rho, np.kron(rho_A, sig / np.trace(sig).real)))
    infinite = 0
    for rho, sig in pairs:
        for a in (1.5, 2.0, 4.0):
            want = _d_alpha_oracle(rho, sig, a)
            assert d_alpha(rho, sig, a) == want
            infinite += math.isinf(want)
    assert 0 < infinite < 50


def _stack_with_edge_members():
    """rho on C^2 (x) |0>, and references rho_A (x) sigma with sigma: three
    full-rank states, |+><+| (rho leaves its support), |1><1| (orthogonal to
    rho) and one with an eigenvalue under the cut.  Plus one generic 4x4."""
    rho_A = sample("mixed-hilbert-schmidt", 2, 41)
    rho = np.kron(rho_A, np.diag([1.0, 0.0]))
    U = random_unitary(2, np.random.default_rng(42))
    sigmas = [sample("mixed-hilbert-schmidt", 2, 43 + k) for k in range(3)]
    sigmas += [np.full((2, 2), 0.5), np.diag([0.0, 1.0]),
               (U * np.array([1.0 - 1e-12, 1e-12])) @ U.conj().T]
    refs = [np.kron(rho_A, s) for s in sigmas] + [sample("mixed-hilbert-schmidt", 4, 49)]
    return rho, np.array(refs)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 4.0])
def test_stacked_d_alpha_equals_single_calls(alpha):
    # One stacked call gives each member's value bit for bit, infinities
    # included: members 3 (rho leaves) and 5 (cut eigenvalue) are infinite
    # for alpha > 1 only, member 4 (orthogonal) for every order.
    rho, refs = _stack_with_edge_members()
    got = d_alpha(rho, refs, alpha)
    assert got.shape == (len(refs),)
    for i, ref in enumerate(refs):
        alone = d_alpha(rho, ref, alpha)
        assert got[i] == alone, (i, got[i], alone)
        if alpha > 1:
            assert got[i] == _d_alpha_oracle(rho, ref, alpha)
    assert [math.isinf(v) for v in got] == [False] * 3 + [alpha > 1, True, alpha > 1, False]
    # The stack's spectra, decomposed once, give the same values.
    assert np.array_equal(d_alpha(rho, Spectrum(refs), alpha), got)


def test_stacked_d_alpha_checks_each_member():
    rho, refs = _stack_with_edge_members()
    skew = refs.copy()
    skew[2, 0, 1] += 1e-6  # one member not Hermitian
    with pytest.raises(ContractViolation, match="not Hermitian"):
        d_alpha(rho, skew, 2.0)
    negative = refs.copy()
    negative[1] = np.diag([0.6, -0.1, 0.6, -0.1])  # one member not PSD
    with pytest.raises(ContractViolation, match="not PSD"):
        d_alpha(rho, negative, 2.0)
    with pytest.raises(ContractViolation, match="not PSD"):
        d_alpha(rho, negative[1], 2.0)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, math.inf])
def test_stacked_d_alpha_refused_off_the_sandwiched_orders(alpha):
    rho, refs = _stack_with_edge_members()
    with pytest.raises(ContractViolation, match="stack"):
        d_alpha(rho, refs, alpha)
    with pytest.raises(ContractViolation, match="stack"):
        d_alpha(rho, Spectrum(refs), alpha)


def test_family_agrees_across_the_rank_cut():
    # sigma's eigenvalues straddle the cut: 2 RANK_TOL lambda_max is support,
    # 0.5 RANK_TOL lambda_max is not, and one eigenvalue is exactly zero.
    U = random_unitary(4, np.random.default_rng(12))
    sigma = (U * np.array([1.0, 2 * RANK_TOL, 0.5 * RANK_TOL, 0.0])) @ U.conj().T
    spec = Spectrum(sigma)
    assert spec.keep.tolist() == [True, True, False, False]
    Pm = spec.V.conj().T @ spec.power(-0.5) @ spec.V
    want = np.zeros(4)
    want[:2] = spec.w[:2] ** -0.5
    assert np.abs(Pm - np.diag(want)).max() <= 1e-6

    def on(weights):
        return (U * np.asarray(weights, dtype=float)) @ U.conj().T

    # (rho, supported inside sigma, orthogonal to sigma)
    cases = [
        (on([0.6, 0.4, 0.0, 0.0]), True, False),
        (on([0.0, 1.0, 0.0, 0.0]), True, False),
        (on([0.6, 0.0, 0.4, 0.0]), False, False),
        (on([0.0, 0.0, 1.0, 0.0]), False, False),
        (on([0.0, 0.0, 0.0, 1.0]), False, True),
    ]
    for rho, inside, orthogonal in cases:
        assert supp_contained(rho, sigma) == inside
        for v in (d_umegaki(rho, sigma), d_max(rho, sigma),
                  d_alpha(rho, sigma, 1.5), d_alpha(rho, sigma, 2.0)):
            assert not math.isnan(v)
            assert math.isinf(v) == (not inside)
        for v in (d_min(rho, sigma), d_alpha(rho, sigma, 0.75)):
            assert not math.isnan(v)
            assert math.isinf(v) == orthogonal


def _rotation(d, theta, seed):
    """exp(i theta H) for a fixed seeded Hermitian H of unit spectral norm."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, V = np.linalg.eigh((G + G.conj().T) / 2)
    return (V * np.exp(1j * theta * w / np.abs(w).max())) @ V.conj().T


def _np_classical(p, q, eps):
    """Neyman-Pearson closed form for commuting pairs: take outcomes by
    descending p/q, the last one fractionally, until the p-mass is 1 - eps."""
    need, cost = 1.0 - eps, 0.0
    for i in sorted(range(len(p)), key=lambda i: -p[i] / q[i]):
        take = min(p[i], need)
        cost += take / p[i] * q[i]
        need -= take
        if need <= 0:
            break
    return -math.log2(cost)


# Commuting pairs (p, q, eps); the same pairs with q rotated by 1e-6 and 1e-3.
DH_PAIRS = [
    ((0.75, 0.25), (0.5, 0.5), 0.25),
    ((0.6, 0.4), (0.3, 0.7), 0.3),
    ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 0.1),
    ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 0.05),
    ((0.45, 0.35, 0.2), (0.05, 0.15, 0.8), 0.5),
]
# d_min_eps of DH_PAIRS at theta = 0, 1e-6, 1e-3, recorded with the
# three-stage search (dual golden section, primal golden section, scan)
# that came before the bisection; helpers.bisection_d_min_eps keeps the
# bisection, which the safeguarded Newton search replaced in turn.
DH_PINNED = [
    (1.0, 1.0000000000000002, 1.0),
    (1.0740005814437772, 1.0740005814437645, 1.074000569087821),
    (0.4150374992788451, 0.41503749927877803, 0.4150374311628018),
    (0.32192809488736507, 0.32192809488734003, 0.3219280691483483),
    (3.807354922057606, 3.807354922057188, 3.8073545021838036),
]


def _dh_corpus():
    for k, (p, q, eps) in enumerate(DH_PAIRS):
        for j, theta in enumerate((0.0, 1e-6, 1e-3)):
            U = _rotation(len(p), theta, 500 + k)
            yield k, j, np.diag(p).astype(complex), U @ np.diag(q) @ U.conj().T, eps


def test_d_min_eps_pinned_corpus():
    for k, j, rho, sig, eps in _dh_corpus():
        val = d_min_eps(rho, sig, eps)
        want = DH_PINNED[k][j]
        assert abs(val - want) <= 1e-12 * max(1.0, abs(want)), (k, j, val, want)
        if j == 0:
            p, q, _ = DH_PAIRS[k]
            assert abs(val - _np_classical(p, q, eps)) <= 1e-12


def test_d_min_eps_equal_states_and_kernel_mass():
    for seed, eps in ((21, 0.05), (22, 0.3), (23, 0.7)):
        rho = sample("mixed-hilbert-schmidt", 3, seed)
        assert abs(d_min_eps(rho, rho, eps) + math.log2(1.0 - eps)) <= 1e-12
    rho, sigma = _kernel_mass_pair()
    assert not perpendicular(rho, sigma)
    for eps in (0.05, 0.1, 0.3):
        assert math.isinf(d_min_eps(rho, sigma, eps))


def _kernel_mass_pair():
    # rho puts 0.95 + 0.05 <k|tau|k> >= 1 - eps of its mass on ker sigma = |k>,
    # yet Tr[rho sigma] > 0, so the early orthogonality exit does not apply.
    U = random_unitary(3, np.random.default_rng(24))
    k = U[:, :1]
    tau = sample("mixed-hilbert-schmidt", 3, 25)
    rho = 0.95 * (k @ k.conj().T) + 0.05 * tau
    sigma = (U * np.array([0.0, 0.3, 0.7])) @ U.conj().T
    return rho, sigma


def test_d_min_eps_raises_when_primal_misses_dual(monkeypatch):
    # A Neyman-Pearson test worse than the dual bound by more than 1e-8 is
    # a failed certificate, not a value.
    rho = sample("mixed-hilbert-schmidt", 3, 31)
    sigma = sample("mixed-hilbert-schmidt", 3, 32)
    primal = divergences._bracket_primal

    def worse(*args):
        mass, value = primal(*args)
        return mass, 2.0 * value

    monkeypatch.setattr(divergences, "_bracket_primal", worse)
    with pytest.raises(CertificateError, match="primal/dual gap"):
        d_min_eps(rho, sigma, 0.1)


def test_d_min_eps_raises_when_primal_misses_the_mass(monkeypatch):
    # Half the optimal test costs half as much, below the dual bound, so the
    # gap check alone would pass it; its rho-mass (1 - eps)/2 makes it
    # infeasible, and that is a failed certificate too.
    rho = sample("mixed-hilbert-schmidt", 3, 31)
    sigma = sample("mixed-hilbert-schmidt", 3, 32)
    primal = divergences._bracket_primal

    def halved(*args):
        mass, value = primal(*args)
        return 0.5 * mass, 0.5 * value

    monkeypatch.setattr(divergences, "_bracket_primal", halved)
    with pytest.raises(CertificateError, match="rho-mass"):
        d_min_eps(rho, sigma, 0.1)


# Commuting pairs (p, q, eps) where two outcomes share the likelihood ratio
# p/q at which the optimal test takes its fractional part, so t* rho - sigma
# has a two-dimensional null space.
DH_TIED = [
    ((0.5, 0.2, 0.2, 0.1), (0.1, 0.25, 0.25, 0.4), 0.3),
    ((0.5, 0.2, 0.2, 0.1), (0.1, 0.25, 0.25, 0.4), 0.45),
    ((0.3, 0.3, 0.4), (0.2, 0.2, 0.6), 0.5),
    ((0.3, 0.3, 0.4), (0.2, 0.2, 0.6), 0.65),
    ((0.6, 0.15, 0.15, 0.1), (0.3, 0.05, 0.05, 0.6), 0.2),
]


@pytest.mark.parametrize("p, q, eps", DH_TIED)
def test_d_min_eps_tied_likelihood_ratios(p, q, eps):
    want = _np_classical(p, q, eps)
    rng = np.random.default_rng([len(p), round(100 * eps)])
    rotations = [np.eye(len(p))] + [random_unitary(len(p), rng) for _ in range(3)]
    for U in rotations:
        rho, sigma = (U * np.array(p)) @ U.conj().T, (U * np.array(q)) @ U.conj().T
        got = d_min_eps(rho, sigma, eps)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_d_min_eps_invariant_under_unitaries_and_embedding(d):
    rng = np.random.default_rng(660 + d)
    G = rng.standard_normal((d + 2, d)) + 1j * rng.standard_normal((d + 2, d))
    V, _ = np.linalg.qr(G)
    for k in range(4):
        rho = sample("rank-limited" if k % 2 else "mixed-hilbert-schmidt", d, 670 + k,
                     rank=max(1, d - 1))
        sigma = sample("rank-limited" if k >= 2 else "mixed-hilbert-schmidt", d, 680 + k,
                       rank=max(1, d - 1))
        U = random_unitary(d, rng)
        for eps in (0.05, 0.3, 0.9):
            want = d_min_eps(rho, sigma, eps)
            for got in (d_min_eps(U @ rho @ U.conj().T, U @ sigma @ U.conj().T, eps),
                        d_min_eps(V @ rho @ V.conj().T, V @ sigma @ V.conj().T, eps)):
                assert got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                    (k, eps, got, want)


def _classical_d_alpha(p, q, alpha):
    """D_alpha of two commuting states from their eigenvalues, in bits."""
    if alpha == 1:
        return float(np.sum(p * np.log2(p / q)))
    if math.isinf(alpha):
        return math.log2(float(np.max(p / q)))
    return math.log2(float(np.sum(p**alpha * q ** (1 - alpha)))) / (alpha - 1)


def _ill_conditioned(kappa, d):
    """(p, q, U): q falls geometrically from 1 to 1/kappa (above the RANK_TOL
    cut), p is seeded and well conditioned, U is a Haar rotation for both."""
    rng = np.random.default_rng([round(math.log10(kappa)), d])
    q = kappa ** (-np.arange(d) / (d - 1))
    q /= q.sum()
    p = rng.uniform(0.2, 1.0, d)
    p /= p.sum()
    return p, q, random_unitary(d, rng)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kappa", [1e4, 1e6, 1e8])
def test_ill_conditioned_commuting_pairs(kappa, d):
    # Each pair is checked in both argument orders.
    p, q, U = _ill_conditioned(kappa, d)
    for a, b in ((p, q), (q, p)):
        rho, sigma = (U * a) @ U.conj().T, (U * b) @ U.conj().T
        for alpha in (0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, math.inf):
            got, want = d_alpha(rho, sigma, alpha), _classical_d_alpha(a, b, alpha)
            assert abs(got - want) <= 1e-8 * abs(want), (alpha, got, want)
        for eps in (0.05, 0.3):
            got, want = d_min_eps(rho, sigma, eps), _np_classical(a, b, eps)
            assert abs(got - want) <= 1e-8 * abs(want), (eps, got, want)


def _hs_state(d, rng, rank=None):
    """A random density matrix drawn as divergence-sweep draws its pairs."""
    G = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    M = G @ G.conj().T
    return M / np.trace(M).real


@functools.cache
def _oracle_corpus():
    """(label, rho, sigma) pairs that d_min_eps is checked on against the
    bisection at eps in DH_EPS."""
    pairs = []
    for i in range(500):  # criterion 05's Hilbert-Schmidt pairs
        d = 2 + i % 2
        pairs.append((f"hs-{i}", sample("mixed-hilbert-schmidt", d, 80000 + i),
                      sample("mixed-hilbert-schmidt", d, 81000 + i)))
    for d in (2, 3, 4):  # the family of the invariance test, and more of its kind
        for k in range(4):
            pairs.append((f"inv-{d}-{k}",
                          sample("rank-limited" if k % 2 else "mixed-hilbert-schmidt", d,
                                 670 + k, rank=max(1, d - 1)),
                          sample("rank-limited" if k >= 2 else "mixed-hilbert-schmidt", d,
                                 680 + k, rank=max(1, d - 1))))
    for i in range(200):
        d = 2 + i % 3
        pairs.append((f"rank-{i}", sample("rank-limited", d, 70000 + i, rank=d - 1),
                      sample("rank-limited", d, 71000 + i, rank=d - 1)))
    for k, j, rho, sigma, _ in _dh_corpus():
        pairs.append((f"pair-{k}-{j}", rho, sigma))
    for k, (p, q, eps) in enumerate(DH_TIED):
        rng = np.random.default_rng([len(p), round(100 * eps)])
        for j, U in enumerate([np.eye(len(p))] + [random_unitary(len(p), rng) for _ in range(3)]):
            pairs.append((f"tied-{k}-{j}", (U * np.array(p)) @ U.conj().T,
                          (U * np.array(q)) @ U.conj().T))
    for kappa in (1e4, 1e6, 1e8):
        for d in (2, 3, 4):
            p, q, U = _ill_conditioned(kappa, d)
            for n, (a, b) in enumerate(((p, q), (q, p))):
                pairs.append((f"ill-{kappa:g}-{d}-{n}", (U * a) @ U.conj().T,
                              (U * b) @ U.conj().T))
    for k in range(40):  # divergence-sweep's draws, sigma of rank d - 1 for odd k
        rng = np.random.default_rng([73000, k])
        d = 2 + k % 3
        rho = _hs_state(d, rng)
        pairs.append((f"sweep-{k}", rho, _hs_state(d, rng, d - 1 if k % 2 else None)))
    pairs.append(("kernel-mass",) + _kernel_mass_pair())
    return pairs


DH_EPS = (0.05, 0.3, 0.9)


def _roundoff_move(rho, sigma, eps, value):
    """How far the bisection's value moves when sigma moves by eps_mach
    ||sigma|| along four seeded Hermitian directions: the resolution float64
    gives that value."""
    rng = np.random.default_rng(0)
    moves = []
    for _ in range(4):
        G = rng.standard_normal(sigma.shape) + 1j * rng.standard_normal(sigma.shape)
        H = G + G.conj().T
        H *= np.finfo(float).eps * np.linalg.norm(sigma, 2) / np.linalg.norm(H, 2)
        moves.append(abs(bisection_d_min_eps(rho, sigma + H, eps)[0] - value))
    return max(moves)


def test_d_min_eps_matches_bisection_oracle():
    # The values agree to 1e-12 max(1, |v|), with the same inf verdicts.  A
    # value that float64 does not resolve to 1e-12 (an optimal test with
    # tiny sigma-mass, or one on sigma's 1/kappa eigenvalue) is held to its
    # resolution instead; few members may be such.
    kinds, coarse = {"kink": 0, "smooth": 0, "inf": 0}, []
    for label, rho, sigma in _oracle_corpus():
        for eps in DH_EPS:
            got = d_min_eps(rho, sigma, eps)
            want, jump = bisection_d_min_eps(rho, sigma, eps)
            assert math.isinf(got) == math.isinf(want), (label, eps, got, want)
            if math.isinf(want):
                kinds["inf"] += 1
                continue
            kinds["kink" if jump > 1e-9 else "smooth"] += 1  # g jumps at the optimum
            miss = abs(got - want)
            if miss > 1e-12 * max(1.0, abs(want)):
                assert miss <= _roundoff_move(rho, sigma, eps, want), (label, eps, got, want)
                coarse.append((label, eps))
    assert min(kinds.values()) > 0, kinds
    assert len(coarse) <= 6, coarse


def test_d_min_eps_decompositions_per_call(monkeypatch):
    calls = []

    def counted(eigh):
        def wrapped(a):
            calls.append(a.shape)
            return eigh(a)
        return wrapped

    patch_lapack(monkeypatch, "_eigh", counted)
    counts = []
    for _, rho, sigma in _oracle_corpus():
        for eps in DH_EPS:
            calls.clear()
            d_min_eps(rho, sigma, eps)
            counts.append(len(calls))
    assert np.median(counts) <= 10 and max(counts) <= 24, (np.median(counts), max(counts))


_FAMILY = {
    "d_min_eps": lambda r, s: d_min_eps(r, s, 0.1),
    "d_alpha": lambda r, s: [d_alpha(r, s, a) for a in ALPHA_GRID],
    "d_alpha_with_branch": lambda r, s: [d_alpha_with_branch(r, s, a) for a in (0.0, *ALPHA_GRID)],
    "d_min": d_min,
    "d_max": d_max,
    "d_umegaki": d_umegaki,
    "q_alpha": lambda r, s: [q_alpha(r, s, a) for a in (0.5, 2.0)],
    "q2": q2,
}


@pytest.mark.parametrize("name", sorted(_FAMILY))
def test_dimension_mismatch_is_a_contract_violation(name):
    two, three = np.eye(2) / 2, np.eye(3) / 3
    for rho, sigma in ((two, three), (three, two), (two, Spectrum(three))):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            _FAMILY[name](rho, sigma)


def test_stack_dimension_mismatch_is_a_contract_violation():
    # A stack of references is checked on its last two axes.
    stack = np.stack([np.eye(3) / 3, np.diag([0.5, 0.3, 0.2])])
    for sigma in (stack, Spectrum(stack)):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            d_alpha(np.eye(2) / 2, sigma, 2.0)
    assert d_alpha(np.eye(3) / 3, stack, 2.0).shape == (2,)


def test_symmetrized_sandwich_needs_no_hermitian_check():
    # (X + X^H)/2 is Hermitian bit for bit and symmetrizing it again returns
    # it bit for bit, so Spectrum's check and second symmetrization do
    # nothing there: _q and d_max give the same bits with one bare eigh.
    rng = np.random.default_rng(250)
    for d, scale in [(2, 1.0), (3, 1e9), (4, 1e-12), (6, 3.7)]:
        A = scale * (rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d)))
        X = (A + A.conj().mT) / 2
        assert np.array_equal(X, X.conj().mT)
        assert np.array_equal((X + X.conj().mT) / 2, X)
    for seed in range(6):
        rho = sample("mixed-hilbert-schmidt", 3, 260 + seed)
        S = Spectrum(np.stack([sample("rank-limited", 3, 270 + seed + k, rank=2 + k % 2)
                               for k in range(4)]))
        for alpha in (0.5, 0.75, 1.5, 2.0, 4.0):
            Se = S.power((1.0 - alpha) / (2.0 * alpha))
            X = Se @ rho @ Se
            w = Spectrum((X + X.conj().mT) / 2).w
            want = np.sum(np.clip(w, 0.0, None) ** alpha, axis=-1)
            assert np.array_equal(divergences._q(rho, S, alpha), want)
        for sigma in S.matrix[:2]:  # of rank 2 (rho leaves it) and 3
            Sm = Spectrum(sigma).power(-0.5)
            X = Sm @ rho @ Sm
            lam = max(Spectrum((X + X.conj().T) / 2).w.max(), 0.0)
            inside = Spectrum(sigma).contains(rho)
            assert d_max(rho, sigma) == (math.log2(lam) if inside else math.inf)
