import math
import tracemalloc

import numpy as np
import pytest

from csl.convexsplit import (
    DENSE_DIM_CAP,
    ConvexSplitInstance,
    _ReferenceFrame,
    bounds_report,
    nu_n,
    split_equality_check,
    spectrum_cardinality,
)
from csl import convexsplit
from csl.divergences import INF, d_alpha, d_max, q2
from csl.matcore import (
    ContractViolation,
    Spectrum,
    _as_matrix,
    reduced,
    sample,
    support_cut,
    trace_distance,
)
from helpers import build_tau, mu_quantities, patch_lapack, random_unitary


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def closed_instance(n):
    return ConvexSplitInstance(bell_density(), np.eye(2) / 2, np.eye(2) / 2, n,
                               (2, 2))


def random_instance(seed, n, dR=2, dA=2, weights=None, omega=None):
    rho = sample("rank-limited", (dR, dA), seed, rank=1 + seed % (dR * dA))
    sigma = sample("mixed-hilbert-schmidt", dA, seed + 17)
    if omega is None:
        omega = sample("mixed-hilbert-schmidt", dR, seed + 37)
    return ConvexSplitInstance(rho, sigma, omega, n, (dR, dA), weights)


def test_instance_validation():
    with pytest.raises(ContractViolation):
        closed_instance(0)
    with pytest.raises(ContractViolation):
        ConvexSplitInstance(bell_density(), np.eye(2) / 2, np.eye(2) / 2, 2,
                            (2, 2), weights=[0.7, 0.7])
    with pytest.raises(ContractViolation):
        bounds_report(bell_density(), np.eye(2) / 2, 2, (2, 3))


def test_build_tau_is_state():
    inst = random_instance(3, 3)
    tau = build_tau(inst)
    assert abs(np.trace(tau).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(tau).min() > -1e-12


def test_build_tau_n1_is_rho():
    inst = random_instance(4, 1)
    assert np.abs(build_tau(inst) - inst.rho_RA).max() < 1e-12


def test_dense_cap_enforced():
    assert 2 * 2**11 <= DENSE_DIM_CAP  # n = 11 qubit slots still dense
    # The frame caps its largest block: dR (n + 1) for uniform qubit slots.
    with pytest.raises(ContractViolation):
        _ReferenceFrame(closed_instance(DENSE_DIM_CAP // 2))
    with pytest.raises(ContractViolation):
        _ReferenceFrame(random_instance(1, 8, dR=2, dA=3))


def test_closed_instance_value():
    # Bell pair with sigma = omega = I/2: Q_2 = 1 + 3/n.
    for n in range(1, 5):
        rep = split_equality_check(closed_instance(n))
        assert abs(rep.q2_lhs - (1.0 + 3.0 / n)) < 1e-10
        assert rep.residual < 1e-10


def test_equality_random_instances():
    for seed in range(30):
        n = 1 + seed % 5
        inst = random_instance(seed, n)
        rep = split_equality_check(inst)
        assert rep.residual <= 1e-10


def test_equality_weighted():
    rng = np.random.default_rng(0)
    for seed in range(10):
        n = 2 + seed % 4
        w = rng.random(n)
        inst = random_instance(seed, n, weights=w / w.sum())
        rep = split_equality_check(inst)
        assert rep.residual <= 1e-10
        assert abs(rep.t - np.sum((w / w.sum()) ** 2)) < 1e-12


def test_uniform_weights_minimize_collision_term():
    # t = sum p_x^2 is minimal at uniform, so the weighted mixture's Q_2 is
    # smallest there whenever the RA term dominates the R term.
    inst_u = random_instance(5, 4)
    rep_u = split_equality_check(inst_u)
    rng = np.random.default_rng(1)
    w = rng.random(4)
    rep_w = split_equality_check(random_instance(5, 4, weights=w / w.sum()))
    assert rep_w.t >= rep_u.t - 1e-12
    term_gap = rep_w.q2_lhs - rep_u.q2_lhs
    # sign of the gap matches the sign of (RA term - R term)
    assert term_gap * (rep_w.t - rep_u.t) >= -1e-9


def test_mu_quantities_order():
    for seed in range(10):
        inst = random_instance(seed, 2)
        mu, mu_max = mu_quantities(inst.rho_RA, inst.sigma_A, inst.dims)
        assert mu <= mu_max + 1e-8


def test_mu_closed_instance():
    mu, mu_max = mu_quantities(bell_density(), np.eye(2) / 2, (2, 2))
    assert abs(mu - 3.0) < 1e-10
    assert abs(mu_max - 3.0) < 1e-10


def test_nu_n_at_most_relaxed_bound():
    for seed in range(5):
        inst = random_instance(seed, 3)
        mu, _ = mu_quantities(inst.rho_RA, inst.sigma_A, inst.dims)
        res = nu_n(inst.rho_RA, inst.sigma_A, 3, inst.dims)
        assert res.value <= 1.0 + mu / 3 + 1e-7
        assert abs(np.trace(res.witness).real - 1.0) < 1e-8


# nu_n recorded with the multi-start optimizer this package used before the
# certified convex solver: (seed, n, dR, dA) of random_instance -> value.
PINNED_NU = {
    (1, 1, 2, 2): 2.7295862604767622,
    (2, 3, 2, 2): 10.499574657368727,
    (5, 3, 3, 2): 1.3288644021266167,
    (6, 1, 2, 3): 14.379167077844638,
}


@pytest.mark.parametrize("key", sorted(PINNED_NU))
def test_nu_n_pinned_and_certified(key):
    seed, n, dR, dA = key
    inst = random_instance(seed, n, dR, dA)
    res = nu_n(inst.rho_RA, inst.sigma_A, n, inst.dims)
    assert abs(res.value - PINNED_NU[key]) <= 1e-9 * max(1.0, PINNED_NU[key])
    assert res.gap <= 1e-9
    assert abs(np.trace(res.witness).real - 1.0) < 1e-12


@pytest.mark.parametrize("n, want", [(1, 3.591455327570736), (3, 1.8749902729897863)])
def test_nu_n_rank_deficient_rho_r(n, want):
    # rho_RA on span(e0, e1) (x) A inside a 3-dim R has the values of the
    # 2-dim instance (pinned); omega is solved on supp(rho_R) and stays there.
    M = sample("mixed-hilbert-schmidt", (2, 2), 19)
    sigma = sample("mixed-hilbert-schmidt", 2, 23)
    W = np.kron(np.eye(3)[:, :2], np.eye(2))
    for rho, dims in [(M, (2, 2)), (W @ M @ W.conj().T, (3, 2))]:
        res = nu_n(rho, sigma, n, dims)
        assert abs(res.value - want) <= 1e-9 * want
        assert res.gap <= 1e-9
    assert np.abs(res.witness[2]).max() < 1e-15  # the embedded omega stays on supp(rho_R)


def report_of(inst):
    """bounds_report on an instance's rho_RA, sigma_A, n and dims."""
    return bounds_report(inst.rho_RA, inst.sigma_A, inst.n, inst.dims)


def test_bounds_report_all_hold():
    for seed in range(8):
        n = 1 + seed % 4
        inst = random_instance(seed, n)
        rep = report_of(inst)
        for name, (lhs, rhs) in rep.bounds.items():
            assert lhs <= rhs + 1e-8, (name, lhs, rhs)
        assert rep.nu_n == rep.nu.value
        assert rep.nu.gap <= 1e-9
        # corollary ordering: 1 - 1/nu_n <= mu/(mu+n)
        assert 1.0 - 1.0 / rep.nu_n <= rep.mu / (rep.mu + n) + 1e-7


def test_trace_bound_prefactor_is_tight_on_closed_instance():
    # T(tau, ref) on the Bell closed instance shows a prefactor below 1/2
    # in T <= c sqrt(mu/n) would fail at n = 4.
    rep = report_of(closed_instance(4))
    lhs, rhs = rep.bounds["trace_sqrt"]
    assert lhs <= rhs + 1e-10
    assert lhs > 0.25 * math.sqrt(rep.mu / 4)


def test_spectrum_cardinality_clusters():
    assert spectrum_cardinality(np.diag([0.5, 0.5, 0.25])) == 2
    assert spectrum_cardinality(np.diag([0.5, 0.5 + 1e-12, 0.25])) == 2
    assert spectrum_cardinality(np.diag([0.1, 0.2, 0.3])) == 3


def test_ly2024_compare_holds_and_reports():
    # The pinching comparison is bounds_report's ly2024 entry: the Umegaki
    # LHS of gmain0 against min(pinching bound, gmain8's log(1 + mu/n)).
    for inst in (random_instance(2, 3), random_instance(2, 16)):
        rep = report_of(inst)
        lhs, rhs = rep.bounds["ly2024"]
        assert lhs == rep.bounds["gmain0"][0] and math.isfinite(lhs)
        assert lhs <= rhs + 1e-8
        assert rhs <= rep.bounds["gmain8"][1]
        assert (rhs == rep.bounds["gmain8"][1]) == rep.ly2024_tighter


@pytest.mark.parametrize("dA", [2, 3])
def test_ly2024_compare_pins_uniform_weights(dA):
    # The CLI row of seed 2, row 1 (n = 2).  Against a mixture with skewed
    # weights the check once failed (2x2: LHS 1.525 > RHS 1.218); both
    # right-hand sides assume weights 1/n, and bounds_report takes none.
    s = 2 + 1000
    rho = sample("rank-limited", (2, dA), s, rank=2)
    sigma = sample("mixed-hilbert-schmidt", dA, s + 1)
    rep = bounds_report(rho, sigma, 2, (2, dA))
    assert rep.t == 0.5
    lhs, rhs = rep.bounds["ly2024"]
    assert lhs <= rhs
    pinned = ConvexSplitInstance(rho, sigma, reduced(rho, (2, dA), 0), 2, (2, dA))
    assert abs(lhs - _ReferenceFrame(pinned).umegaki()) <= 1e-12 * abs(lhs)


def test_ly2024_crossover_trend():
    # For large n the exact-identity bound wins (1/n beats 1/n^s decay).
    assert report_of(random_instance(7, 16)).ly2024_tighter


def isotypic_projectors(inst):
    """Projectors onto the parts of R (x) A^n that tau's spectrum is cut on.

    With uniform weights on qubit slots these are the eigenspaces of the
    total spin J^2 of A^n, which is invariant under U^n and so commutes with
    every product rotation and with tau (Schur-Weyl duality); otherwise the
    identity.
    """
    dR, dA = inst.dims
    n = inst.n
    if dA != 2 or np.ptp(inst.weights) != 0.0:
        return [np.eye(dR * dA**n)]
    J2 = 0
    for P in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])):
        J = sum(np.kron(np.kron(np.eye(2**i), P), np.eye(2 ** (n - i - 1)))
                for i in range(n)) / 2
        J2 = J2 + J @ J
    lam, U = np.linalg.eigh(J2)
    out = []
    for k in range(n // 2 + 1):
        j = (n - 2 * k) / 2
        Uk = U[:, np.abs(lam - j * (j + 1)) < 1e-6]
        out.append(np.kron(np.eye(dR), Uk @ Uk.conj().T))
    return out


def dense_frame(inst):
    """The dense tau, X = V^dag tau V with V = kron(V_omega, V_sigma^n), and
    the product omega (x) sigma^n: its eigenvalues w in that basis, their
    per-factor support keep, and its dense matrix."""
    So, Ss = Spectrum(inst.omega_R), Spectrum(inst.sigma_A)
    wo, Vo, ws, Vs = So.w, So.V, Ss.w, Ss.V
    wo, ws = np.clip(wo, 0.0, None), np.clip(ws, 0.0, None)
    V, w, keep, ref = Vo, wo, wo > support_cut(wo), inst.omega_R
    for _ in range(inst.n):
        V = np.kron(V, Vs)
        w = np.multiply.outer(w, ws).reshape(-1)
        keep = np.multiply.outer(keep, ws > support_cut(ws)).reshape(-1)
        ref = np.kron(ref, inst.sigma_A)
    tau = build_tau(inst)
    return tau, V.conj().T @ tau @ V, w, keep, ref


def dense_q2(X, w, keep):
    """sum |X_ij|^2 / sqrt(w_i w_j) over the product's support, row by row;
    inf when X leaves it (X's trace outside the support exceeds 1e-10)."""
    diag = X.diagonal().real
    if float(np.sum(diag)) - float(np.sum(diag[keep])) > 1e-10:
        return INF
    inv_sqrt = np.zeros(len(w))
    inv_sqrt[keep] = 1.0 / np.sqrt(w[keep])
    return float(sum(c * np.sum(np.abs(row) ** 2 * inv_sqrt)
                     for row, c in zip(X, inv_sqrt) if c))


def dense_oracle(inst):
    """q2_lhs, Umegaki LHS, T and P^2 from the dense tau and the dense product.

    In the basis of dense_frame the product is diag(w) with its support
    decided per factor.  tau's eigenvalues are cut on each isotypic part
    separately; T comes from matcore on tau and the product, and
    F = ||sqrt(X) sqrt(diag w)||_1 on the per-factor support.
    """
    tau, X, w, keep, ref = dense_frame(inst)
    diag = X.diagonal().real
    parts = [Spectrum(P @ X @ P) for P in isotypic_projectors(inst)]
    q2_lhs = dense_q2(X, w, keep)
    if math.isinf(q2_lhs):
        umegaki = INF
    else:
        wt = np.concatenate([s.w[s.keep] for s in parts])
        umegaki = (float(np.sum(wt * np.log2(wt)))
                   - float(np.sum(diag[keep] * np.log2(w[keep]))))
    sqrt_X = sum(s.power(0.5) for s in parts)
    F = np.linalg.svd(sqrt_X * np.where(keep, np.sqrt(w), 0.0), compute_uv=False).sum()
    F = min(F, 1.0)
    return q2_lhs, umegaki, trace_distance(tau, ref), max(1.0 - F * F, 0.0)


def frame_values(inst):
    frame = _ReferenceFrame(inst)
    F = frame.fidelity()
    return frame.q2(), frame.umegaki(), frame.trace_distance(), max(1.0 - F * F, 0.0)


def assert_close(got, want, what):
    for name, g, e in zip(("q2", "umegaki", "trace", "p2"), got, want):
        if math.isinf(e):
            assert g == e, (what, name, g, e)
        else:
            assert abs(g - e) <= 1e-12 * abs(e), (what, name, g, e)


def cut_crossing_instance(n, seed=0):
    """sigma with eigenvalue ratio 1e-2: lambda_min^5 falls below the global
    RANK_TOL cut of omega (x) sigma^n, while every factor keeps its support."""
    rng = np.random.default_rng(seed)
    U = random_unitary(2, rng)
    sigma = (U * np.array([1.0, 1e-2]) / 1.01) @ U.conj().T
    rho = sample("mixed-hilbert-schmidt", (2, 2), seed + 5)
    return ConvexSplitInstance(rho, sigma, np.eye(2) / 2, n, (2, 2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_reference_frame_matches_dense_oracle(dims):
    # Uniform weights on qubit slots take the Schur-Weyl blocks, every other
    # instance the one dense block.
    dR, dA = dims
    rng = np.random.default_rng(dR * 10 + dA)
    for n in range(1, 9 if dA == 2 else 7):  # rho has rank 1 + n % (dR dA)
        w = rng.random(n)
        for weights in [None] + [w / w.sum()] * (n % 2):  # skewed at odd n
            inst = random_instance(n, n, dR, dA, weights)
            blocks = _ReferenceFrame(inst).blocks
            schur_weyl = dA == 2 and weights is None
            assert len(blocks) == (n // 2 + 1 if schur_weyl else 1)
            assert_close(frame_values(inst), dense_oracle(inst), (dims, n, weights))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_schur_weyl_blocks_reproduce_dense_spectrum(dims):
    # Block spectra and reference eigenvalues, repeated by multiplicity, are
    # those of the dense X and w.
    for n in (4, 5, 6):
        inst = random_instance(n + 20, n, *dims)
        frame = _ReferenceFrame(inst)
        lam = np.concatenate([np.repeat(np.linalg.eigvalsh(b.X), b.mult)
                              for b in frame.blocks])
        w = np.concatenate([np.repeat(b.w, b.mult) for b in frame.blocks])
        _, X, w_dense, _, _ = dense_frame(inst)
        assert lam.size == X.shape[0]
        assert np.abs(np.sort(lam) - np.linalg.eigvalsh(X)).max() <= 1e-12
        assert np.abs(np.sort(w) - np.sort(w_dense)).max() <= 1e-15


def rank_deficient_sigma_instance(n, leaking):
    """sigma of rank 1; rho_RA on R (x) supp(sigma) unless ``leaking``."""
    rng = np.random.default_rng(60 + n)
    v = random_unitary(2, rng)[:, 0]
    sigma = np.outer(v, v.conj())
    rho = sample("mixed-hilbert-schmidt", (2, 2), 61 + n)
    if not leaking:
        P = np.kron(np.eye(2), sigma)
        rho = P @ rho @ P
        rho /= np.trace(rho).real
    return ConvexSplitInstance(rho, sigma, np.eye(2) / 2, n, (2, 2))


def test_reference_frame_rank_deficient_sigma():
    for n in range(1, 7):
        inst = rank_deficient_sigma_instance(n, leaking=False)
        values = frame_values(inst)
        assert math.isfinite(values[0]) and math.isfinite(values[1])
        assert_close(values, dense_oracle(inst), n)
        inst = rank_deficient_sigma_instance(n, leaking=True)
        values = frame_values(inst)
        assert math.isinf(values[0]) and math.isinf(values[1])
        assert_close(values, dense_oracle(inst), n)
        rep = split_equality_check(inst)
        assert math.isinf(rep.q2_lhs) and math.isinf(rep.q2_rhs)


def test_schur_weyl_closed_checks_at_large_n():
    # Past the dense cap: the Bell value Q_2 = 1 + 3/n, and every corollary
    # bound at n = 50.
    rep = split_equality_check(closed_instance(30))
    assert abs(rep.q2_lhs - (1.0 + 3.0 / 30)) <= 1e-12 * (1.0 + 3.0 / 30)
    assert rep.residual <= 1e-12
    for inst in (closed_instance(50), random_instance(3, 50)):
        rep = report_of(inst)
        assert rep.residual <= 1e-10
        for name, (lhs, rhs) in rep.bounds.items():
            assert lhs <= rhs + 1e-8, (name, lhs, rhs)


def test_reference_frame_cut_crossing_sigma():
    # From n = 5 the products lambda_min^n / lambda_max^n <= 1e-10 fall under
    # a global cut on w but are kept by the per-factor support, for every
    # value including the fidelity; at n = 4 nothing is cut.
    for n in (4, 5, 6):
        inst = cut_crossing_instance(n)
        blocks = _ReferenceFrame(inst).blocks
        w = np.concatenate([b.w for b in blocks])
        assert ((w > support_cut(w)).sum() < w.size) == (n >= 5)
        assert all(b.keep.all() for b in blocks)
        assert_close(frame_values(inst), dense_oracle(inst), n)


def test_public_dense_values_match_oracle():
    # bounds_report pins omega = rho_R and uniform weights.
    for inst in (random_instance(3, 3), random_instance(4, 4, 2, 3),
                 cut_crossing_instance(5)):
        pinned = ConvexSplitInstance(inst.rho_RA, inst.sigma_A, inst.rho_R, inst.n,
                                     inst.dims)
        q2_lhs, umegaki, trace, p2 = dense_oracle(pinned)
        rep = report_of(inst)
        got = (rep.q2_lhs, rep.bounds["gmain0"][0], rep.bounds["pinsker"][0],
               rep.bounds["split7"][0])
        assert_close(got, (q2_lhs, umegaki, trace, p2), "bounds_report")
        assert split_equality_check(pinned).q2_lhs == rep.q2_lhs
        assert rep.bounds["ly2024"][0] == rep.bounds["gmain0"][0]


def test_rank_deficient_omega():
    # rho_RA lives on span(e0, e1) (x) A inside a 3-dim R.
    M = sample("mixed-hilbert-schmidt", (2, 2), 41)
    W = np.kron(np.eye(3)[:, :2], np.eye(2))
    rho = W @ M @ W.conj().T
    sigma = sample("mixed-hilbert-schmidt", 2, 42)
    U = random_unitary(3, np.random.default_rng(43))
    for n in (1, 2, 3):
        # ker omega = e2 is orthogonal to supp rho_R: finite.
        inst = ConvexSplitInstance(rho, sigma, np.diag([0.6, 0.4, 0.0]), n, (3, 2))
        rep = split_equality_check(inst)
        assert math.isfinite(rep.q2_lhs) and rep.residual <= 1e-10
        assert_close(frame_values(inst), dense_oracle(inst), n)
        # ker omega meets supp rho_R: both sides inf, residual 0.
        for omega in (np.diag([0.6, 0.0, 0.4]), U @ np.diag([0.5, 0.5, 0.0]) @ U.conj().T):
            inst = ConvexSplitInstance(rho, sigma, omega, n, (3, 2))
            rep = split_equality_check(inst)
            assert math.isinf(rep.q2_lhs) and math.isinf(rep.q2_rhs)
            assert rep.residual == 0.0
            assert math.isinf(_ReferenceFrame(inst).umegaki())


def test_equality_at_dense_cap():
    # dim = 2 * 2^11 = DENSE_DIM_CAP.
    inst = random_instance(11, 11)
    assert 2 * 2**11 == DENSE_DIM_CAP
    assert split_equality_check(inst).residual <= 1e-10
    rep = split_equality_check(closed_instance(11))
    assert abs(rep.q2_lhs - (1.0 + 3.0 / 11)) < 1e-10
    assert rep.residual < 1e-10


def test_schur_weyl_frame_at_float_limits():
    # At n = 170, sigma's deepest products (1e-2 / 1.01)^o / 2 underflow to
    # 0; they carry no mass and leave the support, so every value stays
    # finite, and |X_ij|^2 / sqrt(w_i w_j) does not overflow.
    inst = cut_crossing_instance(170)
    frame = _ReferenceFrame(inst)
    assert any((b.w == 0).any() for b in frame.blocks)
    values = frame_values(inst)
    assert all(math.isfinite(v) for v in values)
    rep = split_equality_check(inst)
    assert rep.residual <= 1e-10
    # Multiplicities C(n, k) past the largest float are refused.
    with pytest.raises(ContractViolation):
        _ReferenceFrame(closed_instance(1100))


def test_infinite_bound_met_by_infinite_lhs_holds():
    # rho_RA leaves R (x) supp(sigma): gmain0, gmain8 and ly2024 read
    # (inf, inf), and an infinite bound holds, so their slack is +inf, not NaN.
    inst = rank_deficient_sigma_instance(2, leaking=True)
    rep = report_of(inst)
    for name in ("gmain0", "gmain8", "ly2024"):
        assert rep.bounds[name] == (INF, INF), name
        assert rep.slack[name] == INF, name
    lhs, rhs = rep.bounds["split7"]
    assert math.isfinite(rhs) and rep.slack["split7"] == rhs - lhs
    assert all(v >= -1e-8 for v in rep.slack.values())


def entrywise_q2(inst):
    """The frame's Q_2, checked to come from X's entries without the dense block."""
    frame = _ReferenceFrame(inst)
    assert frame.entries is not None
    q = frame.q2()
    assert "blocks" not in vars(frame)
    return q


def test_entrywise_q2_matches_dense_oracle_3x3():
    rng = np.random.default_rng(33)
    for n in range(1, 6):
        w = rng.random(n)
        for weights in (None, w / w.sum()):
            inst = random_instance(n + 40, n, 3, 3, weights)
            assert_close((entrywise_q2(inst),), dense_oracle(inst)[:1], (n, weights))


def diagonal_instance_at_cap():
    """Skewed weights on (2,2) at n = 11, dim 4096 = DENSE_DIM_CAP, with
    omega and sigma diagonal in decreasing order, so that the reference's
    eigenbasis is the standard one and X is tau itself."""
    rng = np.random.default_rng(11)
    w = rng.random(11)
    rho = sample("mixed-hilbert-schmidt", (2, 2), 11)
    inst = ConvexSplitInstance(rho, np.diag([0.7, 0.3]), np.diag([0.6, 0.4]), 11,
                               (2, 2), w / w.sum())
    assert 2 * 2**11 == DENSE_DIM_CAP
    return inst


def test_entrywise_q2_matches_dense_oracle_at_cap():
    inst = diagonal_instance_at_cap()
    for M in (inst.sigma_A, inst.omega_R):
        assert np.array_equal(Spectrum(M).V, np.eye(2))
    w = np.diag(inst.omega_R).real
    for _ in range(inst.n):
        w = np.multiply.outer(w, np.diag(inst.sigma_A).real).reshape(-1)
    want = dense_q2(build_tau(inst), w, np.ones(w.size, dtype=bool))
    assert_close((entrywise_q2(inst),), (want,), "n = 11")


def rank_deficient_dense_instances():
    """Dense-class instances (skewed weights or a qutrit A) with a
    rank-deficient sigma or omega, each finite and leaking."""
    rng = np.random.default_rng(70)
    out = []
    for n in (2, 3):
        w = rng.random(n)
        for leaking in (False, True):
            inst = rank_deficient_sigma_instance(n, leaking)
            out.append((ConvexSplitInstance(inst.rho_RA, inst.sigma_A, inst.omega_R, n,
                                            (2, 2), w / w.sum()), leaking))
    # sigma of rank 2 on a qutrit A.
    U = random_unitary(3, rng)
    sigma = (U * np.array([0.6, 0.4, 0.0])) @ U.conj().T
    rho = sample("mixed-hilbert-schmidt", (2, 3), 71)
    P = np.kron(np.eye(2), U[:, :2] @ U[:, :2].conj().T)
    inside = P @ rho @ P
    for r, leaking in ((inside / np.trace(inside).real, False), (rho, True)):
        out.append((ConvexSplitInstance(r, sigma, np.eye(2) / 2, 3, (2, 3)), leaking))
    # omega of rank 2 in a 3-dim R, around rho_RA on span(e0, e1) (x) A.
    W = np.kron(np.eye(3)[:, :2], np.eye(2))
    rho = W @ sample("mixed-hilbert-schmidt", (2, 2), 72) @ W.conj().T
    sigma = sample("mixed-hilbert-schmidt", 2, 73)
    w = rng.random(3)
    for omega, leaking in ((np.diag([0.6, 0.4, 0.0]), False),
                           (np.diag([0.6, 0.0, 0.4]), True)):
        out.append((ConvexSplitInstance(rho, sigma, omega, 3, (3, 2), w / w.sum()),
                    leaking))
    return out


def test_entrywise_q2_rank_deficient_and_leaking():
    # A leaking instance gives inf on both sides of the identity.
    for k, (inst, leaking) in enumerate(rank_deficient_dense_instances()):
        got = entrywise_q2(inst)
        assert math.isinf(got) == leaking, k
        assert_close((got,), dense_oracle(inst)[:1], k)
        rep = split_equality_check(inst)
        assert math.isinf(rep.q2_rhs) == leaking, k
        assert rep.residual <= 1e-10, k


def test_split_check_never_forms_the_dense_block():
    # Dense at the cap, tau is 4096 x 4096 complex: 268 MB.
    inst = diagonal_instance_at_cap()
    tracemalloc.start()
    try:
        rep = split_equality_check(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.residual <= 1e-10
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("dims, weighted", [((2, 2), False), ((3, 2), False),
                                            ((2, 2), True), ((2, 3), False),
                                            ((3, 3), True)])
def test_frame_values_invariant_under_local_unitaries(dims, weighted):
    # rho_RA -> (U_R (x) U_A) rho_RA (.)^dag, sigma -> U_A sigma U_A^dag and
    # omega -> U_R omega U_R^dag move the reference's eigenbasis, not a value.
    # Uniform weights on qubit slots take the Schur-Weyl blocks, the rest
    # the entrywise dense class.
    dR, dA = dims
    rng = np.random.default_rng(dR * 10 + dA + 100 * weighted)
    for n in range(1, 5 if dA == 3 else 6):
        w = rng.random(n)
        inst = random_instance(n + 50, n, dR, dA, w / w.sum() if weighted else None)
        UR, UA = random_unitary(dR, rng), random_unitary(dA, rng)
        U = np.kron(UR, UA)
        moved = ConvexSplitInstance(U @ inst.rho_RA @ U.conj().T,
                                    UA @ inst.sigma_A @ UA.conj().T,
                                    UR @ inst.omega_R @ UR.conj().T, n, dims, inst.weights)
        values = []
        for case in (inst, moved):
            frame = _ReferenceFrame(case)
            values.append((frame.q2(), frame.umegaki(), frame.trace_distance(),
                           frame.fidelity()))
        for name, a, b in zip(("q2", "umegaki", "trace", "fidelity"), *values):
            assert abs(a - b) <= 1e-12 * abs(a), (dims, n, name, a, b)


def _count_eigh(monkeypatch) -> dict:
    """Count the eigh and eigvalsh calls (matcore's _eigh and _eigvalsh) from here on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counting(inner, _name=name):
            def counted(*args, **kwargs):
                calls[_name] += 1
                return inner(*args, **kwargs)
            return counted
        patch_lapack(monkeypatch, "_" + name, counting)
    return calls


def pinned_to_rho_r(inst):
    """The instance with omega = its rho_R, bit for bit."""
    return ConvexSplitInstance(inst.rho_RA, inst.sigma_A, inst.rho_R, inst.n, inst.dims,
                               inst.weights)


def split_cases():
    """(name, instance): omega = rho_R and not, on both frame classes, with
    rank-deficient omega and sigma, and leaking instances whose values are inf."""
    cases = []
    for n, dA, weighted in [(3, 2, False), (1, 2, False), (3, 2, True), (2, 3, False)]:
        w = np.arange(1.0, n + 1) / (n * (n + 1) / 2) if weighted else None
        inst = random_instance(80 + n + dA, n, dA=dA, weights=w)
        cases += [(f"omega-{n}-{dA}-{weighted}", inst),
                  (f"rho_R-{n}-{dA}-{weighted}", pinned_to_rho_r(inst))]
    for leaking in (False, True):
        inst = rank_deficient_sigma_instance(3, leaking)
        cases += [(f"sigma-rank-1-{leaking}", inst),
                  (f"sigma-rank-1-rho_R-{leaking}", pinned_to_rho_r(inst))]
    for k, (inst, leaking) in enumerate(rank_deficient_dense_instances()):
        cases += [(f"dense-{k}-{leaking}", inst), (f"dense-{k}-rho_R", pinned_to_rho_r(inst))]
    return cases


def fresh_split_report(inst):
    """The split report with a fresh decomposition for every term."""
    lhs = _ReferenceFrame(inst).q2()
    t = inst.t_collision
    term_R = q2(inst.rho_R, inst.omega_R)
    term_RA = q2(inst.rho_RA, np.kron(inst.omega_R, inst.sigma_A))
    rhs = INF if math.isinf(term_R) or math.isinf(term_RA) else (1 - t) * term_R + t * term_RA
    if math.isinf(lhs) or math.isinf(rhs):
        residual = 0.0 if math.isinf(lhs) and math.isinf(rhs) else INF
    else:
        residual = abs(lhs - rhs) / max(1.0, lhs)
    ref = np.kron(reduced(inst.rho_RA, inst.dims, 0), inst.sigma_A)
    q, dm = q2(inst.rho_RA, ref), d_max(inst.rho_RA, ref)
    mu = INF if math.isinf(q) else max(q - 1.0, 0.0)
    mu_max = INF if math.isinf(dm) else max(2.0**dm - 1.0, 0.0)
    return lhs, rhs, residual, t, mu, mu_max


def test_split_report_equals_fresh_decompositions_bit_for_bit():
    seen = set()
    for name, inst in split_cases():
        rep = split_equality_check(inst)
        got = (rep.q2_lhs, rep.q2_rhs, rep.residual, rep.t, rep.mu, rep.mu_max)
        assert got == fresh_split_report(inst), name
        assert (rep.mu, rep.mu_max) == mu_quantities(inst.rho_RA, inst.sigma_A, inst.dims)
        seen.add(math.isinf(rep.q2_rhs))
    assert seen == {False, True}


@pytest.mark.parametrize("dA, weighted", [(2, False), (3, False), (2, True)])
def test_split_check_decomposes_each_operator_once(monkeypatch, dA, weighted):
    # omega, sigma, rho_R (x) sigma, and omega (x) sigma unless omega is
    # rho_R; then one sandwich per distinct Q_2 term and one for D_max.
    inst = random_instance(90, 3, dA=dA, weights=[0.5, 0.3, 0.2] if weighted else None)
    assert convexsplit._schur_weyl(inst) == (dA == 2 and not weighted)
    calls = _count_eigh(monkeypatch)
    split_equality_check(inst)
    assert calls == {"eigh": 8, "eigvalsh": 0}
    calls["eigh"] = 0
    split_equality_check(pinned_to_rho_r(inst))
    assert calls == {"eigh": 6, "eigvalsh": 0}


@pytest.mark.parametrize("dR, dA", [(2, 3), (3, 3)])
def test_split_check_pins_omega_taken_as_the_bare_partial_trace(monkeypatch, dR, dA):
    # omega = np.trace of rho_RA over A, as divergence-sweep builds it: not
    # rho_R bit for bit (reduced symmetrizes), but the same operator, so the
    # check takes the pinned path and decomposes rho_R (x) sigma once.
    inst = random_instance(95 + dR, 3, dR=dR, dA=dA)
    omega = np.trace(inst.rho_RA.reshape(dR, dA, dR, dA), axis1=1, axis2=3)
    inst = ConvexSplitInstance(inst.rho_RA, inst.sigma_A, omega, inst.n, inst.dims)
    assert not np.array_equal(omega, inst.rho_R)
    product = np.kron(inst.rho_R, inst.sigma_A)
    seen = []

    def counting(original):
        def call(a):
            seen.append(a.shape == product.shape and np.abs(a - product).max() <= 1e-14)
            return original(a)
        return call

    patch_lapack(monkeypatch, "_eigh", counting)
    split_equality_check(inst)
    assert sum(seen) == 1 and len(seen) == 6


def fresh_bounds_report(rho_RA, sigma_A, n, dims):
    """bounds_report's values with a fresh decomposition for every consumer."""
    inst = ConvexSplitInstance(rho_RA, sigma_A, reduced(_as_matrix(rho_RA), dims, 0), n, dims)
    R, frame = inst.rho_RA, _ReferenceFrame(inst)
    lhs, rhs, residual, t, mu, mu_max = fresh_split_report(inst)
    nu = nu_n(R, inst.sigma_A, n, dims)
    lhs_umegaki = frame.umegaki()
    lhs_d2 = math.log2(lhs) if not math.isinf(lhs) else INF
    lhs_trace = frame.trace_distance()
    F = frame.fidelity()
    lhs_p2 = max(1.0 - F * F, 0.0)
    ref1 = np.kron(inst.omega_R, inst.sigma_A)
    ell = spectrum_cardinality(ref1)
    d15 = d_alpha(R, ref1, 1.5)
    pinching = (ell**0.5 / (0.5 * n**0.5)) * 2.0 ** (0.5 * d15) if not math.isinf(d15) else INF
    b = {
        "gmain0": (lhs_umegaki, math.log2(1.0 + mu_max / n) if not math.isinf(mu_max) else INF),
        "pinsker": (lhs_trace, math.sqrt(mu_max / (2 * n)) if not math.isinf(mu_max) else INF),
        "split7": (lhs_p2, mu_max / (n + mu_max) if not math.isinf(mu_max) else 1.0),
        "gmain8": (lhs_d2, math.log2(1.0 + mu / n) if not math.isinf(mu) else INF),
        "split9": (lhs_p2, 1.0 - 1.0 / nu.value),
        "pmu0": (lhs_p2, mu / (mu + n) if not math.isinf(mu) else 1.0),
        "trace_sqrt": (lhs_trace, 0.5 * math.sqrt(mu / n) if not math.isinf(mu) else INF),
    }
    b["ly2024"] = (lhs_umegaki, min(pinching, b["gmain8"][1]))
    return (lhs, rhs, residual, t, mu, mu_max, nu.value, b["gmain8"][1] <= pinching), b, nu


def bounds_cases():
    """(name, rho_RA, sigma_A, n, dims): full-rank and rank-deficient rho_R
    and sigma, on both frame classes, and a leaking row whose bounds are inf."""
    cases = [(f"cli-{dims}-{n}", sample("rank-limited", dims, s, rank=1 + s % 4),
              sample("mixed-hilbert-schmidt", dims[1], s + 1), n, dims)
             for s, n, dims in [(5000, 1, (2, 2)), (5001, 3, (2, 2)), (7, 2, (2, 3)),
                                (8, 1, (2, 3))]]
    cases.append(("mixed-2x2", sample("mixed-hilbert-schmidt", 4, 501),
                  sample("mixed-hilbert-schmidt", 2, 901), 2, (2, 2)))
    W = np.kron(np.eye(3)[:, :2], np.eye(2))  # rho_R of rank 2 in a qutrit R
    cases.append(("rho_R-rank-2", W @ sample("mixed-hilbert-schmidt", (2, 2), 41) @ W.T,
                  sample("mixed-hilbert-schmidt", 2, 42), 2, (3, 2)))
    for leaking in (False, True):
        inst = rank_deficient_sigma_instance(2, leaking)
        cases.append((f"sigma-rank-1-{leaking}", inst.rho_RA, inst.sigma_A, 2, (2, 2)))
    return cases


def test_bounds_report_equals_fresh_decompositions_bit_for_bit():
    seen = set()
    for name, rho, sigma, n, dims in bounds_cases():
        rep = bounds_report(rho, sigma, n, dims)
        values, bounds, nu = fresh_bounds_report(rho, sigma, n, dims)
        assert (rep.q2_lhs, rep.q2_rhs, rep.residual, rep.t, rep.mu, rep.mu_max, rep.nu_n,
                rep.ly2024_tighter) == values, name
        assert rep.bounds == bounds, name
        got = rep.nu
        assert (got.value, got.lower, got.upper, got.steps) == (
            nu.value, nu.lower, nu.upper, nu.steps), name
        assert np.array_equal(got.witness, nu.witness), name
        seen.add(math.isinf(rep.mu_max))
    assert seen == {False, True}


def test_bounds_report_decomposes_each_operator_once(monkeypatch):
    # A 2x2 row at n = 1, rho_RA of full rank (nothing cut).  Each of
    # nu_n's Newton steps takes two eigh (sigma and Y) and two eigvalsh (the
    # Frank-Wolfe gap and the step to the cone's boundary).  The rest: eigh
    # of omega, sigma, rho_R (x) sigma, three sandwiches (two Q_2, D_max),
    # nu_n's kernel set-up (rho_RA, K) and first call (sigma, Y), D_1.5's
    # sandwich and tau's one block; eigvalsh for the trace distance and the
    # first Frank-Wolfe gap.  The spectrum count reads rho_R (x) sigma's
    # eigenvalues, and the cut bound and the final gap reuse the last call.
    rho = sample("mixed-hilbert-schmidt", 4, 501)
    sigma = sample("mixed-hilbert-schmidt", 2, 901)
    calls = _count_eigh(monkeypatch)
    rep = bounds_report(rho, sigma, 1, (2, 2))
    steps = rep.nu.steps
    assert calls == {"eigh": 12 + 2 * steps, "eigvalsh": 2 + 2 * steps}
