import math

import numpy as np
import pytest

from csl.convexsplit import (
    DENSE_DIM_CAP,
    ConvexSplitInstance,
    bounds_report,
    build_tau,
    ly2024_compare,
    mu_quantities,
    nu_n,
    split_equality_check,
    spectrum_cardinality,
)
from csl.divergences import q2
from csl.matcore import ContractViolation, RegisterLayout, sample


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def closed_instance(n):
    return ConvexSplitInstance(bell_density(), np.eye(2) / 2, np.eye(2) / 2, n,
                               (2, 2))


def random_instance(seed, n, dR=2, dA=2, weights=None, omega=None):
    rho = sample("rank-limited", RegisterLayout.of(("R", dR), ("A", dA)), seed,
                 rank=1 + seed % (dR * dA)).matrix
    sigma = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", dA)),
                   seed + 17).matrix
    if omega is None:
        omega = sample("mixed-hilbert-schmidt", RegisterLayout.of(("R", dR)),
                       seed + 37).matrix
    return ConvexSplitInstance(rho, sigma, omega, n, (dR, dA), weights)


def test_instance_validation():
    with pytest.raises(ContractViolation):
        closed_instance(0)
    with pytest.raises(ContractViolation):
        ConvexSplitInstance(bell_density(), np.eye(2) / 2, np.eye(2) / 2, 2,
                            (2, 2), weights=[0.7, 0.7])


def test_build_tau_is_state():
    inst = random_instance(3, 3)
    tau = build_tau(inst)
    assert abs(np.trace(tau).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(tau).min() > -1e-12


def test_build_tau_n1_is_rho():
    inst = random_instance(4, 1)
    assert np.abs(build_tau(inst) - inst.rho_RA).max() < 1e-12


def test_dense_cap_enforced():
    with pytest.raises(ContractViolation):
        build_tau(random_instance(1, 12, dR=2, dA=2))
    assert 2 * 2**11 <= DENSE_DIM_CAP  # n = 11 qubit slots still dense


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
        nu, argopt, _ = nu_n(inst.rho_RA, inst.sigma_A, 3, inst.dims)
        assert nu <= 1.0 + mu / 3 + 1e-7
        assert abs(np.trace(argopt).real - 1.0) < 1e-8


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
    nu, argopt, rep = nu_n(inst.rho_RA, inst.sigma_A, n, inst.dims)
    assert abs(nu - PINNED_NU[key]) <= 1e-9 * max(1.0, PINNED_NU[key])
    assert rep.converged and rep.gap_estimate <= 1e-9
    assert abs(np.trace(argopt).real - 1.0) < 1e-12


@pytest.mark.parametrize("n, want", [(1, 3.591455327570736), (3, 1.8749902729897863)])
def test_nu_n_rank_deficient_rho_r(n, want):
    # rho_RA on span(e0, e1) (x) A inside a 3-dim R has the values of the
    # 2-dim instance (pinned); omega is solved on supp(rho_R) and stays there.
    M = sample("mixed-hilbert-schmidt", RegisterLayout.of(("R", 2), ("A", 2)),
               19).matrix
    sigma = sample("mixed-hilbert-schmidt", 2, 23).matrix
    W = np.kron(np.eye(3)[:, :2], np.eye(2))
    for rho, dims in [(M, (2, 2)), (W @ M @ W.conj().T, (3, 2))]:
        nu, argopt, rep = nu_n(rho, sigma, n, dims)
        assert abs(nu - want) <= 1e-9 * want
        assert rep.gap_estimate <= 1e-9
    assert np.abs(argopt[2]).max() < 1e-15  # the embedded omega stays on supp(rho_R)


def test_bounds_report_all_hold():
    for seed in range(8):
        n = 1 + seed % 4
        inst = random_instance(seed, n)
        rep = bounds_report(inst)
        for name, (lhs, rhs) in rep.bounds.items():
            assert lhs <= rhs + 1e-8, (name, lhs, rhs)
        assert rep.nu_n == rep.nu_report.value
        assert rep.nu_report.converged and rep.nu_report.gap_estimate <= 1e-9
        # corollary ordering: 1 - 1/nu_n <= mu/(mu+n)
        assert 1.0 - 1.0 / rep.nu_n <= rep.mu / (rep.mu + n) + 1e-7


def test_trace_bound_prefactor_is_tight_on_closed_instance():
    # T(tau, ref) on the Bell closed instance shows a prefactor below 1/2
    # in T <= c sqrt(mu/n) would fail at n = 4.
    rep = bounds_report(closed_instance(4))
    lhs, rhs = rep.bounds["trace_sqrt"]
    assert lhs <= rhs + 1e-10
    assert lhs > 0.25 * math.sqrt(rep.mu / 4)


def test_spectrum_cardinality_clusters():
    assert spectrum_cardinality(np.diag([0.5, 0.5, 0.25])) == 2
    assert spectrum_cardinality(np.diag([0.5, 0.5 + 1e-12, 0.25])) == 2
    assert spectrum_cardinality(np.diag([0.1, 0.2, 0.3])) == 3


def test_ly2024_compare_holds_and_reports():
    inst = random_instance(2, 3)
    rep = ly2024_compare(inst, 0.5)
    assert rep.ok
    assert rep.details["lhs_verified"]
    assert rep.details["ell"] >= 1
    # large n: dense side skipped, comparison still runs
    big = random_instance(2, 16)
    rep_big = ly2024_compare(big, 0.5)
    assert not rep_big.details["lhs_verified"]
    assert math.isnan(rep_big.lhs)


def test_ly2024_crossover_trend():
    # For large n the exact-identity bound wins (1/n beats 1/n^s decay).
    inst = random_instance(7, 16)
    rep = ly2024_compare(inst, 0.5)
    assert rep.details["exact_identity_tighter"]
