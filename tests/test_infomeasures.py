import math
import re

import numpy as np
import pytest

from csl import infomeasures, optim
from csl.divergences import d_umegaki
from csl.infomeasures import (
    C_SMOOTH,
    check_rld_bound,
    conditional_renyi_up,
    dmax_smoothed_upper,
    f_alpha_beta,
    h_min_conditional,
    mutual_info_alpha,
    renyi_entropy,
    universal_rhs,
)
from csl.matcore import CertificateError, ContractViolation, reduced, sample
from csl.optim import imax_sdp, minimize_convex_over_states
from csl.smoothing import imax_smoothed_upper


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def test_renyi_entropy_limits():
    rho = np.diag([0.5, 0.25, 0.25])
    assert abs(renyi_entropy(rho, 0) - math.log2(3)) < 1e-12
    assert abs(renyi_entropy(rho, 1) - 1.5) < 1e-12
    assert abs(renyi_entropy(rho, math.inf) - 1.0) < 1e-12
    assert abs(renyi_entropy(rho, 2) + math.log2(0.375)) < 1e-12
    # non-increasing in alpha
    vals = [renyi_entropy(rho, a) for a in [0, 0.5, 1, 2, 5, math.inf]]
    assert all(hi <= lo + 1e-12 for lo, hi in zip(vals, vals[1:]))


def test_mutual_info_alpha_product_zero():
    a = sample("mixed-hilbert-schmidt", 2, 0)
    b = sample("mixed-hilbert-schmidt", 2, 1)
    val, _ = mutual_info_alpha(np.kron(a, b), 2.0, (2, 2))
    assert val < 1e-7


def test_mutual_info_alpha_bell():
    # I_2(R:B) of a Bell pair is 2 log2(4/2) ... evaluates to 2 bits at alpha=2? no:
    # D_2(Phi || I/2 (x) sigma) minimized at sigma = I/2 gives log2 Q_2 = 2.
    val, _ = mutual_info_alpha(bell_density(), 2.0, (2, 2))
    assert abs(val - 2.0) < 1e-6


def test_mutual_info_monotone_in_alpha():
    rho = sample("mixed-hilbert-schmidt", (2, 2), 5)
    vals = [mutual_info_alpha(rho, a, (2, 2))[0] for a in [0.5, 1.0, 2.0]]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-7


def test_mutual_info_alpha_one_is_the_umegaki_closed_form():
    # I_1 = D(rho_AB || rho_A (x) rho_B), here with rho_B of rank 2 on C^3.
    dims = (2, 3)
    rho = sample("rank-limited", dims, 61, rank=3)
    W = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0]))
    rho = W @ rho @ W
    rho /= np.trace(rho).real
    rho_A, rho_B = (np.trace(rho.reshape(2, 3, 2, 3), axis1=a, axis2=a + 2) for a in (1, 0))
    assert np.linalg.matrix_rank(rho_B) == 2
    val, sigma = mutual_info_alpha(rho, 1.0, dims)
    assert abs(val - d_umegaki(rho, np.kron(rho_A, rho_B))) <= 1e-12
    assert np.array_equal(sigma, (rho_B + rho_B.conj().T) / 2)  # reduced's _herm


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.49, math.inf, math.nan])
def test_mutual_info_alpha_refuses_orders_outside_half_to_inf(alpha):
    with pytest.raises(ContractViolation, match="alpha"):
        mutual_info_alpha(sample("mixed-hilbert-schmidt", (2, 2), 5), alpha, (2, 2))


def test_h_min_conditional_values():
    assert abs(h_min_conditional(bell_density(), (2, 2)) + 1.0) < 1e-6
    a = np.diag([0.7, 0.3])
    b = np.diag([0.5, 0.5])
    assert abs(h_min_conditional(np.kron(a, b), (2, 2)) + math.log2(0.7)) < 1e-6


def test_conditional_renyi_up_limits_and_order():
    rho = sample("mixed-hilbert-schmidt", (2, 2), 7)
    h1 = conditional_renyi_up(rho, 1.0, (2, 2))
    h2 = conditional_renyi_up(rho, 2.0, (2, 2))
    hinf = conditional_renyi_up(rho, math.inf, (2, 2))
    assert h1 >= h2 - 1e-7
    assert h2 >= hinf - 1e-7


def test_conditional_renyi_up_pure_state_duality():
    # For pure rho_AB the optimized entropy collapses to -H_{b/(2b-1)}(A).
    v = sample("pure-haar", (2, 3), 9)
    rho = np.outer(v, v.conj())
    rho_A = np.trace(rho.reshape(2, 3, 2, 3), axis1=1, axis2=3)
    for beta in [1.5, 2.0, 4.0]:
        expect = -renyi_entropy(rho_A, beta / (2 * beta - 1))
        assert abs(conditional_renyi_up(rho, beta, (2, 3)) - expect) < 1e-8


def _purified_marginal(rho_ab, dims):
    """rho_AC of a purification psi_ABC of rho_AB on a C of dimension rank rho_AB."""
    w, V = np.linalg.eigh(rho_ab)
    keep = w > 1e-12
    dA, dB = dims
    psi = (V[:, keep] * np.sqrt(w[keep])).reshape(dA, dB, -1)
    return np.einsum("abc,dbe->acde", psi, psi.conj()).reshape(dA * psi.shape[2], -1), \
        (dA, psi.shape[2])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_conditional_renyi_up_duality_on_mixed_states(dims):
    # For pure psi_ABC, H_up_beta(A|B) = -H_up_beta'(A|C) with
    # beta' = beta/(2 beta - 1) (Tomamichel, Berta & Hayashi 2014).  rho_AB
    # of full rank, rank D - 1 and rank 2, two seeds each; beta' = 3/4, 2/3.
    D = dims[0] * dims[1]
    for rank in (D, D - 1, 2):
        for seed in (0, 1):
            rho = sample("rank-limited", dims, 3100 + 10 * rank + seed, rank=rank)
            rho_ac, dims_ac = _purified_marginal(rho, dims)
            for beta in (1.5, 2.0):
                dual = conditional_renyi_up(rho_ac, beta / (2 * beta - 1), dims_ac)
                total = conditional_renyi_up(rho, beta, dims) + dual
                assert abs(total) <= 1e-10, (rank, seed, beta, total)


@pytest.mark.parametrize("beta", [0.5, 0.5 + 1e-9])
def test_conditional_renyi_up_pure_state_at_half(beta):
    # The dual order beta/(2 beta - 1) is inf at beta = 1/2 and about 5e8
    # just above it: H_up_{1/2}(A|B) = log2 lambda_max(rho_A) on pure states.
    for dims, seed in (((2, 3), 9), ((3, 2), 10), ((3, 3), 11)):
        v = sample("pure-haar", dims, seed)
        rho = np.outer(v, v.conj())
        rho_A = np.trace(rho.reshape(dims + dims), axis1=1, axis2=3)
        want = math.log2(np.linalg.eigvalsh(rho_A).max())
        assert abs(conditional_renyi_up(rho, beta, dims) - want) <= 1e-8


@pytest.mark.parametrize("alpha", [1100, 1e6])
def test_renyi_entropy_at_large_orders(alpha):
    # sum w^alpha underflows here; the maximally mixed state has H = log2 d.
    for d in (2, 3, 5):
        assert abs(renyi_entropy(np.eye(d) / d, alpha) - math.log2(d)) <= 1e-12


@pytest.mark.parametrize("alpha", [1 - 1e-9, 1 + 1e-9])
def test_renyi_entropy_next_to_order_one(alpha):
    # No O(1) terms cancel next to alpha = 1: I/3 gives log2 3 exactly, and a
    # random state lies within O(alpha - 1) of its von Neumann entropy.
    assert abs(renyi_entropy(np.eye(3) / 3, alpha) - math.log2(3)) <= 1e-12
    rho = sample("mixed-hilbert-schmidt", 4, 3)
    assert abs(renyi_entropy(rho, alpha) - renyi_entropy(rho, 1)) <= 1e-8


BETAS = (0.5, 0.75, 1.5, 2.0, 4.0)
# H_up_beta(A|B) at BETAS, recorded with the multi-start optimizer this
# package used before the certified convex solver.
PINNED_H_UP = {
    "hs22": (0.6860486261532853, 0.5642775170437057, 0.3650624245592738,
             0.29896943502207285, 0.1878314081702629),
    "hs23": (0.6306052968024007, 0.4633888218622385, 0.18129391779043053,
             0.08361261365121808, -0.07373029542879941),
    "compressed": (0.6335606145305006, 0.5233090378660249, 0.37150680220677923,
                   0.32816854658091205, 0.25714861695167623),
}


def _pinned_states():
    M = sample("mixed-hilbert-schmidt", (2, 2), 13)
    W = np.kron(np.eye(2), np.eye(3)[:, :2])
    return {
        "hs22": (sample("mixed-hilbert-schmidt", (2, 2), 7), (2, 2)),
        "hs23": (sample("mixed-hilbert-schmidt", (2, 3), 11), (2, 3)),
        "compressed": (M, (2, 2)),
        # rank-deficient rho_B: M placed on A (x) span(e0, e1) of a 3-dim B.
        # It has the values of M; the multi-start optimizer, whose minimizer
        # sat on the boundary of D(B) here, was off by up to 4e-10 for
        # beta >= 3/4 and by 5e-4 at beta = 1/2.
        "embedded": (W @ M @ W.conj().T, (2, 3)),
    }


@pytest.mark.parametrize("name", ["hs22", "hs23", "compressed", "embedded"])
def test_conditional_renyi_up_pinned_and_certified(name, monkeypatch):
    reports = []

    def recorded(*args):
        reports.append(minimize_convex_over_states(*args))
        return reports[-1]

    monkeypatch.setattr(infomeasures, "minimize_convex_over_states", recorded)
    rho, dims = _pinned_states()[name]
    pinned = PINNED_H_UP["compressed" if name == "embedded" else name]
    for beta, want in zip(BETAS, pinned):
        value = conditional_renyi_up(rho, beta, dims)
        assert abs(value - want) <= 1e-9, (beta, value, want)
        assert reports[-1].gap <= 1e-9
    assert len(reports) == len(BETAS)


def test_f_alpha_beta_value_and_monotonicity():
    # (2/(3-1) + 1/(1-0.5)) = 3, times log2(1/(c * 0.01))
    expect = 3.0 * math.log2(1.0 / (C_SMOOTH * 0.01))
    assert abs(f_alpha_beta(0.5, 3.0, 0.1) - expect) < 1e-12
    assert f_alpha_beta(0.5, 3.0, 0.2) < f_alpha_beta(0.5, 3.0, 0.1)
    with pytest.raises(ContractViolation):
        f_alpha_beta(1.5, 2.0, 0.1)


def test_universal_rhs_product_maximally_mixed():
    rho = np.eye(4) / 4
    val = universal_rhs(rho, (2, 2), 0.5, 2.0, 0.1)
    assert abs(val - f_alpha_beta(0.5, 2.0, 0.1)) < 1e-6


def test_imax_smoothed_upper_basics():
    a = sample("mixed-hilbert-schmidt", 2, 0)
    b = sample("mixed-hilbert-schmidt", 2, 1)
    prod = np.kron(a, b)
    est, _ = imax_smoothed_upper(prod, 0.2, (2, 2))
    assert est < 1e-6

    bell = bell_density()
    est2, _ = imax_smoothed_upper(bell, 0.2, (2, 2))
    assert est2 <= 2.0 + 1e-9
    # tiny ball: value collapses to the unsmoothed I_max
    est3, _ = imax_smoothed_upper(bell, 1e-6, (2, 2))
    assert abs(est3 - imax_sdp(bell, (2, 2)).value) < 1e-6


def test_imax_smoothed_upper_monotone_in_eps():
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    vals = [imax_smoothed_upper(rho, e, (2, 2))[0] for e in [0.01, 0.05, 0.1, 0.3]]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-9


def test_dmax_smoothed_upper_same_state():
    rho = sample("mixed-hilbert-schmidt", 3, 4)
    est, _ = dmax_smoothed_upper(rho, rho, 0.1)
    assert est < 1e-9


def test_check_rld_bound_commuting_and_random():
    rho = np.diag([0.8, 0.2])
    sig = np.diag([0.4, 0.6])
    rep = check_rld_bound(rho, sig, 0.3, 2.0)
    assert rep.ok
    for seed in range(5):
        r = sample("mixed-hilbert-schmidt", 3, seed)
        s = sample("mixed-hilbert-schmidt", 3, seed + 50)
        rep = check_rld_bound(r, s, 0.3, 2.0)
        assert rep.ok  # one-sided: certification expected on generic pairs


def test_nan_orders_and_radii_refused():
    rho, sig = np.diag([0.8, 0.2]), np.diag([0.4, 0.6])
    with pytest.raises(ContractViolation):
        renyi_entropy(rho, math.nan)
    for eps, beta in ((0.3, math.nan), (math.nan, 2.0), (0.0, 2.0), (1.0, 2.0)):
        with pytest.raises(ContractViolation):
            check_rld_bound(rho, sig, eps, beta)


def test_conditional_renyi_up_refuses_nan_order():
    # A mixed state, so that no closed form refuses the order first.
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    with pytest.raises(ContractViolation, match="beta"):
        conditional_renyi_up(rho, math.nan, (2, 2))


def test_h_min_conditional_raises_when_not_converged(monkeypatch):
    # No bracket is narrow enough: the SDP refuses, so H_min does.
    monkeypatch.setattr(optim, "GAP_TOL", -1.0)
    with pytest.raises(CertificateError, match="not certified"):
        h_min_conditional(bell_density(), (2, 2))


def test_wide_bracket_is_not_certified(monkeypatch):
    # A bracket wider than GAP_TOL certifies neither I_max nor H_min, and the
    # refusal names the bracket and residual the solver reached.
    rho, dims = sample("mixed-hilbert-schmidt", (2, 2), 0), (2, 2)
    imax = imax_sdp(rho, dims)
    hmin = optim.dominating_trace_min(np.eye(2)[None], rho[None], dims)[0]
    cases = [(imax, reduced(rho, dims, 0), lambda: imax_sdp(rho, dims)),
             (hmin, np.eye(2), lambda: h_min_conditional(rho, dims))]
    residuals = [optim.dominance_residual(M_A, rho, res) for res, M_A, _ in cases]
    assert min(imax.gap, hmin.gap) > 0
    monkeypatch.setattr(optim, "GAP_TOL", min(imax.gap, hmin.gap) / 2)
    for (res, _, solve), residual in zip(cases, residuals):
        with pytest.raises(CertificateError, match=re.escape(
                f"not certified (bracket {res.gap:.3e} bits, "
                f"residual {residual:.3e})")):
            solve()


def test_h_min_reported_from_dual_side():
    # H_min is the sound upper side -lower, within GAP_TOL of -value.
    rho = sample("mixed-hilbert-schmidt", (2, 3), 12)
    res = optim.dominating_trace_min(np.eye(2)[None], rho[None], (2, 3))[0]
    assert h_min_conditional(rho, (2, 3)) == -res.lower
    assert -1e-14 <= res.gap <= optim.GAP_TOL
