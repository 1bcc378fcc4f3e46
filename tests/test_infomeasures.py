import math

import numpy as np
import pytest

from csl import infomeasures
from csl.infomeasures import (
    C_SMOOTH,
    check_rld_bound,
    conditional_renyi_up,
    dmax_smoothed_upper,
    f_alpha_beta,
    h_min_conditional,
    imax_bound_lemma,
    imax_smoothed_upper,
    mutual_info_alpha,
    renyi_entropy,
    universal_rhs,
)
from csl.matcore import ContractViolation, RegisterLayout, sample
from csl.optim import imax_sdp, minimize_convex_over_states


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
    a = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2)), 0).matrix
    b = sample("mixed-hilbert-schmidt", RegisterLayout.of(("B", 2)), 1).matrix
    assert mutual_info_alpha(np.kron(a, b), 2.0, (2, 2)) < 1e-7


def test_mutual_info_alpha_bell():
    # I_2(R:B) of a Bell pair is 2 log2(4/2) ... evaluates to 2 bits at alpha=2? no:
    # D_2(Phi || I/2 (x) sigma) minimized at sigma = I/2 gives log2 Q_2 = 2.
    val = mutual_info_alpha(bell_density(), 2.0, (2, 2))
    assert abs(val - 2.0) < 1e-6


def test_mutual_info_monotone_in_alpha():
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 5).matrix
    vals = [mutual_info_alpha(rho, a, (2, 2), restarts=8) for a in [0.5, 1.0, 2.0]]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-7


def test_h_min_conditional_values():
    assert abs(h_min_conditional(bell_density(), (2, 2)) + 1.0) < 1e-6
    a = np.diag([0.7, 0.3])
    b = np.diag([0.5, 0.5])
    assert abs(h_min_conditional(np.kron(a, b), (2, 2)) + math.log2(0.7)) < 1e-6


def test_conditional_renyi_up_limits_and_order():
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 7).matrix
    h1 = conditional_renyi_up(rho, 1.0, (2, 2))
    h2 = conditional_renyi_up(rho, 2.0, (2, 2))
    hinf = conditional_renyi_up(rho, math.inf, (2, 2))
    assert h1 >= h2 - 1e-7
    assert h2 >= hinf - 1e-7


def test_conditional_renyi_up_pure_state_duality():
    # For pure rho_AB the optimized entropy collapses to -H_{b/(2b-1)}(A).
    v = sample("pure-haar", RegisterLayout.of(("A", 2), ("B", 3)), 9).amplitudes
    rho = np.outer(v, v.conj())
    rho_A = np.trace(rho.reshape(2, 3, 2, 3), axis1=1, axis2=3)
    for beta in [1.5, 2.0, 4.0]:
        expect = -renyi_entropy(rho_A, beta / (2 * beta - 1))
        assert abs(conditional_renyi_up(rho, beta, (2, 3)) - expect) < 1e-8


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
    M = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)),
               13).matrix
    W = np.kron(np.eye(2), np.eye(3)[:, :2])
    return {
        "hs22": (sample("mixed-hilbert-schmidt",
                        RegisterLayout.of(("A", 2), ("B", 2)), 7).matrix, (2, 2)),
        "hs23": (sample("mixed-hilbert-schmidt",
                        RegisterLayout.of(("A", 2), ("B", 3)), 11).matrix, (2, 3)),
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
        assert reports[-1].converged and reports[-1].gap_estimate <= 1e-9
    assert len(reports) == len(BETAS)


def test_imax_bound_lemma_bell():
    rep = imax_bound_lemma(bell_density(), (2, 2))
    assert rep.ok
    assert abs(rep.lhs - 2.0) < 1e-6
    assert abs(rep.rhs - 2.0) < 1e-6


def test_imax_bound_lemma_random():
    for seed in range(5):
        rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)),
                     seed).matrix
        rep = imax_bound_lemma(rho, (2, 2))
        assert rep.ok


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
    a = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2)), 0).matrix
    b = sample("mixed-hilbert-schmidt", RegisterLayout.of(("B", 2)), 1).matrix
    prod = np.kron(a, b)
    est = imax_smoothed_upper(prod, 0.2, (2, 2))
    assert est.kind == "upper-feasible"
    assert est.value_bits < 1e-6

    bell = bell_density()
    est2 = imax_smoothed_upper(bell, 0.2, (2, 2))
    assert est2.value_bits <= 2.0 + 1e-9
    # tiny ball: value collapses to the unsmoothed I_max
    est3 = imax_smoothed_upper(bell, 1e-6, (2, 2))
    assert abs(est3.value_bits - imax_sdp(bell, (2, 2)).value_bits) < 1e-6


def test_imax_smoothed_upper_monotone_in_eps():
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 3).matrix
    vals = [imax_smoothed_upper(rho, e, (2, 2)).value_bits
            for e in [0.01, 0.05, 0.1, 0.3]]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-9


def test_dmax_smoothed_upper_same_state():
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 3)), 4).matrix
    est = dmax_smoothed_upper(rho, rho, 0.1)
    assert est.value_bits < 1e-9


def test_check_rld_bound_commuting_and_random():
    rho = np.diag([0.8, 0.2])
    sig = np.diag([0.4, 0.6])
    rep = check_rld_bound(rho, sig, 0.3, 2.0)
    assert rep.ok
    for seed in range(5):
        r = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 3)), seed).matrix
        s = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 3)), seed + 50).matrix
        rep = check_rld_bound(r, s, 0.3, 2.0)
        assert rep.ok  # one-sided: certification expected on generic pairs
