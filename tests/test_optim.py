import json
import math

import numpy as np
import pytest
import scipy.optimize
import scipy.optimize._differentiable_functions
import scipy.optimize._numdiff

from csl import cli, convexsplit, infomeasures, optim, protocols
from csl.divergences import d_alpha, q_alpha
from csl.matcore import (
    RANK_TOL,
    CertificateError,
    ContractViolation,
    q_alpha_cut,
    reduced,
    sample,
)
from csl.optim import (
    GAP_TOL,
    QAlphaKernel,
    _gram_state,
    _stacked_gradients,
    _traceless_basis,
    dominating_trace_min,
    frank_wolfe_gap,
    imax_sdp,
    minimize_convex_over_states,
    minimize_over_states,
)
from helpers import multistart_oracle, patch_lapack, sdp_residual


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def _lone(M_A, rho, dims):
    """dominating_trace_min on a stack of one."""
    return dominating_trace_min(np.asarray(M_A)[None], np.asarray(rho)[None], dims)[0]


def test_minimize_over_states_quadratic():
    # min over sigma of ||sigma - target||_F^2 is attained at the target.
    target = sample("mixed-hilbert-schmidt", 3, 0)
    value, state = minimize_over_states(
        lambda stack: [float(np.abs(s - target).sum() ** 2) for s in stack], 3, restarts=8)
    assert value < 1e-8
    assert np.abs(state - target).max() < 1e-3


def test_minimize_recovers_divergence_minimizer():
    # min_sigma D_2(rho || sigma) = 0 at sigma = rho; d_alpha takes the stack.
    rho = sample("mixed-hilbert-schmidt", 2, 1)
    value, _ = minimize_over_states(lambda stack: d_alpha(rho, stack, 2.0), 2, restarts=8,
                                    extra_starts=[rho])
    assert value < 1e-9


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_minimize_over_states_never_finite(bad):
    # An objective that is never finite gets the sentinel: value inf and the
    # maximally mixed state.
    value, state = minimize_over_states(lambda stack: np.full(len(stack), bad), 3, restarts=4)
    assert value == math.inf
    assert np.array_equal(state, np.eye(3) / 3)


def _pole_at(x0, dim):
    """A state functional with a pole at sigma(x0): 1/(sigma_00 - sigma(x0)_00),
    inf there and nan where the difference is negative, one state at a time."""
    s0 = float(_gram_state(x0, dim)[0, 0].real)

    def one(sigma):
        gap = float(sigma[0, 0].real) - s0
        return 1.0 / gap if gap > 0 else (math.inf if gap == 0 else math.nan)

    return one


@pytest.mark.parametrize("case", ["divergence", "large-x", "non-finite"])
def test_stacked_gradient_is_scipys_forward_difference(case):
    # One stacked objective call gives scipy's own 2-point gradient at every
    # point of the stack, bit for bit: the 1e-8 step, its fallback where
    # x_i + 1e-8 rounds to x_i (here |x_i| ~ 1e9), and 1e12 for every
    # non-finite member.
    rng = np.random.default_rng([23, len(case)])
    rho = sample("mixed-hilbert-schmidt", 4, 23)
    rho_A = reduced(rho, (2, 2), 0)
    x = rng.standard_normal(8)
    x[3] = 0.0
    one = lambda s: d_alpha(rho, np.kron(rho_A, s), 2.0)  # noqa: E731
    if case == "large-x":
        x[::2] *= 1e9
    elif case == "non-finite":
        one = _pole_at(x, 2)

    def capped(y):  # what scipy differenced: one state, non-finite as 1e12
        v = one(_gram_state(y, 2))
        return v if math.isfinite(v) else 1e12

    points = np.array([x, x[::-1]])
    f, g = _stacked_gradients(points, lambda stack: [one(s) for s in stack], 2)
    for y, fy, gy in zip(points, f, g):
        want = scipy.optimize.approx_fprime(y, capped, 1e-8)
        assert fy == capped(y)
        assert np.array_equal(gy, want), np.abs(gy - want).max()
    if case == "large-x":
        rounds = (x + 1e-8) - x == 0  # where the fallback step is taken
        assert rounds.any() and not rounds.all()
    if case == "non-finite":
        assert f[0] == 1e12 and np.isnan([one(s) for s in _gram_state(
            x + 1e-8 * np.eye(8), 2)]).any()


def _against_oracle(monkeypatch, module):
    """Run module's minimize_over_states calls through both the lockstep
    descent and the per-start scipy loop, asserting the same bits; returns
    the list of (value, oracle nfev per run) of the calls."""
    calls = []

    def both(objective, dim, **kwargs):
        value, state = minimize_over_states(objective, dim, **kwargs)
        want_value, want_state, nfev = multistart_oracle(objective, dim, **kwargs)
        assert value == want_value
        assert state.tobytes() == want_state.tobytes()
        calls.append((value, nfev))
        return value, state

    monkeypatch.setattr(module, "minimize_over_states", both)
    return calls


@pytest.mark.parametrize("alpha", [0.75, 1.5, 2.0])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
@pytest.mark.parametrize("kind", ["mixed-hilbert-schmidt", "pure-haar"])
def test_lockstep_descent_matches_per_start_loop(monkeypatch, kind, dims, alpha):
    # mutual_info_alpha's descent, bit for bit that of one scipy.optimize.
    # minimize call per start; a pure rho_AB at (2, 3) leaves rho_B
    # rank-deficient.
    calls = _against_oracle(monkeypatch, infomeasures)
    rho = sample(kind, dims, 31)
    if kind == "pure-haar":
        rho = np.outer(rho, rho.conj())
    infomeasures.mutual_info_alpha(rho, alpha, dims)
    (_, nfev), = calls
    assert len(nfev) == 16


def test_lockstep_channel_descent_matches_per_start_loop(monkeypatch):
    # The channel maximization (amplitude damping 0.3, alpha 1/2, beta 2):
    # 4 starts, each point a stack of certified solves.
    calls = _against_oracle(monkeypatch, protocols)
    chan = protocols.ChannelSpec([np.array([[1.0, 0.0], [0.0, math.sqrt(0.7)]]),
                                  np.array([[0.0, math.sqrt(0.3)], [0.0, 0.0]])], 2, 2)
    protocols.channel_alpha_beta_info(chan, 0.5, 2.0)
    (_, nfev), = calls
    assert len(nfev) == 4


def _quadratic(dim):
    target = sample("mixed-hilbert-schmidt", dim, 0)
    return lambda stack: [float(np.abs(s - target).sum() ** 2) for s in stack]


@pytest.mark.parametrize("objective", ["quadratic", "inf", "nan"])
def test_lockstep_matches_per_start_loop_on_test_objectives(objective):
    fun = (_quadratic(3) if objective == "quadratic"
           else lambda stack: np.full(len(stack), float(objective)))
    value, state = minimize_over_states(fun, 3, restarts=8)
    want_value, want_state, _ = multistart_oracle(fun, 3, restarts=8)
    assert value == want_value and state.tobytes() == want_state.tobytes()


@pytest.mark.parametrize("cap", ["maxiter", "maxfun"])
def test_lockstep_keeps_the_early_stops(monkeypatch, cap):
    # Both caps cut the runs short and the descent stops where scipy's loop
    # stops: at 3 iterations, or at the first iteration past 4 points.
    fun = _quadratic(2)
    _, _, free = multistart_oracle(fun, 2, restarts=8)
    if cap == "maxiter":
        monkeypatch.setattr(optim, "_MAXITER", 3)
    else:
        monkeypatch.setattr(optim, "_MAXFUN", 4 * (1 + 2 * 2 * 2))
    value, state = minimize_over_states(fun, 2, restarts=8)
    want_value, want_state, nfev = multistart_oracle(fun, 2, restarts=8)
    assert value == want_value and state.tobytes() == want_state.tobytes()
    assert sum(nfev) < sum(free) and max(nfev) < min(free)


def test_imax_product_zero():
    a = sample("mixed-hilbert-schmidt", 2, 2)
    b = sample("mixed-hilbert-schmidt", 2, 3)
    res = imax_sdp(np.kron(a, b), (2, 2))
    assert abs(res.value) < 1e-6
    assert sdp_residual(res, np.kron(a, b), (2, 2)) > -1e-7


def test_imax_bell_two_bits():
    res = imax_sdp(bell_density(), (2, 2))
    assert abs(res.value - 2.0) < 1e-6
    assert sdp_residual(res, bell_density(), (2, 2)) > -1e-7


def test_imax_classical_bit():
    rho = 0.5 * np.diag([1.0, 0, 0, 0]) + 0.5 * np.diag([0, 0, 0, 1.0])
    res = imax_sdp(rho, (2, 2))
    assert abs(res.value - 1.0) < 1e-6


def test_certificate_feasibility():
    for seed in range(5):
        rho = sample("mixed-hilbert-schmidt", (2, 3), seed)
        res = imax_sdp(rho, (2, 3))
        assert sdp_residual(res, rho, (2, 3)) > -1e-7
        # certificate actually dominates: rho_A (x) Y - rho is PSD up to tol
        rho_A = np.trace(rho.reshape(2, 3, 2, 3), axis1=1, axis2=3)
        gap = np.kron(rho_A, res.witness) - rho
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() > -1e-7


def test_dominating_trace_min_hmin():
    # H_min(A|B) of Bell = -1, so min Tr Y with I (x) Y >= rho is 2.
    res = _lone(np.eye(2), bell_density(), (2, 2))
    assert abs(res.value - 1.0) < 1e-6  # log2 Tr Y = 1

    a = np.diag([0.7, 0.3])
    b = np.diag([0.5, 0.5])
    res2 = _lone(np.eye(2), np.kron(a, b), (2, 2))
    assert abs(res2.value - math.log2(0.7)) < 1e-6


def test_rank_deficient_inputs():
    rho = sample("rank-limited", (2, 2), 4, rank=2)
    res = imax_sdp(rho, (2, 2))
    assert sdp_residual(res, rho, (2, 2)) > -1e-7


def _marginal_A(rho, dA, dB):
    return np.trace(rho.reshape(dA, dB, dA, dB), axis1=1, axis2=3)


def _sdp_cases():
    cases = {}
    for dA, dB in ((2, 3), (3, 2)):
        rho = sample("mixed-hilbert-schmidt", (dA, dB), 21)
        cases[f"eye-{dA}x{dB}"] = (np.eye(dA), rho, (dA, dB))
        cases[f"rhoA-{dA}x{dB}"] = (_marginal_A(rho, dA, dB), rho, (dA, dB))
    M = sample("mixed-hilbert-schmidt", (2, 2), 22)
    WA = np.kron(np.eye(3)[:, :2], np.eye(2))  # M on span(e0, e1) (x) B, dA = 3
    rho = WA @ M @ WA.conj().T
    cases["rankdef-MA"] = (_marginal_A(rho, 3, 2), rho, (3, 2))
    WB = np.kron(np.eye(2), np.eye(3)[:, :2])  # M on A (x) span(e0, e1), dB = 3
    rho = WB @ M @ WB.conj().T
    cases["rankdef-rhoB-eye"] = (np.eye(2), rho, (2, 3))
    cases["rankdef-rhoB-rhoA"] = (_marginal_A(rho, 2, 3), rho, (2, 3))
    return cases


# log2 min Tr Y, the certified upper value of the primal-dual solver.  Each
# case was re-recorded from the log-det barrier's value, which lay above this
# upper value (by 6.1e-12 to 6.2e-11 bits): the barrier's was the worse bound.
PINNED_SDP = {
    "eye-2x3": -0.1056743692215235,
    "rhoA-2x3": 0.8797667718341329,
    "eye-3x2": -0.2330238707443201,
    "rhoA-3x2": 1.265438606277271,
    "rankdef-MA": 1.13778051641921,
    "rankdef-rhoB-eye": 0.11886313937141652,
    "rankdef-rhoB-rhoA": 1.1377805164192105,
}


@pytest.mark.parametrize("name", sorted(PINNED_SDP))
def test_dominating_trace_min_pinned(name):
    M_A, rho, dims = _sdp_cases()[name]
    res = _lone(M_A, rho, dims)
    assert abs(res.value - PINNED_SDP[name]) <= 1e-12
    assert sdp_residual(res, rho, dims, M_A) >= -1e-7
    assert res.gap <= GAP_TOL
    # Iteration count, not time: a solver change that needs many more
    # steps fails here on any machine.
    assert res.steps <= 50


def _check_dual(res, M_A, rho, dims):
    """Z >= 0, Tr_A[(M_A (x) 1) Z] <= 1, and Tr[rho Z] is the lower value."""
    Z = res.dual
    assert np.linalg.eigvalsh(Z).min() >= -1e-12 * np.linalg.eigvalsh(Z).max()
    image = reduced(np.kron(M_A, np.eye(dims[1])) @ Z, dims, 1)
    assert np.linalg.eigvalsh((image + image.conj().T) / 2).max() <= 1.0 + 1e-12
    assert abs(math.log2(np.trace(rho @ Z).real) - res.lower) <= 1e-12
    assert res.lower <= res.value + 1e-14


@pytest.mark.parametrize("name", sorted(PINNED_SDP))
def test_dual_point_is_feasible_and_reproduces_lower_value(name):
    M_A, rho, dims = _sdp_cases()[name]
    _check_dual(_lone(M_A, rho, dims), M_A, rho, dims)


@pytest.fixture(scope="module")
def criterion_08_sdps():
    """I_max and H_min solves on the criterion-08 states of seeds 30000-30039."""
    out = []
    for i in range(40):
        dims = (2, 2) if i % 2 else (2, 3)
        rho = sample("mixed-hilbert-schmidt", dims[0] * dims[1], 30000 + i)
        for M_A in (reduced(rho, dims, 0), np.eye(dims[0])):
            out.append((_lone(M_A, rho, dims), M_A, rho, dims))
    return out


def test_criterion_08_brackets_within_gap_tol(criterion_08_sdps):
    # The log-det barrier's rescaled dual point left 45 of these 80
    # brackets wider than 1e-6; every one must now certify.
    assert len(criterion_08_sdps) == 80
    for res, M_A, rho, dims in criterion_08_sdps:
        assert res.gap <= GAP_TOL
        _check_dual(res, M_A, rho, dims)


def test_criterion_08_mean_iterations(criterion_08_sdps):
    iterations = [res.steps for res, *_ in criterion_08_sdps]
    assert max(iterations) <= 50
    assert sum(iterations) / len(iterations) <= 20


_RESULT_FIELDS = ("value", "lower", "upper", "witness", "dual", "steps")


def _stacked(problems):
    """dominating_trace_min on a stack of (M_A, rho, dims) that share dims."""
    return dominating_trace_min(np.array([M for M, _, _ in problems], dtype=complex),
                                np.array([rho for _, rho, _ in problems]), problems[0][2])


def _assert_same_bits(got, want):
    for field in _RESULT_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_criterion_08_pairs_stacked_match_lone_solves(criterion_08_sdps):
    # Each state's I_max and H_min as one stack of two: every member keeps
    # the bits of its lone solve.
    for k in range(0, len(criterion_08_sdps), 2):
        pair = criterion_08_sdps[k:k + 2]
        stacked = _stacked([(M_A, rho, dims) for _, M_A, rho, dims in pair])
        assert len(stacked) == 2
        for got, (want, *_) in zip(stacked, pair):
            _assert_same_bits(got, want)


def test_mixed_shape_stack_matches_lone_solves():
    # rankdef-MA compresses to (rA, rB) = (2, 2), the full-rank cases to
    # (3, 2): the stack runs one group per shape and returns stack order.
    cases = _sdp_cases()
    problems = [cases[name] for name in ("rhoA-3x2", "rankdef-MA", "eye-3x2")]
    for got, problem in zip(_stacked(problems), problems):
        _assert_same_bits(got, _lone(*problem))


def test_stack_with_an_uncertifiable_member_raises_its_message():
    cases = _edge_cases()
    bad = cases["MA-eig-below-2x3"]
    with pytest.raises(CertificateError) as alone:
        _lone(*bad)
    with pytest.raises(CertificateError) as stacked:
        _stacked([cases["MA-eig-above-2x3"], bad])
    assert str(stacked.value) == str(alone.value)


def test_cholesky_failure_stops_only_its_member(monkeypatch):
    # The victim (M_A = 1000 rho_A, so its X has trace ~1e-3) loses its
    # Cholesky factor from its last iteration on: it stops one iteration
    # early, as it would alone, while the other member of its group runs to
    # its own stop.
    rho = sample("mixed-hilbert-schmidt", (2, 3), 21)
    victim = (1000.0 * _marginal_A(rho, 2, 3), rho, (2, 3))
    other = (np.eye(2), rho, (2, 3))
    free = [_lone(*victim), _lone(*other)]
    seen = []

    def failing(cholesky):
        def factor(a):
            X = a[: len(a) // 2]
            if np.trace(X, axis1=1, axis2=2).real.min() < 0.05:
                seen.append(1)
                if len(seen) >= free[0].steps:
                    raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)
        return factor

    patch_lapack(monkeypatch, "_cholesky", failing)
    alone = _lone(*victim)
    seen.clear()
    stacked = _stacked([victim, other])
    assert alone.steps == free[0].steps - 1 < free[1].steps
    _assert_same_bits(stacked[0], alone)
    _assert_same_bits(stacked[1], free[1])


def _pure(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


def test_exact_values_inside_brackets():
    # Round-off in evaluating Tr Y and Tr[rho Z] is allowed 1e-14 bits.
    def inside(res, value):
        assert res.lower - 1e-14 <= value <= res.upper + 1e-14

    bell = bell_density()
    inside(imax_sdp(bell, (2, 2)), 2.0)
    inside(_lone(np.eye(2), bell, (2, 2)), 1.0)  # H_min = -1
    for seed in range(5):
        a = sample("mixed-hilbert-schmidt", 2, seed)
        b = sample("mixed-hilbert-schmidt", 3, seed + 20)
        inside(imax_sdp(np.kron(a, b), (2, 3)), 0.0)


def _kernel_solve(beta):
    """The convex solver on a QAlphaKernel whose rho has two eigenvalues under
    the kernel's cut, valued as D_beta, and a check that its bracket covers
    the Frank-Wolfe gap and the cut bound at the returned sigma."""
    rng = np.random.default_rng([28, int(4 * beta)])
    U = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    w = rng.random(6) + 0.5
    w[:2] = np.array([0.5, 0.2]) * q_alpha_cut(w)  # under the cut
    rho = (U * (w / w.sum())) @ U.conj().T
    kernel = QAlphaKernel(beta, [(1.0, rho, np.eye(2), False)])

    def value_of(f):
        return math.log2(f) / (beta - 1.0) if f > 0 else -math.inf

    def check(res):
        f, G, _, cut = kernel(res.witness)
        above = cut()
        assert above > 0.0  # the cut drops mass
        fw = frank_wolfe_gap(G, res.witness)
        assert res.lower <= value_of(f - fw) and value_of(f + above) <= res.upper

    return minimize_convex_over_states(kernel, 3, value_of), check


def _nu_n_solve(leaks):
    rho = sample("mixed-hilbert-schmidt", (2, 2), 3)
    sigma = np.diag([1.0, 0.0]) if leaks else sample("mixed-hilbert-schmidt", 2, 4)
    return convexsplit.nu_n(rho, sigma, 3, (2, 2)), None


def _sdp_solve(member):
    rho, dims = sample("mixed-hilbert-schmidt", (2, 3), 29), (2, 3)
    if member == "imax":
        return imax_sdp(rho, dims), None
    stack = dominating_trace_min(np.array([reduced(rho, dims, 0), np.eye(2)]),
                                 np.array([rho, rho]), dims)
    return stack[1], None


BRACKET_CASES = {
    "kernel-beta-2": lambda: _kernel_solve(2.0),
    "nu_n": lambda: _nu_n_solve(False),
    "nu_n-inf": lambda: _nu_n_solve(True),
    "imax_sdp": lambda: _sdp_solve("imax"),
    "h_min-in-stack-of-two": lambda: _sdp_solve("h_min"),
}


@pytest.mark.parametrize("case", sorted(BRACKET_CASES))
def test_certified_bracket_holds_the_value(case):
    # Every certified result brackets its value within GAP_TOL; an exact
    # value (nu_n where rho_RA leaves R (x) supp(sigma)) has gap 0.
    res, check = BRACKET_CASES[case]()
    assert res.lower <= res.value <= res.upper
    assert 0.0 <= res.gap <= GAP_TOL
    if case == "nu_n-inf":
        assert res.value == res.lower == res.upper == math.inf and res.gap == 0.0
    if check is not None:
        check(res)


def _edge_cases():
    rho = sample("mixed-hilbert-schmidt", 6, 5)
    cases = {}
    for tag, f in (("above", 10 * RANK_TOL), ("below", RANK_TOL / 10)):
        # M_A's small eigenvalue relative to its largest: kept above
        # RANK_TOL (D's condition number 1e8), cut below it.
        cases[f"MA-eig-{tag}-2x3"] = (np.diag([1.0, f]), rho, (2, 3))
        cases[f"MA-eig-{tag}-3x2"] = (np.diag([1.0, 0.5, f]), rho, (3, 2))
        # A state whose rho_A has that eigenvalue.
        G = sample("mixed-hilbert-schmidt", 3, 7)
        st = (1 - f) * np.kron(np.diag([1.0, 0.0]), G) + f * np.kron(np.diag([0.0, 1.0]),
                                                                     np.eye(3) / 3)
        cases[f"rhoA-eig-{tag}-imax"] = (reduced(st, (2, 3), 0), st, (2, 3))
    r2 = sample("rank-limited", (2, 2), 9, rank=3)
    WB = np.kron(np.eye(2), np.eye(3)[:, :2])  # rank-2 rho_B with dB = 3
    st = WB @ r2 @ WB.conj().T
    cases["rank2-rhoB-imax"] = (reduced(st, (2, 3), 0), st, (2, 3))
    cases["rank2-rhoB-hmin"] = (np.eye(2), st, (2, 3))
    ent = _pure([math.sqrt(0.7), 0, 0, 0, math.sqrt(0.3), 0])
    cases["pure-entangled-imax"] = (reduced(ent, (2, 3), 0), ent, (2, 3))
    cases["pure-entangled-hmin"] = (np.eye(2), ent, (2, 3))
    prod = _pure(np.kron([0.6, 0.8j], np.array([1, 1, 1j]) / math.sqrt(3)))
    cases["pure-product-imax"] = (reduced(prod, (2, 3), 0), prod, (2, 3))
    cases["pure-product-hmin"] = (np.eye(2), prod, (2, 3))
    for dB in (2, 3):
        st = sample("mixed-hilbert-schmidt", 3 * dB, 40 + dB)
        cases[f"dA3-3x{dB}-imax"] = (reduced(st, (3, dB), 0), st, (3, dB))
        cases[f"dA3-3x{dB}-hmin"] = (np.eye(3), st, (3, dB))
    return cases


# log2 min Tr Y in closed form: Schmidt rank r gives I_max = 2 log2 r, and
# H_min(A|B) = -2 log2 sum_i sqrt(lambda_i) for a pure state.
EDGE_EXACT = {
    "pure-entangled-imax": 2.0,
    "pure-entangled-hmin": 2 * math.log2(math.sqrt(0.7) + math.sqrt(0.3)),
    "pure-product-imax": 0.0,
    "pure-product-hmin": 0.0,
}


@pytest.mark.parametrize("name", sorted(_edge_cases()))
def test_edge_cases_certify_or_refuse(name):
    # The solver returns a certified bracket or raises, and so do the
    # package's readers of it.
    M_A, rho, dims = _edge_cases()[name]
    reader = {"imax": imax_sdp,
              "hmin": infomeasures.h_min_conditional}.get(name.rsplit("-", 1)[1])
    try:
        res = _lone(M_A, rho, dims)
    except CertificateError as exc:
        assert "not certified" in str(exc)
        assert name not in EDGE_EXACT
        if reader is not None:
            with pytest.raises(CertificateError):
                reader(rho, dims)
        return
    # rho has weight on the cut direction of M_A: infeasible, refused.
    assert name != "MA-eig-below-2x3"
    assert res.gap <= GAP_TOL and sdp_residual(res, rho, dims, M_A) >= -1e-7
    _check_dual(res, M_A, rho, dims)
    if name in EDGE_EXACT:
        assert res.lower - 1e-12 <= EDGE_EXACT[name] <= res.upper + 1e-12
    if reader is not None:
        reader(rho, dims)


def _product(K, sigma, sigma_first):
    return np.kron(sigma, K) if sigma_first else np.kron(K, sigma)


def _refused(alpha, terms) -> bool:
    """Whether alpha <= 1, outside the kernel's one regime, after checking
    that the kernel refuses ``terms`` at that order."""
    if alpha > 1:
        return False
    with pytest.raises(ContractViolation, match="alpha > 1"):
        QAlphaKernel(alpha, terms)
    return True


def _q_alpha_grad(rho, K, sigma, alpha, sigma_first=False):
    """Q_alpha(rho || K (x) sigma) (or sigma (x) K) and its gradient in sigma."""
    return QAlphaKernel(alpha, [(1.0, rho, K, sigma_first)])(sigma)[:2]


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("sigma_first", [False, True])
def test_q_alpha_grad_matches_central_differences(alpha, sigma_first):
    rng = np.random.default_rng(3)
    for dK, dS in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        rho = sample("mixed-hilbert-schmidt", dK * dS, 5)
        K = sample("mixed-hilbert-schmidt", dK, 6)
        sigma = sample("mixed-hilbert-schmidt", dS, 7)
        if _refused(alpha, [(1.0, rho, K, sigma_first)]):
            continue
        value, grad = _q_alpha_grad(rho, K, sigma, alpha, sigma_first)
        assert abs(value - q_alpha(rho, _product(K, sigma, sigma_first), alpha)) \
            <= 1e-12 * max(1.0, value)
        for _ in range(3):
            H = rng.standard_normal((dS, dS)) + 1j * rng.standard_normal((dS, dS))
            H = (H + H.conj().T) / 2
            h = 1e-6
            fd = (q_alpha(rho, _product(K, sigma + h * H, sigma_first), alpha)
                  - q_alpha(rho, _product(K, sigma - h * H, sigma_first), alpha)) / (2 * h)
            exact = float(np.trace(grad @ H).real)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (dK, dS)


@pytest.mark.parametrize("lam", [1e-6, 1e-8])
@pytest.mark.parametrize("alpha", [0.75, 1.5, 2.0])
def test_q_alpha_grad_closed_form_near_support_cut(lam, alpha):
    # rho = rho_A (x) diag(b), sigma = diag(s): Q = Tr rho_A^alpha sum_j
    # b_j^alpha s_j^(1-alpha), so G_jj = (1-alpha) Tr rho_A^alpha (b_j/s_j)^alpha.
    # X's eigenvalue along b_3 = lam falls below the cut of X's spectrum at
    # lam = 1e-8, but it is one of rho's rank(rho) eigenvalues, so Q and G
    # both keep it.
    rho_A = np.diag([0.75, 0.25])
    tr = 0.75**alpha + 0.25**alpha
    b = np.array([0.7, 0.3 - lam, lam])
    if _refused(alpha, [(1.0, np.kron(rho_A, np.diag(b)), np.eye(2), False)]):
        return
    for s in (b, np.array([0.5, 0.5 - lam, lam])):
        Q, G = _q_alpha_grad(np.kron(rho_A, np.diag(b)), np.eye(2), np.diag(s), alpha)
        want_q = tr * np.sum(b**alpha * s ** (1 - alpha))
        want_g = (1 - alpha) * tr * (b / s) ** alpha
        assert abs(Q - want_q) <= 1e-8 * want_q
        assert np.all(np.abs(np.diag(G) - want_g) <= 1e-8 * np.abs(want_g))
        assert np.abs(G - np.diag(np.diag(G))).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.75, 2.0])
def test_frank_wolfe_gap_bounds_suboptimality(alpha):
    # f = Q_alpha(rho || 1 (x) sigma) is convex; at a deliberately poor
    # sigma the gap must cover f(sigma) - f*.  At 0.75, where Q is concave,
    # the kernel refuses -Q.
    rho = sample("mixed-hilbert-schmidt", (2, 3), 8)
    terms = [(1.0 if alpha > 1 else -1.0, rho, np.eye(2), False)]
    if _refused(alpha, terms):
        return
    kernel = QAlphaKernel(alpha, terms)
    best = minimize_convex_over_states(kernel, 3)
    assert best.gap <= 1e-9
    for seed in range(5):
        poor = sample("rank-limited", 3, 40 + seed, rank=3)
        poor = 0.9 * poor + 0.1 * np.diag([1.0, 0.0, 0.0])
        f, grad, _, _ = kernel(poor)
        excess = f - best.value
        assert excess > 1e-4
        assert excess <= frank_wolfe_gap(grad, poor) + 1e-12


def test_convex_solver_raises_when_gap_stays_open():
    # A gradient that disagrees with f never closes the gap: no value.
    def inconsistent(s):
        return 0.0, np.diag([1.0, 0.0]).astype(complex), lambda: np.zeros((3, 3)), lambda: 0.0

    with pytest.raises(CertificateError, match="Frank-Wolfe gap"):
        minimize_convex_over_states(inconsistent, 2)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("sigma_first", [False, True])
@pytest.mark.parametrize("at", ["maximally-mixed", "near-degenerate"])
def test_q_alpha_hessian_matches_central_differences(alpha, sigma_first, at):
    # The exact Hessian against central differences of the exact gradient,
    # h = 1e-5: agreement to the differencing error, ~1e-9 relative.  I/d is
    # fully degenerate, so every second divided difference takes a
    # coincident branch; the near-degenerate sigma splits I/d by 1e-7.
    for dK, dS in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        rho = sample("mixed-hilbert-schmidt", dK * dS, 5)
        K = sample("mixed-hilbert-schmidt", dK, 6)
        if _refused(alpha, [(1.0, rho, K, sigma_first)]):
            continue
        kernel = QAlphaKernel(alpha, [(1.0, rho, K, sigma_first)])
        sigma = np.eye(dS, dtype=complex) / dS
        if at == "near-degenerate":
            sigma = sigma + np.diag(1e-7 * (np.arange(dS) - (dS - 1) / 2))
        E = _traceless_basis(dS)
        H = kernel(sigma)[2]()
        h = 1e-5
        fd = np.array([np.einsum("kij,ji->k", E, kernel(sigma + h * El)[1]
                                 - kernel(sigma - h * El)[1]).real / (2 * h) for El in E]).T
        assert np.abs(H - fd).max() <= 1e-7 * max(1.0, np.abs(H).max()), (dK, dS)
        singular = np.diag([1.0] + [0.0] * (dS - 1))
        with pytest.raises(ContractViolation):
            kernel(singular)


@pytest.mark.parametrize("dK,dS", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("alpha", [0.6, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("sigma_first", [False, True])
def test_q_alpha_grad_stack_equals_single_calls(dK, dS, alpha, sigma_first):
    # One kernel called on a stack of states, one state per call, returns
    # (f, G, H) bit for bit as a fresh kernel built for each state, in either
    # call order, H built by the call's hessian() after later calls; a
    # singular state raises and leaves later calls unchanged.
    rho = sample("mixed-hilbert-schmidt", dK * dS, 5)
    K = sample("mixed-hilbert-schmidt", dK, 6)
    stack = np.array([sample("mixed-hilbert-schmidt", dS, 10 + i) for i in range(5)])
    terms = [(1.0, rho, K, sigma_first)]
    if _refused(alpha, terms):
        return
    kernel = QAlphaKernel(alpha, terms)
    reused = [kernel(sigma) for sigma in stack]
    backwards = [kernel(sigma) for sigma in stack[::-1]][::-1]
    reused, backwards = ([(f, g, hessian()) for f, g, hessian, _ in calls]
                         for calls in (reused, backwards))
    for sigma, got, again in zip(stack, reused, backwards):
        q, g, hessian, _ = QAlphaKernel(alpha, terms)(sigma)
        h = hessian()
        assert type(q) is float and g.shape == (dS, dS) and h.shape == (dS * dS - 1,) * 2
        assert abs(q - q_alpha(rho, _product(K, sigma, sigma_first), alpha)) <= 1e-12 * max(1.0, q)
        for result in (got, again):
            assert q == result[0] and np.array_equal(g, result[1]) and np.array_equal(h, result[2])
    with pytest.raises(ContractViolation):
        kernel(np.diag([1.0] + [0.0] * (dS - 1)))
    after = kernel(stack[3])
    assert after[0] == reused[3][0] and np.array_equal(after[1], reused[3][1]) \
        and np.array_equal(after[2](), reused[3][2])


def test_q_alpha_kernel_sums_its_terms():
    # One call on several terms is the weighted sum of one-term calls, for
    # f, G and H alike, with K (x) sigma and sigma (x) K mixed.
    rho_R = sample("mixed-hilbert-schmidt", 2, 3)
    rho_RA = sample("mixed-hilbert-schmidt", (2, 2), 4)
    K = sample("mixed-hilbert-schmidt", 2, 6)
    terms = [(0.75, rho_R, np.ones((1, 1)), False), (0.25, rho_RA, K, True),
             (0.5, rho_RA, K, False)]
    sigma = sample("mixed-hilbert-schmidt", 2, 7)
    f, G, hessian, _ = QAlphaKernel(2.0, terms)(sigma)
    H = hessian()
    parts = [(f, G, hessian()) for f, G, hessian, _ in
             (QAlphaKernel(2.0, [(1.0,) + t[1:]])(sigma) for t in terms)]
    for got, want in zip((f, G, H), zip(*parts)):
        total = sum(t[0] * w for t, w in zip(terms, want))
        assert np.abs(got - total).max() <= 1e-13 * max(1.0, np.abs(total).max())


@pytest.mark.parametrize("alpha,c", [(1.0, 1.0), (0.75, 1.0), (0.5, -1.0), (math.nan, 1.0),
                                     (2.0, 0.0), (2.0, -0.5), (2.0, math.nan)])
def test_q_alpha_kernel_refuses_orders_and_weights(alpha, c):
    # One convex regime: alpha > 1 and every weight positive, NaN refused.
    terms = [(0.5, sample("mixed-hilbert-schmidt", 2, 3), np.ones((1, 1)), False),
             (c, sample("mixed-hilbert-schmidt", 2, 4), np.ones((1, 1)), False)]
    with pytest.raises(ContractViolation, match="alpha > 1 and positive weights"):
        QAlphaKernel(alpha, terms)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("sigma_first", [False, True])
def test_cut_bound_brackets_the_uncut_value(alpha, sigma_first):
    # rho with eigenvalues at 0.5 and 0.2 of the kernel's round-off cut: the
    # kernel drops them, and f_full (q_alpha on the whole rho) lies in
    # [f, f + cut()].  With nothing cut the bound is zero.  What the cut
    # drops, ~(64 eps)^alpha, lies below the round-off between the kernel
    # and q_alpha, so the bracket holds to that round-off: on these states,
    # with the two eigenvalues raised 1e6-fold so that nothing is cut, the
    # two already differ by up to 5.5e3 eps of f (alpha = 4, f ~ 3e7), and
    # the slack is 1e-11 of f.
    if _refused(alpha, [(1.0, sample("mixed-hilbert-schmidt", 4, 5), np.eye(2), False)]):
        return
    rng = np.random.default_rng([31, sigma_first])
    for dK, dS in [(1, 3), (2, 2), (2, 3)]:
        U = np.linalg.qr(rng.standard_normal((dK * dS,) * 2)
                         + 1j * rng.standard_normal((dK * dS,) * 2))[0]
        w = rng.random(dK * dS) + 0.5
        w[:2] = np.array([0.5, 0.2]) * q_alpha_cut(w)
        rho = (U * (w / w.sum())) @ U.conj().T
        K = sample("mixed-hilbert-schmidt", dK, 6)
        for seed in range(3):
            sigma = sample("mixed-hilbert-schmidt", dS, 50 + seed)
            kernel = QAlphaKernel(alpha, [(1.0, rho, K, sigma_first)])
            f, _, _, cut = kernel(sigma)
            above = cut()
            full = q_alpha(rho, _product(K, sigma, sigma_first), alpha)
            slack = 1e-11 * max(1.0, abs(f))
            assert f - slack <= full <= f + above + slack, (dK, dS, f, full)
            assert 0.0 < above
    kernel = QAlphaKernel(alpha, [(1.0, sample("mixed-hilbert-schmidt", 4, 5), np.eye(2), False)])
    assert kernel(np.eye(2) / 2)[3]() == 0.0


class _Counting:
    """A kernel that counts its calls, each on one state, and the Hessians
    the solver asks of them."""

    def __init__(self, kernel, dim):
        self.kernel, self.dim, self.calls, self.hessians = kernel, dim, 0, 0

    def __call__(self, sigma):
        assert sigma.shape == (self.dim, self.dim)
        self.calls += 1
        f, G, hessian, cut = self.kernel(sigma)

        def counted():
            self.hessians += 1
            return hessian()

        return f, G, counted, cut


def _counted(monkeypatch, module):
    """Record (Newton steps, kernel calls, Hessians, report) of every convex solve."""
    solves = []

    def counting(kernel, dim, value_of=None, start=None):
        fun = _Counting(kernel, dim)
        rep = minimize_convex_over_states(fun, dim, value_of, start)
        solves.append((rep.steps, fun.calls, fun.hessians, rep))
        return rep

    monkeypatch.setattr(module, "minimize_convex_over_states", counting)
    return solves


def _check_counts(solves, n_solves):
    # Only an iterate that takes a Newton step builds its Hessian.
    assert len(solves) == n_solves
    for steps, calls, hessians, rep in solves:
        assert steps <= 10 and calls <= 12, (steps, calls)
        assert hessians == steps, (hessians, steps)
        assert rep.gap <= GAP_TOL


def test_newton_counts_on_criterion_08_states(monkeypatch):
    # A count, not a timing: every H_up solve of criterion 08's first 40
    # states at its three betas.
    solves = _counted(monkeypatch, infomeasures)
    for i in range(40):
        dims = (2, 2) if i % 2 else (2, 3)
        rho = sample("mixed-hilbert-schmidt", dims[0] * dims[1], 30000 + i)
        for beta in [1.5, 2.0, 4.0]:
            infomeasures.conditional_renyi_up(rho, beta, dims)
    _check_counts(solves, 120)


def test_newton_counts_on_convex_split_suite(monkeypatch, tmp_path, capsys):
    # The nu_n solves of `verify-convex-split --dims 2x2 --n-max 9
    # --samples 9 --seed 5000`.
    solves = _counted(monkeypatch, convexsplit)
    assert cli.main(["verify-convex-split", "--dims", "2x2", "--n-max", "9", "--samples", "9",
                     "--seed", "5000", "--out", str(tmp_path / "cs.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["pass_rate"] == 1.0
    _check_counts(solves, 9)


def test_mutual_info_alpha_one_stacked_call_per_point(monkeypatch):
    # A count, not a timing: the 16 runs of the descent advance in lockstep,
    # each objective call a stack of 1 + 2 d^2 states for each of the k runs
    # that asked for a point, and the k add up to the points the per-start
    # scipy loop evaluates.  scipy never differences.
    def refuse(*args, **kwargs):
        raise AssertionError("scipy was left to difference the objective")

    asked, oracle_nfev = [], []

    def counting(objective, dim, **kwargs):
        oracle_nfev.extend(multistart_oracle(objective, dim, **kwargs)[2])
        n = 1 + 2 * dim * dim

        def stacked(stack):
            assert stack.shape[1:] == (dim, dim) and len(stack) % n == 0
            asked.append(len(stack) // n)
            return objective(stack)

        with monkeypatch.context() as m:
            m.setattr(scipy.optimize._numdiff, "approx_derivative", refuse)
            m.setattr(scipy.optimize._differentiable_functions, "approx_derivative", refuse)
            return minimize_over_states(stacked, dim, **kwargs)

    monkeypatch.setattr(infomeasures, "minimize_over_states", counting)
    psi = sample("pure-haar", 8, 6)
    rho_RB = np.einsum("iab,jad->ibjd", psi.reshape(2, 2, 2),
                       psi.reshape(2, 2, 2).conj()).reshape(4, 4)
    for rho, dims in [(rho_RB, (2, 2)), (sample("mixed-hilbert-schmidt", 6, 7), (2, 3))]:
        asked.clear()
        oracle_nfev.clear()
        infomeasures.mutual_info_alpha(rho, 2.0, dims)
        assert asked[0] == len(oracle_nfev) == 16
        assert sum(asked) == sum(oracle_nfev)
        assert len(asked) < sum(asked) / 4


def test_boundary_minimizer_at_half_refused():
    # beta = 1/2 lies outside the orders H_up takes (beta >= 1): refused as
    # bad input on this state, whose minimizer there sits on the boundary of
    # D(B), before any solve.
    rho = sample("rank-limited", 6, 101, rank=3)
    with pytest.raises(ContractViolation, match="beta must be >= 1"):
        infomeasures.conditional_renyi_up(rho, 0.5, (2, 3))


def _newton_leaves_cone(p, beta):
    """Whether the first Newton step from I/d leaves the cone for rho_B = diag(p).

    For a product rho_A (x) diag(p), f = c sum_i p_i^beta x_i^(1-beta) on
    diagonal sigma = diag(x), and the off-diagonal directions decouple, so
    the tangent-space Newton step is the diagonal one with sum dx = 0.
    """
    x = np.full(len(p), 1.0 / len(p))
    g = (1 - beta) * p**beta * x**-beta
    h = beta * (beta - 1) * p**beta * x ** (-beta - 1)
    nu = np.sum(g / h) / np.sum(1 / h)
    return bool(np.min(x - (g - nu) / h) < 0)


@pytest.mark.parametrize("beta", [0.75, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("dB,rotated", [(2, False), (3, False), (3, True)])
def test_near_boundary_minimizers_certify_or_refuse(beta, dB, rotated):
    # rho_A (x) rho_B with lambda_min(rho_B) = 10 RANK_TOL: the minimizer is
    # sigma = rho_B, and H_up_beta(A|B) = H_beta(A).  At dB = 3 and beta < 2
    # the first Newton step from I/d leaves the positive cone.  Either the
    # solver certifies the exact value or it raises.
    p = np.array([0.7, 0.3 - 10 * RANK_TOL, 10 * RANK_TOL])
    if dB == 2:
        p = np.array([1 - 10 * RANK_TOL, 10 * RANK_TOL])
    else:
        assert _newton_leaves_cone(p, beta) == (beta < 2)
    U = np.eye(dB)
    if rotated:
        rng = np.random.default_rng(1)
        U = np.linalg.qr(rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB)))[0]
    rho_A = sample("mixed-hilbert-schmidt", 2, 4)
    rho = np.kron(rho_A, U @ np.diag(p) @ U.conj().T)
    if beta < 1:  # no longer an order of H_up: refused before any solve
        with pytest.raises(ContractViolation, match="beta must be >= 1"):
            infomeasures.conditional_renyi_up(rho, beta, (2, dB))
        return
    try:
        value = infomeasures.conditional_renyi_up(rho, beta, (2, dB))
    except CertificateError:
        return
    assert abs(value - infomeasures.renyi_entropy(rho_A, beta)) <= 1e-9


@pytest.mark.parametrize("beta", [0.75, 1.5, 2.0])
def test_rho_b_at_the_cut_certifies_or_refuses(beta):
    # rho_A (x) diag(1 - RANK_TOL, RANK_TOL): rho_B's small direction survives
    # the compression onto supp rho_B, while rho's eigenvalues along it fall
    # on or below rho's own cut.  What the kernel drops there is inside its
    # certificate, so the solve meets H_beta(A) or raises.
    rho_A = sample("mixed-hilbert-schmidt", 2, 4)
    rho = np.kron(rho_A, np.diag([1 - RANK_TOL, RANK_TOL]))
    if beta < 1:  # no longer an order of H_up: refused before any solve
        with pytest.raises(ContractViolation, match="beta must be >= 1"):
            infomeasures.conditional_renyi_up(rho, beta, (2, 2))
        return
    try:
        value = infomeasures.conditional_renyi_up(rho, beta, (2, 2))
    except CertificateError:
        return
    assert abs(value - infomeasures.renyi_entropy(rho_A, beta)) <= 1e-9


@pytest.mark.parametrize("beta", [0.5, 0.75])
def test_minimizer_near_the_boundary_certifies(beta):
    # sigma* = diag(0.7, 0.3 - 1e-6, 1e-6), the Petz start of this product
    # state.  Orders below 1 are refused before any solve; at the orders
    # 1/beta the solve from the Petz start certifies H_beta(A).
    rho_A = sample("mixed-hilbert-schmidt", 2, 4)
    rho = np.kron(rho_A, np.diag([0.7, 0.3 - 1e-6, 1e-6]))
    with pytest.raises(ContractViolation, match="beta must be >= 1"):
        infomeasures.conditional_renyi_up(rho, beta, (2, 3))
    value = infomeasures.conditional_renyi_up(rho, 1 / beta, (2, 3))
    assert abs(value - infomeasures.renyi_entropy(rho_A, 1 / beta)) <= 1e-9


def test_final_cut_bound_makes_no_eigh_call(monkeypatch):
    # A call's cut() works from that call's own sigma eigenpairs and Y: it
    # makes no _eigh call, and it gives the bits of a fresh kernel's call,
    # however many calls on other states came between.
    rng = np.random.default_rng(32)
    U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    w = rng.random(4) + 0.5
    w[:1] = 0.5 * q_alpha_cut(w)
    rho = (U * (w / w.sum())) @ U.conj().T
    terms = [(1.0, rho, sample("mixed-hilbert-schmidt", 2, 6), False)]
    sigma, other = (sample("mixed-hilbert-schmidt", 2, s) for s in (51, 52))
    fresh = QAlphaKernel(2.0, terms)(sigma)[3]()
    kernel = QAlphaKernel(2.0, terms)
    cut = kernel(sigma)[3]
    kernel(other)
    calls = []
    patch_lapack(monkeypatch, "_eigh",
                 lambda inner: lambda *a, **k: calls.append(1) or inner(*a, **k))
    assert cut() == fresh and fresh > 0.0
    assert calls == []
