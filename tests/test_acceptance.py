"""Acceptance gate: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every criterion states its tolerance inline; sampled checks print
the worst observed violation alongside the verdict.
"""

import math

import numpy as np
import scipy.optimize

from csl import cli, convexsplit, divergences, protocols, smoothing
from csl.infomeasures import f_alpha_beta
from csl.matcore import fidelity, sample
from csl.optim import imax_sdp
from helpers import binary_entropy, random_unitary, sdp_residual


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{tail}")
    assert ok, f"criterion {num} {name} failed{tail}"


def random_instance(i, with_omega_choice=True):
    dR = 2 + (i // 2) % 2
    dA = 2 + (i // 4) % 2
    n = 1 + i % 5
    s = 90000 + 13 * i
    rho = sample("rank-limited", (dR, dA), s, rank=1 + i % (dR * dA))
    sigma = sample("mixed-hilbert-schmidt", dA, s + 1)
    dRm = np.trace(rho.reshape(dR, dA, dR, dA), axis1=1, axis2=3)
    if with_omega_choice and i % 2:
        omega = sample("mixed-hilbert-schmidt", dR, s + 2)
    else:
        omega = dRm
    weights = None
    if i % 3 == 0 and n > 1:
        w = np.random.default_rng(s + 3).random(n)
        weights = w / w.sum()
    return convexsplit.ConvexSplitInstance(rho, sigma, omega, n, (dR, dA),
                                           weights)


def test_criterion_01_split_equality():
    # Relative residual <= 1e-10 on >= 1000 random instances, dims {2,3},
    # n in 1..5, mixed ranks, both pinned and random omega, both weightings.
    worst = 0.0
    for i in range(1000):
        rep = convexsplit.split_equality_check(random_instance(i))
        worst = max(worst, rep.residual)
    report(1, "split-equality-1000", worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_02_closed_instance():
    # Maximally entangled pair with sigma = omega = I/2: Q_2 = 1 + 3/n.
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    bell = np.outer(v, v.conj())
    worst = 0.0
    for n in range(1, 5):
        inst = convexsplit.ConvexSplitInstance(bell, np.eye(2) / 2,
                                               np.eye(2) / 2, n, (2, 2))
        rep = convexsplit.split_equality_check(inst)
        worst = max(worst, abs(rep.q2_lhs - (1.0 + 3.0 / n)))
    report(2, "closed-instance-value", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_criterion_03_corollary_bounds():
    # P^2 <= 1 - 1/nu_n <= mu/(mu+n) + 1e-7; log-form and trace-form bounds
    # hold with slack >= -1e-8 on every sampled instance.
    ok = True
    worst = -math.inf
    for i in range(30):
        inst = random_instance(i, with_omega_choice=False)
        n = inst.n
        rep = convexsplit.bounds_report(inst.rho_RA, inst.sigma_A, n, inst.dims)
        p2 = rep.bounds["split9"][0]
        ordering = (p2 <= 1.0 - 1.0 / rep.nu_n + 1e-7
                    and 1.0 - 1.0 / rep.nu_n <= rep.mu / (rep.mu + n) + 1e-7)
        slacks = [rhs - lhs for lhs, rhs in rep.bounds.values()
                  if math.isfinite(rhs)]
        ok = ok and ordering and all(s >= -1e-8 for s in slacks)
        worst = max(worst, max(-s for s in slacks))
    report(3, "corollary-bounds", ok, f"worst slack violation {worst:.2e}")


def test_criterion_04_collision_distance_bounds():
    # D_2 >= log2(1 + 4T^2) and D_2 >= -log2(1 - P^2) on 10^4 pairs with
    # slack >= -1e-9; classical minimization reaches log2(1+eps^2) within
    # 1e-4; direct-sum residual <= 1e-10.
    from csl.matcore import purified_distance, trace_distance

    worst = math.inf
    rng = np.random.default_rng(42)
    for i in range(10000):
        d = 2 + i % 3
        rho = sample("mixed-hilbert-schmidt", d, 50000 + i)
        sig = sample("mixed-hilbert-schmidt", d, 60000 + i)
        D2 = divergences.d2(rho, sig)
        T = trace_distance(rho, sig)
        P = purified_distance(rho, sig)
        worst = min(worst,
                    D2 - math.log2(1.0 + 4 * T * T),
                    D2 + math.log2(1.0 - P * P))
    ok = worst >= -1e-9

    # Tightness: minimize D_2 over simplex pairs with l1 distance >= eps.
    tight_ok = True
    for eps in [0.25, 0.5, 1.0]:
        target = math.log2(1.0 + eps * eps)
        for d in [2, 3, 4]:
            best = math.inf
            starts = [np.concatenate([
                np.r_[0.5 + eps / 2, 0.5 - eps / 2, np.zeros(d - 2)],
                np.r_[0.5, 0.5, np.zeros(d - 2)]])]
            for _ in range(4):
                x = rng.random(2 * d)
                starts.append(x)

            def f(x):
                p = np.clip(x[:d], 1e-12, None)
                q = np.clip(x[d:], 1e-12, None)
                p, q = p / p.sum(), q / q.sum()
                return divergences.d2(np.diag(p), np.diag(q))

            cons = [{"type": "ineq", "fun": lambda x: (
                np.abs(x[:d] / x[:d].sum() - x[d:] / x[d:].sum()).sum() - eps)}]
            for x0 in starts:
                res = scipy.optimize.minimize(
                    f, x0, method="SLSQP", bounds=[(1e-9, 1.0)] * 2 * d,
                    constraints=cons, options={"maxiter": 200, "ftol": 1e-12})
                if res.success or math.isfinite(res.fun):
                    p = np.clip(res.x[:d], 1e-12, None)
                    q = np.clip(res.x[d:], 1e-12, None)
                    p, q = p / p.sum(), q / q.sum()
                    if np.abs(p - q).sum() >= eps - 1e-9:
                        best = min(best, f(res.x))
            tight_ok = tight_ok and abs(best - target) <= 1e-4

    # Direct sum: Q_2 of a block pair equals the weighted sum of block values.
    ds_worst = 0.0
    for i in range(20):
        r1 = sample("mixed-hilbert-schmidt", 2, 70000 + i)
        s1 = sample("mixed-hilbert-schmidt", 2, 71000 + i)
        r2 = sample("mixed-hilbert-schmidt", 3, 72000 + i)
        s2 = sample("mixed-hilbert-schmidt", 3, 73000 + i)
        p = rng.uniform(0.2, 0.8)
        Z23, Z32 = np.zeros((2, 3)), np.zeros((3, 2))
        R = np.block([[p * r1, Z23], [Z32, (1 - p) * r2]])
        S = np.block([[p * s1, Z23], [Z32, (1 - p) * s2]])
        for a in [0.5, 2.0]:
            direct = divergences.q_alpha(R, S, a)
            blocks = (p * divergences.q_alpha(r1, s1, a)
                      + (1 - p) * divergences.q_alpha(r2, s2, a))
            ds_worst = max(ds_worst, abs(direct - blocks) / max(1.0, direct))
    ds_ok = ds_worst <= 1e-10
    report(4, "collision-vs-distance", ok and tight_ok and ds_ok,
           f"worst slack {worst:.2e}, direct-sum residual {ds_worst:.2e}")


def test_criterion_05_hypothesis_testing():
    # Commuting pairs match the classical greedy solution within 1e-9;
    # alpha-lower and beta-upper divergence bounds hold on 500 pairs.
    rng = np.random.default_rng(5)

    def classical_oracle(p, q, eps):
        order = np.argsort(-(p / np.maximum(q, 1e-300)))
        need, cost = 1.0 - eps, 0.0
        for j in order:
            if need <= 0:
                break
            take = min(p[j], need)
            if p[j] > 0:
                cost += take / p[j] * q[j]
            need -= take
        return -math.log2(cost)

    worst_cl = 0.0
    for i in range(50):
        d = 2 + i % 3
        p = rng.random(d)
        p /= p.sum()
        q = rng.random(d)
        q /= q.sum()
        for eps in [0.1, 0.3]:
            got = divergences.d_min_eps(np.diag(p), np.diag(q), eps)
            worst_cl = max(worst_cl, abs(got - classical_oracle(p, q, eps)))
    cl_ok = worst_cl <= 1e-9

    worst_b = math.inf
    for i in range(500):
        d = 2 + i % 2
        rho = sample("mixed-hilbert-schmidt", d, 80000 + i)
        sig = sample("mixed-hilbert-schmidt", d, 81000 + i)
        for eps in [0.05, 0.2, 0.5]:
            dh = divergences.d_min_eps(rho, sig, eps)
            for alpha in [0.3, 0.6, 0.9]:
                lower = divergences.d_alpha(rho, sig, alpha) + (
                    alpha / (1.0 - alpha)) * (
                    binary_entropy(alpha) / alpha
                    - math.log2(1.0 / eps))
                worst_b = min(worst_b, dh - lower)
            for beta in [1.5, 2.0, 4.0]:
                upper = divergences.d_alpha(rho, sig, beta) + (
                    beta / (beta - 1.0)) * math.log2(1.0 / (1.0 - eps))
                worst_b = min(worst_b, upper - dh)
    b_ok = worst_b >= -1e-8
    report(5, "hypothesis-testing-divergence", cl_ok and b_ok,
           f"classical gap {worst_cl:.2e}, bound slack {worst_b:.2e}")


def test_criterion_06_splitting_protocol():
    # Flagship: n = 9, cost log2(9)/2 ~ 1.585 <= 2 bits, distance <= 0.5.
    # 50 random two-qubit instances: achieved <= sqrt(mu/(mu+n)) + 1e-7.
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    res = protocols.qss_simulate(
        protocols.QSSInstance(v, (2, 1, 2), eps=0.6, delta=0.5))
    flag_ok = (res.n == 9 and abs(res.cost_bits - 0.5 * math.log2(9)) < 1e-9
               and res.cost_bits <= 2.0 and res.achieved_distance <= 0.5 + 1e-7)

    rng = np.random.default_rng(6)
    worst = -math.inf
    all_ok = True
    for i in range(50):
        delta = 0.4 if i % 2 else 0.6
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w /= np.linalg.norm(w)
        inst = protocols.QSSInstance(w, (2, 1, 2), eps=min(2 * delta, 0.9),
                                     delta=delta)
        r = protocols.qss_simulate(inst)
        bound = math.sqrt(r.mu / (r.mu + r.n))
        worst = max(worst, r.achieved_distance - bound)
        all_ok = all_ok and r.achieved_distance <= bound + 1e-7
    report(6, "splitting-protocol", flag_ok and all_ok,
           f"worst distance excess {worst:.2e}")


def test_criterion_07_purification_alignment():
    # Overlap equals marginal fidelity within 1e-8 on 500 pairs; 200 sampled
    # isometries never beat it by more than 1e-8.
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(500):
        ds, dl = 2 + i % 2, 3 + i % 2
        s = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
        t = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
        s /= np.linalg.norm(s)
        t /= np.linalg.norm(t)
        V = protocols.uhlmann_isometry(t, s, ds)
        Sm, Tm = s.reshape(ds, dl), t.reshape(ds, dl)
        overlap = abs(np.vdot(t, (Sm @ V.T).reshape(-1)))
        F = fidelity(Sm @ Sm.conj().T, Tm @ Tm.conj().T)
        worst = max(worst, abs(overlap - F))
    eq_ok = worst <= 1e-8

    beat_ok = True
    ds, dl = 2, 3
    s = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
    t = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
    s /= np.linalg.norm(s)
    t /= np.linalg.norm(t)
    V = protocols.uhlmann_isometry(t, s, ds)
    Sm = s.reshape(ds, dl)
    best = abs(np.vdot(t, (Sm @ V.T).reshape(-1)))
    for _ in range(200):
        U = random_unitary(dl, rng)
        beat_ok = beat_ok and abs(np.vdot(t, (Sm @ U.T).reshape(-1))) <= best + 1e-8
    report(7, "purification-alignment", eq_ok and beat_ok,
           f"worst overlap gap {worst:.2e}")


def test_criterion_08_universal_bound_chain():
    # 200 random states (2x2 and 2x3), full parameter grid, all chain steps
    # pass and the final certification holds on 100% of instances.  The
    # check is one-sided: a failure would flag this implementation, never
    # the bound itself.
    passed, total = 0, 0
    for i in range(200):
        dims = (2, 2) if i % 2 else (2, 3)
        rho = sample("mixed-hilbert-schmidt", dims[0] * dims[1], 30000 + i)
        cache = {}
        for alpha in [0.3, 0.5, 0.9]:
            for beta in [1.5, 2.0, 4.0]:
                for eps in [0.05, 0.1, 0.3]:
                    rep = smoothing.uab_chain_verify(rho, dims, alpha, beta,
                                                     eps, cache=cache)
                    total += 1
                    passed += rep.passed
    report(8, "universal-bound-chain", passed == total,
           f"{passed}/{total} grid points certified")


def test_criterion_09_imax_solver():
    # Exact values: product -> 0, maximally entangled -> 2, classical
    # correlated bit -> 1, each within 1e-6 with certificate residual >= -1e-7.
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    bell = np.outer(v, v.conj())
    prod = np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7]))
    cbit = np.diag([0.5, 0.0, 0.0, 0.5])
    ok = True
    worst = 0.0
    for state, target in [(prod, 0.0), (bell, 2.0), (cbit, 1.0)]:
        res = imax_sdp(state, (2, 2))
        worst = max(worst, abs(res.value - target))
        ok = ok and abs(res.value - target) <= 1e-6 and sdp_residual(res, state, (2, 2)) >= -1e-7
    report(9, "imax-solver-exact-values", ok, f"worst value gap {worst:.2e}")


def test_criterion_10_simulation_rate():
    # delta_n against independent arithmetic at 10 grid points; the qubit
    # identity channel rates 2 bits within 5e-3 along (alpha,beta) -> (1,1).
    c = 2.0 - math.sqrt(3.0)
    worst = 0.0
    grid = [(2, 0.5, 2.0, 0.1, 10), (2, 0.3, 1.5, 0.2, 5),
            (2, 0.9, 4.0, 0.05, 50), (3, 0.5, 2.0, 0.1, 10),
            (3, 0.7, 3.0, 0.3, 7), (2, 0.6, 2.5, 0.15, 100),
            (4, 0.4, 1.8, 0.25, 12), (2, 0.5, 2.0, 0.1, 1),
            (3, 0.2, 5.0, 0.4, 30), (2, 0.8, 1.2, 0.05, 1000)]
    for d, alpha, beta, eps, n in grid:
        k = d * d - 1
        eps_n = eps / (2.0 * (n + 1.0) ** k)
        f = (2.0 / (beta - 1.0) + 1.0 / (1.0 - alpha)) * math.log2(
            1.0 / (c * eps_n * eps_n))
        expect = f / n + 4.0 * k * math.log2(n + 1.0) / n
        got = protocols.reverse_shannon_delta_n(d, alpha, beta, eps, n)
        worst = max(worst, abs(got - expect))
        assert abs(f_alpha_beta(alpha, beta, eps_n) - f) < 1e-9
    formula_ok = worst <= 1e-10

    ident = protocols.ChannelSpec([np.eye(2)], 2, 2)
    info_ok = True
    for alpha, beta in [(0.9, 1.1), (0.95, 1.05), (0.99, 1.01)]:
        val, _ = protocols.channel_alpha_beta_info(ident, alpha, beta)
        info_ok = info_ok and abs(val - 2.0) <= 5e-3
    report(10, "simulation-rate-formula", formula_ok and info_ok,
           f"worst formula gap {worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    # Identical config + seed twice: byte-identical artifacts.
    ok = True
    for args, name in [
        (["verify-convex-split", "--dims", "2x2", "--samples", "4",
          "--seed", "33"], "cs"),
        (["verify-uab", "--dims", "2x2", "--samples", "2", "--seed", "17",
          "--eps", "0.2"], "uab"),
    ]:
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(11, "determinism-byte-identical", ok)
