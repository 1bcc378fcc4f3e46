import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from csl.infomeasures import conditional_renyi_up, f_alpha_beta
from csl.matcore import ContractViolation, fidelity
from csl.protocols import (
    ChannelSpec,
    _aligned_source,
    _mixture_vs_pure_distance,
    _uhlmann_factors,
    QSSInstance,
    channel_alpha_beta_info,
    qss_simulate,
    reverse_shannon_bound,
    reverse_shannon_delta_n,
    uhlmann_isometry,
)
from helpers import binary_entropy, random_unitary


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return v


def flagship_instance():
    # R and A' maximally entangled, A trivial: the canonical splitting input.
    return QSSInstance(bell_vector(), (2, 1, 2), eps=0.6, delta=0.5)


def test_channel_spec_validates_kraus():
    ChannelSpec([np.eye(2)], 2, 2)
    with pytest.raises(ContractViolation):
        ChannelSpec([0.5 * np.eye(2)], 2, 2)


def test_qss_instance_validation():
    with pytest.raises(ContractViolation):
        QSSInstance(bell_vector(), (2, 1, 2), eps=0.3, delta=0.5)
    with pytest.raises(ContractViolation):
        QSSInstance(2 * bell_vector(), (2, 1, 2), eps=0.6, delta=0.5)


def test_uhlmann_overlap_equals_fidelity():
    rng = np.random.default_rng(0)
    for _ in range(30):
        ds, dl = 3, 4
        s = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
        t = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
        s /= np.linalg.norm(s)
        t /= np.linalg.norm(t)
        V = uhlmann_isometry(t, s, ds)
        assert np.abs(V.conj().T @ V - np.eye(dl)).max() < 1e-10
        Sm, Tm = s.reshape(ds, dl), t.reshape(ds, dl)
        overlap = abs(np.vdot(t, (Sm @ V.T).reshape(-1)))
        F = fidelity(Sm @ Sm.conj().T, Tm @ Tm.conj().T)
        assert abs(overlap - F) < 1e-8


def test_uhlmann_no_sampled_isometry_beats_it():
    rng = np.random.default_rng(1)
    for trial in range(5):
        ds, dl = 2, 3
        s = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
        t = rng.standard_normal(ds * dl) + 1j * rng.standard_normal(ds * dl)
        s /= np.linalg.norm(s)
        t /= np.linalg.norm(t)
        V = uhlmann_isometry(t, s, ds)
        Sm = s.reshape(ds, dl)
        best = abs(np.vdot(t, (Sm @ V.T).reshape(-1)))
        for _ in range(100):
            U = random_unitary(dl, rng)
            assert abs(np.vdot(t, (Sm @ U.T).reshape(-1))) <= best + 1e-8


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_factored_alignment_equals_isometry():
    # Rank-deficient targets give the overlap zero singular values.  The
    # factored product and the full isometry go through the same SVD, so
    # this checks S V^T = Ra^T conj(Um Vmh) Qb^T, not LAPACK's choice of
    # null vectors.  (6, 3, 9) has a source local space smaller than the
    # shared one and a target local space that is not.
    rng = np.random.default_rng(17)
    for shared, sa, ta, rank in [(4, 4, 6, 2), (8, 16, 24, 3), (16, 32, 36, 5),
                                 (16, 16, 16, 1), (6, 3, 9, 2), (12, 8, 8, 4)]:
        s = _complex(rng, shared * sa)
        t = (_complex(rng, (shared, rank)) @ _complex(rng, (rank, ta))).reshape(-1)
        s /= np.linalg.norm(s)
        t /= np.linalg.norm(t)
        factors = _uhlmann_factors(t, s, shared)
        sv = factors[3]
        assert len(sv) > rank and sv[rank:].max() <= 1e-12 * sv[0]
        out = _aligned_source(factors)
        V = uhlmann_isometry(t, s, shared)
        assert out.shape == (shared, ta)
        assert np.abs(out - s.reshape(shared, sa) @ V.T).max() <= 1e-12


@pytest.mark.parametrize("m", range(1, 10))
def test_mixture_vs_pure_distance_matches_dense_oracle(m):
    # From the Gram matrix of [b_1..b_m, t], the distance equals half the
    # trace norm of sum_i |b_i><b_i| - |t><t| formed densely.  The last branch
    # is parallel to t, the first is zero (for m = 1, at odd dimensions).
    rng = np.random.default_rng([7310, m])
    for dim in range(3, 9):
        t = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        t /= np.linalg.norm(t)
        B = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
        B[-1] = (0.6 - 0.3j) * t
        if m > 1 or dim % 2:
            B[0] = 0.0
        mass = float(np.vdot(B, B).real)
        if mass > 0:
            B *= math.sqrt(rng.uniform(0.1, 1.0) / mass)  # total mass <= 1
        A = np.vstack([B, t])
        G = A.conj() @ A.T  # G[i, j] = <a_i|a_j>
        diff = B.T @ B.conj() - np.outer(t, t.conj())
        dense = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert abs(_mixture_vs_pure_distance(G) - dense) <= 1e-12


def test_qss_peak_memory():
    # Bell, n = 7: shared = 256, target local = 7 * 128.  The aligned source
    # needs only Ra and Qb, and the source, the target and Qb are released
    # once consumed, so the peak stays near 4.2 target sizes.
    inst = QSSInstance(bell_vector(), (2, 1, 2), eps=0.7, delta=0.55)
    tracemalloc.start()
    try:
        res = qss_simulate(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n == 7
    target_bytes = 2 * 2**7 * 7 * 2**7 * 16
    assert peak <= 5.0 * target_bytes, peak / target_bytes


def test_qss_reference_wider_than_local_square():
    # dR = 5 > d^2 = 4 and n = 6 > d^2: the source local space (d^(n+2))
    # is smaller than the shared one (dR d^n) while the target's is not.
    v = np.zeros(10, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    res = qss_simulate(QSSInstance(v, (5, 1, 2), eps=0.7, delta=0.6))
    assert res.n == 6
    assert abs(res.mu - 3.0) < 1e-6
    assert res.bound_ok
    assert abs(res.branch_probs.sum() - 1.0) < 1e-9


def test_qss_flagship():
    res = qss_simulate(flagship_instance())
    assert res.n == 9
    assert res.n_unclamped == 9
    assert abs(res.cost_bits - 0.5 * math.log2(9)) < 1e-12
    assert res.achieved_distance <= 0.5 + 1e-7
    assert res.achieved_distance <= res.distance_bound + 1e-7
    assert res.bound_ok
    assert abs(res.mu - 3.0) < 1e-6
    assert abs(res.i2_bits - 2.0) < 1e-6
    # unitarity audit: branch probabilities form a distribution
    assert abs(res.branch_probs.sum() - 1.0) < 1e-9


def test_qss_product_input_trivial():
    # Product state: mu = 0, a single copy suffices, zero cost.
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    inst = QSSInstance(v, (2, 1, 2), eps=0.6, delta=0.5)
    res = qss_simulate(inst)
    assert res.n == 1
    assert res.cost_bits == 0.0
    assert res.achieved_distance < 1e-9


def test_qss_random_two_qubit():
    rng = np.random.default_rng(7)
    for delta in [0.4, 0.6]:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        inst = QSSInstance(v, (2, 1, 2), eps=min(2 * delta, 0.9), delta=delta)
        res = qss_simulate(inst)
        assert res.achieved_distance <= res.distance_bound + 1e-7
        assert res.bound_ok


def test_channel_info_identity_von_neumann():
    ident = ChannelSpec([np.eye(2)], 2, 2)
    val, _ = channel_alpha_beta_info(ident, 1.0, 1.0)
    assert abs(val - 2.0) < 1e-6


def test_channel_info_replacement_zero():
    # Replace-with-|0> channel: output is product, mutual information 0.
    K = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    chan = ChannelSpec(K, 2, 2)
    val, _ = channel_alpha_beta_info(chan, 1.0, 1.0)
    assert abs(val) < 1e-6


def test_channel_info_identity_near_one_grid():
    ident = ChannelSpec([np.eye(2)], 2, 2)
    for a, b in [(0.9, 1.1), (0.95, 1.05), (0.99, 1.01)]:
        val, _ = channel_alpha_beta_info(ident, a, b)
        assert val >= 2.0 - 0.2
        assert abs(val - 2.0) < 5e-3


def _random_kraus_channel():
    # Three Kraus operators from the isometry Q of a 6x2 complex Gaussian.
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
    return ChannelSpec([Q[2 * k:2 * k + 2] for k in range(3)], 2, 2)


def _amplitude_damping(gamma):
    return ChannelSpec([np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]]),
                        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])], 2, 2)


# Values of the earlier maximization over pure inputs on A (x) in, which the
# search over input densities must reproduce.
CHANNEL_INFO_PINS = [
    ("amplitude-damping", 0.5, 2.0, 1.573907625018279),
    ("amplitude-damping", 0.9, 1.1, 1.3661397738221865),
    ("random-kraus", 0.5, 2.0, 1.2244304999160636),
    ("random-kraus", 0.9, 1.1, 0.9580827338229676),
]


@pytest.mark.parametrize("name,alpha,beta,want", CHANNEL_INFO_PINS,
                         ids=[f"{n}-{a}-{b}" for n, a, b, _ in CHANNEL_INFO_PINS])
def test_channel_info_pinned(name, alpha, beta, want):
    chan = (_amplitude_damping(0.3) if name == "amplitude-damping"
            else _random_kraus_channel())
    val, report = channel_alpha_beta_info(chan, alpha, beta)
    assert abs(val - want) <= 1e-9
    assert report.value == val
    assert abs(np.trace(report.argopt) - 1.0) < 1e-12


@pytest.mark.parametrize("beta", [1.01, 1.1, 2.0])
def test_channel_objective_certifies_near_pure_inputs(beta):
    # Inputs diag(1 - p, p) through amplitude damping 0.3 leave the output
    # an eigenvalue near p.  The kernel cuts rho at round-off for beta > 1,
    # so what it drops stays inside the certificate after the log divides
    # it by beta - 1: every inner solve certifies (at p = 1e-9 and 1e-10 a
    # cut at RANK_TOL refused).  From p = 1e-12 the output counts as pure.
    chan = _amplitude_damping(0.3)
    for p in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
        v = np.diag(np.sqrt([1 - p, p])).T.reshape(-1)  # vec(sqrt(rho_in)^T)
        omega = chan.apply_local(np.outer(v, v.conj()), 2)
        assert math.isfinite(conditional_renyi_up(omega, beta, (2, 2))), p


def test_channel_info_near_one_certifies_above_capacity():
    # At (alpha, beta) = (0.99, 1.01) the descent visits near-pure inputs,
    # whose inner solves refused at a RANK_TOL cut.  Each must certify, and
    # the value must reach amplitude damping's entanglement-assisted capacity
    # C_E = max_p [h(p) + h((1 - g) p) - h(g p)]: H_alpha(A) >= H(A) and
    # H_up_beta(A|B) <= H(A|B) for alpha < 1 < beta, input by input.
    g = 0.3
    c_e = -scipy.optimize.minimize_scalar(
        lambda p: -(binary_entropy(p) + binary_entropy((1 - g) * p) - binary_entropy(g * p)),
        bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12}).fun
    assert abs(channel_alpha_beta_info(_amplitude_damping(g), 1.0, 1.0)[0] - c_e) <= 1e-9
    val, _ = channel_alpha_beta_info(_amplitude_damping(g), 0.99, 1.01)
    assert c_e <= val <= c_e + 0.01, (val, c_e)


# (key, delta, achieved_distance, branch_probs) of perfbench's qss-protocol
# pool: psi from default_rng([81000, round(10 delta), k]), eps = min(2 delta, 0.9).
QSS_POOL_PINS = [
    ("d6-0", 0.6, 0.35015917649407613,
     [0.2244542820254083, 0.19766192168905328, 0.19237930315230822,
      0.1925876189384014, 0.192916874194828]),
    ("d6-1", 0.6, 0.2942422056833077,
     [0.5211196482262187, 0.4788803517737814, 0.0, 0.0]),
    ("d4-40", 0.4, 0.1341350900850854,
     [0.33541367672640987, 0.33233911774843106, 0.3322472055251582, 0.0]),
]

_QSS_POOL_CHILD = """
import json, sys
import numpy as np
from csl.protocols import QSSInstance, qss_simulate
out = {}
for key, delta in json.loads(sys.argv[1]):
    k = int(key.split("-")[1])
    rng = np.random.default_rng([81000, round(10 * delta), k])
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    res = qss_simulate(QSSInstance(psi, (2, 1, 2), eps=min(2 * delta, 0.9), delta=delta))
    out[key] = [res.achieved_distance, res.branch_probs.tolist()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def qss_pool_results():
    # The reference was recorded with one BLAS thread, as perfbench runs every
    # workload; another thread count reorders BLAS sums, and the pool's
    # distance amplifies that round-off to 1e-4 (d6-0 on two threads). So the
    # instances run in a child pinned like perfbench/run.py's pinned_env().
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    arg = json.dumps([[key, delta] for key, delta, _, _ in QSS_POOL_PINS])
    proc = subprocess.run([sys.executable, "-c", _QSS_POOL_CHILD, arg], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("key,delta,distance,probs", QSS_POOL_PINS,
                         ids=[p[0] for p in QSS_POOL_PINS])
def test_qss_protocol_pool_pinned(qss_pool_results, key, delta, distance, probs):
    # The benchmark's reference pins these to 1e-10; a 1e-14 change of the
    # optimizer's sigma moves them by up to 1e-3.
    achieved, branch_probs = qss_pool_results[key]
    assert abs(achieved - distance) <= 1e-10
    assert len(branch_probs) == len(probs)
    assert np.abs(np.array(branch_probs) - np.array(probs)).max() <= 1e-10


def test_delta_n_formula_and_trends():
    val = reverse_shannon_delta_n(2, 0.5, 2.0, 0.1, 10)
    k = 3
    expect = f_alpha_beta(0.5, 2.0, 0.1 / (2 * 11**k)) / 10 + 4 * k * math.log2(11) / 10
    assert abs(val - expect) < 1e-12
    # decay trend on n = 2^k
    vals = [reverse_shannon_delta_n(2, 0.5, 2.0, 0.1, 2**k) for k in range(4, 13)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi < lo
    # n = 1 is defined, no special-casing
    assert math.isfinite(reverse_shannon_delta_n(2, 0.5, 2.0, 0.1, 1))


def test_reverse_shannon_bound_composition():
    ident = ChannelSpec([np.eye(2)], 2, 2)
    rhs, dn = reverse_shannon_bound(ident, 0.5, 2.0, 0.1, 10)
    assert abs(dn - reverse_shannon_delta_n(2, 0.5, 2.0, 0.1, 10)) < 1e-12
    assert rhs >= dn + 2.0 - 1e-6  # info term for the identity is 2 bits
