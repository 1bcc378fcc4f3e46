"""Oracles shared by the tests: the binary entropy and a Haar sampler."""

import math

import numpy as np


def binary_entropy(a: float) -> float:
    """h(a) = -a log a - (1-a) log(1-a), base 2."""
    if a <= 0 or a >= 1:
        return 0.0
    return -a * math.log2(a) - (1 - a) * math.log2(1 - a)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
