"""Machine-speed calibration for the end-to-end timings.

The host this benchmark runs on changes speed by up to 2x, in phases of a
fraction of a second to minutes (other tenants share it).  Python-bound code
such as csl's optimizer objectives slows most; large LAPACK calls slow much
less.  A fixed kernel, independent of csl, samples the speed between
instances: a small L-BFGS-B descent over a 4x4 density matrix that stops
after a fixed number of evaluations, the same kind of work as the optimizer.

A sample runs the kernel RUNS times; when the median run took ``r`` times
REFERENCE_S, the sample found the host ``r`` times slower than the
reference.  An instance whose time is a share ``w`` dense linear algebra
(measured at the seed commit) is taken to be slowed by ``(1 - w) * r + w``,
where ``r`` is the mean of the samples taken within WINDOW_S of it.  One
sample is noisier than the speed it measures, so the mean over a second
tracked better than the nearest sample on each side.  Dense work is left unscaled: on the n = 9 instances, where
it is 95% of the time, a 4 MB QR kernel tracked the speed no better than
leaving it alone.  The latency is reported divided by that slowdown: the
time at the reference speed of the host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.optimize

# The kernel's median duration on the 2-vCPU Xeon VM the benchmark was built
# on; reported times are scaled to this speed.
REFERENCE_S = 0.016
EVERY_S = 0.5  # a sample at each instance boundary at least this far apart
RUNS = 3
WINDOW_S = 1.0

_rng = np.random.default_rng(20250)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_A = _A + _A.conj().T
_X0 = _rng.standard_normal(32)


def _objective(x):
    G = (x[:16] + 1j * x[16:]).reshape(4, 4)
    M = G.conj().T @ G
    rho = M / np.trace(M).real
    w = np.clip(np.linalg.eigvalsh(rho), 1e-15, None)
    return float(np.trace(rho @ _A).real) + 0.1 * float(np.sum(w * np.log(w)))


def kernel() -> None:
    scipy.optimize.minimize(_objective, _X0, method="L-BFGS-B",
                            options={"maxfun": 220, "maxiter": 10 ** 6,
                                     "ftol": 0.0, "gtol": 0.0})


class Calibration:
    """Speed samples taken through a run: (start, end, median kernel run)."""

    def __init__(self):
        kernel()  # first call outside any sample: lazy set-up in scipy
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        runs = []
        for _ in range(RUNS):
            t = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t)
        self.samples.append((t0, time.perf_counter(), statistics.median(runs)))

    def due(self) -> bool:
        return (not self.samples
                or time.perf_counter() - self.samples[-1][1] >= EVERY_S)

    def durations(self) -> list:
        return [k for _, _, k in self.samples]

    def scaled(self, start: float, end: float, dense: float) -> float:
        """The time of [start, end] at the reference speed."""
        near = [k for s, e, k in self.samples
                if e > start - WINDOW_S and s < end + WINDOW_S]
        if not near:  # a unit raised, so no sample followed soon enough
            near = ([k for s, e, k in self.samples if e <= start][-1:]
                    + [k for s, e, k in self.samples if s >= end][:1])
        r = sum(near) / len(near) / REFERENCE_S
        return (end - start) / ((1.0 - dense) * r + dense)
