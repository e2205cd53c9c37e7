"""Speed probe: a fixed piece of numpy and interpreter work, timed between
ops to follow how fast the shared CPU runs at that moment.

On a box whose cores are shared with other tenants, the speed of the same
code swings by a common factor (up to 1.6x on the 2-vCPU Xeon VM this
benchmark was defined on, in phases of seconds). Scaling each op's wall
time by REFERENCE_S / probe time removes most of that factor; the run
report keeps the unscaled figures as well.
"""

import statistics
import time

import numpy as np
from numpy.linalg import eigh  # bound here, so the tracer does not see the probe

# about the probe's time on an uncontended core of a 2.0 GHz Xeon with one
# BLAS thread (its median there is 1.7 ms when the core is shared)
REFERENCE_S = 1.1e-3


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G + G.conj().T


_rng = np.random.default_rng(0)
_SMALL, _LARGE = _hermitian(_rng, 12), _hermitian(_rng, 64)
_ONES = np.ones(6)


def _kernel() -> float:
    """Small eigh, kron and interpreter work, as in the falsifiers' inner
    loops at n <= 6, and one 64 x 64 eigh, whose cache use follows the big
    eigh of ks-large far better than the small work alone does."""
    t0 = time.perf_counter()
    for _ in range(5):
        _, V = eigh(_SMALL)
        x = np.kron(V[:3, :3], V[:2, :2]) @ _ONES
        [complex(z) for z in x]
    eigh(_LARGE)
    return time.perf_counter() - t0


def probe(min_seconds: float = 0.0) -> float:
    """Median kernel time over at least three runs and at least min_seconds;
    the median keeps one interrupt from counting."""
    times, t0 = [], time.perf_counter()
    while len(times) < 3 or time.perf_counter() - t0 < min_seconds:
        times.append(_kernel())
    return statistics.median(times)
