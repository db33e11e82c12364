"""A fixed reference kernel that gauges how fast the machine runs right now.

On a host shared with other tenants, the same query can run 1.5-1.8x
slower from one second or minute to the next, and a ten-second run lands
in whatever state the host is in.  ``slowdown()`` times a few milliseconds
of fixed work of the three kinds a query does (interpreter loops, many
small LAPACK calls, a dense BLAS product) and returns the time over the
nominal time of the same work.  Dividing a query's wall time by the
slowdown measured around it gives its time at the nominal speed, which
moves with the program and far less with the host.

The kernel is the benchmark's own code and never calls the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.T
_DENSE = _RNG.standard_normal((160, 160))


def _interpreter() -> None:
    s = 0
    for i in range(12_000):
        s += i * i


def _small_lapack() -> None:
    for _ in range(100):
        np.linalg.eigvalsh(_SMALL)


def _dense_blas() -> None:
    for _ in range(4):
        _DENSE @ _DENSE


#: each part and its median time in seconds on a 2-vCPU Xeon VM at
#: 2.1 GHz with BLAS on one thread, the speed that times are reported at
PARTS = (
    (_interpreter, 0.86e-3),
    (_small_lapack, 0.90e-3),
    (_dense_blas, 0.82e-3),
)


def _one_pass() -> float:
    logs = 0.0
    for part, nominal in PARTS:
        t0 = time.perf_counter()
        part()
        logs += math.log((time.perf_counter() - t0) / nominal)
    return math.exp(logs / len(PARTS))


def slowdown(seconds: float = 0.0) -> float:
    """The geometric mean over the parts of time over nominal time.

    Passes of the kernel repeat for about ``seconds``, at least once, and
    the median pass is returned: one pass of a few milliseconds is itself
    noisy, which matters when it scales a query of a second or more.
    """
    end = time.perf_counter() + seconds
    passes = [_one_pass()]
    while time.perf_counter() < end:
        passes.append(_one_pass())
    return statistics.median(passes)
