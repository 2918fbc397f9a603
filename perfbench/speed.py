"""Machine-speed gauge: a fixed reference computation timed beside each chain.

The shared VM the benchmark runs on executes the same code at speeds up to
~1.6x apart, in states that hold for seconds to minutes, so a 30 s run can
fall wholly in a slow one. The slowdown is common to pure-Python and numpy
code alike: on the 2-core x86 box the benchmark was tuned on, the wall
times of a t5 mh chain, a short t4 chain and reference computations, taken
one after another, correlate at 0.8-0.9 over 2 s windows. Dividing a chain's
times by the reference's slowdown measured around it cut the spread of
10 s medians from ~20% to 3-8%.

``SpeedGauge`` times the reference before and after a chain and, when the
chain is run with ``EvalClock``, every few exact evaluations inside it,
right after one returns. The in-chain samples are subtracted from the
chain's times. The reference has a CPU part and a memory part; a chain
is normalised by the parts its hot path resembles. It uses no package
code, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

# Median seconds of each part of the reference on the tuning box. Times
# divided by ``SpeedGauge.factor`` read as seconds at that speed.
CPU_NOMINAL_S = 0.0013
MEMORY_NOMINAL_S = 0.0008

_rng = np.random.default_rng(2109)
_A = _rng.standard_normal((200, 200))
_SPD = np.asfortranarray(_A @ _A.T + 200.0 * np.eye(200))
_RHS = np.asfortranarray(_rng.standard_normal((200, 6)))
# 8 MB: more than a core's L2, like the surrogate's grown kernel matrix.
_BIG = _rng.standard_normal((1000, 1000))
_VEC = _rng.standard_normal(1000)
# Work arrays, so that a sample allocates nothing large and leaves the heap
# the chain's peak memory is measured on as it found it.
_CHOL = np.empty_like(_SPD)
_SOL = np.empty_like(_RHS)
_OUT = np.empty(1000)


def cpu_part() -> float:
    """Pure-Python float arithmetic, like the RK4 solver and the chain
    drivers, then a small Cholesky solve and numpy calls on short vectors,
    like the surrogate's cheap steps; about equal time in each."""
    x, v = 1.0, 0.0
    for _ in range(8000):
        x, v = x + 0.001 * v, v - 0.001 * x
    np.copyto(_CHOL, _SPD)
    np.copyto(_SOL, _RHS)
    dpotrf(_CHOL, lower=1, clean=0, overwrite_a=1)
    dpotrs(_CHOL, _SOL, lower=1, overwrite_b=1)
    acc = 0.0
    for row in _SOL[:60]:
        acc += float(np.dot(row, row)) + float(np.exp(-row).sum())
    return x + acc


def memory_part() -> float:
    """Matrix-vector sweeps over a matrix that does not fit in L2, like
    the O(N^2) updates of a grown kernel matrix."""
    for _ in range(2):
        np.dot(_BIG, _VEC, out=_OUT)
    return float(_OUT[0])


class SpeedGauge:
    """Reference timings taken around and inside one chain."""

    def __init__(self):
        self.starts = []
        self.cpu = []
        self.memory = []

    def sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        cpu_part()
        t1 = clock()
        memory_part()
        t2 = clock()
        self.starts.append(t0)
        self.cpu.append(t1 - t0)
        self.memory.append(t2 - t1)

    def injected_s(self, start: float, end: float) -> float:
        """Seconds spent in samples begun in ``[start, end)``."""
        return sum(c + m for s, c, m in zip(self.starts, self.cpu, self.memory)
                   if start <= s < end)

    def factor(self, memory_bound: bool) -> float:
        """Median reference time over its nominal time: above 1 when the
        machine ran slow. The memory part counts only for a chain whose
        hot path streams a matrix larger than L2."""
        if not memory_bound:
            return statistics.median(self.cpu) / CPU_NOMINAL_S
        total = [c + m for c, m in zip(self.cpu, self.memory)]
        return statistics.median(total) / (CPU_NOMINAL_S + MEMORY_NOMINAL_S)
