"""Wall time rescaled to a fixed machine speed.

The machine this benchmark was built on runs the same code up to 1.9 times
slower for stretches of 1 to 20 seconds.  The process is not paused (a 1 ms
interval timer showed no gaps) and no steal time is reported: the code just
runs slower, CPU time and wall time alike.  So while a timing is open, a
timer signal interrupts the work every 25 ms and times a fixed reference
kernel, a mix of Python complex arithmetic and small numpy operations like
the eigensolver's two kernels.  A timing is reported as

    (wall time - time spent in the kernel) * REFERENCE_S / mean kernel time,

the mean taken over the samples that fell inside the timing.  Over 7 to 8
runs per workload, this cut the run-to-run coefficient of variation of
`solve_s` and `certify_s` from 7-14% in wall time to 2-4%.

The kernel does not call the package, so a change to the program moves
the reported times as it moves the wall time; only the machine's speed is
divided out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's time at the speed all timings are rescaled to (about its
# time on a 2.0 GHz core of the 2-core machine the benchmark was built on).
REFERENCE_S = 5.7e-4
SAMPLE_EVERY_S = 0.025


def reference_kernel() -> float:
    """Fixed work independent of the package, in three parts like its hot code.

    Python complex scalars (as in the scalar Jacobi kernel), small matrix
    products, and plane rotations applied to rows and columns of a 12 x 12
    array by numpy slicing (as in the numpy Jacobi kernel).  Runs that timed
    the first two parts and the third apart showed the rotations needed:
    without them the deep workload's rescaled `solve_s` and `certify_s`
    varied by 4.0-4.3% from run to run, with them by 3.0-3.1%.
    """
    rows = [[complex(i + j, i - j) for j in range(4)] for i in range(4)]
    acc = 0j
    for _ in range(25):
        for row in rows:
            for k in range(4):
                row[k] = row[k] * 0.5 + acc * 1e-3
                acc += abs(row[k])
    x = np.arange(16.0).reshape(4, 4) + 1j
    for _ in range(25):
        x = (x @ x.conj().T) / np.abs(x).sum()
    h = np.arange(144.0).reshape(12, 12) * (1.0 + 1.0j) / 1000.0
    h = h + h.conj().T
    for p in range(6):
        q = p + 6
        hp, hq = h[p, :].copy(), h[q, :].copy()
        h[p, :] = 0.8 * hp - 0.6 * hq
        h[q, :] = 0.6 * hp + 0.8 * hq
        cp, cq = h[:, p].copy(), h[:, q].copy()
        h[:, p] = 0.8 * cp - 0.6 * cq
        h[:, q] = 0.6 * cp + 0.8 * cq
    off = (h * h.conj()).real
    np.fill_diagonal(off, 0.0)
    return abs(acc + x[0, 0]) + float(off.sum())


class SpeedClock:
    """Samples the reference kernel on SIGALRM while entered; times regions.

    Use as a context manager around everything that is timed; `mark()`
    opens a timing and `seconds(mark)` closes it.  `now()` is a clock that
    stops while the kernel runs, for timings that are not rescaled.
    """

    def __init__(self):
        self._took: list[float] = []
        self._spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - t0
        self._took.append(took)
        self._spent += took

    def __enter__(self) -> "SpeedClock":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """`time.perf_counter()` with the kernel's own time taken out."""
        return time.perf_counter() - self._spent

    def mark(self) -> tuple[float, int]:
        return self.now(), len(self._took)

    def speed(self, mark: tuple[float, int] = (0.0, 0)) -> float:
        """Machine speed since `mark` (default: since entry), relative to the reference.

        A region shorter than the sampling period may hold no sample; the
        latest one is then the nearest measure of the speed.
        """
        inside = self._took[mark[1]:] or self._took[-1:]
        return REFERENCE_S / statistics.fmean(inside)

    def seconds(self, mark: tuple[float, int]) -> float:
        """Rescaled time since `mark`."""
        return (self.now() - mark[0]) * self.speed(mark)
