"""Timings that separate the program's time from the host's noise.

On the 2-CPU sandbox this benchmark was built on, the host disturbs wall
times in two ways.  Raw run medians of one seed varied by 30 % between
runs, and raw p99 latencies by a factor of two.

Stalls: about 1 % of ops took two to three times their thread CPU time,
with no context switch of their own -- the host ran something else.
:func:`needed_ns` therefore counts an op's thread CPU time when the thread
did not block, and its wall time when it did, so that waiting the program
asks for (file I/O, say) still counts.

Speed regimes: for stretches of 1 to 30 s every op is slower by a common
factor of up to 2x, in CPU time as in wall time, and a whole 30 s run can
sit in one regime.  A fixed reference kernel -- small numpy linear
algebra and Python object work, like the ops, and independent of cvmodes
-- is timed every 7 ms through the run.  Each reported time is multiplied
by ``NOMINAL_NS / r``, where ``r`` is the median reference time around
it: it reads as the time the op would take on a host where the reference
kernel takes exactly 0.4 ms.  The raw wall times are reported beside them.
"""

import json
import resource
import time

import numpy as np

NOMINAL_NS = 400_000
EVERY_NS = 7_000_000
NEIGHBOURS = 4          # reference runs on each side that set a local speed

_rng = np.random.default_rng(20181120)
_SPD = _rng.normal(size=(8, 8))
_SPD = _SPD @ _SPD.T + 8.0 * np.eye(8)
_OMEGA = np.kron(np.eye(4), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def reference_kernel():
    """About 0.4 ms of the kind of work the ops do, always the same."""
    total = 0.0
    for k in range(3):
        m = _SPD + (k * 1e-3) * np.eye(8)
        total += float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
        total += float(np.abs(np.linalg.eigvals(_OMEGA @ m).imag).max())
        total += float(np.abs(m - m.T).max()) + float(np.linalg.slogdet(m)[1])
        rows = [list(row) for row in m[:4, :4]]
        total += len(json.dumps({"k": k, "rows": rows}))
        total += sum(v for row in rows for v in row)
    return total


def stamp():
    """(wall ns, thread CPU ns, voluntary context switches) of this thread."""
    return (time.perf_counter_ns(), time.thread_time_ns(),
            resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw)


def needed_ns(before, after):
    """Time a call needed between two :func:`stamp` readings.

    A thread that made no voluntary context switch never waited on its own
    account, so wall time beyond its CPU time was taken by the host.
    """
    wall = after[0] - before[0]
    if after[2] != before[2]:
        return wall
    return min(wall, after[1] - before[1])


class HostSpeed:
    """Reference-kernel timings taken through a run."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._due = 0

    def sample(self):
        before = stamp()
        reference_kernel()
        self.starts.append(before[0])
        self.durations.append(needed_ns(before, stamp()))

    def poll(self):
        """Time the reference kernel if EVERY_NS has passed since the last."""
        now = time.perf_counter_ns()
        if now >= self._due:
            self.sample()
            self._due = time.perf_counter_ns() + EVERY_NS

    def median_ns(self):
        return float(np.median(self.durations))

    def scale(self, starts_ns):
        """NOMINAL_NS over the local reference time, for each start time."""
        durations = np.array(self.durations, dtype=float)
        k = NEIGHBOURS
        local = np.array([np.median(durations[max(0, j - k): j + k + 1])
                          for j in range(len(durations))])
        pos = np.searchsorted(np.array(self.starts), np.asarray(starts_ns))
        return NOMINAL_NS / local[np.clip(pos, 0, len(local) - 1)]
