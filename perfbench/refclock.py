"""Reference clock: the machine's speed, sampled while a run executes.

On a shared VM, such as the 2-vCPU one the benchmark was tuned on, the
speed can swing by up to 2x for seconds to minutes at a time; CPU time
rises with wall time, so the process cannot tell contention from work.  To take that swing out of
the run-time figure, a fixed reference kernel is timed every
``INTERVAL_S`` seconds *during* the run, from a SIGALRM handler in the
main thread.  The kernel does the kinds of work linewatch does: pure
Python arithmetic and dict stores, attribute reads on a few MB of
Python objects scattered over the heap, numpy ufuncs on a 501-element
vector and tridiagonal ``solve_banded`` solves.  A run's time divided
by the kernel's mean time over that run is its time in reference
units, which stays put when the whole machine slows down and moves
when the program does.

The heap walk is there because the slow state hurts linewatch more than
it hurts small, cache-resident loops; with it, the kernel's slowdown
tracks the program's most closely of the mixes tried.

The kernel touches only its own module-level data and its own seeded
``random.Random``, so it cannot change what a run computes
(perfbench/selfcheck.py checks that the report stays byte-identical).
"""

import random
import signal
import time

import numpy as np
from scipy.linalg import solve_banded

INTERVAL_S = 0.05

_N = 501
_AB = np.zeros((3, _N))
_AB[0, 1:] = -1.0
_AB[1] = 4.0
_AB[2, :-1] = -1.0
_B = np.ones(_N)
_X = np.linspace(0.0, 1.0, _N)


class _Cell:
    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self.p = p
        self.q = q


_HEAP = [_Cell(float(i), 0.5 * i) for i in range(24000)]    # about 2.5 MB
random.Random(0).shuffle(_HEAP)
_WALK_STRIDE = 3
_walk_offset = 0


def kernel():
    """The reference work: about 1.4 ms when run back to back on the
    2-vCPU VM it was tuned on, about 2.2 ms between linewatch's steps,
    which evict its cells from cache.  Each call walks a third of the
    heap cells, the next third next time."""
    global _walk_offset
    acc = 0.0
    store = {}
    for i in range(150):
        acc += (i * 0.5) ** 0.5
        store[i & 31] = acc
    for cell in _HEAP[_walk_offset::_WALK_STRIDE]:
        acc += cell.p - cell.q
    _walk_offset = (_walk_offset + 1) % _WALK_STRIDE
    x = _X
    for _ in range(10):
        x = np.sqrt(x * x + 1.0) - x
    b = _B
    for _ in range(5):
        b = solve_banded((1, 1), _AB, b)
    return acc + float(x[0]) + float(b[0])


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Times ``kernel`` every INTERVAL_S seconds while active.

    ``with Sampler() as s: work()`` leaves ``s.samples`` (kernel times)
    and ``s.spent`` (seconds taken by the handler, kernel included),
    so that ``elapsed - s.spent`` is the work's own time.  A block too
    short to be interrupted gets one sample on exit."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(time_kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(time_kernel())
        return False

    def mean(self):
        return sum(self.samples) / len(self.samples)
