"""CPU-speed calibration: rescale wall times to one reference speed.

The benchmark runs on two virtual CPUs of a shared host.  Their speed
changes by up to 1.6x from one tenth of a second to the next, and its
average drifts over minutes: the median simulate call of 20 s runs moved by
18-47% (IQR over ten or five runs) on sim-ex1 and sim-linear2d.

While a measured call runs, a ``Sampler`` thread wakes every ``PERIOD_S``
and times four fixed chunks of work in its own CPU time.  The chunks share
nothing with the package, and each is bound by another part of the CPU:
strided reads across a 16 MB table (memory), a 2-state Euler loop on small
numpy arrays (numpy call overhead), dot products of 20000-element vectors
(vector arithmetic) and an integer loop (the interpreter).  A call's
slowness is the geometric mean over the chunks of their median time during
the call over their time at a reference speed, and its rescaled time is its
wall time over its slowness: the time it would have taken at the reference
speed.  A slower package still gives a larger rescaled time, since the
chunks do not change with it; only the host's speed is divided out.

No single chunk tracks every workload in every state of the host: between
windows of a few minutes, the best one changed, and rescaling by one chunk
left spreads of 5-21% over 20 s runs.  The mean over the four chunks left
1-8% in the same windows.

Simulate calls and set-up interpreters run pinned to one CPU, and the
sampler thread with them; it takes the interpreter's lock only while the main
thread waits or between its bytecodes, and costs the call about 3% of its CPU
time.  A sweep's pool workers use every CPU, and a sampler thread in the idle
parent measures a CPU shared with a worker, which over-corrected sweeps by up
to 20%.  A sweep therefore samples each of its runs in the process that does
the run (``workloads.RunCounter``).

The table adds 16 MB to the resident memory of the benchmark process and of
each pool worker.
"""

import math
import os
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.02  # between samples

_TABLE = np.random.default_rng(0).random(1 << 21)  # 16 MB
_STRIDE = 4099  # elements: every read is on another page
_A = np.array([[0.0, 1.0], [-2.0, -3.0]])
_VA = np.random.default_rng(1).random(20000)
_VB = np.random.default_rng(2).random(20000)


def _memory() -> float:
    s = 0.0
    for k in range(40):
        s += float(_TABLE[(k * 52361) % _TABLE.size :: _STRIDE].sum())
    return s


def _small_numpy() -> float:
    x = np.array([1.0, 1.0])
    s = 0.0
    for _ in range(150):
        x = x + 1e-3 * (_A @ x)
        s += float(x[0]) * 0.5 - abs(s) * 1e-9
    return s


def _vector() -> float:
    return sum(float(_VA @ _VB) for _ in range(10))


def _interpreter() -> int:
    s = 0
    for i in range(3000):
        s += i * i
    return s


# chunk and its time at the reference speed
CHUNKS = (
    (_memory, 1.0e-4),
    (_small_numpy, 3.0e-4),
    (_vector, 5.0e-5),
    (_interpreter, 1.5e-4),
)


def cpus() -> list:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu: int):
    """Run the calling thread, and the threads and processes it starts, on ``cpu`` only."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class Sampler:
    """Chunk times sampled in a background thread while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in CHUNKS]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        for (chunk, _), times in zip(CHUNKS, self.samples):
            t0 = time.thread_time()
            chunk()
            times.append(time.thread_time() - t0)

    def _run(self) -> None:
        self._sample()
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowness(self) -> float:
        """Geometric mean over the chunks of their median time over the reference time.

        1.0 at the reference speed, 2.0 on a CPU that runs the chunks half as fast.
        """
        logs = [math.log(statistics.median(times) / ref)
                for (_, ref), times in zip(CHUNKS, self.samples)]
        return math.exp(sum(logs) / len(logs))
