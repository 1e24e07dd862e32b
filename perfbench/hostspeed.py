"""The host's speed, sampled on a fixed kernel, to scale reported times by.

On a shared host the same code runs tens of percent slower from one minute
to the next, in CPU time too: other tenants contend for the core, its caches
and the memory bus.  A run samples a fixed kernel that never touches ellipoly
every EVERY_S of wall time through its timed loop and its set-up probes, and
multiplies every time it reports by ``scale()``: REF_MS over the kernel's
median time in the run.  A reported time is thus the CPU time the op would
take on a host where the kernel takes REF_MS.  A change to the library moves
the op times and leaves the kernel alone, so the scaled times keep every
speed-up and slow-down.

Samples are taken from a SIGALRM handler, which Python runs between the
bytecodes of the main thread, so an op of several seconds is sampled while
it runs; ``cpu()`` leaves the handler's own CPU time out of the op's.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REF_MS = 0.7     # the kernel's median CPU time, in ms, on the reference host
EVERY_S = 0.1    # wall seconds between samples
BATCH = 3        # timed kernel runs per sample

_A = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
_B = np.linspace(-1.0, 1.0, 64 * 48).reshape(64, 48)


def kernel() -> float:
    """Interpreted float arithmetic and a small numpy contraction, the two
    kinds of work the library's ops are made of."""
    s = 0.0
    for i in range(2500):
        s += (i * 0.5) % 3.0
    return s + float(np.einsum("ij,jk,ik->", _B, _A, _B))


class HostSpeed:
    def __init__(self):
        self.samples = []    # kernel CPU seconds
        self.spent = 0.0     # CPU seconds this process spent sampling

    def sample(self):
        start = time.process_time()
        # The first run refills the caches the op left cold, so the timed
        # runs see the host, not the op they interrupted.
        kernel()
        for _ in range(BATCH):
            t = time.process_time()
            kernel()
            self.samples.append(time.process_time() - t)
        self.spent += time.process_time() - start

    def cpu(self) -> float:
        """This process's CPU seconds, less those spent sampling."""
        return time.process_time() - self.spent

    @contextlib.contextmanager
    def sampling(self):
        """Sample now and every EVERY_S of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            self.sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        return REF_MS / (statistics.median(self.samples) * 1e3)
