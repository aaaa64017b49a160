"""A speed probe: a fixed reference kernel timed all through the ops.

On a shared host the same code runs up to about 3x slower for seconds at a
time (another tenant on the sibling hyperthread, frequency changes), and
that slowdown is charged to the process as CPU time, so no timer removes it.
The probe runs a small fixed kernel in the main thread from a signal, every
``interval`` seconds, and times it: its mean time over a round of ops is
how fast the core was during that round.  Times are reported at the
reference speed, the speed at which the kernel takes ``KERNEL_S``:
``cpu_s * KERNEL_S / mean(kernel samples)``.  That figure stays put when the
whole core slows down, and moves when the measured code does.

The kernel mixes the two kinds of work the library does: a Python loop of
small numpy calls, like the simulators, and a BLAS Gram product, like the
moment accumulations.  It never calls the library, so no change to the
library moves it.  Its arrays are built once, at import, from a fixed seed.
Signal handlers run in the main thread between bytecodes, so a sample that
falls inside a long BLAS call is taken when the call returns.
"""

import signal
import threading
import time

import numpy as np

# Kernel CPU seconds at the reference speed: about the kernel's median time
# on the 2-vCPU Intel Xeon virtual machine the benchmark was tuned on.
KERNEL_S = 1e-3

_rng = np.random.default_rng(20160303)
_M = _rng.standard_normal((3, 6))
_W = 0.3 * _rng.standard_normal((3, 3))
_X = _rng.standard_normal((100, 6))
_G = _rng.standard_normal((2_000, 36))


def kernel() -> None:
    h = np.zeros(3)
    for x in _X:
        h = np.tanh(_W @ h + _M @ x) ** 2
    _G.T @ _G


class SpeedProbe:
    """Times ``kernel`` in the main thread every ``interval`` seconds while started.

    A helper thread sends the main thread a signal each interval, so the
    kernel runs there even while the main thread waits on worker threads.
    ``samples`` holds the CPU seconds of each kernel run and ``spent`` their
    sum, which callers subtract from the CPU time they measure around the
    probed code.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._stopped = threading.Event()
        self._ticker = None

    def _sample(self, signum, frame) -> None:
        t = time.thread_time()
        kernel()
        dt = time.thread_time() - t
        self.samples.append(dt)
        self.spent += dt

    def _tick(self, main: int) -> None:
        while not self._stopped.wait(self.interval):
            signal.pthread_kill(main, signal.SIGUSR1)

    def start(self) -> None:
        signal.signal(signal.SIGUSR1, self._sample)
        self._stopped.clear()
        self._ticker = threading.Thread(target=self._tick, args=(threading.get_ident(),),
                                        daemon=True)
        self._ticker.start()

    def stop(self) -> None:
        self._stopped.set()
        self._ticker.join()
        # a signal still in flight is ignored, not fatal
        signal.signal(signal.SIGUSR1, signal.SIG_IGN)
