"""How fast the machine is while an iteration runs.

The benchmark runs on a shared machine whose speed drifts by up to about
70% in stretches of ten seconds to a minute, as other tenants load the
host. While a timed iteration runs, a SIGALRM every ``INTERVAL`` seconds
runs a small fixed kernel and times it, so the machine's speed is sampled
throughout exactly the interval being measured. The iteration's wall time
minus the time spent in the samples, divided by the median sample, is
its cost in kernel units; most of the drift cancels out of it. Set-up
time is rescaled the same way and reported in seconds at a fixed
reference speed.

The kernel is the benchmark's own code and uses neither emprops nor
numpy, so no change to the program under test can move it. It is a plain
interpreted integer loop because that kind of code slowed under the
host's contention by about the same factor as the workloads, while dict-
and small-array-heavy kernels slowed more and over-corrected.
"""

from __future__ import annotations

import signal
import statistics
import time

ROUNDS = 10_000   # about a millisecond
INTERVAL = 0.05   # seconds between samples
# Set-up is reported in seconds at a fixed machine speed: the one at which
# a kernel sample takes this long (about this machine's unloaded speed).
# Only ratios between runs matter, so the constant is arbitrary but fixed.
REFERENCE_SAMPLE_S = 0.0007

_clock = time.perf_counter


def kernel(rounds: int = ROUNDS) -> int:
    """Run the kernel once; returns a checksum so no work can be skipped."""
    acc = 0
    for i in range(rounds):
        acc += i * i % 7
    return acc


def sample() -> float:
    """One kernel sample taken directly (not from a timer signal)."""
    start = _clock()
    kernel()
    return _clock() - start


def at_reference_speed(seconds: float, sample_s: float) -> float:
    """seconds measured while a kernel sample took sample_s, rescaled to
    the speed at which it takes REFERENCE_SAMPLE_S."""
    return seconds * REFERENCE_SAMPLE_S / sample_s


class SpeedSampler:
    """Samples the kernel on SIGALRM between start() and stop().

    Python runs the handler in the main thread between bytecodes, so it
    never touches the program's state; interrupted system calls are
    retried by the interpreter.
    """

    def __init__(self, interval: float = INTERVAL, rounds: int = ROUNDS) -> None:
        self.interval = interval
        self.rounds = rounds
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        entered = _clock()
        start = _clock()
        kernel(self.rounds)
        end = _clock()
        self.samples.append(end - start)
        self.spent += _clock() - entered

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def relative(self, elapsed: float) -> float | None:
        """elapsed, less the time spent sampling, in median-sample units."""
        if not self.samples:
            return None
        return (elapsed - self.spent) / statistics.median(self.samples)
