"""Host speed, sampled while the program runs, and times normalised by it.

On a shared host the speed of one vCPU drifts by 30 % and more within tens
of seconds, and the program's times drift with it.  A fixed mpmath loop that
does the program's kind of work (256-bit complex multiply-adds in pure
Python) is timed every ``INTERVAL_S`` seconds by a SIGALRM handler in the
same process, between the program's own bytecodes.  Each sample gives the
host's relative speed at that moment, ``REF_NOMINAL_S / loop time``.  A time
measured over an interval is then normalised to a host of speed 1:

    normalised = (interval - time spent in samples) * mean speed near it

A change in the program moves the normalised time as it moves the wall time;
a change in the host's speed moves both the interval and the speed samples,
and cancels.  The loop calls ``mpmath.libmp`` directly, so it touches no
global state of mpmath or of the program.
"""

from __future__ import annotations

import signal
import time

from mpmath.libmp import from_rational, mpc_add, mpc_mul, round_nearest

PREC = 256
LOOP_ITERATIONS = 600
# the loop's time on a host of speed 1; a typical reading on one vCPU of a
# 2-vCPU cloud host, so that normalised times are close to wall times there
REF_NOMINAL_S = 0.0036
INTERVAL_S = 0.1
# samples taken this long before or after an interval still count for it
WINDOW_S = 0.15

_X = (from_rational(1, 7, PREC, round_nearest), from_rational(2, 7, PREC, round_nearest))


def ref_loop_s(iterations: int = LOOP_ITERATIONS) -> float:
    """Seconds for a fixed number of 256-bit complex multiply-adds."""
    x = acc = _X
    t0 = time.perf_counter()
    for _ in range(iterations):
        acc = mpc_add(mpc_mul(acc, x, PREC, round_nearest), x, PREC, round_nearest)
    return time.perf_counter() - t0


class Sampler:
    """Times ref_loop_s every INTERVAL_S seconds of wall time, from SIGALRM."""

    def __init__(self):
        self.samples = []  # [perf_counter at start, loop seconds, handler seconds]
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        loop = ref_loop_s()
        self.samples.append([t0, loop, time.perf_counter() - t0])

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)


def normalise(t0: float, t1: float, samples: list) -> tuple[float, float]:
    """(raw, normalised) seconds of the interval [t0, t1].

    raw leaves out the time the handler spent inside the interval; the
    normalised time scales raw by the mean speed of the samples within
    WINDOW_S of it.
    """
    inside = sum(h for s, _, h in samples if t0 <= s < t1)
    raw = (t1 - t0) - inside
    speeds = [REF_NOMINAL_S / loop for s, loop, _ in samples
              if t0 - WINDOW_S <= s < t1 + WINDOW_S]
    if not speeds:
        raise ValueError(f"no speed sample within {WINDOW_S} s of [{t0}, {t1}]")
    return raw, raw * sum(speeds) / len(speeds)
