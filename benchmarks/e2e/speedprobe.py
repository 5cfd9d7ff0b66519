"""How fast a cpu runs: one fixed piece of work, timed in cpu seconds.

``speed_sample()`` is the work; run as a program (``python
speedprobe.py <log path>``) this file is the idle-priority probe that
``loadgen.Placement`` pins to each cpu.

The work is many small numpy calls plus dict and string handling, the
instruction mix of the program under test.  A probe of kernels on the
reference box: while a neighbour slows a vcpu, a strided sum takes
1.09x as long, a sort of 20k floats 1.28x, a plain counting loop
1.38x, small numpy calls 1.50x, the engine's ``query_many(64)`` 1.58x
and dict lookups 1.67x; the ratio of ``query_many`` to the small-call
kernel held within 2.6% through it.
"""

import array
import os
import signal
import sys
import time

import numpy as np

_ARRAYS = [np.linspace(0.0, 1.0, 1000) + i for i in range(16)]
_WORDS = {i: str(i) for i in range(400)}


def speed_sample() -> tuple:
    """Do the fixed work on the calling thread: ``(when it ended, cpu
    seconds it took)``.  Cpu seconds, so that being preempted in the
    middle does not count."""
    c0 = time.thread_time()
    for x in _ARRAYS:
        np.cumsum(x)
        np.searchsorted(x, 0.5)
        (x * 2.0 + 1.0).sum()
    "".join([_WORDS[i] for i in range(400)])
    return time.perf_counter(), time.thread_time() - c0


def main(path: str) -> None:
    """Sample until SIGTERM (or until the parent is gone), then write
    the log: all the end times, then all the cpu seconds, as doubles.

    SCHED_IDLE tasks run only when a cpu has nothing else to do and
    are preempted at once by any normal task; if the policy cannot be
    set the probe exits rather than spin at normal priority.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return
    parent = os.getppid()
    when, took = array.array("d"), array.array("d")
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    while not stop and os.getppid() == parent:
        t, c = speed_sample()
        when.append(t)
        took.append(c)
    with open(path, "wb") as fh:
        when.tofile(fh)
        took.tofile(fh)


if __name__ == "__main__":
    main(sys.argv[1])
