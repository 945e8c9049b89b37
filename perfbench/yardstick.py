"""A fixed pure-Python yardstick of how fast a CPU runs at the moment.

On a shared host the speed of the same Python loop swings by up to 2x, in
phases that last from a quarter of a second to minutes, and differently on
each CPU, with little CPU steal reported (see README, "Reference seconds").  A
raw time then measures the phase more than the program.  So run.py times
each operation on one CPU, shared with this yardstick running at nice 10,
and reports the operation in *reference seconds*:

    reference seconds = CPU seconds of the operation
                        x yardstick units per CPU second, over the operation
                        / REF_UNITS_PER_S

that is, the time the operation would take on a CPU that runs the yardstick
at REF_UNITS_PER_S.  The scheduler interleaves the two processes every few
milliseconds, so the yardstick samples the same CPU over the same interval
as the operation; at nice 10 it takes about a tenth of that CPU, which the
operation's own CPU time leaves out.  Nothing here imports ascpart, so a
faster or slower program moves the figure and the host's phase cancels out
of it.

One unit is AccelAsc (Kelleher & O'Sullivan) over the ascending
compositions of 18 into a no-op consumer, about 0.1 ms: a loop like
ascpart's generators.

    python3 perfbench/yardstick.py [COUNTER]

sets nice 10, prints ``ready``, runs units until SIGTERM, and then prints
the units it finished and the CPU seconds it took between SIGUSR1 and
SIGTERM.  run.py pins it and the operation to the same CPU.  With COUNTER,
the path of a file of COUNTER_SIZE bytes, it also writes its running
totals there after every unit, for `Counter` to read while it runs: the
traced run reads them at both ends of each span.
"""

from __future__ import annotations

import os
import sys
import time

UNIT_N = 18
NICE = 10

# units, CPU seconds, units again: a reader that sees two different unit
# counts caught a write half done, and reads again.
COUNTER_FORMAT = "<qdq"
COUNTER_SIZE = 24

# About the median units per CPU second beside ascpart's commands on the
# reference machine (Python 3.11.7, 2 CPUs, Intel Xeon).  Only the scale
# of the reported figures depends on this constant.
REF_UNITS_PER_S = 12000.0


def _noop(a, k):
    pass


def accel_asc(n, visit=_noop):
    """Visit every ascending composition of n as ``visit(a, k)`` (a[:k])."""
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    count = 0
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            visit(a, k + 2)
            count += 1
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        visit(a, k + 1)
        count += 1
    return count


def sample(counter=None):
    """Run units until SIGTERM; (units, CPU seconds) counted from SIGUSR1 on.

    With `counter`, a writable buffer, the running totals since the start
    go there after every unit.
    """
    import signal  # here and below, so that importing this module loads
    import struct  # nothing that ascpart loads

    state = {"start": None, "stop": False}

    def start(signum, frame):
        state["start"] = (time.process_time(), units)

    def stop(signum, frame):
        state["stop"] = True

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGTERM, stop)
    units = 0
    print("ready", flush=True)
    cpu0 = time.process_time()
    while not state["stop"]:
        accel_asc(UNIT_N)
        units += 1
        if counter is not None:
            struct.pack_into(COUNTER_FORMAT, counter, 0,
                             units, time.process_time() - cpu0, units)
    if state["start"] is None:
        return 0, 0.0
    start_cpu, start_units = state["start"]
    return units - start_units, time.process_time() - start_cpu


class Counter:
    """The running totals a yardstick writes to a COUNTER file."""

    def __init__(self, path):
        import mmap
        import struct

        self._unpack = struct.Struct(COUNTER_FORMAT).unpack_from
        with open(path, "rb") as fh:
            self._map = mmap.mmap(fh.fileno(), COUNTER_SIZE, access=mmap.ACCESS_READ)

    def read(self):
        """(units, CPU seconds) so far."""
        while True:
            units, cpu_s, again = self._unpack(self._map)
            if units == again:
                return units, cpu_s


if __name__ == "__main__":
    os.nice(NICE)
    if len(sys.argv) > 1:
        import mmap

        with open(sys.argv[1], "r+b") as fh:
            done, cpu_s = sample(mmap.mmap(fh.fileno(), COUNTER_SIZE))
    else:
        done, cpu_s = sample()
    print(done, cpu_s)
    sys.exit(0)
