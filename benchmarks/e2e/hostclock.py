"""Host-speed reference: a fixed piece of work timed next to the workload.

The hosts this benchmark runs on do not hold their speed.  For a minute or
two at a time the neighbours make everything 10-40 % slower, in bursts of a
second or so; ten runs of the same code then spread 20-28 % in wall
seconds, more than the 25 % any bound may be.  The fast end of many short
units (``run.quiet``) removes the bursts; what it cannot remove is a
stretch in which there is no quiet moment.  So every child also times
``burn()`` — a frozen piece of work that has nothing to do with the code
under test — between its units, a few milliseconds every tenth of a
second, and the gated times are *wall seconds over the child's host
factor*: "calibrated seconds", the seconds the run would have taken had
the host run ``burn()`` in ``NOMINAL_S``.

``burn()`` runs in a helper process of its own (``HostClock``), started by
the child on the same CPU and asked for one reading at a time while the
child waits.  Inside the child the same loop read 6.3 ms next to table
builds and 7.5 ms next to the simulator in the same calm quarter of an
hour — its tuples come out of the workload's own fragmented heap — so the
figure would have moved with what the code under test keeps alive.

What ``burn()`` is made of was chosen on a stretch of this host that turned
noisy by itself (README, "How the timings are made steady"): a tight
integer loop alone slowed by 3-6 % while table builds, simulated frames and
the numpy kernels slowed by 10-40 %; a loop that allocates — heap pushes
of fresh tuples, dictionary updates — slowed as they did.  Both halves are
kept, so the reference answers to a slower clock and to a crowded cache.

The factor is the *lower quartile* of a child's readings over
``NOMINAL_S``: like ``quiet`` it listens to the calm moments of the
child's few seconds, which is where the unit times it divides come from
(the median follows the bursts and did worse than no calibration at all).
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

__all__ = ["NOMINAL_S", "HostClock", "burn", "factor"]

#: Seconds one ``burn()`` takes in the helper on the host that recorded
#: BASELINE.json, as the lower quartile over that recording.  It only fixes
#: the scale of a calibrated second: on that host, in that hour, calibrated
#: and wall seconds agree.
NOMINAL_S = 0.0058


def burn() -> float:
    """Wall seconds of one fixed task: 60 000 integer steps, then 6 000
    heap pushes of fresh tuples with dictionary updates and 2 000 pops."""
    t0 = time.perf_counter()
    x = 0
    for i in range(60_000):
        x += i * i
    heap: list = []
    seen: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(6_000):
        key = (i * 7919) % 10007
        push(heap, (key, i, (key, i)))
        seen[key] = seen.get(key, 0) + 1
        if i % 3 == 0:
            pop(heap)
    return time.perf_counter() - t0


def factor(readings: list[float]) -> float:
    """How much slower than nominal the host ran: the lower-quartile
    reading over ``NOMINAL_S`` (1.0 without readings)."""
    if not readings:
        return 1.0
    ordered = sorted(readings)
    return ordered[len(ordered) // 4] / NOMINAL_S


class HostClock:
    """The helper process: answers every line on its stdin with one
    reading, the faster of two ``burn()`` calls.  It inherits the caller's
    CPU affinity."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-S", __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)

    def read(self) -> float:
        self._proc.stdin.write("\n")
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:   # a forked worker still holds the pipe
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _line in sys.stdin:
        # The first burn after the workload had the CPU starts with cold
        # caches and read 5.8-7.0 ms depending on the workload; the faster
        # of two in a row does not know what ran before it.
        print(repr(min(burn(), burn())), flush=True)
