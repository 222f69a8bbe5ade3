"""Times in reference seconds: wall time corrected for the machine's speed.

On a shared host the speed one process gets drifts by up to a quarter
over a few seconds, in CPU time as in wall time, whatever the process
runs.  `SpeedSampler` runs a fixed pure-Python reference chunk every
`INTERVAL_S` seconds from a SIGALRM handler in the benchmark's own thread
and records how long each took.  `seconds(start, end)` is the time the
program spent in that interval (the handler's own time taken out),
scaled by how fast the reference ran in and around it: the time the same
work would take at the speed where the chunk takes `REF_CHUNK_S`.  A
program that does more work reads slower; a host that gives the process
less speed does not.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

#: the reference chunk's time at the reference speed; it took about this
#: long in a typical phase of a 2-vCPU Xeon (2.1 GHz) sandbox under Python 3.11
REF_CHUNK_S = 0.0007
#: seconds between reference chunks (about 1.5 % of the run)
INTERVAL_S = 0.05
#: a short interval is judged by the chunks within this window around it
MIN_WINDOW_S = 0.5

_rng = random.Random(7)
_MATRIX = [[_rng.randrange(5) for _ in range(14)] for _ in range(12)]


def reference_chunk() -> int:
    """Fixed work of the kinds zpwalk does: row reduction mod 5 on lists
    of ints, and tuple states counted in a dict."""
    for _ in range(2):
        M = [row[:] for row in _MATRIX]
        rank = 0
        for c in range(14):
            pivot = next((r for r in range(rank, 12) if M[r][c]), None)
            if pivot is None:
                continue
            M[rank], M[pivot] = M[pivot], M[rank]
            inv = pow(M[rank][c], 3, 5)
            M[rank] = [x * inv % 5 for x in M[rank]]
            for r in range(12):
                if r != rank and M[r][c]:
                    f = M[r][c]
                    M[r] = [(a - f * b) % 5 for a, b in zip(M[r], M[rank])]
            rank += 1
    seen: dict = {}
    state = (0,) * 8
    for i in range(240):
        state = state[1:] + ((state[0] + i) % 5,)
        seen[state] = seen.get(state, 0) + 1
    return rank + len(seen)


class SpeedSampler:
    """Samples the reference chunk's time while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        reference_chunk()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the program's work between start and end."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.starts, end)
        busy = sum(min(e, end) - max(s, start)
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        mid, half = (start + end) / 2, max(end - start, MIN_WINDOW_S) / 2
        lo = bisect.bisect_left(self.starts, mid - half)
        hi = bisect.bisect_right(self.starts, mid + half)
        if lo == hi:  # no chunk in the window: take the nearest one
            lo = min(max(bisect.bisect_left(self.starts, mid), 1), len(self.starts)) - 1
            hi = lo + 1
        speed = statistics.fmean(REF_CHUNK_S / (e - s)
                                 for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (end - start - busy) * speed
