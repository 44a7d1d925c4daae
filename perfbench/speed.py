"""The speed of the core the benchmark runs on, sampled while it times the program.

On a shared VM a core's speed can swing by up to 2x within a minute (on the
2-vCPU VM this benchmark was tuned on, a fixed loop ran at one speed or about
45% slower, switching within seconds, and the two cores switched
independently).  A median over one run cannot remove a swing that lasts the
whole run, so every end-to-end time is scaled to a reference speed:

    reference seconds = (wall seconds - sampler's own seconds)
                        * REFERENCE_CHUNK_S / mean chunk time sampled meanwhile

While a ``Sampler`` runs, every ``PERIOD_S`` of this process's CPU time
(``ITIMER_PROF``, so a process waiting for a child takes no samples) a signal
handler times one fixed chunk of pure-Python work: composing two permutations
of 64 points, as finivar's group code does.  The chunk uses no finivar code,
so a change to the program cannot move it.  Sample times come from
``time.perf_counter`` (CLOCK_MONOTONIC), so a parent can use a child's samples.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
CHUNK_ROUNDS = 100
# Median chunk time on the VM above; it only sets the scale of the reported
# numbers, which read as seconds on a core that runs a chunk this fast.
REFERENCE_CHUNK_S = 0.00022

# Two fixed permutations of 64 points (7 and 13 are prime to 64).  Nothing
# heavier is imported: cli children load this module before finivar.
_P = tuple((7 * i + 3) % 64 for i in range(64))
_Q = tuple((13 * i + 5) % 64 for i in range(64))


def chunk() -> tuple:
    r = _P
    for _ in range(CHUNK_ROUNDS):
        r = tuple(r[i] for i in _Q)
    return r


class Sampler:
    """Times one chunk every ``PERIOD_S`` of CPU time while started, and one
    when it starts and stops, so that every window has a sample near it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = signal.SIG_DFL

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        chunk()
        self.starts.append(started)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Must run before the process exits: SIGPROF's default action kills it."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample(None, None)

    def window(self, start: float, end: float) -> tuple[float, list[float]]:
        """The sampler's own time inside [start, end] and the chunk times to
        scale that interval by: those inside it, else the nearest one or two."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        if inside:
            return sum(inside), inside
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
        return 0.0, [self.ends[i] - self.starts[i] for i in near]

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of this process."""
        own, chunks = self.window(start, end)
        return scale(end - start - own, chunks)

    def summary(self) -> dict:
        """What a child sends its parent: its own time and its chunk times."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        return {"own_s": sum(durations), "chunks_s": durations}


def scale(seconds: float, chunks: list[float]) -> float:
    return seconds * REFERENCE_CHUNK_S * len(chunks) / sum(chunks)
