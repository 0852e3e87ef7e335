"""Gauge the host's CPU speed while a workload runs.

The shared hosts this benchmark runs on change speed by tens of percent from
one second to the next, and CPU time changes with it, so raw times of the
same code spread too widely to bound a regression. A :class:`SpeedSampler`
times a fixed chunk of interpreter work every ``PERIOD_S`` of real time, from
a ``SIGALRM`` handler in the workload's own process, so the chunks run on the
same CPU and in the same seconds as the workload itself. A phase's time is
then reported at a fixed reference speed: the phase's own time minus the
chunks run inside it, times ``REF_CHUNK_S`` over the mean chunk time in it.

Only the standard library is used, so the sampler can start before
``import cpodrift`` and cover set-up as well.
"""

import signal
import time

PERIOD_S = 0.025
# Mean chunk time on the host the baseline was measured on (see README).
# Corrected times read as seconds on a host where a chunk takes this long.
REF_CHUNK_S = 0.001


def chunk() -> None:
    """A fixed amount of interpreter work: float formatting and parsing,
    integer arithmetic and dict updates."""
    counts, x = {}, 0.1
    for i in range(1000):
        x = (x * 1.000003 + 0.7) % 97.0
        x += float(f"{x:.6g}") * 1e-9
        counts[i & 15] = counts.get(i & 15, 0) + (i * i) % 7


class SpeedSampler:
    """Chunk timings ``(start, seconds)`` taken every ``PERIOD_S``."""

    def __init__(self):
        self.samples = []

    def _tick(self, *_):
        t = time.perf_counter()
        chunk()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def phase(self, t0=float("-inf"), t1=float("inf")) -> dict:
        """Chunks started in ``[t0, t1)``: their count, the seconds they
        took and their mean. Falls back to every chunk if none started
        there, so a phase shorter than ``PERIOD_S`` still gets a speed."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        busy = sum(inside)
        chunks = inside or [d for _, d in self.samples]
        return {"chunks": len(inside), "busy_s": busy,
                "chunk_s": sum(chunks) / len(chunks)}


def at_reference(seconds: float, phase: dict) -> float:
    """``seconds`` of a phase, less its own chunks, at the reference speed."""
    return (seconds - phase["busy_s"]) * REF_CHUNK_S / phase["chunk_s"]
