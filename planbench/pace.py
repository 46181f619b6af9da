"""The machine's pace, measured beside the planner's work.

A shared 2-core cloud VM (Intel Xeon, 2 vCPUs) runs identical work at
speeds up to about 1.9x apart, switching every few seconds and at
times settling in one speed for minutes.  A rate in raw wall time then
reports the machine's spell as much as the planner.  The gated rate is
therefore expressed in reference seconds: a fixed pure-Python kernel
(float math, integer arithmetic and string formatting, none of it
planner code) is timed again and again while the planner works, and
each stretch of work is converted at the kernel's pace measured next to
it, one reference second being :data:`KERNELS_PER_REF_S` kernel runs.
A planner change does not touch the kernel, so it moves a rate in
reference seconds as much as the raw rate; a slow spell of the machine
slows the kernel too, and largely cancels.

:meth:`Pace.timing` samples the kernel from a ``SIGALRM`` interval
timer, so it runs in the main thread between the planner's own Python
steps, never beside them.  It suits work done by the main thread
alone.  Work spread over threads or processes is timed by its caller
and handed to :meth:`Pace.add` at a point where nothing else runs,
which samples the kernel there.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import time
from statistics import median
from typing import List

#: Kernel runs per reference second; they take 1.2-1.5 s of wall time
#: on the 2-core VM the bounds were set on.
KERNELS_PER_REF_S = 1000
#: Seconds between kernel samples while :meth:`Pace.timing` is active;
#: a kernel run takes 1.2-1.5 ms, so sampling adds about 3 %.
INTERVAL_S = 0.05


def kernel() -> int:
    """Fixed work that shares nothing with the planner."""
    total = 0.0
    for i in range(3600):
        total += math.sqrt(i * 1.5) * 0.5
    count = 0
    for i in range(4800):
        count += i * i % 7
    text = ",".join(f"{i}:{i * 3}" for i in range(900))
    return count + len(text) + int(total)


def _timed_kernel() -> float:
    """One kernel run with the collector off, so the planner's heap
    cannot make the kernel pay for a collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Kernel samples and the work time they are set against.

    ``work_s`` is the work's wall time; ``work_ref_s`` the same work in
    reference seconds, each stretch of work converted at the kernel's
    pace measured next to it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.work_s = 0.0
        self.work_ref_s = 0.0
        self._since = 0.0

    def _tick(self, signum, frame) -> None:
        stretch = time.perf_counter() - self._since
        seconds = _timed_kernel()
        self.samples.append(seconds)
        self.work_s += stretch
        self.work_ref_s += stretch / (seconds * KERNELS_PER_REF_S)
        self._since = time.perf_counter()

    @contextlib.contextmanager
    def timing(self):
        """Time the block as work, sampling the kernel every
        :data:`INTERVAL_S` from inside it; each stretch of work between
        two samples is converted at the pace the later one measured,
        the last at the block's mean pace."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        before = len(self.samples)
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            stretch = time.perf_counter() - self._since
            signal.signal(signal.SIGALRM, previous)
            if len(self.samples) == before:
                self.sample(1)
            mine = self.samples[before:]
            self.work_s += stretch
            self.work_ref_s += stretch / (
                KERNELS_PER_REF_S * sum(mine) / len(mine)
            )

    def add(self, seconds: float, runs: int) -> None:
        """Add ``seconds`` of work done elsewhere, then sample the kernel
        ``runs`` times and convert the work at the median sample: idle
        threads still wake now and then and hold up a few samples."""
        before = len(self.samples)
        self.sample(runs)
        self.work_s += seconds
        self.work_ref_s += seconds / (
            KERNELS_PER_REF_S * median(self.samples[before:])
        )

    def sample(self, runs: int) -> None:
        """Run the kernel ``runs`` times now, outside the work time."""
        for _ in range(runs):
            self.samples.append(_timed_kernel())

    def note(self) -> str:
        return (
            f"pace: {len(self.samples)} kernel samples; work "
            f"{self.work_s:.3f} s = {self.work_ref_s:.3f} ref_s"
        )


def timing(pace):
    """``pace.timing()``, or nothing when the run is not paced."""
    return contextlib.nullcontext() if pace is None else pace.timing()
