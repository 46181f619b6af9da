"""Statistics, result records and the determinism ledger shared by the
three workloads."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median  # noqa: F401 - shared by the workloads
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Percentiles tried, highest first, when picking the reported tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Samples a tail percentile needs beyond it to be reported.
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest ladder percentile that has at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, or None."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q, percentile(values, q)
    return None


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set, in MB, of this process or of the largest of
    its reaped child processes (the planner's pool workers), whichever
    is larger; Linux reports KiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


@dataclass
class Outcome:
    """What one execution of a workload hands back to ``run.py``.

    ``metrics`` maps metric name to (value, unit); ``fingerprint``
    holds the deterministic counts and digests that must repeat
    exactly for the same inputs; ``failures`` names every operation or
    correctness check that failed.  ``wall_s`` is the timed part,
    the base of the tracing-overhead ratio.
    """

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted check; record ``what`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def span(tracer, name: str, rid=None):
    """A tracer span, or nothing when the run is untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, rid)


def unrecorded(tracer):
    """Suspend the tracer (if any) around the benchmark's own work."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.suspended()


class SetupClock:
    """Times a workload's set-up several times in a run.

    :meth:`first` builds the objects the run uses, traced.
    :meth:`resample` repeats the set-up untraced, hands each copy to
    ``release`` at once and collects what the copies left behind.  Call
    it before :meth:`first` and again after the timed work and after
    reading ``peak_rss_mb``: the copies then count neither toward the
    layer numbers nor toward the peak, and the samples come from both
    ends of the run rather than from one moment's machine speed.
    ``setup_s`` is the median.
    """

    def __init__(self, setup, tracer=None, release=None) -> None:
        self._setup = setup
        self._tracer = tracer
        self._release = release
        self.seconds: List[float] = []

    def _timed(self):
        started = time.perf_counter()
        result = self._setup()
        self.seconds.append(time.perf_counter() - started)
        return result

    def first(self):
        return self._timed()

    def resample(self, times: int) -> None:
        with unrecorded(self._tracer):
            for _ in range(times):
                copy = self._timed()
                if self._release is not None:
                    self._release(copy)
                del copy
        gc.collect()

    def median(self) -> float:
        return median(self.seconds)


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def source_digest(root: Path) -> str:
    """Digest of the planner and benchmark sources: fingerprints are
    compared only between runs of identical code."""
    h = hashlib.sha256()
    for base in (root / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_check(root: Path, key: str, fingerprint: dict) -> Optional[str]:
    """Compare ``fingerprint`` with the one recorded for ``key`` by an
    earlier run in this checkout, recording it if new.

    Returns a description of the mismatch, or None.  The ledger lives
    in ``.planbench/`` at the root of the checkout.
    """
    directory = root / ".planbench"
    directory.mkdir(exist_ok=True)
    path = directory / "fingerprints.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    mine = digest(fingerprint)
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = mine
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    if seen != mine:
        return f"fingerprint {mine} differs from {seen} recorded earlier"
    return None
