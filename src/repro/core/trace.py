"""Search tracing: the raw material of the ablation experiments.

Every search iteration records how many bottlenecks were tried before
improvement (Exp#5 / Fig. 11a), how many hops the successful multi-hop
used (Fig. 11b), and the best objective over elapsed time (the
convergence trends of Figs. 12-14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..codec import Record
from ..telemetry.events import SEARCH_BEGIN, SEARCH_ITERATION


@dataclass(frozen=True)
class IterationRecord:
    """Outcome of one Algorithm 1 iteration."""

    index: int
    elapsed: float
    bottlenecks_tried: int
    hops_used: int
    improved: bool
    objective: float
    best_objective: float


@dataclass
class SearchTrace(Record):
    """Accumulated per-iteration records plus the convergence curve
    (a codec record, exported for offline analysis of search
    behaviour)."""

    records: List[IterationRecord] = field(default_factory=list)
    convergence: List[Tuple[float, float]] = field(default_factory=list)

    def record_iteration(
        self,
        *,
        index: int,
        elapsed: float,
        bottlenecks_tried: int,
        hops_used: int,
        improved: bool,
        objective: float,
        best_objective: float,
    ) -> None:
        self.records.append(
            IterationRecord(
                index=index,
                elapsed=elapsed,
                bottlenecks_tried=bottlenecks_tried,
                hops_used=hops_used,
                improved=improved,
                objective=objective,
                best_objective=best_objective,
            )
        )
        self.convergence.append((elapsed, best_objective))

    @property
    def num_iterations(self) -> int:
        return len(self.records)

    def bottleneck_histogram(self) -> Dict[int, int]:
        """# bottlenecks tried before improvement -> iteration count.

        Only iterations that found an improvement contribute (matching
        Fig. 11a's "before achieving effective improvement").
        """
        histogram: Dict[int, int] = {}
        for record in self.records:
            if record.improved:
                key = record.bottlenecks_tried
                histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def hop_histogram(self) -> Dict[int, int]:
        """# hops used by successful improvements -> iteration count."""
        histogram: Dict[int, int] = {}
        for record in self.records:
            if record.improved:
                key = record.hops_used
                histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def first_try_rate(self) -> float:
        """Fraction of improving iterations that fixed bottleneck #1."""
        histogram = self.bottleneck_histogram()
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        return histogram.get(1, 0) / total

    def multi_hop_rate(self) -> float:
        """Fraction of improving iterations that needed >1 hop."""
        histogram = self.hop_histogram()
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        return sum(v for k, v in histogram.items() if k > 1) / total

    # ------------------------------------------------------------------
    # reconstruction from the telemetry event stream
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events) -> "SearchTrace":
        """Rebuild a trace from ``search.begin``/``search.iteration``
        telemetry events (see :mod:`repro.telemetry`).

        ``AcesoSearch`` emits its per-iteration outcomes as events and
        derives its :class:`SearchTrace` through this constructor, so
        the trace in checkpoints and ablation benches is exactly the
        event stream replayed — same floats, bit-for-bit.
        """
        trace = cls()
        for event in events:
            if event.name == SEARCH_BEGIN:
                trace.convergence.append(
                    (0.0, event.attrs["best_objective"])
                )
            elif event.name == SEARCH_ITERATION:
                attrs = event.attrs
                trace.record_iteration(
                    index=attrs["index"],
                    elapsed=attrs["elapsed"],
                    bottlenecks_tried=attrs["bottlenecks_tried"],
                    hops_used=attrs["hops_used"],
                    improved=attrs["improved"],
                    objective=attrs["objective"],
                    best_objective=attrs["best_objective"],
                )
        return trace
