"""The strategy arena: race registered searchers under equal budgets.

Aceso's headline claim is not "greedy search finds good plans" but
"greedy bottleneck alleviation finds them *cheaper* than the
alternatives searching the same space".  The arena makes that claim
measurable: every registered strategy runs from the same initial
configuration, against its own **fresh** :class:`PerfModel` (no
strategy inherits another's warm cache), under the same
:class:`SearchBudget` and per-entry deadline.  The output is one
:class:`TournamentResult` — per-entry best objective, estimates-to-
best, and a deterministic quality-vs-cost curve (best objective by
iteration index) — serialized as ``BENCH_strategies.json``.

Entries run serially by default; with ``workers > 1`` they are
dispatched onto the crash-safe :class:`~repro.core.pool.WorkerPool`
through the same task loop the stage-count driver uses
(:func:`~repro.core.pool.run_pool_tasks`): an entry that raises,
crashes its worker, or overruns its deadline becomes a failure record,
the rest still report.  Lifecycle is published as ``arena.*`` telemetry
events, and each worker's captured ``search.strategy.*`` stream is
re-emitted with entry attribution so one run log holds the whole
tournament.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..cluster.topology import ClusterSpec
from ..codec import Record, Version, json_field
from ..ir.graph import OpGraph
from ..parallel.initializer import balanced_config
from ..perfmodel.model import PerfModel
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    ARENA_BEGIN,
    ARENA_END,
    ARENA_ENTRY_BEGIN,
    ARENA_ENTRY_END,
    ARENA_ENTRY_FAILED,
)
from ..core.budget import Deadline, SearchBudget
from ..core.pool import KILL_GRACE, forward_events, run_pool_tasks
from ..core.searcher import build_options, make_searcher

#: Format marker for ``BENCH_strategies.json``.
TOURNAMENT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArenaEntry(Record):
    """One tournament lane: a strategy, its seed, and extra kwargs.

    ``strategy_kwargs`` must *not* repeat ``seed`` — the entry's
    ``seed`` field is folded in so sweeps over seeds stay declarative.
    """

    strategy: str
    seed: int = 0
    strategy_kwargs: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.strategy}#{self.seed}"

    def options(self):
        kwargs = dict(self.strategy_kwargs)
        kwargs["seed"] = self.seed
        return build_options(self.strategy, kwargs)


@dataclass
class EntryOutcome(Record):
    """What one lane reported (or how it failed).

    ``curve`` is the deterministic quality-vs-cost trajectory:
    ``[iteration index, best objective]`` pairs, bit-reproducible from
    the entry's seed (unlike wall-clock convergence curves).
    """

    strategy: str
    seed: int
    best_objective: Optional[float] = None
    feasible: bool = False
    partial: bool = False
    converged: bool = False
    num_estimates: int = 0
    estimates_to_best: int = 0
    iterations: int = 0
    elapsed_seconds: float = 0.0
    best_signature: str = ""
    curve: List[List[float]] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class TournamentResult(Record):
    """Everything one tournament produced, JSON round-trippable.

    The JSON form lists the outcomes under ``entries`` and adds the
    winner's strategy name under ``winner`` (output only).
    """

    label: str
    stage_count: int
    budget: dict
    deadline_seconds: Optional[float]
    outcomes: List[EntryOutcome] = json_field(
        default_factory=list, key="entries"
    )
    wall_seconds: float = 0.0

    json_version = Version("format_version", TOURNAMENT_FORMAT_VERSION)
    json_derived = {
        "winner": lambda result: (
            result.winner.strategy if result.winner is not None else None
        ),
    }

    @property
    def winner(self) -> Optional[EntryOutcome]:
        """Best surviving entry: feasible plans first, then objective."""
        ranked = [o for o in self.outcomes if not o.failed]
        if not ranked:
            return None
        return min(
            ranked,
            key=lambda o: (not o.feasible, o.best_objective),
        )

    def outcome_for(self, strategy: str) -> Optional[EntryOutcome]:
        """The best (lowest-objective) non-failed lane of a strategy."""
        lanes = [
            o
            for o in self.outcomes
            if o.strategy == strategy and not o.failed
        ]
        if not lanes:
            return None
        return min(lanes, key=lambda o: (not o.feasible, o.best_objective))


def _run_entry(
    graph: OpGraph,
    cluster: ClusterSpec,
    database,
    entry: ArenaEntry,
    *,
    stage_count: int,
    budget_kwargs: dict,
    model_kwargs: dict,
    deadline_seconds: Optional[float],
) -> EntryOutcome:
    """Race one lane against its own fresh :class:`PerfModel`.

    Serial lanes call it directly; pool workers run it as a partial
    over the shared problem state, one JSON entry per task.
    """
    perf_model = PerfModel(graph, cluster, database, **model_kwargs)
    searcher = make_searcher(
        entry.strategy, graph, cluster, perf_model, options=entry.options()
    )
    init = balanced_config(graph, cluster, stage_count)
    deadline = (
        None if deadline_seconds is None else Deadline(deadline_seconds)
    )
    result = searcher.run(
        init, SearchBudget(**budget_kwargs), deadline=deadline
    )
    return EntryOutcome(
        strategy=entry.strategy,
        seed=entry.seed,
        best_objective=result.best_objective,
        feasible=result.is_feasible,
        partial=result.partial,
        converged=result.converged,
        num_estimates=result.num_estimates,
        estimates_to_best=result.estimates_to_best,
        iterations=result.trace.num_iterations,
        elapsed_seconds=result.elapsed_seconds,
        best_signature=result.best_config.signature(),
        curve=[
            [record.index, record.best_objective]
            for record in result.trace.records
        ],
    )


def run_tournament(
    graph: OpGraph,
    cluster: ClusterSpec,
    database,
    *,
    entries: Sequence[ArenaEntry],
    stage_count: int,
    budget_per_entry: Optional[dict] = None,
    deadline_seconds: Optional[float] = None,
    workers: int = 1,
    model_kwargs: Optional[dict] = None,
    label: str = "",
) -> TournamentResult:
    """Race ``entries`` under equal budget and per-entry deadline.

    Every lane searches from ``balanced_config(graph, cluster,
    stage_count)`` with a fresh :class:`PerfModel` built from the shared
    profile ``database``, so estimate counts are comparable across
    strategies (the same accounting trick the stage-count driver uses).
    Strategy names and kwargs are validated up front — a typo fails
    with a typed ``ACE212``/``ACE213`` error before any search or fork.

    ``workers > 1`` dispatches lanes onto a :class:`WorkerPool`; a lane
    whose worker crashes or overruns ``deadline_seconds`` by
    :data:`~repro.core.pool.KILL_GRACE` becomes a failure outcome (no
    retries — a tournament rematch is a rerun, not a retry).  Results
    are merged in entry order either way, so the report is
    deterministic.
    """
    if not entries:
        raise ValueError("no arena entries to race")
    if stage_count < 1:
        raise ValueError("stage_count must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    budget_kwargs = SearchBudget.validate_kwargs(
        dict(budget_per_entry or {"max_iterations": 30})
    )
    for entry in entries:
        entry.options()  # typed ACE212/ACE213 error before any work

    bus = get_bus()
    bus.emit(
        ARENA_BEGIN,
        source="arena",
        label=label,
        entries=[entry.name for entry in entries],
        stage_count=stage_count,
        budget=dict(budget_kwargs),
        deadline_seconds=deadline_seconds,
        workers=min(workers, len(entries)),
    )
    started = time.perf_counter()
    outcomes: List[Optional[EntryOutcome]] = [None] * len(entries)
    run_entry = functools.partial(
        _run_entry,
        graph,
        cluster,
        database,
        stage_count=stage_count,
        budget_kwargs=budget_kwargs,
        model_kwargs=model_kwargs or {},
        deadline_seconds=deadline_seconds,
    )

    def begin(index: int, **attrs) -> None:
        entry = entries[index]
        bus.emit(
            ARENA_ENTRY_BEGIN,
            source="arena",
            entry=entry.name,
            strategy=entry.strategy,
            seed=entry.seed,
            **attrs,
        )

    def report(index: int, outcome=None, error: Optional[str] = None):
        """Settle lane ``index`` with its outcome or its error."""
        entry = entries[index]
        if error is not None:
            outcome = EntryOutcome(
                strategy=entry.strategy, seed=entry.seed, error=error
            )
            bus.emit(
                ARENA_ENTRY_FAILED,
                source="arena",
                level=WARNING,
                entry=entry.name,
                error=error,
            )
        else:
            bus.emit(
                ARENA_ENTRY_END,
                source="arena",
                entry=entry.name,
                best_objective=outcome.best_objective,
                feasible=outcome.feasible,
                partial=outcome.partial,
                num_estimates=outcome.num_estimates,
                estimates_to_best=outcome.estimates_to_best,
            )
        outcomes[index] = outcome

    if workers <= 1 or len(entries) <= 1:
        for index, entry in enumerate(entries):
            begin(index)
            try:
                outcome = run_entry(entry)
            except Exception as exc:  # noqa: BLE001 - lane fails, race continues
                report(index, error=f"{type(exc).__name__}: {exc}")
            else:
                report(index, outcome)
    else:

        def on_dispatch(index, attempt, worker_pid) -> None:
            begin(index, worker_pid=worker_pid)

        def on_message(index, attempt, status, value, events) -> None:
            forward_events(bus, events, arena_entry=entries[index].name)
            if status == "ok":
                report(index, value)
            else:
                report(index, error=value)

        def on_lost(index, attempt, exitcode) -> None:
            report(index, error=(
                "worker reaped past the per-entry deadline"
                if exitcode is None
                else f"worker process died with exit code {exitcode}"
            ))

        # The heavy problem state crosses into workers once (fork-
        # inherited); each dispatched task is just the entry's JSON.
        run_pool_tasks(
            range(len(entries)),
            run_entry,
            ArenaEntry.from_json,
            max_workers=min(workers, len(entries)),
            bus=bus,
            message_for=lambda index: entries[index].to_json(),
            on_dispatch=on_dispatch,
            on_message=on_message,
            on_lost=on_lost,
            timeout=(
                None if deadline_seconds is None
                else deadline_seconds + KILL_GRACE
            ),
        )

    result = TournamentResult(
        label=label,
        stage_count=stage_count,
        budget=dict(budget_kwargs),
        deadline_seconds=deadline_seconds,
        outcomes=[o for o in outcomes if o is not None],
        wall_seconds=time.perf_counter() - started,
    )
    winner = result.winner
    bus.emit(
        ARENA_END,
        source="arena",
        label=label,
        winner=winner.strategy if winner is not None else None,
        winner_objective=(
            winner.best_objective if winner is not None else None
        ),
        failed=[o.strategy for o in result.outcomes if o.failed],
        wall_seconds=result.wall_seconds,
    )
    return result

