"""The strategy arena: equal-budget tournaments over registered searchers."""

import dataclasses
import json

import pytest

from repro.arena import (
    ArenaEntry,
    EntryOutcome,
    TournamentResult,
    run_tournament,
)
from repro.core import Searcher, StrategyError, register_searcher
from repro.core.budget import BudgetKwargsError
from repro.core.searcher import unregister_searcher
from repro.telemetry import CallbackSink, TelemetryBus, using_bus
from repro.telemetry.events import (
    ARENA_BEGIN,
    ARENA_END,
    ARENA_ENTRY_BEGIN,
    ARENA_ENTRY_END,
    ARENA_ENTRY_FAILED,
    is_registered,
)

ENTRIES = [
    ArenaEntry(strategy="greedy"),
    ArenaEntry(strategy="mcmc"),
    ArenaEntry(strategy="bandit"),
]
BUDGET = {"max_estimates": 300}


def race(graph, cluster, database, **kwargs):
    kwargs.setdefault("entries", ENTRIES)
    kwargs.setdefault("stage_count", 2)
    kwargs.setdefault("budget_per_entry", dict(BUDGET))
    return run_tournament(graph, cluster, database, **kwargs)


def deterministic_outcome(outcome: EntryOutcome) -> dict:
    data = outcome.to_json()
    data.pop("elapsed_seconds")
    return data


class TestTournament:
    def test_every_strategy_reports(
        self, tiny_graph, small_cluster, tiny_database
    ):
        result = race(tiny_graph, small_cluster, tiny_database)
        assert [o.strategy for o in result.outcomes] == [
            "greedy", "mcmc", "bandit",
        ]
        for outcome in result.outcomes:
            assert not outcome.failed
            assert outcome.best_objective > 0
            assert outcome.best_signature
            assert outcome.curve
            # Curves are (iteration index, best objective) pairs —
            # deterministic, monotonically non-increasing in quality.
            bests = [point[1] for point in outcome.curve]
            assert bests == sorted(bests, reverse=True)
        assert result.winner is not None
        assert result.winner.feasible

    def test_reruns_are_bit_identical(
        self, tiny_graph, small_cluster, tiny_database
    ):
        first = race(tiny_graph, small_cluster, tiny_database)
        second = race(tiny_graph, small_cluster, tiny_database)
        assert [deterministic_outcome(o) for o in first.outcomes] == [
            deterministic_outcome(o) for o in second.outcomes
        ]

    def test_pool_path_matches_serial(
        self, tiny_graph, small_cluster, tiny_database
    ):
        serial = race(tiny_graph, small_cluster, tiny_database)
        pooled = race(
            tiny_graph, small_cluster, tiny_database, workers=2
        )
        assert [deterministic_outcome(o) for o in serial.outcomes] == [
            deterministic_outcome(o) for o in pooled.outcomes
        ]

    def test_json_round_trip(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        result = race(
            tiny_graph, small_cluster, tiny_database, label="round-trip"
        )
        path = tmp_path / "BENCH_strategies.json"
        result.save(path)
        data = json.loads(path.read_text())
        assert data["label"] == "round-trip"
        assert data["winner"] == result.winner.strategy
        restored = TournamentResult.from_json(data)
        assert [deterministic_outcome(o) for o in restored.outcomes] == [
            deterministic_outcome(o) for o in result.outcomes
        ]
        assert restored.budget == dict(BUDGET)

    def test_failing_strategy_becomes_failure_outcome(
        self, tiny_graph, small_cluster, tiny_database
    ):
        @dataclasses.dataclass
        class ExplodingOptions:
            seed: int = 0

        @register_searcher
        class ExplodingSearcher(Searcher):
            strategy = "exploding-test"
            options_class = ExplodingOptions

            def run(self, init_config, budget, *, deadline=None):
                raise RuntimeError("kaboom")

        try:
            result = race(
                tiny_graph, small_cluster, tiny_database,
                entries=[
                    ArenaEntry(strategy="exploding-test"),
                    ArenaEntry(strategy="greedy"),
                ],
            )
        finally:
            unregister_searcher("exploding-test")
        exploded, greedy = result.outcomes
        assert exploded.failed
        assert "kaboom" in exploded.error
        assert not greedy.failed
        assert result.winner.strategy == "greedy"

    def test_validation_happens_before_any_search(
        self, tiny_graph, small_cluster, tiny_database
    ):
        with pytest.raises(StrategyError):
            race(
                tiny_graph, small_cluster, tiny_database,
                entries=[ArenaEntry(strategy="no-such-strategy")],
            )
        with pytest.raises(StrategyError):
            race(
                tiny_graph, small_cluster, tiny_database,
                entries=[
                    ArenaEntry(
                        strategy="mcmc",
                        strategy_kwargs={"bogus": 1},
                    )
                ],
            )
        with pytest.raises(BudgetKwargsError):
            race(
                tiny_graph, small_cluster, tiny_database,
                budget_per_entry={"max_iteration": 5},
            )
        with pytest.raises(ValueError, match="no arena entries"):
            race(
                tiny_graph, small_cluster, tiny_database, entries=[]
            )

    def test_lifecycle_events_are_registered_and_attributed(
        self, tiny_graph, small_cluster, tiny_database
    ):
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            race(tiny_graph, small_cluster, tiny_database)
        names = [e.name for e in events]
        assert all(is_registered(name) for name in names)
        assert names.count(ARENA_BEGIN) == 1
        assert names.count(ARENA_END) == 1
        assert names.count(ARENA_ENTRY_BEGIN) == len(ENTRIES)
        assert names.count(ARENA_ENTRY_END) == len(ENTRIES)
        assert ARENA_ENTRY_FAILED not in names
        end = next(e for e in events if e.name == ARENA_END)
        assert end.attrs["winner"] in {e.strategy for e in ENTRIES}

    def test_seed_sweep_entries_are_distinct_lanes(
        self, tiny_graph, small_cluster, tiny_database
    ):
        result = race(
            tiny_graph, small_cluster, tiny_database,
            entries=[
                ArenaEntry(strategy="mcmc", seed=seed)
                for seed in (0, 1, 2)
            ],
        )
        assert [o.seed for o in result.outcomes] == [0, 1, 2]
        best = result.outcome_for("mcmc")
        assert best.best_objective == min(
            o.best_objective for o in result.outcomes
        )


class TestArenaEntry:
    def test_options_fold_in_the_seed(self):
        entry = ArenaEntry(
            strategy="mcmc", seed=7,
            strategy_kwargs={"initial_temperature": 0.5},
        )
        options = entry.options()
        assert options.seed == 7
        assert options.initial_temperature == 0.5
        assert entry.name == "mcmc#7"

    def test_json_round_trip(self):
        entry = ArenaEntry(
            strategy="bandit", seed=2,
            strategy_kwargs={"exploration": 2.0},
        )
        assert ArenaEntry.from_json(entry.to_json()) == entry
        bare = ArenaEntry(strategy="greedy")
        assert ArenaEntry.from_json(bare.to_json()) == bare
