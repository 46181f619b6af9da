#!/usr/bin/env python
"""CI smoke test for the strategy arena.

Races every registered search strategy (greedy, MCMC, bandit) on a
small model under a shared estimate budget and a 10-second deadline per
lane, then asserts that

* every lane finishes without an error and finds a **feasible** plan;
* the tournament is **bit-reproducible**: the winner and the greedy
  lane's deterministic digest match the committed reference
  (``scripts/arena_smoke_reference.json``) — regenerate the reference
  (delete the file and rerun) only with an intentional search change;
* racing the same entries again on the worker pool (``workers=3``)
  gives every lane the same deterministic digest as the serial race;
* the run log left behind is schema-valid and contains the full
  ``arena.*`` lifecycle of both races, forwarded worker events
  included.

Artifacts land in ``smoke-arena/`` (run log + serial and pooled
tournament JSON reports) for the build upload.

Run from the repository root:
``PYTHONPATH=src python scripts/arena_smoke.py``
"""

import hashlib
import json
import os
import sys

SMOKE_DIR = "smoke-arena"
REFERENCE = os.path.join("scripts", "arena_smoke_reference.json")

MODEL = "gpt-4l"
GPUS = 4
STAGE_COUNT = 2
SEED = 0
MAX_ESTIMATES = 400
DEADLINE_SECONDS = 10.0
POOL_WORKERS = 3

#: Wall-clock fields are excluded from the digest by construction.
DETERMINISTIC_FIELDS = (
    "strategy", "seed", "best_objective", "feasible", "converged",
    "num_estimates", "estimates_to_best", "iterations",
    "best_signature", "curve", "error",
)


def digest(outcome_json):
    view = {
        field: outcome_json[field] for field in DETERMINISTIC_FIELDS
    }
    return hashlib.sha256(
        json.dumps(view, sort_keys=True).encode()
    ).hexdigest()[:16]


def main():
    os.makedirs(SMOKE_DIR, exist_ok=True)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    from repro.arena import ArenaEntry, run_tournament
    from repro.cluster import paper_cluster
    from repro.ir.models import build_model
    from repro.profiling import SimulatedProfiler
    from repro.telemetry import (
        CallbackSink,
        JsonlSink,
        TelemetryBus,
        using_bus,
        validate_run_log,
    )

    run_log = os.path.join(SMOKE_DIR, "arena-events.jsonl")
    report_path = os.path.join(SMOKE_DIR, "arena-report.json")
    pool_report_path = os.path.join(SMOKE_DIR, "arena-pool-report.json")
    if os.path.exists(run_log):
        os.remove(run_log)

    graph = build_model(MODEL)
    cluster = paper_cluster(GPUS)
    database = SimulatedProfiler(cluster, seed=SEED).profile(graph)
    entries = [
        ArenaEntry(strategy=name, seed=SEED)
        for name in ("greedy", "mcmc", "bandit")
    ]

    sink = JsonlSink(run_log, flush_every=1)

    def race(workers):
        """One tournament logged to the shared run log; returns it and
        the names of the events it emitted."""
        names = []
        bus = TelemetryBus()
        bus.add_sink(sink)
        bus.add_sink(CallbackSink(lambda event: names.append(event.name)))
        with using_bus(bus):
            result = run_tournament(
                graph, cluster, database,
                entries=entries,
                stage_count=STAGE_COUNT,
                budget_per_entry={"max_estimates": MAX_ESTIMATES},
                deadline_seconds=DEADLINE_SECONDS,
                workers=workers,
                label=f"smoke/{MODEL}/gpus={GPUS}/workers={workers}",
            )
        return result, names

    try:
        result, serial_names = race(1)
        pooled, pooled_names = race(POOL_WORKERS)
    finally:
        sink.close()
    result.save(report_path)
    pooled.save(pool_report_path)

    problems = []
    for outcome in result.outcomes:
        line = (
            f"{outcome.strategy}#{outcome.seed}: "
            f"objective={outcome.best_objective:.6f} "
            f"feasible={outcome.feasible} "
            f"estimates={outcome.num_estimates} "
            f"iters={outcome.iterations}"
        )
        print(line)
        if outcome.failed:
            problems.append(f"{outcome.strategy}#{outcome.seed} failed: {outcome.error}")
        elif not outcome.feasible:
            problems.append(f"{outcome.strategy}#{outcome.seed} found no feasible plan")

    winner = result.winner
    if winner is None:
        problems.append("tournament produced no winner")
    else:
        greedy = result.outcome_for("greedy")
        fingerprint = {
            "winner": winner.strategy,
            "winner_digest": digest(winner.to_json()),
            "greedy_digest": digest(greedy.to_json()),
        }
        print(f"winner: {winner.strategy} "
              f"({winner.best_objective:.6f}), "
              f"digests: {fingerprint['winner_digest']} / "
              f"greedy {fingerprint['greedy_digest']}")
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as handle:
                committed = json.load(handle)
            if committed != fingerprint:
                problems.append(
                    f"tournament drifted from the committed reference "
                    f"{REFERENCE}: expected {committed}, got "
                    f"{fingerprint} — regenerate (delete the file and "
                    f"rerun) only with an intentional search change"
                )
            else:
                print(f"(matches committed {REFERENCE})")
        else:
            with open(REFERENCE, "w") as handle:
                json.dump(fingerprint, handle, indent=2)
                handle.write("\n")
            print(f"(reference written to {REFERENCE} — commit it)")

    serial_digests = [digest(o.to_json()) for o in result.outcomes]
    pooled_digests = [digest(o.to_json()) for o in pooled.outcomes]
    print(f"pooled (workers={POOL_WORKERS}) lane digests: "
          f"{' '.join(pooled_digests)}")
    if pooled_digests != serial_digests:
        problems.append(
            f"pooled lanes drifted from the serial race: expected "
            f"{serial_digests}, got {pooled_digests}"
        )

    events = validate_run_log(run_log)
    print(f"run log: {len(events)} events, schema OK")
    for mode, names in (("serial", serial_names), ("pooled", pooled_names)):
        if names.count("arena.begin") != 1 or names.count("arena.end") != 1:
            problems.append(
                f"{mode} race missing the arena.begin/arena.end pair"
            )
        for lifecycle in ("arena.entry.begin", "arena.entry.end"):
            if names.count(lifecycle) != len(entries):
                problems.append(
                    f"{mode} race: {names.count(lifecycle)} {lifecycle} "
                    f"events for {len(entries)} entries"
                )
    print(f"reports -> {report_path}, {pool_report_path}")

    if problems:
        print("\nFAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("arena smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
