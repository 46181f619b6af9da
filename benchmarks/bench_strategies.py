"""Strategy arena on the scalability model: quality vs search cost.

Races every registered searcher (greedy bottleneck alleviation, MCMC
over the reconfiguration primitives, per-bottleneck-kind UCB1 bandit)
on ``gpt-48l`` under an **equal estimate budget** — the currency the
paper charges search cost in (Figure 8 counts configurations
estimated, not wall seconds).  Each lane starts from the same balanced
configuration with a fresh performance model, so ``num_estimates`` and
``estimates_to_best`` are directly comparable.

Reports, per ``benchmarks/results/BENCH_strategies.json``:

* per-strategy best objective and estimates-to-best under the shared
  budget (the quality-vs-cost headline),
* the deterministic per-iteration convergence curve of every lane,
* the tournament winner.

Every field asserted or written here is bit-reproducible from the
recorded seeds: lanes are seeded, curves are indexed by iteration (not
wall clock), and the comparison against the committed JSON skips the
wall-clock fields (``elapsed_seconds``/``wall_seconds``) on purpose.
The quality floor is the paper's claim in miniature: greedy must reach
a feasible plan at least as good as every competitor's under the same
budget on this setting.
"""

import json
import os

from common import RESULTS_DIR, emit, print_header, print_table

from repro.arena import ArenaEntry, run_tournament
from repro.cluster import paper_cluster
from repro.ir.models import build_model
from repro.profiling import SimulatedProfiler

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_strategies.json")

MODEL = "gpt-48l"
GPUS = 8
STAGE_COUNT = 8
SEED = 0
#: Equal per-lane search budget, in model estimates.
MAX_ESTIMATES = 2000

#: The deterministic per-lane fields the committed JSON must reproduce
#: bit-for-bit; wall-clock fields are excluded by construction.
DETERMINISTIC_FIELDS = (
    "strategy",
    "seed",
    "best_objective",
    "feasible",
    "converged",
    "num_estimates",
    "estimates_to_best",
    "iterations",
    "best_signature",
    "curve",
    "error",
)


def _deterministic_view(payload: dict) -> dict:
    """The bit-reproducible projection of a tournament record."""
    return {
        "format_version": payload["format_version"],
        "label": payload["label"],
        "stage_count": payload["stage_count"],
        "budget": payload["budget"],
        "entries": [
            {field: entry[field] for field in DETERMINISTIC_FIELDS}
            for entry in payload["entries"]
        ],
        "winner": payload["winner"],
    }


def run_strategy_tournament():
    """One seeded tournament over all registered strategies."""
    graph = build_model(MODEL)
    cluster = paper_cluster(GPUS)
    database = SimulatedProfiler(cluster, seed=SEED).profile(graph)
    entries = [
        ArenaEntry(strategy=name, seed=SEED)
        for name in ("greedy", "mcmc", "bandit")
    ]
    return run_tournament(
        graph,
        cluster,
        database,
        entries=entries,
        stage_count=STAGE_COUNT,
        budget_per_entry={"max_estimates": MAX_ESTIMATES},
        label=f"{MODEL}/gpus={GPUS}/stages={STAGE_COUNT}",
    )


def test_strategy_arena_quality_vs_cost():
    result = run_strategy_tournament()
    assert len(result.outcomes) == 3
    for outcome in result.outcomes:
        assert not outcome.failed, (
            f"{outcome.strategy}#{outcome.seed}: {outcome.error}"
        )
        assert outcome.feasible, (
            f"{outcome.strategy} found no feasible plan in "
            f"{MAX_ESTIMATES} estimates"
        )
        # Budgets are cooperative (checked at iteration boundaries),
        # so a lane may overshoot by its final iteration's estimates.
        assert outcome.num_estimates <= MAX_ESTIMATES * 1.25

    print_header(
        f"Strategy arena ({MODEL}, {GPUS} GPUs, "
        f"{MAX_ESTIMATES} estimates/lane)"
    )
    print_table(
        ["strategy", "objective", "estimates", "to-best", "iters"],
        [
            [
                f"{o.strategy}#{o.seed}",
                f"{o.best_objective:.6f}",
                o.num_estimates,
                o.estimates_to_best,
                o.iterations,
            ]
            for o in result.outcomes
        ],
    )
    winner = result.winner
    emit(
        f"winner: {winner.strategy} ({winner.best_objective:.6f} after "
        f"{winner.estimates_to_best} estimates)"
    )

    payload = result.to_json()
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            committed = json.load(handle)
        assert _deterministic_view(committed) == _deterministic_view(
            payload
        ), (
            "tournament drifted from the committed "
            "BENCH_strategies.json — regenerate it (delete the file "
            "and rerun) only with an intentional search change"
        )
        emit(f"(matches committed {BENCH_JSON})")
    else:
        result.save(BENCH_JSON)
        emit(f"(written to {BENCH_JSON})")

    # The paper's claim in miniature: greedy bottleneck alleviation is
    # at least as good as the generic strategies under an equal budget.
    greedy = result.outcome_for("greedy")
    for other in ("mcmc", "bandit"):
        outcome = result.outcome_for(other)
        assert greedy.best_objective <= outcome.best_objective * 1.05, (
            f"greedy ({greedy.best_objective:.6f}) lost to {other} "
            f"({outcome.best_objective:.6f}) by more than 5%"
        )
