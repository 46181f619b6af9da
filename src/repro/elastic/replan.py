"""Warm re-planning on a changed cluster (the paper's §1 motivation).

Aceso argues that a cheap search enables *re*-search whenever cluster
resources change.  :func:`warm_replan` is the one warm replanner: the
elastic controller calls it on every replan, and :func:`elastic_replan`
runs it against a cold restart of the full per-stage-count driver to
report, for each strategy, the estimates spent until the first feasible
configuration, the total estimates, the wall-clock time-to-new-plan and
the objective reached — the numbers quoted in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterSpec
from ..core.budget import SearchBudget
from ..core.search import (
    AcesoSearch,
    AcesoSearchOptions,
    search_all_stage_counts,
)
from ..faults.inject import adapt_config, memory_safe_variant
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.initializer import balanced_config
from ..perfmodel.model import PerfModel
from ..profiling.profiler import SimulatedProfiler
from ..telemetry import WARNING, get_bus
from ..telemetry.events import ELASTIC_FALLBACK


@dataclass
class WarmReplan:
    """The plan one warm replan settled on."""

    config: ParallelConfig
    objective: float
    feasible: bool
    #: Fallback ladder rung; ``None`` when the search itself found a
    #: feasible plan.
    rung: Optional[str]
    #: ``(objective, config)`` seeds for the next warm replan.
    survivors: List[Tuple[float, ParallelConfig]]


def warm_replan(
    graph: OpGraph,
    cluster: ClusterSpec,
    model: PerfModel,
    survivors: Sequence[Tuple[float, ParallelConfig]],
    *,
    current: Optional[ParallelConfig] = None,
    options: Optional[AcesoSearchOptions] = None,
    budget: SearchBudget,
) -> WarmReplan:
    """One bounded search from the adapted survivors; never raises.

    Survivors are adapted to ``cluster`` in prior objective order (the
    old cluster's best plans first, then ``current``), each chased by
    its full-recompute variant: the plain adaptation keeps the prior
    plan's speed but often overshoots the smaller cluster's memory,
    while the safe variant is nearly always feasible immediately.  One
    batched estimate costs them all in that order, so the model's
    ``first_feasible_estimate`` lands on the survivor a sequential scan
    would have found.  The search starts from the best of them (or a
    balanced config when none adapts).  If it fails to find a feasible
    plan, the cheapest servable answer wins, in ladder order:
    ``adapted_survivor``, ``infeasible_search_best``,
    ``infeasible_adapted``, ``balanced_restart``.
    """
    bus = get_bus()
    pool = sorted(survivors, key=lambda pair: pair[0])
    if current is not None:
        pool.append((0.0, current))
    candidates: List[ParallelConfig] = []
    seen = set()
    for _, config in pool:
        adapted = adapt_config(config, graph, cluster)
        if adapted is None:
            continue
        for variant in (adapted, memory_safe_variant(adapted)):
            signature = variant.signature()
            if signature not in seen:
                seen.add(signature)
                candidates.append(variant)

    best_candidate: Optional[ParallelConfig] = None
    best_candidate_obj = float("inf")
    feasible_candidate: Optional[ParallelConfig] = None
    feasible_candidate_obj = float("inf")
    if candidates:
        reports = model.estimate_batch(candidates)
        for candidate, report in zip(candidates, reports):
            objective = model.objective_from_report(report)
            if objective < best_candidate_obj:
                best_candidate = candidate
                best_candidate_obj = objective
            if not report.is_oom and objective < feasible_candidate_obj:
                feasible_candidate = candidate
                feasible_candidate_obj = objective

    def balanced() -> ParallelConfig:
        return balanced_config(graph, cluster, min(2, cluster.num_gpus))

    try:
        result = AcesoSearch(graph, cluster, model, options=options).run(
            best_candidate or balanced(), budget
        )
    except Exception as error:  # ladder below, never crash
        if bus.active:
            bus.emit(
                ELASTIC_FALLBACK,
                source="elastic",
                level=WARNING,
                rung="search_error",
                error=repr(error),
            )
        result = None

    if result is not None and result.is_feasible:
        return WarmReplan(
            config=result.best_config,
            objective=result.best_objective,
            feasible=True,
            rung=None,
            survivors=list(result.top_configs),
        )

    if feasible_candidate is not None:
        rung = "adapted_survivor"
        chosen, objective = feasible_candidate, feasible_candidate_obj
        feasible = True
    elif result is not None:
        rung = "infeasible_search_best"
        chosen, objective = result.best_config, result.best_objective
        feasible = False
    elif best_candidate is not None:
        rung = "infeasible_adapted"
        chosen, objective = best_candidate, best_candidate_obj
        feasible = False
    else:
        rung = "balanced_restart"
        chosen = balanced()
        report = model.estimate(chosen)
        objective = model.objective_from_report(report)
        feasible = not report.is_oom
    if bus.active:
        bus.emit(
            ELASTIC_FALLBACK,
            source="elastic",
            level=WARNING,
            rung=rung,
            feasible=feasible,
        )
    return WarmReplan(
        config=chosen,
        objective=objective,
        feasible=feasible,
        rung=rung,
        survivors=[(objective, chosen)],
    )


@dataclass
class ReplanOutcome:
    """One re-planning strategy's cost and result."""

    strategy: str  # "warm" or "cold"
    best_config: ParallelConfig
    best_objective: float
    feasible: bool
    num_estimates: int
    estimates_to_feasible: Optional[int]
    wall_seconds: float
    #: The warm side's fallback rung (see :func:`warm_replan`); always
    #: ``None`` for the cold restart.
    rung: Optional[str] = None


@dataclass
class ReplanComparison:
    """Warm-start vs. cold-restart on the surviving cluster."""

    warm: ReplanOutcome
    cold: ReplanOutcome

    @property
    def estimate_savings(self) -> float:
        """Fraction of cold-restart estimates the warm start avoided."""
        if self.cold.num_estimates <= 0:
            return 0.0
        return 1.0 - self.warm.num_estimates / self.cold.num_estimates


def elastic_replan(
    graph: OpGraph,
    cluster: ClusterSpec,
    survivors: Sequence[Tuple[float, ParallelConfig]],
    *,
    database=None,
    seed: int = 0,
    options: Optional[AcesoSearchOptions] = None,
    budget_per_count: Optional[dict] = None,
    stage_counts: Optional[Sequence[int]] = None,
) -> ReplanComparison:
    """Warm-start vs. cold-restart re-planning on ``cluster``.

    Args:
        graph: the model being trained.
        cluster: the *surviving* cluster (already shrunk).
        survivors: ``(objective, config)`` pairs from the old cluster's
            search (e.g. ``MultiStageSearchResult.top_configs()``).
        database: profile database for ``cluster``; profiled fresh with
            ``seed`` when omitted.
        options / budget_per_count: forwarded to both strategies so the
            comparison is apples-to-apples per search run.
        stage_counts: cold-restart stage counts (default powers of two).
    """
    if database is None:
        database = SimulatedProfiler(cluster, seed=seed).profile(graph)
    budget_kwargs = dict(budget_per_count or {"max_iterations": 15})
    SearchBudget.validate_kwargs(budget_kwargs)

    # Each model counts only its own strategy's estimates, and tracks
    # the first non-OOM report it ever costed.
    model = PerfModel(graph, cluster, database)
    started = time.monotonic()
    plan = warm_replan(
        graph,
        cluster,
        model,
        survivors,
        options=options,
        budget=SearchBudget(**budget_kwargs),
    )
    warm = ReplanOutcome(
        strategy="warm",
        best_config=plan.config,
        best_objective=plan.objective,
        feasible=plan.feasible,
        num_estimates=model.num_estimates,
        estimates_to_feasible=model.first_feasible_estimate,
        wall_seconds=time.monotonic() - started,
        rung=plan.rung,
    )

    model = PerfModel(graph, cluster, database)
    started = time.monotonic()
    best = search_all_stage_counts(
        graph,
        cluster,
        model,
        stage_counts=stage_counts,
        options=options,
        budget_per_count=budget_kwargs,
    ).best
    cold = ReplanOutcome(
        strategy="cold",
        best_config=best.best_config,
        best_objective=best.best_objective,
        feasible=best.is_feasible,
        num_estimates=model.num_estimates,
        estimates_to_feasible=model.first_feasible_estimate,
        wall_seconds=time.monotonic() - started,
    )
    return ReplanComparison(warm=warm, cold=cold)
