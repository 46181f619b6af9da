"""search-paper: the serial stage-count search over the paper's Fig. 8
settings, one warm perf model per setting and no process pool.

Every run searches the same four problems, profiled with seed 0 as
``repro-search`` profiles them by default; the run seed seeds the
executor that measures the best plans.  Seeding the profiler from the
run seed instead changed the search work by up to a fifth between
seeds, which the spread of the search time could not afford.
"""

from __future__ import annotations

import time

from common import (
    Outcome, SetupClock, digest, gmean, median, peak_rss_mb, span,
    unrecorded,
)
from pace import timing
from repro.cluster.topology import paper_cluster
from repro.core import search as core_search
from repro.ir.models import registry
from repro.parallel.initializer import balanced_config
from repro.parallel.serialization import config_to_dict
from repro.parallel.validation import ConfigError, validate_config
from repro.perfmodel.model import PerfModel
from repro.profiling.profiler import SimulatedProfiler
from repro.runtime.executor import Executor
from repro.service.planner import plan_digest

#: (model, GPUs, search iterations per stage count).
MATRIX = (
    ("gpt3-1.3b", 8, 10),
    ("t5-770m", 4, 10),
    ("wresnet-2b", 4, 10),
    ("gpt-128l", 8, 4),
)
#: Seed of the simulated profiler.
PROFILE_SEED = 0
#: Set-ups timed before the work and again after it, besides the
#: run's own; ``setup_s`` is the median of all of them.
SETUP_REPEATS = 12


def _setup() -> list:
    problems = []
    for name, gpus, iterations in MATRIX:
        graph = registry.build_model(name)
        cluster = paper_cluster(gpus)
        database = SimulatedProfiler(cluster, seed=PROFILE_SEED).profile(
            graph
        )
        problems.append((
            f"{name}@{gpus}", graph, cluster,
            PerfModel(graph, cluster, database), iterations,
        ))
    return problems


def execute(seed: int, seconds: float, tracer=None, pace=None) -> Outcome:
    out = Outcome()
    setup = SetupClock(_setup, tracer)
    setup.resample(SETUP_REPEATS)
    problems = setup.first()
    searched = []
    for label, graph, cluster, perf_model, iterations in problems:
        started = time.perf_counter()
        with span(tracer, "bench.setting", rid=label), timing(pace):
            multi = core_search.search_all_stage_counts(
                graph, cluster, perf_model,
                budget_per_count={"max_iterations": iterations},
            )
        searched.append((multi, time.perf_counter() - started))
    out.wall_s = sum(wall for _, wall in searched)
    if pace is not None:
        out.wall_s = pace.work_s
    rss = peak_rss_mb()

    with unrecorded(tracer):
        iteration_times, throughputs = _check(out, problems, searched, seed)
    setup.resample(SETUP_REPEATS)
    count_seconds = [
        run.result.elapsed_seconds
        for multi, _ in searched for run in multi.runs
    ]
    out.metrics = {
        "setup_s": (setup.median(), "s"),
        "search_wall_s": (out.wall_s, "s"),
        "plan_p50_ms": (1000 * median(count_seconds), "ms"),
        "plans_per_s": (len(count_seconds) / out.wall_s, "1/s"),
        "plan_iter_s_gmean": (gmean(iteration_times), "s"),
        "plan_samples_per_s_gmean": (gmean(throughputs), "samples/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.notes.append(
        f"plan_p50_ms: median over {len(count_seconds)} stage-count "
        "searches; plans_per_s counts stage-count searches"
    )
    out.fingerprint["digest"] = digest(out.fingerprint)
    return out


def _check(out: Outcome, problems, searched, seed: int):
    """Validate every best plan, compare it with its balanced start and
    measure it on the executor; returns the predicted iteration times
    and measured throughputs of the best plans."""
    iteration_times, throughputs = [], []
    for (label, graph, cluster, perf_model, _), (multi, wall) in zip(
        problems, searched
    ):
        out.check(not multi.failures, f"{label}: stage counts failed")
        out.check(not multi.partial, f"{label}: partial search")
        best = multi.best
        try:
            validate_config(best.best_config, graph, cluster)
            valid = True
        except ConfigError:
            valid = False
        out.check(valid, f"{label}: best plan fails validate_config")
        for run in multi.runs:
            start = perf_model.objective(
                balanced_config(graph, cluster, run.num_stages)
            )
            out.check(
                run.result.best_objective <= start,
                f"{label}/{run.num_stages} stages: worse than its start",
            )
        measured = Executor(graph, cluster, seed=seed).run(best.best_config)
        out.check(
            best.best_report.is_oom or not measured.oom,
            f"{label}: plan predicted to fit OOMs on the executor",
        )
        iteration_times.append(best.best_report.iteration_time)
        throughputs.append(measured.throughput(graph.global_batch_size))
        plan = config_to_dict(best.best_config)
        out.fingerprint[label] = {
            "estimates": multi.num_estimates,
            "iterations": [len(r.result.trace.records) for r in multi.runs],
            "converged": [r.result.converged for r in multi.runs],
            "pool": [multi.pool_forks, multi.pool_tasks],
            "objective": repr(best.best_objective),
            "plan": plan_digest(plan),
        }
        out.notes.append(
            f"{label}: wall {wall:.2f} s, critical path "
            f"(parallel_seconds) {multi.parallel_seconds:.2f} s, serial "
            f"(serial_seconds) {multi.serial_seconds:.2f} s, "
            f"{multi.num_estimates} estimates, best "
            f"{best.best_report.iteration_time:.4f} s/iter, executor "
            f"{throughputs[-1]:.2f} samples/s"
        )
    return iteration_times, throughputs
