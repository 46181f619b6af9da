"""elastic-churn: the elastic controller keeping gpt-16l trained on a
16-GPU cluster through churn timelines.

Each replan warm-starts from survivor plans on a fresh perf model per
cluster view, so this workload loads the perf model with many cold
caches, the runtime executor (every adopted plan is measured) and the
controller itself.  The replay digest of every timeline is an exact
determinism check.

The timelines are ``random_churn_timeline`` draws 0, 1, 2, ... (one
per seven seconds of ``--seconds``) and every controller is seeded
with 0, so every run does the same replans; the run seed orders the
timelines and seeds the executor that measures the final plans.
Drawing the timelines or the controller seed from the run seed made
the number and size of replans, and so the run time, differ by a fifth
between seeds.
"""

from __future__ import annotations

import random
import time

from common import (
    Outcome, SetupClock, digest, gmean, median, peak_rss_mb, span,
    unrecorded,
)
from pace import timing
from repro.cluster.topology import paper_cluster
from repro.elastic.controller import ControllerPolicy, ElasticController
from repro.elastic.timeline import random_churn_timeline
from repro.ir.models import registry
from repro.perfmodel.model import PerfModel
from repro.runtime.executor import Executor

MODEL = "gpt-16l"
GPUS = 16
EVENTS = 12
REPLAN_ITERATIONS = 6
CONTROLLER_SEED = 0
#: Rough seconds per timeline on a 2-core machine: ``--seconds`` buys
#: ``round(seconds / TIMELINE_SECONDS)`` timelines, at least one.
TIMELINE_SECONDS = 7.0
#: Set-ups timed before the work and again after it, besides the
#: run's own; ``setup_s`` is the median of all of them.  A set-up takes
#: a few milliseconds: each batch spans about a second, so it does not
#: fall within one of the machine's fast or slow spells.
SETUP_REPEATS = 300


def time_weights(decisions, horizon):
    """Seconds each decision's plan serves (until the next decision),
    as the elastic bench weights sustained throughput."""
    times = [d.time for d in decisions]
    ends = times[1:] + [max(horizon, times[-1]) + 1.0]
    return [end - start for start, end in zip(times, ends)]


def _setup(seed: int, count: int):
    graph = registry.build_model(MODEL)
    cluster = paper_cluster(GPUS)
    policy = ControllerPolicy(replan_iterations=REPLAN_ITERATIONS)
    order = list(range(count))
    random.Random(f"elastic-churn:{seed}").shuffle(order)
    jobs = []
    for index in order:
        timeline = random_churn_timeline(
            cluster.num_nodes, cluster.gpus_per_node,
            seed=index, num_events=EVENTS,
        )
        controller = ElasticController(
            graph, cluster, seed=CONTROLLER_SEED, policy=policy
        )
        jobs.append((f"timeline-{index}", controller, timeline))
    return graph, jobs


def execute(seed: int, seconds: float, tracer=None, pace=None) -> Outcome:
    out = Outcome()
    count = max(1, round(seconds / TIMELINE_SECONDS))
    setup = SetupClock(lambda: _setup(seed, count), tracer)
    setup.resample(SETUP_REPEATS)
    graph, jobs = setup.first()
    labels, timelines, runs = [], [], []
    while jobs:
        # Drop each controller once it has run: its perf models would
        # otherwise stay live, and the garbage collector would walk a
        # heap whose size depends on the seeded order of the timelines.
        label, controller, timeline = jobs.pop(0)
        started = time.perf_counter()
        with span(tracer, "bench.timeline", rid=label), timing(pace):
            runs.append(controller.run(timeline))
        out.wall_s += time.perf_counter() - started
        del controller
        labels.append(label)
        timelines.append(timeline)
    if pace is not None:
        out.wall_s = pace.work_s
    rss = peak_rss_mb()
    setup.resample(SETUP_REPEATS)

    decisions = [d for run in runs for d in run.decisions]
    replans = [d for d in decisions if d.action in ("replan", "fallback")]
    for label, run in zip(labels, runs):
        for d in run.decisions:
            out.check(
                d.feasible or d.fallback_rung is not None
                or d.action == "halt",
                f"{label} decision {d.index}: infeasible and not flagged",
            )
        out.fingerprint[label] = {
            "replay": run.replay_digest(),
            "replans": run.num_replans,
            "estimates": sum(d.num_estimates for d in run.decisions),
        }
    with unrecorded(tracer):
        final_throughputs = _measure_final(out, graph, labels, runs, seed)
    sustained = []
    for timeline, run in zip(timelines, runs):
        weights = time_weights(run.decisions, timeline.horizon)
        sustained.append(
            sum(d.throughput * w for d, w in zip(run.decisions, weights))
            / sum(weights)
        )
    served = [
        d for d in decisions
        if d.feasible and d.objective_after < PerfModel.OOM_PENALTY
    ]
    replan_ms = [1000 * d.replan_seconds for d in replans]
    out.metrics = {
        "setup_s": (setup.median(), "s"),
        "churn_run_s": (out.wall_s, "s"),
        "plan_p50_ms": (median(replan_ms), "ms"),
        "plans_per_s": (len(decisions) / out.wall_s, "1/s"),
        "plan_iter_s_gmean": (
            gmean(d.objective_after for d in served), "s"
        ),
        "plan_samples_per_s_gmean": (gmean(final_throughputs), "samples/s"),
        "sustained_samples_per_s": (
            sum(sustained) / len(sustained), "samples/s"
        ),
        "peak_rss_mb": (rss, "MB"),
    }
    out.notes.append(
        f"{count} timeline(s) of {EVENTS} events: {len(decisions)} "
        f"decisions, {len(replans)} replans; plan_p50_ms is the median "
        "replan latency, plans_per_s counts decisions, "
        "plan_samples_per_s_gmean measures each timeline's final plan"
    )
    if tracer is not None:
        out.layer_metrics = {
            "elastic.controller.decisions": len(decisions),
            "elastic.controller.replans": len(replans),
            "elastic.controller.fallbacks": sum(
                1 for d in decisions if d.action == "fallback"
            ),
            "elastic.replan_ms": median(replan_ms) if replan_ms else 0.0,
            "elastic.estimates": sum(d.num_estimates for d in decisions),
        }
    out.fingerprint["digest"] = digest(out.fingerprint)
    return out


def _measure_final(out: Outcome, graph, labels, runs, seed: int) -> list:
    """Throughput of each timeline's final plan on a healthy cluster of
    its size, measured by an executor seeded with the run seed."""
    throughputs = []
    for label, run in zip(labels, runs):
        if not run.final_feasible:
            continue
        cluster = paper_cluster(run.final_config.total_devices)
        measured = Executor(graph, cluster, seed=seed).run(run.final_config)
        out.check(not measured.oom, f"{label}: final plan OOMs")
        throughputs.append(measured.throughput(graph.global_batch_size))
    return throughputs
