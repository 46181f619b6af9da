"""Span recorder that traces the planner from outside its code.

The traced run patches the public functions of each layer at the
module where they are imported (the way ``pytest``'s ``monkeypatch``
would) with a wrapper that records one span per call: name, start,
end, parent span and request id.  Spans stay in memory until the run
ends; :meth:`Tracer.write` dumps them once, and :func:`layer_metrics`
turns them into the per-layer numbers the benchmark reports.

A span's self time is its duration minus the time its child spans
cover.  Children are calls made on the same thread while the span is
open, so they nest inside it and their durations simply add up.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# Span record layout (a tuple once the span has closed).
ID, NAME, START, END, PARENT, RID, CHILD_NS, EXTRA = range(8)

#: Span names of the recompute-tuning layer (one name for all three
#: entry points: tune_recompute and greedy_(un)recompute).
RECOMPUTE = "core.arguments.recompute"


class Tracer:
    """Records spans around patched functions; restores them on exit."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.models: List[object] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: Wrappers record only while active (see :meth:`suspended`).
        self.active = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rid) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_id = parent[ID]
            if rid is None:
                rid = parent[RID]
        else:
            parent_id = -1
        # An open span is a short mutable list; it becomes an immutable
        # tuple when it closes (see _close).
        record = [next(self._ids), name, 0, 0, parent_id, rid, 0]
        stack.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _close(self, record: list, end: int, extra=None) -> None:
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][CHILD_NS] += end - record[START]
        record[END] = end
        # Tuples of plain values drop out of the cyclic collector's
        # tracking, so a million spans do not slow garbage collection.
        self.spans.append((*record, extra))

    @contextmanager
    def span(self, name: str, rid=None):
        """A span around the benchmark's own code."""
        record = self._open(name, rid)
        try:
            yield
        finally:
            self._close(record, time.perf_counter_ns())

    @contextmanager
    def suspended(self):
        """Patched functions run unrecorded inside this block (the
        benchmark's own checks and repeated set-ups)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        before: Optional[Callable] = None,
        extra: Optional[Callable] = None,
        rid: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs before the call and its value is handed to
        ``extra(args, result, before_value)``, whose return value is
        stored on the span.  ``rid(args)`` names the request the span
        belongs to; spans without one inherit their parent's.
        """
        original = getattr(owner, attr)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            pre = before(args) if before is not None else None
            record = tracer._open(name, rid(args) if rid else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(record, clock())
                raise
            end = clock()
            tracer._close(
                record, end,
                extra(args, result, pre) if extra is not None else None,
            )
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Dump every span once, as gzip'd tab-separated lines:
        id, name, start_ns, end_ns, parent id, request id, self_ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\trid\tself_ns\n")
            for r in sorted(self.spans):
                out.write(
                    f"{r[ID]}\t{r[NAME]}\t{r[START]}\t{r[END]}\t"
                    f"{r[PARENT]}\t{r[RID] or ''}\t"
                    f"{r[END] - r[START] - r[CHILD_NS]}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    # Submodules by full name: ``repro.core`` re-exports functions
    # (``finetune``) that shadow the modules of the same name.
    core_apply, arguments, core_finetune, multihop, ranking, core_search = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("apply", "arguments", "finetune", "multihop",
                     "ranking", "search")
    )
    from repro.ir.models import registry
    from repro.perfmodel.model import PerfModel
    from repro.profiling.profiler import SimulatedProfiler
    from repro.runtime.executor import Executor
    from repro.service import daemon, planner

    for module in (registry, planner):
        tracer.wrap(module, "build_model", "ir.build_model")
    tracer.wrap(SimulatedProfiler, "profile", "profiling.profile")
    tracer.wrap(
        PerfModel, "__init__", "perfmodel.init",
        extra=lambda args, _r, _p: tracer.models.append(args[0]),
    )
    tracer.wrap(
        PerfModel, "estimate", "perfmodel.estimate",
        before=lambda args: args[0].num_estimates,
        extra=lambda args, _r, pre: args[0].num_estimates == pre,
    )
    tracer.wrap(
        PerfModel, "estimate_batch", "perfmodel.estimate_batch",
        extra=lambda args, _r, _p: len(args[1]),
    )
    for module in (core_apply, core_finetune):
        tracer.wrap(
            module, "is_valid", "parallel.validation",
            extra=lambda _a, result, _p: bool(result),
        )
    tracer.wrap(
        ranking, "apply_primitive", "core.apply",
        extra=lambda _a, result, _p: len(result),
    )
    for module in (core_apply, core_finetune):
        tracer.wrap(module, "tune_recompute", RECOMPUTE)
    for attr in ("tune_recompute", "greedy_recompute", "greedy_unrecompute"):
        tracer.wrap(arguments, attr, RECOMPUTE)
    tracer.wrap(multihop, "candidate_groups", "core.ranking")
    tracer.wrap(
        multihop.MultiHopSearcher, "search", "core.multihop",
        extra=lambda _a, result, _p: result is not None,
    )
    tracer.wrap(core_search, "finetune", "core.finetune")
    for module in (core_search, multihop):
        tracer.wrap(module, "rank_bottlenecks", "core.bottleneck")
    tracer.wrap(
        core_search.AcesoSearch, "run", "core.search",
        extra=lambda _a, r, _p: (len(r.trace.records), r.converged),
    )
    for module in (core_search, planner):
        tracer.wrap(
            module, "search_all_stage_counts", "core.search.driver",
            extra=lambda _a, multi, _p: _driver_summary(multi),
        )
    tracer.wrap(
        daemon, "plan_request", "service.planner",
        rid=lambda args: args[0].fingerprint(),
    )
    tracer.wrap(
        daemon.PlannerDaemon, "submit", "service.daemon.submit",
        rid=lambda args: args[1].fingerprint(),
    )
    tracer.wrap(Executor, "run", "runtime.executor")


def _driver_summary(multi) -> dict:
    runs = [run.result for run in multi.runs]
    return {
        "wall": multi.wall_seconds,
        "critical": max((r.elapsed_seconds for r in runs), default=0.0),
        "serial": multi.serial_seconds,
        "forks": multi.pool_forks,
        "tasks": multi.pool_tasks,
        "failures": len(multi.failures),
        # Searches that ran in pool workers leave no spans here, so
        # their iteration counts come from the returned results.
        "pooled": multi.pool_tasks > 0,
        "iterations": sum(len(r.trace.records) for r in runs),
        "converged": sum(1 for r in runs if r.converged),
    }


#: Layers reported as ``.calls`` and ``.self_s``.
SELF_TIMED = (
    "perfmodel.estimate",
    "perfmodel.estimate_batch",
    "parallel.validation",
    "core.apply",
    RECOMPUTE,
    "core.ranking",
    "core.multihop",
    "core.finetune",
    "core.bottleneck",
    "runtime.executor",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer counts, busy times and ratios from the recorded spans."""
    by_name: Dict[str, List[list]] = {}
    for record in tracer.spans:
        by_name.setdefault(record[NAME], []).append(record)

    def spans(name: str) -> List[list]:
        return by_name.get(name, [])

    def duration_s(name: str) -> float:
        return sum(r[END] - r[START] for r in spans(name)) / 1e9

    def self_s(name: str) -> float:
        return sum(
            r[END] - r[START] - r[CHILD_NS] for r in spans(name)
        ) / 1e9

    # One pass in id order (a parent always opens before its children)
    # marks the spans nested under recompute tuning.
    inside = {}
    parent_name = {}
    for record in sorted(tracer.spans, key=lambda r: r[ID]):
        parent = record[PARENT]
        inside[record[ID]] = parent >= 0 and (
            inside.get(parent, False) or parent_name.get(parent) == RECOMPUTE
        )
        parent_name[record[ID]] = record[NAME]

    out: Dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.calls"] = len(spans(name))
        out[f"{name}.self_s"] = self_s(name)
    for name in ("ir.build_model", "profiling.profile", "perfmodel.init"):
        out[f"{name}.s"] = duration_s(name)
    for name in ("profiling.profile", "perfmodel.init"):
        out[f"{name}.calls"] = len(spans(name))

    estimates = spans("perfmodel.estimate")
    out["perfmodel.estimate.hit_ratio"] = _ratio(
        sum(1 for r in estimates if r[EXTRA]), len(estimates)
    )
    out["perfmodel.estimate_batch.configs"] = sum(
        r[EXTRA] or 0 for r in spans("perfmodel.estimate_batch")
    )
    models = tracer.models
    out["perfmodel.estimates"] = sum(m.num_estimates for m in models)
    stage_hits = sum(m.num_stage_hits for m in models)
    out["perfmodel.stage_cache.hit_ratio"] = _ratio(
        stage_hits, stage_hits + sum(m.num_stage_costs for m in models)
    )

    validations = spans("parallel.validation")
    out["parallel.validation.accept_ratio"] = _ratio(
        sum(1 for r in validations if r[EXTRA]), len(validations)
    )
    out["core.apply.candidates"] = sum(
        r[EXTRA] or 0 for r in spans("core.apply")
    )
    out[f"{RECOMPUTE}.total_s"] = sum(
        r[END] - r[START] for r in spans(RECOMPUTE) if not inside[r[ID]]
    ) / 1e9
    out[f"{RECOMPUTE}.estimates"] = sum(
        1 for r in estimates if inside[r[ID]]
    ) + sum(
        r[EXTRA] or 0
        for r in spans("perfmodel.estimate_batch")
        if inside[r[ID]]
    )
    hops = spans("core.multihop")
    out["core.multihop.success_ratio"] = _ratio(
        sum(1 for r in hops if r[EXTRA]), len(hops)
    )

    drivers = [r[EXTRA] for r in spans("core.search.driver") if r[EXTRA]]
    searches = [r[EXTRA] for r in spans("core.search") if r[EXTRA]]
    pooled = [d for d in drivers if d["pooled"]]
    out["core.search.iterations"] = sum(s[0] for s in searches) + sum(
        d["iterations"] for d in pooled
    )
    out["core.search.converged"] = sum(1 for s in searches if s[1]) + sum(
        d["converged"] for d in pooled
    )
    out["core.search.driver.s"] = sum(d["wall"] for d in drivers)
    out["core.search.driver.critical_path_s"] = sum(
        d["critical"] for d in drivers
    )
    out["core.search.driver.serial_s"] = sum(d["serial"] for d in drivers)
    out["core.pool.forks"] = sum(d["forks"] for d in drivers)
    out["core.pool.tasks"] = sum(d["tasks"] for d in drivers)
    out["core.search.failures"] = sum(d["failures"] for d in drivers)
    out["service.planner.s"] = duration_s("service.planner")
    out["trace.spans"] = len(tracer.spans)
    return out


def self_time_shares(tracer: Tracer, rid) -> List[tuple]:
    """(layer, self seconds, share) of one request's spans, largest
    first; the share is of the request's root spans' total duration."""
    mine = [r for r in tracer.spans if r[RID] == rid]
    ids = {r[ID] for r in mine}
    total = sum(r[END] - r[START] for r in mine if r[PARENT] not in ids)
    per: Dict[str, int] = {}
    for r in mine:
        per[r[NAME]] = per.get(r[NAME], 0) + r[END] - r[START] - r[CHILD_NS]
    rows = sorted(per.items(), key=lambda kv: -kv[1])
    return [(name, ns / 1e9, _ratio(ns, total)) for name, ns in rows]

