"""Stage-count driver state stays per search.

Two searches running side by side in one process (as the planner
daemon's worker threads do) must each checkpoint only their own plans,
and a resume must refuse a stored plan that belongs to another model.
"""

import json
import threading

import repro.core.search as search_module
from repro.cluster import paper_cluster
from repro.core import SearchCheckpoint, search_all_stage_counts
from repro.core.checkpoint import StoredResult
from repro.ir.models import build_model
from repro.parallel import balanced_config
from repro.parallel.validation import validate_config
from repro.perfmodel import PerfModel
from repro.profiling import SimulatedProfiler
from repro.telemetry import CallbackSink, TelemetryBus, using_bus

BUDGET = {"max_iterations": 3}


def _problem(name):
    graph = build_model(name)
    cluster = paper_cluster(4)
    database = SimulatedProfiler(cluster, seed=0).profile(graph)
    return graph, cluster, PerfModel(graph, cluster, database)


def _plan_ends(path):
    """(context.num_ops, last-stage end of every completed plan)."""
    data = json.loads(path.read_text())
    ends = [
        stored["best_config"]["stages"][-1]["end"]
        for stored in data["completed"].values()
    ]
    return data["context"]["num_ops"], ends


def test_concurrent_searches_checkpoint_only_their_own_plans(
    tmp_path, monkeypatch
):
    graph_a, cluster, model_a = _problem("gpt3-350m")
    graph_b, _, model_b = _problem("gpt-8l")
    assert graph_a.num_ops != graph_b.num_ops
    path_a = tmp_path / "a.ckpt.json"
    path_b = tmp_path / "b.ckpt.json"
    a_recorded_one = threading.Event()
    b_done = threading.Event()
    errors = []
    real = search_module.balanced_config

    def gated(graph, cluster, count):
        if graph is graph_a and count == 2:
            # A has recorded count 1; keep its count-2 search open
            # while B runs a whole checkpointed search alongside it.
            a_recorded_one.set()
            b_done.wait(60)
        return real(graph, cluster, count)

    def search_b():
        try:
            assert a_recorded_one.wait(60)
            search_all_stage_counts(
                graph_b, cluster, model_b,
                stage_counts=[1],
                budget_per_count=BUDGET,
                checkpoint_path=path_b,
            )
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            b_done.set()

    monkeypatch.setattr(search_module, "balanced_config", gated)
    thread = threading.Thread(target=search_b)
    thread.start()
    search_all_stage_counts(
        graph_a, cluster, model_a,
        stage_counts=[1, 2],
        budget_per_count=BUDGET,
        checkpoint_path=path_a,
    )
    thread.join(60)
    assert not thread.is_alive()
    assert not errors

    for path in (path_a, path_b):
        num_ops, ends = _plan_ends(path)
        assert ends and all(end == num_ops for end in ends), path.name

    for graph, model, counts, path in (
        (graph_a, model_a, [1, 2], path_a),
        (graph_b, model_b, [1], path_b),
    ):
        resumed = search_all_stage_counts(
            graph, cluster, model,
            stage_counts=counts,
            budget_per_count=BUDGET,
            checkpoint_path=path,
            resume=True,
        )
        best = resumed.best.best_config
        assert best.stages[-1].end == graph.num_ops
        validate_config(best, graph, cluster)


def test_resume_quarantines_a_foreign_plan(tmp_path):
    graph, cluster, model = _problem("gpt3-350m")
    other, _, _ = _problem("gpt-8l")
    path = tmp_path / "search.ckpt.json"
    # A checkpoint of this search holding another model's plan, as a
    # cross-recorded file does: a 68-op plan in a 196-op context.
    checkpoint = SearchCheckpoint.new(
        [1], BUDGET,
        {"num_ops": graph.num_ops, "num_gpus": cluster.num_gpus},
        path,
    )
    checkpoint.completed[1] = StoredResult(
        best_config=balanced_config(other, cluster, 1),
        best_objective=0.5,
        top_configs=[],
        num_estimates=1,
        elapsed_seconds=0.1,
        converged=True,
    )
    checkpoint.save()
    assert _plan_ends(path) == (196, [68])

    events = []
    bus = TelemetryBus()
    bus.add_sink(CallbackSink(events.append))
    with using_bus(bus):
        result = search_all_stage_counts(
            graph, cluster, model,
            stage_counts=[1],
            budget_per_count=BUDGET,
            checkpoint_path=path,
            resume=True,
        )
    corrupt = [e for e in events if e.name == "checkpoint.corrupt"]
    assert len(corrupt) == 1
    quarantined = tmp_path / "search.ckpt.json.corrupt"
    assert corrupt[0].attrs["quarantined_to"] == str(quarantined)
    assert _plan_ends(quarantined) == (196, [68])
    # A fresh search ran and wrote a checkpoint of this model's plan.
    restored = [e for e in events if e.name == "driver.count.restored"]
    assert not restored
    best = result.best
    assert best.best_objective != 0.5
    validate_config(best.best_config, graph, cluster)
    assert _plan_ends(path) == (196, [196])
