"""repro — a full reproduction of *Aceso: Efficient Parallel DNN
Training through Iterative Bottleneck Alleviation* (EuroSys 2024).

Quickstart::

    from repro import build_model, paper_cluster, build_perf_model
    from repro import search_all_stage_counts, Executor

    graph = build_model("gpt3-1.3b")
    cluster = paper_cluster(4)
    perf_model = build_perf_model(graph, cluster)
    search = search_all_stage_counts(
        graph, cluster, perf_model,
        budget_per_count={"max_iterations": 25},
    )
    best = search.best.best_config
    measured = Executor(graph, cluster).run(best)
    print(best.describe(), measured.iteration_time)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.ir` — model IR + GPT-3 / T5 / Wide-ResNet builders
- :mod:`repro.cluster` — device/topology/collective hardware model
- :mod:`repro.profiling` — profile database + simulated profiler
- :mod:`repro.parallel` — configuration representation + validation
- :mod:`repro.perfmodel` — the §3.3 performance model
- :mod:`repro.core` — the Aceso search (primitives, heuristics,
  multi-hop, fine-tuning)
- :mod:`repro.baselines` — Megatron-LM grid / Alpa-style / DP / random
- :mod:`repro.runtime` — ground-truth 1F1B executor
- :mod:`repro.numrt` — numpy training runtime (semantics checks)
- :mod:`repro.faults` — deterministic fault injection
- :mod:`repro.elastic` — churn timelines, warm replans, the controller
- :mod:`repro.analysis` — metrics + cross-system comparison
"""

from .analysis import ComparisonResult, compare_systems, tflops_per_gpu
from .cluster import ClusterSpec, DeviceSpec, paper_cluster, single_node
from .core import (
    AcesoSearch,
    AcesoSearchOptions,
    SearchBudget,
    SearchFailedError,
    SearchResult,
    search_all_stage_counts,
)
from .elastic import elastic_replan
from .faults import FaultPlan, random_fault_plan, shrink_cluster
from .ir import OpGraph, OpSpec
from .ir.models import available_models, build_model
from .parallel import (
    ConfigError,
    ParallelConfig,
    StageConfig,
    balanced_config,
    validate_config,
)
from .perfmodel import PerfModel, PerfReport, build_perf_model
from .profiling import ProfileDatabase, SimulatedProfiler
from .runtime import ExecutionResult, Executor

__version__ = "1.0.0"

__all__ = [
    "AcesoSearch",
    "AcesoSearchOptions",
    "ClusterSpec",
    "ComparisonResult",
    "ConfigError",
    "DeviceSpec",
    "ExecutionResult",
    "Executor",
    "FaultPlan",
    "OpGraph",
    "OpSpec",
    "ParallelConfig",
    "PerfModel",
    "PerfReport",
    "ProfileDatabase",
    "SearchBudget",
    "SearchFailedError",
    "SearchResult",
    "SimulatedProfiler",
    "StageConfig",
    "available_models",
    "balanced_config",
    "build_model",
    "build_perf_model",
    "compare_systems",
    "elastic_replan",
    "paper_cluster",
    "random_fault_plan",
    "search_all_stage_counts",
    "shrink_cluster",
    "single_node",
    "tflops_per_gpu",
    "validate_config",
]
