"""Fault layer: deterministic injection and degraded execution.

``FaultPlan`` describes deployment faults (device failure, stragglers,
link degradation, transient allocator OOM); the runtime executor
consumes it to produce degraded ground-truth measurements; and
``shrink_cluster``/``adapt_config`` map a cluster and its plans onto
the devices that survive.  Re-planning on the shrunk cluster lives in
:mod:`repro.elastic.replan`.
"""

from .inject import (
    NoSurvivorsError,
    adapt_config,
    degrade_cluster,
    memory_safe_variant,
    shrink_cluster,
    shrink_cluster_checked,
)
from .plan import (
    FAULT_FORMAT_VERSION,
    LINK_SCOPES,
    DeviceFailure,
    FaultPlan,
    LinkDegradation,
    StragglerSlowdown,
    TransientOOM,
    random_fault_plan,
)

__all__ = [
    "FAULT_FORMAT_VERSION",
    "LINK_SCOPES",
    "DeviceFailure",
    "FaultPlan",
    "LinkDegradation",
    "NoSurvivorsError",
    "StragglerSlowdown",
    "TransientOOM",
    "adapt_config",
    "degrade_cluster",
    "memory_safe_variant",
    "random_fault_plan",
    "shrink_cluster",
    "shrink_cluster_checked",
]
