"""Elastic training under churn: seeded timelines + rebalancing.

The paper's cheap search makes *continuous* re-planning affordable;
this package exercises that claim.  :mod:`~repro.elastic.timeline`
defines seeded, replayable cluster-membership churn, and
:mod:`~repro.elastic.controller` drives a plan through it — deciding
per event batch whether the estimated throughput loss justifies a
bounded warm re-search, and always holding a servable plan.
:mod:`~repro.elastic.replan` holds that warm re-search and its
comparison against a cold restart.
"""

from .controller import (
    ControllerPolicy,
    ControllerRun,
    Decision,
    ElasticController,
)
from .replan import (
    ReplanComparison,
    ReplanOutcome,
    elastic_replan,
    warm_replan,
)
from .timeline import (
    CHURN_FORMAT_VERSION,
    EVENT_KINDS,
    ChurnEvent,
    ChurnTimeline,
    random_churn_timeline,
)

__all__ = [
    "CHURN_FORMAT_VERSION",
    "EVENT_KINDS",
    "ChurnEvent",
    "ChurnTimeline",
    "ControllerPolicy",
    "ControllerRun",
    "Decision",
    "ElasticController",
    "ReplanComparison",
    "ReplanOutcome",
    "elastic_replan",
    "random_churn_timeline",
    "warm_replan",
]
