"""Resilient planner service: anytime search behind an
admission-controlled, self-healing daemon — and a fleet of them.

Every piece is usable as a library on its own — the daemon is just the
composition:

- :class:`~repro.service.protocol.PlanRequest` /
  :class:`~repro.service.protocol.PlanResponse` — the JSON wire
  protocol and the canonical request fingerprint;
- :class:`~repro.service.admission.AdmissionController` — bounded
  priority queue with 429-style rejection and live ``retry_after``;
- :class:`~repro.service.breaker.CircuitBreaker` — per-config
  consecutive-failure breaker with half-open probes;
- :class:`~repro.service.cache.PlanCache` — fingerprint-keyed LRU with
  write-through persistence and explicit invalidation;
- :func:`~repro.service.planner.plan_request` — one request through
  the crash-safe, deadline-aware stage-count search;
- :class:`~repro.service.daemon.PlannerDaemon` — the composition, with
  watchdog, request journal, coalescing, and SIGTERM drain;
- :class:`~repro.service.ring.HashRing` /
  :class:`~repro.service.fleet.FleetRouter` — consistent-hash sharding
  across replicas with failover, hedging, and graceful degradation;
- :func:`~repro.service.httpd.serve` — the one stdlib HTTP front-end,
  bound to a daemon or a router (``repro-serve [--replicas N]``);
- :mod:`~repro.service.chaos` — the seeded kill/restart harness that
  proves the fleet loses nothing.
"""

from .admission import AdmissionController, QueueFullError
from .breaker import BreakerOpenError, CircuitBreaker
from .cache import PlanCache
from .chaos import (
    ChaosEvent,
    ChaosReport,
    InProcessReplica,
    run_chaos,
    seeded_schedule,
    synthetic_planner,
)
from .daemon import PlannerDaemon, Ticket, TicketTimeout
from .fleet import (
    FleetConfig,
    FleetRouter,
    HTTPReplicaClient,
    LocalReplicaClient,
    ReplicaError,
)
from .httpd import PlannerHTTPServer, serve
from .planner import PlanOutcome, plan_digest, plan_request
from .protocol import (
    PROTOCOL_VERSION,
    STATUS_FAILED,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    STATUS_SERVED,
    TERMINAL_STATUSES,
    PlanRequest,
    PlanResponse,
    ProtocolError,
)
from .ring import HashRing

__all__ = [
    "AdmissionController",
    "BreakerOpenError",
    "ChaosEvent",
    "ChaosReport",
    "CircuitBreaker",
    "FleetConfig",
    "FleetRouter",
    "HTTPReplicaClient",
    "HashRing",
    "InProcessReplica",
    "LocalReplicaClient",
    "PROTOCOL_VERSION",
    "PlanCache",
    "PlanOutcome",
    "PlanRequest",
    "PlanResponse",
    "PlannerDaemon",
    "PlannerHTTPServer",
    "ProtocolError",
    "QueueFullError",
    "ReplicaError",
    "STATUS_FAILED",
    "STATUS_PARTIAL",
    "STATUS_REJECTED",
    "STATUS_SERVED",
    "TERMINAL_STATUSES",
    "Ticket",
    "TicketTimeout",
    "plan_digest",
    "plan_request",
    "run_chaos",
    "seeded_schedule",
    "serve",
    "synthetic_planner",
]
