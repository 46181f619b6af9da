"""Deterministic fault plans for the ground-truth runtime.

Real V100/IB clusters fail in structured ways the analytic planner never
sees: a GPU drops mid-iteration, one device runs hot and slow, an
oversubscribed IB link delivers a fraction of its nominal bandwidth, and
the caching allocator occasionally stalls a task on a cudaMalloc retry.
A :class:`FaultPlan` names those events explicitly, is seeded so every
injection is reproducible bit-for-bit, and is a codec record so a plan
can be shipped to ``repro-estimate --fault-plan``.

The plan is pure data; :mod:`repro.faults.inject` and
:class:`repro.runtime.executor.Executor` interpret it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..codec import Record, Version

#: Format marker so future layout changes stay loadable.
FAULT_FORMAT_VERSION = 1

#: Link scopes a degradation may target.
LINK_SCOPES = ("intra", "inter")


@dataclass(frozen=True)
class DeviceFailure:
    """Device ``device_id`` becomes unusable ``time`` seconds in."""

    device_id: int
    time: float

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")
        if self.time < 0:
            raise ValueError("failure time must be non-negative")


@dataclass(frozen=True)
class StragglerSlowdown:
    """Device ``device_id`` runs compute ``factor``x slower."""

    device_id: int
    factor: float

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1.0")


@dataclass(frozen=True)
class LinkDegradation:
    """A link class retains only ``factor`` of its nominal bandwidth."""

    scope: str  # "intra" (NVLink) or "inter" (IB)
    factor: float

    def __post_init__(self) -> None:
        if self.scope not in LINK_SCOPES:
            raise ValueError(
                f"unknown link scope {self.scope!r}; "
                f"choose from {LINK_SCOPES}"
            )
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("bandwidth factor must be in (0, 1]")


@dataclass(frozen=True)
class TransientOOM:
    """Allocator pressure on one stage.

    Each (microbatch, direction) task of ``stage`` independently stalls
    with ``probability`` for ``stall_seconds`` — the observable cost of
    a cache-flush-and-retry inside a framework allocator.
    """

    stage: int
    probability: float
    stall_seconds: float

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise ValueError("stage must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")


@dataclass(frozen=True)
class FaultPlan(Record):
    """A seeded, deterministic set of deployment faults.

    An empty plan (the default) injects nothing, so fault-aware code
    paths can treat ``FaultPlan()`` and ``None`` identically.
    """

    seed: int = 0
    device_failures: Tuple[DeviceFailure, ...] = ()
    stragglers: Tuple[StragglerSlowdown, ...] = ()
    link_degradations: Tuple[LinkDegradation, ...] = ()
    transient_ooms: Tuple[TransientOOM, ...] = ()

    json_version = Version("format_version", FAULT_FORMAT_VERSION)

    def __post_init__(self) -> None:
        # Accept lists from callers / JSON and freeze them.
        for name in (
            "device_failures",
            "stragglers",
            "link_degradations",
            "transient_ooms",
        ):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not (
            self.device_failures
            or self.stragglers
            or self.link_degradations
            or self.transient_ooms
        )

    def first_failure(self, num_devices: int):
        """Earliest :class:`DeviceFailure` hitting the first
        ``num_devices`` devices (the span a config actually occupies),
        or ``None``."""
        hits = [
            f for f in self.device_failures if f.device_id < num_devices
        ]
        return min(hits, key=lambda f: (f.time, f.device_id)) if hits else None

    def failed_devices(self) -> Tuple[int, ...]:
        return tuple(sorted({f.device_id for f in self.device_failures}))

    def straggler_factor(self, device_id: int) -> float:
        """Compound slowdown for one device (1.0 when healthy)."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.device_id == device_id:
                factor *= straggler.factor
        return factor

    def bandwidth_factor(self, scope: str) -> float:
        """Remaining bandwidth fraction for a link scope."""
        if scope not in LINK_SCOPES:
            raise ValueError(f"unknown link scope {scope!r}")
        factor = 1.0
        for degradation in self.link_degradations:
            if degradation.scope == scope:
                factor *= degradation.factor
        return factor

    def rng_for(self, key: str) -> np.random.Generator:
        """Seeded generator bound to this plan and a caller key.

        The same ``(seed, key)`` pair always yields the same stream, so
        stochastic faults (transient OOM) replay identically for one
        configuration while staying independent across configurations.
        """
        return np.random.default_rng(
            (self.seed, zlib.crc32(key.encode("utf-8")))
        )


def random_fault_plan(
    num_devices: int,
    *,
    seed: int = 0,
    failure_rate: float = 0.1,
    straggler_rate: float = 0.2,
    max_straggler_factor: float = 2.0,
    link_degradation_rate: float = 0.3,
    oom_rate: float = 0.1,
    horizon_seconds: float = 1.0,
) -> FaultPlan:
    """Sample a plausible fault plan for a cluster of ``num_devices``.

    Every rate is an independent Bernoulli per candidate (device or
    link class); the draw is fully determined by ``seed``.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be positive")
    rng = np.random.default_rng(seed)
    failures = tuple(
        DeviceFailure(
            device_id=d, time=float(rng.uniform(0.0, horizon_seconds))
        )
        for d in range(num_devices)
        if rng.random() < failure_rate
    )
    stragglers = tuple(
        StragglerSlowdown(
            device_id=d,
            factor=float(rng.uniform(1.1, max_straggler_factor)),
        )
        for d in range(num_devices)
        if rng.random() < straggler_rate
    )
    degradations = tuple(
        LinkDegradation(scope=scope, factor=float(rng.uniform(0.3, 0.9)))
        for scope in LINK_SCOPES
        if rng.random() < link_degradation_rate
    )
    ooms = tuple(
        TransientOOM(
            stage=s,
            probability=float(rng.uniform(0.02, 0.2)),
            stall_seconds=float(rng.uniform(0.001, 0.01)),
        )
        for s in range(4)
        if rng.random() < oom_rate
    )
    return FaultPlan(
        seed=seed,
        device_failures=failures,
        stragglers=stragglers,
        link_degradations=degradations,
        transient_ooms=ooms,
    )
