"""Persistable profile database and its vectorized per-graph view.

The database maps *op signatures* to linear time models measured per
tensor-parallel degree, plus collective-communication coefficients per
group size.  ``ProfiledGraph`` gathers a graph's records into dense
numpy arrays so a configuration can be costed with a few vectorized
gathers — the property that lets Aceso evaluate thousands of
configurations per second (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..codec import Record, json_field
from ..ir.graph import OpGraph
from .cost import op_signature


def tp_level_index(tp: int) -> int:
    """Index of power-of-two degree ``tp`` into profile arrays."""
    if tp < 1 or tp & (tp - 1):
        raise ValueError(f"tp must be a power of two, got {tp}")
    return tp.bit_length() - 1


def tp_levels(max_tp: int) -> List[int]:
    """All power-of-two degrees up to and including ``max_tp``."""
    if max_tp < 1:
        raise ValueError("max_tp must be positive")
    return [1 << i for i in range(max_tp.bit_length())]


@dataclass
class OpProfile(Record):
    """Linear time model of one op: ``time(mbs) = fixed + mbs * slope``.

    Arrays are indexed ``[tp_level, partition_option]``.
    """

    fwd_fixed: np.ndarray = json_field(dtype=np.float64)
    fwd_slope: np.ndarray = json_field(dtype=np.float64)
    bwd_fixed: np.ndarray = json_field(dtype=np.float64)
    bwd_slope: np.ndarray = json_field(dtype=np.float64)

    def __post_init__(self) -> None:
        shape = self.fwd_fixed.shape
        for arr in (self.fwd_slope, self.bwd_fixed, self.bwd_slope):
            if arr.shape != shape:
                raise ValueError("OpProfile arrays must share one shape")

    @property
    def num_tp_levels(self) -> int:
        return int(self.fwd_fixed.shape[0])

    @property
    def num_options(self) -> int:
        return int(self.fwd_fixed.shape[1])


@dataclass
class CollectiveProfile(Record):
    """alpha-beta fit of one collective kind per group-size level.

    ``time(bytes, group) = latency[level(group)] + bytes * inv_bw[...]``.
    """

    latency: np.ndarray = json_field(dtype=np.float64)
    inv_bandwidth: np.ndarray = json_field(dtype=np.float64)

    def time(self, num_bytes: float, group_size: int) -> float:
        if group_size <= 1 or num_bytes <= 0:
            return 0.0
        level = tp_level_index(group_size)
        if level >= len(self.latency):
            raise ValueError(
                f"group size {group_size} exceeds profiled range"
            )
        return float(
            self.latency[level] + num_bytes * self.inv_bandwidth[level]
        )


@dataclass
class ProfileDatabase(Record):
    """All profiled measurements for one (cluster, precision) pair.

    The database is keyed by op *signature*, so it is reusable across
    models sharing operators and across searches over the same model —
    the paper's "profiled database can be reused" property (§3.3).
    ``save``/``load`` persist it as JSON.
    """

    max_tp: int
    precision: str
    ops: Dict[str, OpProfile] = field(default_factory=dict)
    collectives: Dict[str, CollectiveProfile] = field(default_factory=dict)

    def has_op(self, signature: str) -> bool:
        return signature in self.ops

    def lookup(self, signature: str) -> OpProfile:
        try:
            return self.ops[signature]
        except KeyError:
            raise KeyError(
                f"op signature not profiled: {signature[:60]}..."
            ) from None

    def collective(self, kind: str) -> CollectiveProfile:
        try:
            return self.collectives[kind]
        except KeyError:
            raise KeyError(f"collective not profiled: {kind!r}") from None

    @property
    def num_ops(self) -> int:
        return len(self.ops)


class ProfiledGraph:
    """Dense per-op profile arrays for one graph.

    Indexing: ``fwd_fixed[op, tp_level, option]`` etc.  Options beyond
    an op's real option count repeat its last option (same padding as
    :class:`~repro.ir.graph.GraphArrays`).
    """

    __slots__ = (
        "graph",
        "database",
        "fwd_fixed",
        "fwd_slope",
        "bwd_fixed",
        "bwd_slope",
    )

    def __init__(self, graph: OpGraph, database: ProfileDatabase) -> None:
        self.graph = graph
        self.database = database
        n = graph.num_ops
        num_levels = tp_level_index(database.max_tp) + 1
        max_opts = max(op.num_partition_options for op in graph.ops)
        shape = (n, num_levels, max_opts)
        self.fwd_fixed = np.zeros(shape)
        self.fwd_slope = np.zeros(shape)
        self.bwd_fixed = np.zeros(shape)
        self.bwd_slope = np.zeros(shape)
        for i, op in enumerate(graph.ops):
            record = database.lookup(op_signature(op))
            for j in range(max_opts):
                src = min(j, record.num_options - 1)
                self.fwd_fixed[i, :, j] = record.fwd_fixed[:, src]
                self.fwd_slope[i, :, j] = record.fwd_slope[:, src]
                self.bwd_fixed[i, :, j] = record.bwd_fixed[:, src]
                self.bwd_slope[i, :, j] = record.bwd_slope[:, src]
        for arr in (self.fwd_fixed, self.fwd_slope,
                    self.bwd_fixed, self.bwd_slope):
            arr.setflags(write=False)

    @property
    def num_tp_levels(self) -> int:
        return int(self.fwd_fixed.shape[1])
