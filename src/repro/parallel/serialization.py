"""Plan serialization: save and reload parallel configurations.

A searched plan is a deployment artifact — it outlives the process that
found it (the paper's shared-cluster motivation) — so it must round-trip
through JSON losslessly, including the semantic signature used for
deduplication and executor-noise seeding.  The format is the codec's
record form of :class:`ParallelConfig` and :class:`StageConfig`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..codec import decode, encode, load
from ..ioutil import write_json_atomic
from .config import ParallelConfig


def config_to_dict(config: ParallelConfig) -> dict:
    """Plain-python representation of a configuration."""
    return encode(config)


def config_from_dict(data: dict) -> ParallelConfig:
    """Inverse of :func:`config_to_dict` (strict; validates the version)."""
    return decode(ParallelConfig, data)


def save_config(config: ParallelConfig, path: Union[str, Path]) -> None:
    """Write a plan to a JSON file."""
    write_json_atomic(path, encode(config))


def load_config(path: Union[str, Path]) -> ParallelConfig:
    """Read a plan from a JSON file."""
    return load(ParallelConfig, path)
