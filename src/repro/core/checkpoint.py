"""Crash-safe checkpointing of the stage-count search driver.

The paper's pitch — search cheap enough to re-run whenever the cluster
changes — only holds if an interrupted search doesn't lose its work.
A :class:`SearchCheckpoint` persists, as JSON, everything needed to
resume ``search_all_stage_counts`` bit-exactly: per-stage-count best and
top-k configurations (via :mod:`repro.parallel.serialization`), visited
signatures, estimate counts, and structured failure records.  The file
is rewritten atomically after every completed (or finally-failed) stage
count, so a crash between writes costs at most one stage count of work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..codec import CodecError, Version, encode, load
from ..ioutil import write_json_atomic
from ..parallel.config import ParallelConfig

#: Format marker so future layout changes stay loadable.
CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(CodecError):
    """A checkpoint file is unreadable or belongs to another search."""


@dataclass
class TopConfig:
    """One entry of a stored result's top-k list."""

    objective: float
    config: ParallelConfig


@dataclass
class StoredResult:
    """The persisted part of a :class:`repro.core.search.SearchResult`.

    The performance report is not stored: :meth:`restore` re-derives it
    from the (deterministic) performance model.
    """

    best_config: ParallelConfig
    best_objective: float
    top_configs: List[TopConfig]
    num_estimates: int
    elapsed_seconds: float
    converged: bool
    visited_signatures: List[str] = field(default_factory=list)

    @classmethod
    def of(cls, result) -> "StoredResult":
        return cls(
            best_config=result.best_config,
            best_objective=result.best_objective,
            top_configs=[
                TopConfig(objective, config)
                for objective, config in result.top_configs
            ],
            num_estimates=result.num_estimates,
            elapsed_seconds=result.elapsed_seconds,
            converged=result.converged,
            visited_signatures=sorted(result.visited_signatures),
        )

    def restore(self, perf_model):
        from .search import SearchResult
        from .trace import SearchTrace

        return SearchResult(
            best_config=self.best_config,
            best_objective=self.best_objective,
            best_report=perf_model.estimate(self.best_config),
            trace=SearchTrace(),
            top_configs=[
                (top.objective, top.config) for top in self.top_configs
            ],
            num_estimates=self.num_estimates,
            elapsed_seconds=self.elapsed_seconds,
            converged=self.converged,
            visited_signatures=tuple(self.visited_signatures),
        )


@dataclass
class SearchCheckpoint:
    """Mutable on-disk state of one ``search_all_stage_counts`` run."""

    stage_counts: List[int]
    budget_kwargs: dict
    context: dict = field(default_factory=dict)
    completed: Dict[int, StoredResult] = field(default_factory=dict)
    failures: List[dict] = field(default_factory=list)
    #: Where the checkpoint lives; not part of its JSON form.
    path: Optional[Path] = field(default=None, init=False)

    json_version = Version("format_version", CHECKPOINT_FORMAT_VERSION)
    json_error = CheckpointError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def new(
        cls,
        stage_counts,
        budget_kwargs: dict,
        context: dict,
        path: Union[str, Path],
    ) -> "SearchCheckpoint":
        checkpoint = cls(
            stage_counts=list(stage_counts),
            budget_kwargs=dict(budget_kwargs),
            context=dict(context),
        )
        checkpoint.path = Path(path)
        return checkpoint

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SearchCheckpoint":
        checkpoint = load(cls, path)
        checkpoint.path = Path(path)
        return checkpoint

    @classmethod
    def load_or_quarantine(
        cls, path: Union[str, Path]
    ) -> Optional["SearchCheckpoint"]:
        """Load a checkpoint, quarantining an unreadable file.

        Atomic rename protects a checkpoint against crashes mid-write,
        but not against disk-full, a kill mid-write of an *older*
        non-atomic copy, or plain bit rot.  A resume must not die on
        such a file: the corrupt checkpoint is moved aside to
        ``<path>.corrupt`` (preserved for post-mortems), a
        ``checkpoint.corrupt`` telemetry event is emitted, and ``None``
        is returned so the caller starts a fresh search.  A missing
        file also returns ``None`` (nothing to quarantine).
        """
        path = Path(path)
        if not path.exists():
            return None
        try:
            return cls.load(path)
        except CheckpointError as exc:
            _quarantine(path, str(exc))
            return None

    def quarantine_if_foreign(self, graph, cluster) -> bool:
        """Quarantine (like an undecodable file) and return True when a
        stored ``best_config`` fails ``validate_config`` for ``graph``
        on ``cluster``: the file holds another search's plan, which a
        resume would otherwise return as this search's best."""
        from ..parallel.validation import ConfigError, validate_config

        for count, stored in sorted(self.completed.items()):
            try:
                validate_config(stored.best_config, graph, cluster)
            except ConfigError as exc:
                _quarantine(self.path, f"completed[{count}]: {exc}")
                return True
        return False

    def save(self) -> None:
        """Atomic write (temp file + rename) so a crash mid-write never
        corrupts the previous checkpoint."""
        if self.path is None:
            raise CheckpointError("checkpoint has no path to save to")
        write_json_atomic(self.path, encode(self))

    # ------------------------------------------------------------------
    # compatibility
    # ------------------------------------------------------------------
    def ensure_compatible(
        self, stage_counts, budget_kwargs: dict, context: dict
    ) -> None:
        """Refuse to resume into a different search problem."""
        if self.budget_kwargs != dict(budget_kwargs):
            raise CheckpointError(
                f"checkpoint budget {self.budget_kwargs} does not match "
                f"requested budget {dict(budget_kwargs)}"
            )
        for key, value in context.items():
            stored = self.context.get(key)
            if stored != value:
                raise CheckpointError(
                    f"checkpoint {key}={stored!r} does not match the "
                    f"current search ({value!r})"
                )
        unknown = sorted(set(self.completed) - set(stage_counts))
        if unknown:
            raise CheckpointError(
                f"checkpoint contains stage counts {unknown} absent from "
                f"the requested {sorted(stage_counts)}"
            )

    # ------------------------------------------------------------------
    # recording / restoring
    # ------------------------------------------------------------------
    def record_run(self, run) -> None:
        """Store one completed ``StageCountResult`` and persist."""
        self.completed[run.num_stages] = StoredResult.of(run.result)
        # A later success supersedes any earlier failure record.
        self.failures = [
            f for f in self.failures if f.get("num_stages") != run.num_stages
        ]
        self.save()

    def record_failure(self, failure) -> None:
        """Store one final ``SearchFailure`` and persist."""
        self.failures = [
            f
            for f in self.failures
            if f.get("num_stages") != failure.num_stages
        ]
        self.failures.append(
            {
                "num_stages": failure.num_stages,
                "error": failure.error,
                "attempts": failure.attempts,
            }
        )
        self.save()

    def restore_runs(self, perf_model) -> list:
        """Rebuild the completed ``StageCountResult`` list, count order."""
        from .search import StageCountResult

        return [
            StageCountResult(
                num_stages=count,
                result=self.completed[count].restore(perf_model),
            )
            for count in sorted(self.completed)
        ]


def _quarantine(path: Path, error: str) -> None:
    """Move an unusable checkpoint to ``<path>.corrupt`` (kept for
    post-mortems) and emit one ``checkpoint.corrupt`` event."""
    from ..telemetry import WARNING, get_bus
    from ..telemetry.events import CHECKPOINT_CORRUPT

    quarantine = path.with_name(path.name + ".corrupt")
    quarantined = True
    try:
        os.replace(path, quarantine)
    except OSError:
        quarantined = False
    get_bus().emit(
        CHECKPOINT_CORRUPT,
        source="checkpoint",
        level=WARNING,
        path=str(path),
        quarantined_to=str(quarantine) if quarantined else None,
        error=error,
    )
