"""Telemetry sinks: ring buffer, JSONL run log, console, callbacks.

A sink is anything with ``handle(event)``; ``close()`` is optional and
called by :meth:`TelemetryBus.close`.  The JSONL format is the on-disk
run log consumed by ``repro-trace`` and the CI smoke job: one event per
line, schema-checked by :func:`validate_run_log`.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque
from pathlib import Path
from typing import (
    Callable, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..codec import json_keys
from .bus import LEVEL_NAMES, Event

#: Keys every run-log line must carry (the JSONL schema).
RUN_LOG_KEYS = json_keys(Event)


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._events: deque = deque(maxlen=capacity)

    def handle(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()


class JsonlSink:
    """Append every event to a JSONL run log.

    Lines are flushed on ``close`` (or per event with ``flush_every=1``)
    so a crashed run still leaves a usable prefix on disk.  Writes are
    serialized under a lock: the planner daemon emits from many threads
    at once, and ``TextIOWrapper`` corrupts its buffer under concurrent
    writers.
    """

    def __init__(
        self, path: Union[str, Path], *, flush_every: int = 64
    ) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._flush_every = max(1, flush_every)
        self._pending = 0
        self._lock = threading.Lock()

    def handle(self, event: Event) -> None:
        line = json.dumps(event.to_json()) + "\n"
        with self._lock:
            self._handle.write(line)
            self._pending += 1
            if self._pending >= self._flush_every:
                self._handle.flush()
                self._pending = 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


class ConsoleSink:
    """Render events at or above ``min_level`` as log lines."""

    def __init__(self, stream=None, *, min_level: int = 30) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_level = min_level

    def handle(self, event: Event) -> None:
        if event.level < self.min_level:
            return
        level = LEVEL_NAMES.get(event.level, str(event.level))
        attrs = " ".join(
            f"{key}={value}"
            for key, value in event.attrs.items()
            if not key.startswith("_")
        )
        prefix = f"[{event.ts:9.3f}s {level:<7}] {event.name}"
        print(f"{prefix} {attrs}".rstrip(), file=self.stream)


class CallbackSink:
    """Invoke ``fn(event)`` for events whose name is in ``names``.

    ``names=None`` subscribes to everything.  This is how in-process
    consumers (e.g. checkpoint recording in the stage-count driver)
    ride the bus instead of bespoke callback plumbing.
    """

    def __init__(
        self,
        fn: Callable[[Event], None],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self._fn = fn
        self._names = frozenset(names) if names is not None else None

    def handle(self, event: Event) -> None:
        if self._names is None or event.name in self._names:
            self._fn(event)


# ---------------------------------------------------------------------
# run-log reading / validation
# ---------------------------------------------------------------------
def read_run_log(path: Union[str, Path]) -> List[Event]:
    """Parse a JSONL run log back into :class:`Event` objects."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_json(json.loads(line)))
    return events


def check_run_log_line(
    line: str,
) -> Tuple[Optional[dict], List[Tuple[bool, str]]]:
    """Schema-check one run-log line against :data:`RUN_LOG_KEYS`.

    Returns ``(event, problems)``.  Each problem is ``(syntax,
    message)``, ``syntax`` true for a blank or non-JSON line.  ``event``
    is the decoded object once it is an object with every key and a
    name — a bad ``ts``, ``pid`` or ``attrs`` is reported but leaves it
    usable — and ``None`` otherwise.
    """
    line = line.strip()
    if not line:
        return None, [(True, "blank line in run log")]
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, [(True, f"invalid JSON: {exc}")]
    if not isinstance(data, dict):
        return None, [(False, "event must be an object")]
    missing = [key for key in RUN_LOG_KEYS if key not in data]
    if missing:
        return None, [(False, f"missing keys {missing}")]
    if not isinstance(data["name"], str) or not data["name"]:
        return None, [(False, "name must be a string")]
    problems = []
    if not isinstance(data["ts"], (int, float)) or data["ts"] < 0:
        problems.append((False, "ts must be a non-negative number"))
    if not isinstance(data["pid"], int):
        problems.append((False, "pid must be an int"))
    if not isinstance(data["attrs"], dict):
        problems.append((False, "attrs must be an object"))
    return data, problems


def validate_run_log(path: Union[str, Path]) -> List[Event]:
    """Strictly validate a JSONL run log; returns the parsed events.

    Every line must pass :func:`check_run_log_line`.  Raises
    ``ValueError`` with the offending line number on the first
    violation.
    """
    events: List[Event] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            data, problems = check_run_log_line(line)
            if problems:
                raise ValueError(f"line {lineno}: {problems[0][1]}")
            events.append(Event.from_json(data))
    return events


def events_to_jsonl(events: Iterable[Event]) -> str:
    """Serialize events to run-log text (one JSON object per line)."""
    return "".join(json.dumps(e.to_json()) + "\n" for e in events)
