"""Finding baselines: gate CI on *new* diagnostics only.

A baseline is a committed JSON file holding the multiset of findings a
tree is known (and temporarily allowed) to have.  ``repro-lint
--baseline lint-baseline.json`` subtracts it from the current run:
findings present in the baseline are *matched* (not reported), findings
absent from it are *new* (reported, and they gate), and baseline
entries nothing matched are *stale* (the debt was paid — the baseline
should be regenerated to shrink).

Identity is the ``(path, code, message)`` triple — deliberately **not**
the line number, so unrelated edits that shift code around do not
invalidate the baseline.  Tier-C rule messages are written to contain
no line numbers for exactly this reason; the line lives only in the
diagnostic's ``location``.  Identity is a multiset: two identical
findings in a file need two baseline entries.

The file format is deterministic (sorted entries, stable key order) so
regenerating a baseline with no underlying change is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from ..codec import CodecError, Version, encode, load
from .diagnostics import Diagnostic, sorted_diagnostics
from .source import split_location

FORMAT_VERSION = 1

BaselineKey = Tuple[str, str, str]


class BaselineError(CodecError):
    """The baseline file is unreadable or malformed."""


@dataclass(frozen=True)
class BaselineEntry:
    path: str
    code: str
    message: str


@dataclass
class Baseline:
    """The JSON form of a baseline file."""

    findings: List[BaselineEntry] = field(default_factory=list)

    json_version = Version("format_version", FORMAT_VERSION)
    json_error = BaselineError


def baseline_key(diag: Diagnostic) -> BaselineKey:
    """``(path, code, message)`` — line numbers intentionally excluded."""
    path, _, _ = split_location(diag.location)
    return (path, diag.code, diag.message)


def write_baseline(
    diagnostics: Iterable[Diagnostic], path: Union[str, Path]
) -> Dict[str, object]:
    """Write ``path`` as the baseline for ``diagnostics``; returns the doc."""
    doc = encode(Baseline([
        BaselineEntry(*key)
        for key in sorted(baseline_key(d) for d in diagnostics)
    ]))
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return doc


def load_baseline(path: Union[str, Path]) -> Dict[BaselineKey, int]:
    """Baseline file -> multiset of finding keys (key -> count)."""
    counts: Dict[BaselineKey, int] = {}
    for entry in load(Baseline, path).findings:
        key = (entry.path, entry.code, entry.message)
        counts[key] = counts.get(key, 0) + 1
    return counts


def apply_baseline(
    diagnostics: Iterable[Diagnostic],
    baseline: Dict[BaselineKey, int],
) -> Tuple[List[Diagnostic], int, List[BaselineKey]]:
    """Split findings against a baseline.

    Returns ``(new, matched_count, stale)``: the diagnostics not
    covered by the baseline (in total sort order), how many were
    absorbed, and the baseline entries nothing matched (sorted).
    """
    remaining = dict(baseline)
    new: List[Diagnostic] = []
    matched = 0
    for diag in sorted_diagnostics(diagnostics):
        key = baseline_key(diag)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            matched += 1
        else:
            new.append(diag)
    stale = sorted(
        key for key, count in remaining.items() for _ in range(count)
    )
    return new, matched, stale
