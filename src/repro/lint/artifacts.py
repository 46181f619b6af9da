"""Tier-A linting of every on-disk JSON artifact the planner touches.

One collect-all linter per artifact family, each returning
:class:`~repro.lint.diagnostics.Diagnostic` lists instead of raising:

* serialized plans (``repro.parallel.serialization``) — ``ACE30x``
* plan-cache entries (``<fingerprint>.plan.json``) — ``ACE31x``
* search checkpoints (``<fingerprint>.ckpt.json``) — ``ACE32x``
* journaled requests (``<fingerprint>.request.json``) — ``ACE33x``
* telemetry run logs (JSONL) — ``ACE34x`` (plus the ``fleet.*``
  cross-event invariants, ``ACE41x``)
* churn timelines (``*.churn.json``) — ``ACE35x``
* fleet state artifacts (``*.fleet.json``) — ``ACE40x``

These are *static* checks: nothing is deserialized into live planner
objects, so a hostile or bit-rotted file can be linted safely before
the daemon resumes from it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..codec import CodecError, json_keys
from ..core.checkpoint import SearchCheckpoint, StoredResult
from ..parallel.config import ParallelConfig
from ..parallel.stage import StageConfig
from ..telemetry.sinks import check_run_log_line
from .diagnostics import Diagnostic

#: Fingerprints are the first 16 hex digits of a sha256.
_FINGERPRINT_HEX = 16

#: Valid run-log event kinds (see ``repro.telemetry.bus``).
_EVENT_KINDS = frozenset(("event", "span_begin", "span_end", "counter"))

_PLAN_KEYS = frozenset(json_keys(ParallelConfig))
_STAGE_KEYS = frozenset(json_keys(StageConfig))
_STAGE_ARRAY_KEYS = ("tp", "dp", "tp_dim", "recompute")
_CACHE_KEYS = frozenset(("plan", "objective", "model", "gpus"))
#: Optional cache-entry keys: allowed but not required, so entries
#: minted before the field existed keep linting clean.
_CACHE_OPTIONAL_KEYS = frozenset(("strategy",))
_CHECKPOINT_KEYS = frozenset(json_keys(SearchCheckpoint))
_RESULT_KEYS = frozenset(json_keys(StoredResult))


def _is_fingerprint(text: str) -> bool:
    return len(text) == _FINGERPRINT_HEX and all(
        c in "0123456789abcdef" for c in text
    )


def _load_json(
    path: Path, code: str
) -> Tuple[Optional[object], List[Diagnostic]]:
    try:
        return json.loads(path.read_text()), []
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [Diagnostic(
            code,
            f"cannot read {path}: {type(exc).__name__}: {exc}",
            location=str(path),
        )]


# ----------------------------------------------------------------------
# serialized plans (ACE30x)
# ----------------------------------------------------------------------
def lint_plan_dict(data, location: str) -> List[Diagnostic]:
    """Strict-schema lint of one serialized plan dict."""
    out: List[Diagnostic] = []
    if not isinstance(data, dict):
        return [Diagnostic(
            "ACE303", "plan must be a JSON object", location=location
        )]
    version = data.get("format_version")
    if version != 1:
        out.append(Diagnostic(
            "ACE302",
            f"unsupported plan format version {version!r} (expected 1)",
            location=location,
        ))
    unknown = sorted(set(data) - _PLAN_KEYS)
    if unknown:
        out.append(Diagnostic(
            "ACE303",
            f"unknown plan field(s) {unknown}",
            location=location,
        ))
    missing = sorted(_PLAN_KEYS - set(data))
    if missing:
        out.append(Diagnostic(
            "ACE303",
            f"missing plan field(s) {missing}",
            location=location,
        ))
    mbs = data.get("microbatch_size")
    if "microbatch_size" in data and (
        not isinstance(mbs, int) or isinstance(mbs, bool) or mbs < 1
    ):
        out.append(Diagnostic(
            "ACE303",
            f"microbatch_size must be a positive int, got {mbs!r}",
            location=location,
        ))
    stages = data.get("stages")
    if "stages" in data:
        if not isinstance(stages, list) or not stages:
            out.append(Diagnostic(
                "ACE303",
                "stages must be a non-empty list",
                location=location,
            ))
        else:
            for i, stage in enumerate(stages):
                out.extend(_lint_plan_stage(stage, i, location))
    return out


def _lint_plan_stage(stage, i: int, location: str) -> List[Diagnostic]:
    loc = f"{location} stage {i}"
    if not isinstance(stage, dict):
        return [Diagnostic(
            "ACE303", f"stage {i} must be a JSON object", location=loc
        )]
    out: List[Diagnostic] = []
    unknown = sorted(set(stage) - _STAGE_KEYS)
    if unknown:
        out.append(Diagnostic(
            "ACE303", f"stage {i} has unknown field(s) {unknown}",
            location=loc,
        ))
    missing = sorted(_STAGE_KEYS - set(stage))
    if missing:
        out.append(Diagnostic(
            "ACE303", f"stage {i} is missing field(s) {missing}",
            location=loc,
        ))
        return out
    for key in ("start", "end", "num_devices"):
        if not isinstance(stage[key], int) or isinstance(stage[key], bool):
            out.append(Diagnostic(
                "ACE303",
                f"stage {i} field {key!r} must be an int, got "
                f"{stage[key]!r}",
                location=loc,
            ))
            return out
    span = stage["end"] - stage["start"]
    for key in _STAGE_ARRAY_KEYS:
        value = stage[key]
        if not isinstance(value, list):
            out.append(Diagnostic(
                "ACE303",
                f"stage {i} field {key!r} must be a list",
                location=loc,
            ))
        elif span > 0 and len(value) != span:
            out.append(Diagnostic(
                "ACE303",
                f"stage {i} field {key!r} has {len(value)} entries for a "
                f"{span}-op span",
                location=loc,
            ))
    return out


def lint_plan_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one serialized plan JSON file."""
    path = Path(path)
    data, out = _load_json(path, "ACE301")
    if data is None:
        return out
    return lint_plan_dict(data, str(path))


# ----------------------------------------------------------------------
# plan-cache entries (ACE31x)
# ----------------------------------------------------------------------
def lint_plan_cache_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one ``<fingerprint>.plan.json`` cache entry."""
    path = Path(path)
    out: List[Diagnostic] = []
    stem = path.name[: -len(".plan.json")] if path.name.endswith(
        ".plan.json"
    ) else path.stem
    if not _is_fingerprint(stem):
        out.append(Diagnostic(
            "ACE311",
            f"cache entry filename {path.name!r} is not "
            f"<{_FINGERPRINT_HEX}-hex-fingerprint>.plan.json",
            location=str(path),
            hint="cache keys are PlanRequest.fingerprint() digests",
        ))
    data, load_diags = _load_json(path, "ACE301")
    out.extend(load_diags)
    if data is None:
        return out
    if not isinstance(data, dict):
        out.append(Diagnostic(
            "ACE310", "cache entry must be a JSON object",
            location=str(path),
        ))
        return out
    unknown = sorted(set(data) - _CACHE_KEYS - _CACHE_OPTIONAL_KEYS)
    if unknown:
        out.append(Diagnostic(
            "ACE310",
            f"cache entry has unknown field(s) {unknown}",
            location=str(path),
        ))
    missing = sorted(_CACHE_KEYS - set(data))
    if missing:
        out.append(Diagnostic(
            "ACE310",
            f"cache entry is missing field(s) {missing}",
            location=str(path),
        ))
    if "objective" in data and not isinstance(
        data["objective"], (int, float)
    ):
        out.append(Diagnostic(
            "ACE310",
            f"cache entry objective must be a number, got "
            f"{data['objective']!r}",
            location=str(path),
        ))
    if "model" in data and not isinstance(data["model"], str):
        out.append(Diagnostic(
            "ACE310", "cache entry model must be a string",
            location=str(path),
        ))
    if "strategy" in data and not isinstance(data["strategy"], str):
        out.append(Diagnostic(
            "ACE310", "cache entry strategy must be a string",
            location=str(path),
        ))
    if "gpus" in data and (
        not isinstance(data["gpus"], int) or data["gpus"] < 1
    ):
        out.append(Diagnostic(
            "ACE310",
            f"cache entry gpus must be a positive int, got "
            f"{data['gpus']!r}",
            location=str(path),
        ))
    if "plan" in data:
        out.extend(lint_plan_dict(data["plan"], f"{path} plan"))
    return out


# ----------------------------------------------------------------------
# search checkpoints (ACE32x)
# ----------------------------------------------------------------------
def lint_checkpoint_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one ``SearchCheckpoint`` JSON file."""
    path = Path(path)
    data, out = _load_json(path, "ACE320")
    if data is None:
        return out
    if not isinstance(data, dict):
        return [Diagnostic(
            "ACE320", "checkpoint must be a JSON object",
            location=str(path),
        )]
    version = data.get("format_version")
    if version != 1:
        out.append(Diagnostic(
            "ACE321",
            f"unsupported checkpoint format version {version!r} "
            f"(expected 1)",
            location=str(path),
        ))
    unknown = sorted(set(data) - _CHECKPOINT_KEYS)
    if unknown:
        out.append(Diagnostic(
            "ACE322",
            f"checkpoint has unknown field(s) {unknown}",
            location=str(path),
        ))
    missing = sorted(
        {"stage_counts", "budget_kwargs"} - set(data)
    )
    if missing:
        out.append(Diagnostic(
            "ACE322",
            f"checkpoint is missing field(s) {missing}",
            location=str(path),
        ))
    stage_counts: List[int] = []
    raw_counts = data.get("stage_counts", [])
    if not isinstance(raw_counts, list) or any(
        not isinstance(c, int) or isinstance(c, bool) or c < 1
        for c in raw_counts
    ):
        out.append(Diagnostic(
            "ACE322",
            f"stage_counts must be a list of positive ints, got "
            f"{raw_counts!r}",
            location=str(path),
        ))
    else:
        stage_counts = raw_counts
    for key in ("budget_kwargs", "context"):
        if key in data and not isinstance(data[key], dict):
            out.append(Diagnostic(
                "ACE322",
                f"checkpoint field {key!r} must be a JSON object",
                location=str(path),
            ))
    context = data.get("context")
    num_ops = context.get("num_ops") if isinstance(context, dict) else None
    completed = data.get("completed", {})
    completed_counts: List[int] = []
    if not isinstance(completed, dict):
        out.append(Diagnostic(
            "ACE322", "checkpoint completed must be a JSON object",
            location=str(path),
        ))
        completed = {}
    for key, payload in completed.items():
        loc = f"{path} completed[{key}]"
        try:
            count = int(key)
        except (TypeError, ValueError):
            out.append(Diagnostic(
                "ACE322",
                f"completed key {key!r} is not a stage count",
                location=loc,
            ))
            continue
        completed_counts.append(count)
        if not isinstance(payload, dict):
            out.append(Diagnostic(
                "ACE322",
                f"completed[{key}] must be a JSON object",
                location=loc,
            ))
            continue
        missing_result = sorted(_RESULT_KEYS - set(payload))
        if missing_result:
            out.append(Diagnostic(
                "ACE322",
                f"completed[{key}] is missing field(s) {missing_result}",
                location=loc,
            ))
        if "best_config" in payload:
            out.extend(lint_plan_dict(
                payload["best_config"], f"{loc}.best_config"
            ))
        if "best_config" in payload and isinstance(
            payload["best_config"], dict
        ):
            stages = payload["best_config"].get("stages")
            if isinstance(stages, list) and len(stages) != count:
                out.append(Diagnostic(
                    "ACE323",
                    f"completed[{key}] best_config has {len(stages)} "
                    f"stages, expected {count}",
                    location=loc,
                ))
            last = stages[-1] if isinstance(stages, list) and stages else {}
            end = last.get("end") if isinstance(last, dict) else None
            if isinstance(num_ops, int) and isinstance(end, int) and (
                end != num_ops
            ):
                # A plan for another model: the file recorded a
                # concurrent search's result.
                out.append(Diagnostic(
                    "ACE323",
                    f"completed[{key}] best_config ends at op {end}, "
                    f"but context.num_ops is {num_ops}",
                    location=loc,
                ))
    failures = data.get("failures", [])
    failed_counts: List[int] = []
    if not isinstance(failures, list):
        out.append(Diagnostic(
            "ACE322", "checkpoint failures must be a list",
            location=str(path),
        ))
        failures = []
    for i, failure in enumerate(failures):
        if not isinstance(failure, dict) or not {
            "num_stages", "error", "attempts"
        } <= set(failure):
            out.append(Diagnostic(
                "ACE322",
                f"failures[{i}] must carry num_stages/error/attempts",
                location=str(path),
            ))
            continue
        if isinstance(failure["num_stages"], int):
            failed_counts.append(failure["num_stages"])
    if stage_counts:
        stray = sorted(set(completed_counts) - set(stage_counts))
        if stray:
            out.append(Diagnostic(
                "ACE323",
                f"completed stage counts {stray} are absent from "
                f"stage_counts {sorted(stage_counts)}",
                location=str(path),
            ))
    # record_run removes a count's failure record on success, so a
    # count in both sets means the file was hand-edited or torn.
    both = sorted(set(completed_counts) & set(failed_counts))
    if both:
        out.append(Diagnostic(
            "ACE323",
            f"stage counts {both} appear as both completed and failed",
            location=str(path),
        ))
    return out


# ----------------------------------------------------------------------
# journaled requests (ACE33x)
# ----------------------------------------------------------------------
def lint_journal_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one ``<fingerprint>.request.json`` journal entry."""
    from ..service.protocol import PlanRequest, ProtocolError

    path = Path(path)
    data, out = _load_json(path, "ACE301")
    if data is None:
        return out
    try:
        request = PlanRequest.from_json(data)
    except ProtocolError as exc:
        out.append(Diagnostic(
            "ACE330", str(exc), location=str(path),
        ))
        return out
    if path.name.endswith(".request.json"):
        stem = path.name[: -len(".request.json")]
        expected = request.fingerprint()
        if stem != expected:
            out.append(Diagnostic(
                "ACE331",
                f"journal filename fingerprint {stem!r} does not match "
                f"the request's fingerprint {expected!r}",
                location=str(path),
                hint="the journal was renamed or its request edited",
            ))
    return out


# ----------------------------------------------------------------------
# telemetry run logs (ACE34x)
# ----------------------------------------------------------------------
def lint_run_log_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Collect-all lint of a JSONL run log.

    Every line's schema problems from
    :func:`repro.telemetry.check_run_log_line` (ACE340 for a blank or
    non-JSON line, ACE341 otherwise), then what the raise-first
    ``validate_run_log`` does not check: the event kind (ACE342), the
    name's registration in :mod:`repro.telemetry.events` (ACE343) and
    the ``fleet.*`` cross-event invariants (ACE41x).
    """
    from ..telemetry import events as registry

    path = Path(path)
    out: List[Diagnostic] = []
    parsed: List[Tuple[int, str, dict]] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return [Diagnostic(
            "ACE340",
            f"cannot read {path}: {type(exc).__name__}: {exc}",
            location=str(path),
        )]
    for lineno, line in enumerate(lines, start=1):
        loc = f"{path}:{lineno}"
        data, problems = check_run_log_line(line)
        out.extend(
            Diagnostic(
                "ACE340" if syntax else "ACE341", message, location=loc,
            )
            for syntax, message in problems
        )
        if data is None:
            continue
        kind = data["kind"]
        if kind not in _EVENT_KINDS:
            out.append(Diagnostic(
                "ACE342",
                f"unknown event kind {kind!r} (expected one of "
                f"{sorted(_EVENT_KINDS)})",
                location=loc,
            ))
        if not registry.is_registered(data["name"]):
            out.append(Diagnostic(
                "ACE343",
                f"event name {data['name']!r} is not in the telemetry "
                f"registry",
                location=loc,
                hint="register it in repro/telemetry/events.py",
            ))
        if isinstance(data.get("attrs"), dict):
            parsed.append((lineno, data["name"], data["attrs"]))
    out.extend(_lint_fleet_events(parsed, path))
    return out


def _lint_fleet_events(
    parsed: List[Tuple[int, str, dict]], path: Path
) -> List[Diagnostic]:
    """Cross-event ``fleet.*`` invariants of a router run log (ACE41x).

    * every ``fleet.request.routed`` fingerprint must reach a
      ``fleet.request.completed`` — a routed request with no terminal
      event is exactly the "lost request" the fleet promises never to
      produce (ACE410);
    * every fleet event naming a replica must name one declared by
      ``fleet.start`` (or joined via ``fleet.ring.rebuilt``) — an
      undeclared name means two runs' logs were interleaved or an event
      was hand-edited (ACE411).
    """
    fleet = [
        (lineno, name, attrs)
        for lineno, name, attrs in parsed
        if name.startswith("fleet.")
    ]
    if not fleet:
        return []
    out: List[Diagnostic] = []
    declared: set = set()
    saw_start = False
    routed: dict = {}
    for lineno, name, attrs in fleet:
        loc = f"{path}:{lineno}"
        if name == "fleet.start":
            saw_start = True
            replicas = attrs.get("replicas")
            if isinstance(replicas, list):
                declared.update(r for r in replicas if isinstance(r, str))
        elif name == "fleet.ring.rebuilt":
            joined = attrs.get("joined")
            if isinstance(joined, str):
                declared.add(joined)
            replicas = attrs.get("replicas")
            if isinstance(replicas, list):
                declared.update(r for r in replicas if isinstance(r, str))
        elif name == "fleet.request.routed":
            fingerprint = attrs.get("fingerprint")
            if isinstance(fingerprint, str):
                routed.setdefault(fingerprint, []).append(lineno)
        elif name == "fleet.request.completed":
            fingerprint = attrs.get("fingerprint")
            if isinstance(fingerprint, str) and fingerprint in routed:
                pending = routed[fingerprint]
                if pending:
                    pending.pop(0)
                if not pending:
                    del routed[fingerprint]
        if saw_start:
            replica = attrs.get("replica")
            if isinstance(replica, str) and replica not in declared:
                out.append(Diagnostic(
                    "ACE411",
                    f"{name} references replica {replica!r}, which no "
                    f"fleet.start or fleet.ring.rebuilt declared",
                    location=loc,
                ))
    for fingerprint, pending in sorted(routed.items()):
        for lineno in pending:
            out.append(Diagnostic(
                "ACE410",
                f"request {fingerprint} was routed but never reached a "
                f"fleet.request.completed event",
                location=f"{path}:{lineno}",
                hint="a lost request: the router must always answer",
            ))
    return out


# ----------------------------------------------------------------------
# fleet state artifacts (ACE40x)
# ----------------------------------------------------------------------
#: Config fields that must be positive / non-negative, mirroring
#: ``FleetConfig.__post_init__``.
_FLEET_POSITIVE = ("vnodes", "request_timeout", "hedge_factor", "down_after")
_FLEET_NON_NEGATIVE = ("retries",)


def lint_fleet_state_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one ``*.fleet.json`` router state artifact (ACE40x)."""
    path = Path(path)
    loc = str(path)
    data, out = _load_json(path, "ACE401")
    if data is None:
        return out
    if not isinstance(data, dict):
        return [Diagnostic(
            "ACE401", "fleet state must be a JSON object", location=loc,
        )]
    missing = sorted(
        {"format_version", "fleet", "replicas"} - set(data)
    )
    if missing:
        out.append(Diagnostic(
            "ACE401",
            f"fleet state is missing field(s) {missing}",
            location=loc,
        ))
    version = data.get("format_version")
    if "format_version" in data and version != 1:
        out.append(Diagnostic(
            "ACE401",
            f"unsupported fleet state format_version {version!r} "
            f"(expected 1)",
            location=loc,
        ))
    config = data.get("fleet")
    if "fleet" in data and not isinstance(config, dict):
        out.append(Diagnostic(
            "ACE401", "fleet config must be a JSON object", location=loc,
        ))
        config = None
    if isinstance(config, dict):
        for key in _FLEET_POSITIVE:
            value = config.get(key)
            if value is not None and (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value <= 0
            ):
                out.append(Diagnostic(
                    "ACE403",
                    f"fleet config {key!r} must be positive, got "
                    f"{value!r}",
                    location=loc,
                ))
        for key in _FLEET_NON_NEGATIVE:
            value = config.get(key)
            if value is not None and (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                out.append(Diagnostic(
                    "ACE403",
                    f"fleet config {key!r} must be >= 0, got {value!r}",
                    location=loc,
                ))
    replicas = data.get("replicas")
    if "replicas" in data and not isinstance(replicas, list):
        out.append(Diagnostic(
            "ACE401", "fleet replicas must be a list", location=loc,
        ))
        replicas = None
    if isinstance(replicas, list):
        if not replicas:
            out.append(Diagnostic(
                "ACE403",
                "fleet state declares zero replicas",
                location=loc,
                hint="a fleet needs at least one replica",
            ))
        names: List[str] = []
        for i, replica in enumerate(replicas):
            if not isinstance(replica, dict) or not isinstance(
                replica.get("name"), str
            ) or not replica.get("name"):
                out.append(Diagnostic(
                    "ACE401",
                    f"replicas[{i}] must be an object with a non-empty "
                    f"'name'",
                    location=loc,
                ))
                continue
            names.append(replica["name"])
            if "healthy" in replica and not isinstance(
                replica["healthy"], bool
            ):
                out.append(Diagnostic(
                    "ACE401",
                    f"replicas[{i}] 'healthy' must be a boolean",
                    location=loc,
                ))
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            out.append(Diagnostic(
                "ACE402",
                f"duplicate replica name(s) {duplicates}",
                location=loc,
                hint="replica names are ring identities; they must be "
                "unique",
            ))
    return out


# ----------------------------------------------------------------------
# churn timelines (ACE35x)
# ----------------------------------------------------------------------
def lint_churn_timeline_file(
    path: Union[str, Path],
) -> List[Diagnostic]:
    """Lint one ``*.churn.json`` timeline (Tier A, ``ACE35x``).

    Checks the schema (readable JSON object with ``seed`` and
    ``events``), the format version, time-ordering, per-event kind and
    payload validity, and warns when some prefix of the timeline
    preempts every node it ever mentions — a run replaying it will
    halt there until a join arrives.
    """
    from ..elastic.timeline import CHURN_FORMAT_VERSION, ChurnEvent

    path = Path(path)
    loc = str(path)
    data, out = _load_json(path, "ACE350")
    if data is None:
        return out
    if not isinstance(data, dict) or not isinstance(
        data.get("events"), list
    ):
        return [Diagnostic(
            "ACE350",
            "churn timeline must be a JSON object with an "
            "'events' array",
            location=loc,
        )]
    version = data.get("format_version")
    if version != CHURN_FORMAT_VERSION:
        out.append(Diagnostic(
            "ACE351",
            f"unsupported churn timeline format_version {version!r} "
            f"(expected {CHURN_FORMAT_VERSION})",
            location=loc,
        ))
    events: List[ChurnEvent] = []
    for i, raw in enumerate(data["events"]):
        if not isinstance(raw, dict):
            out.append(Diagnostic(
                "ACE353",
                f"event #{i} is not a JSON object",
                location=loc,
            ))
            continue
        try:
            events.append(ChurnEvent.from_json(raw))
        except CodecError as exc:
            out.append(Diagnostic(
                "ACE353",
                f"event #{i} is invalid: {exc}",
                location=loc,
                attrs={"index": i, "kind": raw.get("kind")},
            ))
    times = [event.time for event in events]
    if any(b < a for a, b in zip(times, times[1:])):
        out.append(Diagnostic(
            "ACE352",
            "churn timeline events are not sorted by time",
            location=loc,
            hint="sort events by their 'time' field",
        ))
    # Total preemption: with a recorded cluster size, count nodes
    # exactly; otherwise fall back to the nodes the timeline mentions
    # (a timeline can't name the nodes it never touches).
    num_nodes = data.get("num_nodes")
    nodes_seen = {
        e.node_id for e in events if e.node_id is not None
    }
    preempted: set = set()
    for event in events:
        if event.kind == "node_preempt":
            preempted.add(event.node_id)
        elif event.kind == "node_join":
            preempted.discard(event.node_id)
        dark = (
            len(preempted) >= num_nodes
            if isinstance(num_nodes, int)
            else bool(nodes_seen) and preempted >= nodes_seen
        )
        if dark:
            out.append(Diagnostic(
                "ACE354",
                f"at t={event.time:g} every node the timeline "
                f"mentions is preempted; a replay halts there",
                severity="warning",
                location=loc,
                hint="add a node_join or keep one node alive",
            ))
            break
    return out


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def lint_artifact_path(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one artifact file, dispatching on its name/shape."""
    path = Path(path)
    name = path.name
    if name.endswith(".churn.json"):
        return lint_churn_timeline_file(path)
    if name.endswith(".fleet.json"):
        return lint_fleet_state_file(path)
    if name.endswith(".request.json"):
        return lint_journal_file(path)
    if name.endswith(".ckpt.json"):
        return lint_checkpoint_file(path)
    if name.endswith(".plan.json") and _is_fingerprint(
        name[: -len(".plan.json")]
    ):
        return lint_plan_cache_file(path)
    if name.endswith(".jsonl"):
        return lint_run_log_file(path)
    data, out = _load_json(path, "ACE301")
    if data is None:
        return out
    if isinstance(data, dict):
        if {"fleet", "replicas"} <= set(data):
            return lint_fleet_state_file(path)
        if {"events", "seed"} <= set(data):
            return lint_churn_timeline_file(path)
        if {"plan", "objective"} <= set(data):
            return lint_plan_cache_file(path)
        if {"stage_counts", "completed"} <= set(data) or {
            "stage_counts", "budget_kwargs"
        } <= set(data):
            return lint_checkpoint_file(path)
        if "protocol_version" in data and "model" in data:
            return lint_journal_file(path)
        if "stages" in data or "microbatch_size" in data:
            return lint_plan_dict(data, str(path))
    return [Diagnostic(
        "ACE301",
        f"unrecognized artifact shape in {name}",
        location=str(path),
        severity="warning",
        hint=(
            "expected a plan, cache entry (*.plan.json), checkpoint "
            "(*.ckpt.json), request journal (*.request.json), or "
            "run log (*.jsonl)"
        ),
    )]
