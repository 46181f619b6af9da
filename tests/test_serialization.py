"""Tests for the artifact codec, plan serialization and trace export."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arena.tournament import ArenaEntry, EntryOutcome, TournamentResult
from repro.codec import CodecError, decode, encode
from repro.core import SearchTrace
from repro.core.checkpoint import SearchCheckpoint, StoredResult, TopConfig
from repro.core.trace import IterationRecord
from repro.elastic.controller import Decision
from repro.elastic.timeline import ChurnEvent, ChurnTimeline, random_churn_timeline
from repro.faults.plan import FaultPlan, random_fault_plan
from repro.lint.diagnostics import CODES, Diagnostic
from repro.parallel import (
    ParallelConfig,
    StageConfig,
    balanced_config,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    validate_config,
)
from repro.profiling.database import (
    CollectiveProfile,
    OpProfile,
    ProfileDatabase,
)
from repro.service.chaos import ChaosEvent, ChaosReport
from repro.service.fleet import FleetConfig
from repro.service.protocol import (
    TERMINAL_STATUSES,
    PlanRequest,
    PlanResponse,
    ProtocolError,
)
from repro.telemetry.bus import Event

from conftest import make_tiny_gpt


class TestConfigSerialization:
    def test_roundtrip_preserves_signature(self, tiny_graph, small_cluster,
                                           tmp_path):
        config = balanced_config(tiny_graph, small_cluster, 3)
        config.stages[0].recompute[:3] = True
        # Stage 2 owns 2 devices in the (1, 1, 2) split; give it tp=2.
        config.stages[2].tp[:] = 2
        config.stages[2].dp[:] = 1
        path = tmp_path / "plan.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.signature() == config.signature()
        validate_config(loaded, tiny_graph, small_cluster)

    def test_roundtrip_dict(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 2)
        data = config_to_dict(config)
        rebuilt = config_from_dict(data)
        assert rebuilt.summary_tuple() == config.summary_tuple()
        np.testing.assert_array_equal(
            rebuilt.stages[0].tp, config.stages[0].tp
        )

    def test_json_is_plain(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 2)
        text = json.dumps(config_to_dict(config))  # must not raise
        assert "microbatch_size" in text

    def test_unknown_version_rejected(self, tiny_graph, small_cluster):
        data = config_to_dict(balanced_config(tiny_graph, small_cluster, 2))
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            config_from_dict(data)

    def test_estimates_survive_roundtrip(self, tiny_graph, small_cluster,
                                         tiny_perf_model, tmp_path):
        config = balanced_config(tiny_graph, small_cluster, 2)
        path = tmp_path / "plan.json"
        save_config(config, path)
        loaded = load_config(path)
        assert tiny_perf_model.estimate(loaded).iteration_time == (
            tiny_perf_model.estimate(config).iteration_time
        )


class TestTraceSerialization:
    def test_roundtrip(self):
        trace = SearchTrace()
        trace.record_iteration(
            index=1, elapsed=0.5, bottlenecks_tried=1, hops_used=2,
            improved=True, objective=3.0, best_objective=3.0,
        )
        trace.record_iteration(
            index=2, elapsed=1.0, bottlenecks_tried=2, hops_used=0,
            improved=False, objective=3.0, best_objective=3.0,
        )
        rebuilt = SearchTrace.from_json(
            json.loads(json.dumps(trace.to_json()))
        )
        assert rebuilt.num_iterations == 2
        assert rebuilt.records[0].hops_used == 2
        assert rebuilt.convergence == trace.convergence
        assert rebuilt.hop_histogram() == trace.hop_histogram()


class TestCliOutput:
    def test_search_saves_plan(self, tmp_path, capsys):
        from repro.cli import search_main
        from repro.parallel import load_config as load

        path = tmp_path / "plan.json"
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--output", str(path), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan_file"] == str(path)
        plan = load(path)
        assert plan.total_devices == 2


# ----------------------------------------------------------------------
# the artifact codec: every record round-trips and rejects bad input
# ----------------------------------------------------------------------
names = st.text(alphabet="abcdefgh_-", min_size=1, max_size=6)
small = st.integers(min_value=0, max_value=50)
reals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
scalars = st.one_of(st.none(), st.booleans(), small, names)
objects = st.dictionaries(names, scalars, max_size=3)


@st.composite
def parallel_configs(draw):
    stages, start = [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=4))
        devices = draw(st.sampled_from([1, 2, 4]))
        ints = st.lists(small, min_size=n, max_size=n)
        stages.append(StageConfig(
            start=start, end=start + n, num_devices=devices,
            tp=np.array(draw(ints), dtype=np.int64),
            dp=np.array(draw(ints), dtype=np.int64),
            tp_dim=np.array(draw(ints), dtype=np.int64),
            recompute=np.array(
                draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                dtype=bool,
            ),
        ))
        start += n
    return ParallelConfig(
        stages=stages,
        microbatch_size=draw(st.integers(min_value=1, max_value=8)),
    )


@st.composite
def op_profiles(draw):
    levels = draw(st.integers(min_value=1, max_value=3))
    options = draw(st.integers(min_value=1, max_value=2))
    arrays = [
        np.array(
            draw(st.lists(reals, min_size=levels * options,
                          max_size=levels * options))
        ).reshape(levels, options)
        for _ in range(4)
    ]
    return OpProfile(*arrays)


@st.composite
def collective_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    floats = st.lists(reals, min_size=n, max_size=n)
    return CollectiveProfile(np.array(draw(floats)), np.array(draw(floats)))


timelines = st.builds(
    random_churn_timeline,
    st.integers(min_value=1, max_value=5),
    st.just(2),
    seed=small,
    num_events=st.integers(min_value=0, max_value=8),
)
outcomes = st.builds(
    EntryOutcome, names, small,
    best_objective=reals,
    feasible=st.booleans(),
    num_estimates=small,
    curve=st.lists(st.lists(reals, min_size=2, max_size=2), max_size=3),
    error=st.none() | names,
)
stored_results = st.builds(
    StoredResult,
    parallel_configs(), reals,
    st.lists(st.builds(TopConfig, reals, parallel_configs()), max_size=2),
    small, reals, st.booleans(),
    st.lists(names, max_size=3),
)

#: Every codec record, with a strategy drawing valid instances.
RECORDS = {
    PlanRequest: st.builds(
        PlanRequest,
        model=names,
        gpus=st.integers(min_value=1, max_value=64),
        stage_counts=st.none() | st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=3
        ).map(tuple),
        iterations=st.integers(min_value=1, max_value=50),
        seed=small,
        deadline_seconds=st.none() | st.floats(0.1, 100.0),
        priority=st.integers(min_value=-3, max_value=3),
        strategy=names,
        strategy_kwargs=st.none() | objects,
    ),
    PlanResponse: st.builds(
        PlanResponse,
        status=st.sampled_from(sorted(TERMINAL_STATUSES)),
        request_id=small,
        fingerprint=names,
        plan=st.none() | objects,
        objective=st.none() | reals,
        cached=st.booleans(),
        retry_after=st.none() | reals,
        error=st.none() | names,
        elapsed_seconds=reals,
        failures=st.lists(objects, max_size=2),
        diagnostics=st.lists(objects, max_size=2),
        replica=st.none() | names,
        failovers=small,
    ),
    FleetConfig: st.builds(
        FleetConfig,
        vnodes=st.integers(min_value=1, max_value=256),
        retries=st.integers(min_value=0, max_value=3),
        backoff_base=reals,
        request_timeout=st.floats(0.1, 100.0),
        hedge_factor=st.floats(0.1, 5.0),
        down_after=st.integers(min_value=1, max_value=5),
        seed=small,
    ),
    ChaosEvent: st.builds(
        ChaosEvent, small, st.sampled_from(["kill", "restart"]), names
    ),
    ChaosReport: st.builds(
        ChaosReport, small, small,
        by_status=st.dictionaries(names, small, max_size=3),
        digest_mismatches=st.lists(objects, max_size=2),
        events=st.lists(objects, max_size=2),
    ),
    ArenaEntry: st.builds(ArenaEntry, names, small, objects),
    EntryOutcome: outcomes,
    TournamentResult: st.builds(
        TournamentResult, names, small,
        st.dictionaries(names, small, max_size=3),
        st.none() | reals,
        st.lists(outcomes, max_size=3),
        reals,
    ),
    ChurnEvent: timelines.filter(lambda t: t.events).flatmap(
        lambda t: st.sampled_from(t.events)
    ),
    ChurnTimeline: timelines,
    FaultPlan: st.builds(
        random_fault_plan,
        st.integers(min_value=1, max_value=8),
        seed=small,
        failure_rate=st.just(0.5),
        oom_rate=st.just(0.5),
    ),
    Decision: st.builds(
        Decision, small, reals, st.lists(objects, max_size=2),
        st.sampled_from(["keep", "replan", "fallback", "halt"]), names,
        small, reals, reals, reals, names, st.booleans(), small,
        fallback_rung=st.none() | names,
        throughput=reals,
        replan_seconds=reals,
    ),
    Diagnostic: st.builds(
        Diagnostic,
        code=st.sampled_from(sorted(CODES)),
        message=names,
        severity=st.sampled_from(["error", "warning"]),
        location=st.just("") | names,
        hint=st.just("") | names,
        attrs=objects,
    ),
    OpProfile: op_profiles(),
    CollectiveProfile: collective_profiles(),
    ProfileDatabase: st.builds(
        ProfileDatabase,
        max_tp=st.sampled_from([1, 2, 4, 8]),
        precision=names,
        ops=st.dictionaries(names, op_profiles(), max_size=2),
        collectives=st.dictionaries(names, collective_profiles(),
                                    max_size=2),
    ),
    SearchTrace: st.builds(
        SearchTrace,
        records=st.lists(
            st.builds(IterationRecord, small, reals, small, small,
                      st.booleans(), reals, reals),
            max_size=3,
        ),
        convergence=st.lists(st.tuples(reals, reals), max_size=3),
    ),
    Event: st.builds(
        Event,
        name=names,
        kind=st.sampled_from(["event", "span_begin", "span_end",
                              "counter"]),
        ts=reals,
        pid=small,
        source=names,
        level=st.sampled_from([10, 20, 30, 40]),
        attrs=objects,
    ),
    ParallelConfig: parallel_configs(),
    StoredResult: stored_results,
    SearchCheckpoint: st.builds(
        SearchCheckpoint,
        stage_counts=st.lists(st.integers(min_value=1, max_value=8),
                              max_size=3),
        budget_kwargs=objects,
        context=objects,
        completed=st.dictionaries(
            st.integers(min_value=1, max_value=8), stored_results,
            max_size=2,
        ),
        failures=st.lists(objects, max_size=2),
    ),
}


def _loader(cls):
    """The file loader a record is read back through (``None`` for a
    record that only lives inside another, like a checkpoint's results)."""
    if cls is ParallelConfig:
        return load_config
    return getattr(cls, "load", None)


def _required_keys(cls):
    keys = []
    for f in dataclasses.fields(cls):
        if f.name.startswith("_") or not f.init:
            continue
        if (f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            keys.append(f.metadata.get("json", {}).get("key") or f.name)
    version = getattr(cls, "json_version", None)
    if version is not None and version.required:
        keys.append(version.key)
    return keys


def _assert_names_record(cls, raised):
    exc = raised.value
    assert isinstance(exc, CodecError), type(exc)
    assert exc.record == cls.__name__
    assert cls.__name__ in str(exc)


record_params = pytest.mark.parametrize(
    "cls", list(RECORDS), ids=lambda cls: cls.__name__
)
codec_settings = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


class TestCodecRecords:
    @record_params
    def test_encode_decode_encode_is_stable(self, cls):
        @codec_settings
        @given(record=RECORDS[cls])
        def check(record):
            data = json.loads(json.dumps(encode(record)))
            rebuilt = decode(cls, data)
            assert type(rebuilt) is cls
            assert json.loads(json.dumps(encode(rebuilt))) == data
            if hasattr(cls, "from_json"):
                assert cls.from_json(data).to_json() == rebuilt.to_json()

        check()

    @record_params
    def test_bad_input_raises_a_codec_error(self, cls, tmp_path):
        @codec_settings
        @given(record=RECORDS[cls], data=st.data())
        def check(record, data):
            payload = json.loads(json.dumps(encode(record)))
            required = _required_keys(cls)
            fields = [
                key for key in payload
                if not key.endswith("_version")
                and key not in getattr(cls, "json_derived", {})
            ]
            bad = [
                [payload], "payload", 3, None,
                {**payload, "zz_unknown": 1},
            ]
            if required:
                key = data.draw(st.sampled_from(required))
                bad.append({k: v for k, v in payload.items() if k != key})
            if fields:
                key = data.draw(st.sampled_from(fields))
                wrong = "x" if isinstance(payload[key], list) else [[["x"]]]
                bad.append({**payload, key: wrong})
            for value in bad:
                with pytest.raises(CodecError) as raised:
                    decode(cls, value)
                _assert_names_record(cls, raised)

            loader = _loader(cls)
            if loader is None:
                return
            path = tmp_path / f"{cls.__name__}.json"
            text = json.dumps(payload)
            path.write_text(text[: len(text) // 2])
            with pytest.raises(CodecError) as raised:
                loader(path)
            _assert_names_record(cls, raised)

        check()


class TestLoaderDefects:
    """Inputs the hand-written loaders once let through or crashed on."""

    def tournament(self):
        outcome = EntryOutcome("greedy", 0, best_objective=1.0)
        return TournamentResult("l", 2, {}, None, [outcome]).to_json()

    def test_tournament_rejects_version_and_unknown_keys(self):
        data = self.tournament()
        assert data["entries"][0]["strategy"] == "greedy"
        assert data["winner"] == "greedy"
        assert TournamentResult.from_json(data).winner.strategy == "greedy"
        with pytest.raises(CodecError, match="format version"):
            TournamentResult.from_json({**data, "format_version": 99})
        with pytest.raises(CodecError, match="unknown"):
            TournamentResult.from_json({**data, "bogus": 1})

    def test_profile_database_missing_keys(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(
            {"max_tp": 2, "ops": {}, "collectives": {}}
        ))
        with pytest.raises(CodecError, match="precision"):
            ProfileDatabase.load(path)
        path.write_text(json.dumps({
            "max_tp": 2, "precision": "fp16", "collectives": {},
            "ops": {"sig": {"fwd_fixed": [[1.0]]}},
        }))
        with pytest.raises(CodecError, match=r"ops\['sig'\]"):
            ProfileDatabase.load(path)

    def test_fault_plan_unknown_failure_key(self):
        data = {
            "format_version": 1, "seed": 0,
            "device_failures": [{"device_id": 0, "time": 1.0,
                                 "blast": 2}],
        }
        with pytest.raises(CodecError, match=r"device_failures\[0\]"):
            FaultPlan.from_json(data)

    def test_missing_keys_are_typed_errors(self):
        with pytest.raises(CodecError, match="after_request"):
            ChaosEvent.from_json({"kind": "kill", "replica": "r0"})
        with pytest.raises(CodecError, match=r"records\[0\]"):
            SearchTrace.from_json({"records": [{"index": 1}]})

    def test_event_rejects_non_object(self):
        with pytest.raises(CodecError, match="Event"):
            Event.from_json(["search.begin"])

    def test_fleet_config_rejects_unknown_keys(self):
        data = FleetConfig().to_json()
        assert FleetConfig.from_json(data) == FleetConfig()
        with pytest.raises(CodecError, match="vnode"):
            FleetConfig.from_json({**data, "vnode": 3})

    def test_protocol_errors_are_codec_errors(self):
        with pytest.raises(ProtocolError) as raised:
            PlanRequest.from_json({"model": "m", "gpus": "4"})
        assert raised.value.path == ".gpus"
        assert PlanRequest.from_json({"model": "m"}) == PlanRequest("m")
