"""serve-churn: an in-process HTTP planner daemon under two closed-loop
clients, with cache-dropping ``/churn`` events between rounds.

Every round sends each cold (model, GPUs) kind exactly once, split
between the two clients in a seeded order, so every seed asks the
daemon for the same searches; the seed decides their order and
pairing, the repeats and the churn events.  Each client also repeats
two fingerprints it already had answered in the same round: the answer
is cached before the client sees it and ``/churn`` only falls between
rounds, so whether a repeat hits never depends on thread timing.  The
cold answers for one fingerprint must agree across rounds, and passes
replay the script against a fresh daemon and must agree exactly.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from common import (
    Outcome, SetupClock, digest, gmean, median, peak_rss_mb, span, tail,
    unrecorded,
)
from repro.cluster.topology import paper_cluster
from repro.elastic.timeline import random_churn_timeline
from repro.ir.models.registry import build_model
from repro.parallel.serialization import config_from_dict
from repro.parallel.validation import ConfigError, validate_config
from repro.perfmodel.model import build_perf_model
from repro.runtime.executor import Executor
from repro.service.daemon import PlannerDaemon
from repro.service.httpd import serve
from repro.service.planner import plan_digest
from repro.service.protocol import PlanRequest

COLD_KINDS = tuple(
    (model, gpus)
    for model in ("gpt3-350m", "t5-770m", "wresnet-500m", "gpt-8l")
    for gpus in (4, 8)
)
CLIENTS = 2
ROUNDS = 3
REPEATS_PER_CLIENT = 2
ITERATIONS = 3
#: Rough seconds per pass on a 2-core machine: ``--seconds`` buys
#: ``round(seconds / PASS_SECONDS)`` passes, at least one.
PASS_SECONDS = 15.0
#: Extra daemon start-ups timed before the passes and again after
#: them; ``setup_s`` is the median of these and the passes' own
#: start-ups.  A start-up takes about a millisecond, and those after
#: the passes run about a fifth slower than those before, so it takes
#: many to steady the median; each costs about 50 ms, mostly the
#: server's shutdown poll.
SETUP_REPEATS = 40
#: Kernel runs per pace sample between rounds (about 0.1 s): the
#: daemon's threads and pool workers would compete with a kernel timed
#: while they work, so the pace is sampled only while it is idle.
BARRIER_SAMPLES = 100


def make_script(seed: int) -> list:
    """Rounds of per-client request lists plus the churn event that
    follows each round (None after the last)."""
    rng = random.Random(f"serve-churn:{seed}")
    cluster = paper_cluster(16)
    events = random_churn_timeline(
        cluster.num_nodes, cluster.gpus_per_node,
        seed=seed, num_events=ROUNDS - 1,
    ).events
    per_round = len(COLD_KINDS) // CLIENTS
    rounds = []
    for index in range(ROUNDS):
        kinds = list(COLD_KINDS)
        rng.shuffle(kinds)
        clients = []
        for client in range(CLIENTS):
            sequence = [
                {"model": model, "gpus": gpus, "iterations": ITERATIONS}
                for model, gpus in kinds[client * per_round:
                                         (client + 1) * per_round]
            ]
            kinds_of = ["cold"] * len(sequence)
            for _ in range(REPEATS_PER_CLIENT):
                at = rng.randint(1, len(sequence))
                earlier = [
                    body for body, kind in zip(sequence[:at], kinds_of[:at])
                    if kind == "cold"
                ]
                sequence.insert(at, rng.choice(earlier))
                kinds_of.insert(at, "repeat")
            clients.append(list(zip(kinds_of, sequence)))
        event = events[index].to_dict() if index < len(events) else None
        rounds.append((clients, event))
    return rounds


def _start():
    daemon = PlannerDaemon(workers=1, search_workers=2).start()
    server = serve(daemon, port=0)
    # A short poll interval lets shutdown return within 50 ms, so the
    # extra start-ups that ``setup_s`` samples stay cheap.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        name="planbench-httpd", daemon=True,
    )
    thread.start()
    return daemon, server, thread


def _stop(daemon, server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    daemon.drain(timeout=10)


def _post(conn, path: str, body: dict):
    payload = json.dumps(body).encode("utf-8")
    conn.request(
        "POST", path, body=payload,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def _client(port, sequence, records, tracer) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for kind, body in sequence:
            fingerprint = PlanRequest.from_json(body).fingerprint()
            started = time.perf_counter()
            with span(tracer, "service.http.client", rid=fingerprint):
                code, answer = _post(conn, "/plan", body)
            records.append({
                "kind": kind, "body": body, "fingerprint": fingerprint,
                "code": code, "answer": answer,
                "latency": time.perf_counter() - started,
            })
    finally:
        conn.close()


def _run_pass(running, script, tracer, pace):
    """Drive a started daemon through the whole script, then stop it;
    returns the request records in client order, the churn answers,
    the daemon's health and the wall time.  A paced pass samples the
    kernel after each round, while the daemon is idle, and leaves those
    samples out of the wall time."""
    daemon, server, thread = running
    port = server.server_address[1]
    records, churns = [], []
    wall = 0.0
    try:
        for clients, event in script:
            started = time.perf_counter()
            per_client = [[] for _ in clients]
            threads = [
                threading.Thread(
                    target=_client, args=(port, seq, out, tracer)
                )
                for seq, out in zip(clients, per_client)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for out in per_client:
                records.extend(out)
            if event is not None:
                conn = http.client.HTTPConnection("127.0.0.1", port)
                try:
                    churns.append(_post(conn, "/churn", event))
                finally:
                    conn.close()
            seconds = time.perf_counter() - started
            wall += seconds
            if pace is not None:
                pace.add(seconds, BARRIER_SAMPLES)
        health = daemon.health()
    finally:
        _stop(daemon, server, thread)
    return records, churns, health, wall


def execute(seed: int, seconds: float, tracer=None, pace=None) -> Outcome:
    out = Outcome()
    script = make_script(seed)
    passes = max(1, round(seconds / PASS_SECONDS))
    setup = SetupClock(_start, tracer, release=lambda run: _stop(*run))
    walls, records, prints = [], [], []
    dropped = rejected = coalesced = 0
    setup.resample(SETUP_REPEATS)
    for _ in range(passes):
        got, churns, health, wall = _run_pass(
            setup.first(), script, tracer, pace
        )
        walls.append(wall)
        records.extend(got)
        dropped += sum(answer.get("dropped", 0) for _, answer in churns)
        rejected += health["requests"]["rejected"]
        coalesced += health["coalesce"]["total"]
        prints.append({
            "requests": [
                [r["kind"], r["fingerprint"], r["code"],
                 r["answer"].get("cached"),
                 plan_digest(r["answer"].get("plan")),
                 repr(r["answer"].get("objective"))]
                for r in got
            ],
            "churn": [[code, answer.get("dropped")] for code, answer in churns],
            "health": [health["requests"], health["coalesce"]["total"]],
        })
    out.wall_s = sum(walls)
    rss = peak_rss_mb()
    setup.resample(SETUP_REPEATS)
    with unrecorded(tracer):
        iteration_times, throughputs = _check(out, records, seed)

    out.check(
        all(p == prints[0] for p in prints),
        "passes over the same script disagree",
    )
    out.fingerprint = prints[0]

    per_pass_cold = ROUNDS * len(COLD_KINDS)
    out.check(
        dropped == passes * (ROUNDS - 1) * len(COLD_KINDS),
        f"/churn dropped {dropped} cache entries",
    )

    latencies = [1000 * r["latency"] for r in records]
    hits = [1000 * r["latency"] for r in records if r["kind"] == "repeat"]
    tail_q, tail_ms = tail(latencies)
    out.metrics = {
        "setup_s": (setup.median(), "s"),
        "plan_p50_ms": (median(latencies), "ms"),
        "plan_tail_ms": (tail_ms, "ms"),
        "plan_hit_p50_ms": (median(hits), "ms"),
        "plans_per_s": (len(records) / out.wall_s, "1/s"),
        "plan_iter_s_gmean": (gmean(iteration_times), "s"),
        "plan_samples_per_s_gmean": (gmean(throughputs), "samples/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.notes.append(
        f"{passes} pass(es) x {len(records) // passes} requests "
        f"({per_pass_cold} cold, "
        f"{CLIENTS * REPEATS_PER_CLIENT * ROUNDS} repeats) from "
        f"{CLIENTS} closed-loop clients; plan_tail_ms is p{tail_q:g} of "
        f"{len(latencies)} samples; plan_hit_p50_ms over {len(hits)} hits"
    )
    if tracer is not None:
        out.layer_metrics = _service_layers(
            tracer, records, dropped, rejected, coalesced
        )
    out.fingerprint["digest"] = digest(out.fingerprint)
    return out


def _check(out: Outcome, records, seed: int):
    """Every answer decodes, validates, re-estimates to the reported
    objective bit for bit and, if predicted to fit, runs without OOM
    on an executor seeded with ``seed``; cold answers for one
    fingerprint agree and a hit repeats them.  Returns the predicted
    iteration times and measured throughputs of the distinct plans."""
    cold_digest, iteration_times, throughputs = {}, [], []
    for r in records:
        answer, body = r["answer"], r["body"]
        ok = r["code"] == 200 and answer.get("status") == "served"
        out.check(ok, f"{r['fingerprint']}: http {r['code']} {answer}")
        if not ok:
            continue
        if r["kind"] == "repeat":
            out.check(
                answer.get("cached") is True
                and plan_digest(answer["plan"]) == cold_digest.get(
                    r["fingerprint"]
                ),
                f"{r['fingerprint']}: repeat is not the cached cold plan",
            )
            continue
        out.check(not answer.get("cached"), f"{r['fingerprint']}: cold hit")
        plan = plan_digest(answer["plan"])
        if r["fingerprint"] in cold_digest:
            out.check(
                plan == cold_digest[r["fingerprint"]],
                f"{r['fingerprint']}: cold answers disagree",
            )
            continue
        cold_digest[r["fingerprint"]] = plan
        graph = build_model(body["model"])
        cluster = paper_cluster(body["gpus"])
        try:
            config = config_from_dict(answer["plan"])
            validate_config(config, graph, cluster)
            valid = True
        except (ConfigError, KeyError, TypeError, ValueError):
            valid = False
        out.check(valid, f"{r['fingerprint']}: plan fails to decode/validate")
        if not valid:
            continue
        model = build_perf_model(graph, cluster)
        report = model.estimate(config)
        out.check(
            model.objective(config) == answer["objective"],
            f"{r['fingerprint']}: re-estimated objective differs",
        )
        measured = Executor(graph, cluster, seed=seed).run(config)
        out.check(
            report.is_oom or not measured.oom,
            f"{r['fingerprint']}: plan predicted to fit OOMs",
        )
        iteration_times.append(report.iteration_time)
        throughputs.append(measured.throughput(graph.global_batch_size))
    return iteration_times, throughputs


def _service_layers(tracer, records, dropped, rejected, coalesced) -> dict:
    """HTTP self time, queue wait and cache numbers, matching client,
    handler-thread and worker-thread spans by request fingerprint."""
    from tracer import END, NAME, RID, START

    def by_rid(name):
        found = {}
        for record in tracer.spans:
            if record[NAME] == name:
                found.setdefault(record[RID], []).append(record)
        for spans in found.values():
            spans.sort(key=lambda r: r[START])
        return found

    clients = by_rid("service.http.client")
    submits = by_rid("service.daemon.submit")
    planners = by_rid("service.planner")
    http_ms, wait_ms = [], []
    for rid, spans in clients.items():
        for client, submit in zip(spans, submits.get(rid, [])):
            http_ms.append(
                (client[END] - client[START] - (submit[END] - submit[START]))
                / 1e6
            )
        # Hits never reach the planner: pair each planner span with the
        # submit span it ran inside.
        for plan in planners.get(rid, []):
            for submit in submits.get(rid, []):
                if submit[START] <= plan[START] <= submit[END]:
                    wait_ms.append((plan[START] - submit[START]) / 1e6)
    hits = sum(1 for r in records if r["answer"].get("cached"))
    wait_tail = tail(wait_ms)
    return {
        "service.httpd.self_ms": median(http_ms) if http_ms else 0.0,
        "service.daemon.queue_wait_ms.p50": median(wait_ms) if wait_ms else 0.0,
        "service.daemon.queue_wait_ms.tail": wait_tail[1] if wait_tail else 0.0,
        "service.cache.hit_ratio": hits / len(records),
        "service.cache.dropped": dropped,
        "service.admission.rejected": rejected,
        "service.coalesced": coalesced,
    }
