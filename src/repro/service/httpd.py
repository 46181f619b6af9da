"""HTTP front-end for the planner daemon and the fleet (stdlib only).

A thin :mod:`http.server` layer over a planner backend — a
:class:`PlannerDaemon` or a :class:`~repro.service.fleet.FleetRouter`.
All policy (admission, breaker, cache, deadlines, routing) lives in the
backend; this module only maps the JSON protocol onto status codes:

==========================  =====================================
``POST /plan``              200 served/partial, 400 bad request,
                            429 rejected (+ ``Retry-After``),
                            500 failed
``GET /healthz``            always 200; body carries
                            healthy/degraded detail
``GET /readyz``             200 ready / 503 draining or stopped
``POST /invalidate``        200, body ``{"dropped": N, ...}``
``POST /churn``             200, body ``{"dropped", ...}``;
                            400 invalid event
==========================  =====================================

``ThreadingHTTPServer`` gives one thread per connection, so a slow
search never blocks ``/healthz`` — the daemon's own worker pool and
admission queue bound the actual planning concurrency.  Access-log and
listen events carry the backend's ``telemetry_source`` (``service`` or
``fleet``).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..telemetry import get_bus
from ..telemetry.events import SERVICE_HTTP_ACCESS, SERVICE_HTTP_LISTEN
from .protocol import (
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_PARTIAL,
    ProtocolError,
    PlanRequest,
)

_STATUS_CODES = {
    STATUS_SERVED: 200,
    STATUS_PARTIAL: 200,
    STATUS_REJECTED: 429,
}


def response_status_code(response) -> int:
    """HTTP code for a terminal :class:`PlanResponse`."""
    code = _STATUS_CODES.get(response.status, 500)
    if response.status == STATUS_REJECTED and response.diagnostics:
        # Admission lint rejected the request as invalid: that is a
        # client error (400), not back-pressure (429) — retrying the
        # same payload can never succeed.
        code = 400
    return code


class PlannerHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to a planner backend: a :class:`PlannerDaemon`
    or a :class:`~repro.service.fleet.FleetRouter`."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops connections under request
    # bursts (e.g. churn replay while plans are in flight); the kernel
    # clamps this to somaxconn.
    request_queue_size = 64

    def __init__(self, address, backend) -> None:
        super().__init__(address, _Handler)
        self.backend = backend


class _Handler(BaseHTTPRequestHandler):
    """JSON routes over the backend's ``submit``, ``health()``,
    ``ready``, ``invalidate(gpus=)`` and ``churn(event)``."""

    protocol_version = "HTTP/1.1"
    # Headers and body leave in two sends; with Nagle on, the body waits
    # for the client's delayed ACK of the headers (~40 ms per response
    # on a keep-alive connection).
    disable_nagle_algorithm = True

    @property
    def _backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        # Route access logs onto the telemetry bus instead of stderr so
        # the run log is the single source of truth.
        get_bus().emit(
            SERVICE_HTTP_ACCESS,
            source=self._backend.telemetry_source,
            client=self.address_string(),
            line=fmt % args,
        )

    def _send_json(
        self, code: int, payload: dict,
        *, retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:.2f}")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client closes; with
            # no usable framing the connection cannot be reused either.
            self.close_connection = True
            raise ProtocolError(
                "Content-Length must be a non-negative integer"
            )
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, self._backend.health())
        elif self.path == "/readyz":
            ready = self._backend.ready
            self._send_json(200 if ready else 503, {"ready": ready})
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/plan":
            self._handle_plan()
        elif self.path == "/invalidate":
            self._handle_invalidate()
        elif self.path == "/churn":
            self._handle_churn()
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def _handle_plan(self) -> None:
        try:
            request = PlanRequest.from_json(self._read_body())
        except (ProtocolError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        response = self._backend.submit(request)
        self._send_json(
            response_status_code(response),
            response.to_json(),
            retry_after=response.retry_after,
        )

    def _handle_invalidate(self) -> None:
        try:
            body = self._read_body()
        except (ProtocolError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        gpus = body.get("gpus")
        # bool is an int subclass, and True == 1 would match every
        # 1-GPU cache entry.
        if gpus is not None and (
            isinstance(gpus, bool) or not isinstance(gpus, int) or gpus < 1
        ):
            self._send_json(
                400, {"error": "gpus must be a positive integer"}
            )
            return
        self._send_json(200, self._backend.invalidate(gpus=gpus))

    def _handle_churn(self) -> None:
        """One churn event (``ChurnEvent`` JSON): stale plans drop,
        service keeps answering ``/plan`` against the new conditions."""
        try:
            body = self._read_body()
            result = self._backend.churn(body)
        except (ProtocolError, KeyError, TypeError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(200, result)


def serve(
    backend,
    *,
    host: str = "127.0.0.1",
    port: int = 8347,
) -> PlannerHTTPServer:
    """Bind ``backend`` (a :class:`PlannerDaemon` or a
    :class:`~repro.service.fleet.FleetRouter`) without blocking and
    return the server; the caller runs ``serve_forever`` and owns
    shutdown ordering."""
    server = PlannerHTTPServer((host, port), backend)
    get_bus().emit(
        SERVICE_HTTP_LISTEN,
        source=backend.telemetry_source,
        host=host,
        port=server.server_address[1],
    )
    return server
