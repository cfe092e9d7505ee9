"""Minimal dependency-free asyncio HTTP/1.1 server.

The clustering service must run anywhere the library runs, so this
module implements just enough of HTTP/1.1 on top of
:func:`asyncio.start_server` — no third-party web framework:

* request parsing (request line, headers, ``Content-Length`` bodies)
  with hard limits on header and body sizes;
* keep-alive connections (closed on request, protocol error, or
  HTTP/1.0);
* a :class:`Router` mapping ``METHOD /path/{param}`` templates to
  async handlers;
* a uniform response envelope — every response carries an
  ``X-Request-Id`` header (generated per request and logged via the
  ``repro.service`` logger) and every error body has exactly one
  shape, ``{"error": {"code", "message", "request_id"}}``
  (:func:`error_payload`);
* streamed responses: a handler may return an :class:`EventStream`
  whose chunks (``text/event-stream`` events) are written as they are
  produced — the job-progress SSE endpoint;
* an optional async *middleware* hook invoked before routing —
  admission control (rate limits, drain-mode 503s) plugs in there.

Handlers raise :class:`~repro.exceptions.ServiceError` for
client-visible failures; the server translates the carried status,
error code, and extra headers (e.g. ``Retry-After``).  Everything else
is deliberately boring: the interesting parts of the service live in
:mod:`repro.service.app`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import re
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

from repro import telemetry
from repro.exceptions import ServiceError

log = logging.getLogger("repro.service")

_HTTP_REQUESTS = telemetry.get_registry().counter(
    "repro_http_requests_total",
    "HTTP requests served, by route template, method, and status.",
    ("route", "method", "status"),
)
_HTTP_LATENCY = telemetry.get_registry().histogram(
    "repro_http_request_seconds",
    "Request wall time by route template and method.",
    ("route", "method"),
)

#: Upper bound on the request head (request line + headers).
MAX_HEADER_BYTES = 64 * 1024

#: Upper bound on a request body (graph uploads are the largest).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REQUEST_LINE_RE = re.compile(r"^([A-Z]+) (\S+) HTTP/(1\.[01])$")
_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")

_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Machine-readable error codes of the uniform envelope, by status.
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    501: "not_implemented",
    503: "unavailable",
}


def error_code_for(status: int) -> str:
    """The envelope ``code`` implied by an HTTP status.

    Examples
    --------
    >>> error_code_for(404)
    'not_found'
    >>> error_code_for(418)
    'error'
    """
    return ERROR_CODES.get(status, "error")


def error_payload(status: int, message: str, *, code: str | None = None,
                  request_id: str | None = None) -> dict:
    """The uniform error envelope every non-2xx response carries.

    Examples
    --------
    >>> error_payload(404, "no such graph: x", request_id="abc123")
    {'error': {'code': 'not_found', 'message': 'no such graph: x', 'request_id': 'abc123'}}
    """
    return {
        "error": {
            "code": code or error_code_for(status),
            "message": message,
            "request_id": request_id,
        }
    }


@dataclass
class Request:
    """One parsed HTTP request.

    ``params`` holds the values captured from the route template (e.g.
    ``{name}``) and is filled in by the router, not the parser.
    ``client`` is the peer address (the admission-control key when no
    ``X-Client-Id`` header overrides it), ``request_id`` the generated
    per-request id echoed in the ``X-Request-Id`` response header.
    """

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    params: dict[str, str] = field(default_factory=dict)
    client: str = ""
    request_id: str = ""
    #: Canonical route template matched by the router (e.g.
    #: ``/v1/jobs/{id}``) — the low-cardinality metrics label; empty
    #: until resolved, and for 404/405 requests.
    route: str = ""

    @property
    def client_key(self) -> str:
        """The admission-control identity of this request.

        The ``X-Client-Id`` header when present (so load balancers and
        tests can name clients), the peer address otherwise.
        """
        return self.headers.get("x-client-id") or self.client or "unknown"

    def json(self):
        """Decode the body as JSON, raising a 400 :class:`ServiceError`.

        An empty body decodes to ``{}`` so optional-body endpoints need
        no special casing.
        """
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(f"malformed JSON body: {error}", status=400) from None

    def text(self) -> str:
        """Decode the body as UTF-8 text, raising a 400 :class:`ServiceError`."""
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ServiceError(f"body is not valid UTF-8: {error}", status=400) from None


@dataclass
class Response:
    """A buffered response: status, payload, extra headers.

    ``payload`` is JSON-encoded unless ``content_type`` is set, in
    which case it must be ``str`` or ``bytes`` and is written verbatim
    with that ``Content-Type`` (the Prometheus ``/v1/metrics`` endpoint
    serves its text format this way).
    """

    status: int
    payload: object
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str | None = None

    @classmethod
    def coerce(cls, result) -> "Response":
        """Normalize a handler return value.

        Handlers may return a :class:`Response`, ``(status, payload)``,
        or ``(status, payload, headers)``.
        """
        if isinstance(result, cls):
            return result
        if isinstance(result, tuple):
            if len(result) == 2:
                return cls(result[0], result[1])
            if len(result) == 3:
                return cls(result[0], result[1], dict(result[2]))
        raise TypeError(f"handler returned {result!r}, not a Response or (status, payload[, headers])")


class EventStream:
    """A streamed ``text/event-stream`` response.

    ``chunks`` is an async iterable of ``bytes`` (pre-formatted SSE
    frames — see :func:`sse_event`); they are written to the socket as
    they are produced, and the connection is closed when the iterator
    ends (the stream has no ``Content-Length``, so close *is* the
    framing).
    """

    def __init__(self, chunks, *, status: int = 200, headers: dict | None = None):
        self.status = int(status)
        self.chunks = chunks
        self.headers = dict(headers) if headers else {}


def sse_event(data, *, event: str | None = None, event_id=None) -> bytes:
    """Format one server-sent event frame.

    ``data`` is JSON-encoded (compact, sorted keys) so every event is a
    single ``data:`` line; ``event`` and ``event_id`` become the
    optional ``event:`` / ``id:`` fields.

    Examples
    --------
    >>> sse_event({"q": 0.5}, event="progress", event_id=3)
    b'id: 3\\nevent: progress\\ndata: {"q":0.5}\\n\\n'
    """
    frame = ""
    if event_id is not None:
        frame += f"id: {event_id}\n"
    if event is not None:
        frame += f"event: {event}\n"
    frame += "data: " + json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n\n"
    return frame.encode("utf-8")


Handler = Callable[[Request], Awaitable[object]]


class Router:
    """Match ``(method, path)`` pairs against ``/path/{param}`` templates.

    Examples
    --------
    >>> import asyncio
    >>> router = Router()
    >>> async def show(request):
    ...     return 200, {"graph": request.params["name"]}
    >>> router.add("GET", "/v1/graphs/{name}", show)
    >>> request = Request("GET", "/v1/graphs/toy", {}, {}, b"")
    >>> handler = router.resolve(request)
    >>> request.route, request.params
    ('/v1/graphs/{name}', {'name': 'toy'})
    >>> asyncio.run(handler(request))
    (200, {'graph': 'toy'})
    """

    def __init__(self):
        self._routes: list[tuple[str, re.Pattern, str, Handler]] = []

    def add(self, method: str, template: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` requests matching ``template``.

        ``{param}`` segments match any non-empty run of characters other
        than ``/`` and are exposed through ``request.params``.
        """
        pattern = _PARAM_RE.sub(r"(?P<\1>[^/]+)", re.escape(template).replace(r"\{", "{").replace(r"\}", "}"))
        self._routes.append((method.upper(), re.compile(f"^{pattern}$"), template, handler))

    def resolve(self, request: Request) -> Handler:
        """Return the handler for ``request``, filling ``request.params``.

        Sets ``request.route`` to the matched template.  Raises a 404
        :class:`ServiceError` for an unknown path and a 405 for a known
        path requested with the wrong method.
        """
        path_known = False
        for method, pattern, template, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_known = True
            if method == request.method:
                request.params = match.groupdict()
                request.route = template
                return handler
        if path_known:
            raise ServiceError(f"method {request.method} not allowed for {request.path}", status=405)
        raise ServiceError(f"no such endpoint: {request.path}", status=404)


def _serialize_headers(headers: dict[str, str]) -> str:
    return "".join(f"{name}: {value}\r\n" for name, value in headers.items())


def json_response(status: int, payload, headers: dict[str, str] | None = None) -> bytes:
    """Serialize one complete HTTP/1.1 response with a JSON body."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _buffered_response(status, body, "application/json", headers)


def text_response(status: int, text, content_type: str,
                  headers: dict[str, str] | None = None) -> bytes:
    """Serialize one complete HTTP/1.1 response with a verbatim body."""
    body = text if isinstance(text, bytes) else str(text).encode("utf-8")
    return _buffered_response(status, body, content_type, headers)


def _buffered_response(status: int, body: bytes, content_type: str,
                       headers: dict[str, str] | None) -> bytes:
    reason = _STATUS_REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + _serialize_headers(headers or {})
        + "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def stream_head(status: int, headers: dict[str, str] | None = None) -> bytes:
    """The response head of a streamed ``text/event-stream`` response.

    No ``Content-Length``: the stream ends when the connection closes,
    which is why the head pins ``Connection: close``.
    """
    reason = _STATUS_REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: text/event-stream\r\n"
        f"Cache-Control: no-cache\r\n"
        + _serialize_headers(headers or {})
        + "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1")


class _ProtocolError(Exception):
    """A request so malformed the connection must be dropped."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off ``reader``; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise _ProtocolError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _ProtocolError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes") from None
    if len(head) > MAX_HEADER_BYTES:
        raise _ProtocolError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    try:
        lines = head.decode("latin-1").split("\r\n")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise _ProtocolError(400, "undecodable request head") from None
    match = _REQUEST_LINE_RE.match(lines[0])
    if match is None:
        raise _ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = match.groups()
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    if "transfer-encoding" in headers:
        # Bodies are framed by Content-Length only; silently ignoring a
        # chunked body would register empty payloads and desync the
        # keep-alive stream on the leftover chunk bytes.
        raise _ProtocolError(501, "Transfer-Encoding is not supported; send a Content-Length body")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _ProtocolError(400, "malformed Content-Length header") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _ProtocolError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _ProtocolError(400, "truncated request body") from None
    request = Request(method, split.path or "/", query, headers, body)
    if version == "1.0" and headers.get("connection", "").lower() != "keep-alive":
        headers["connection"] = "close"
    return request


class HttpServer:
    """Serve a :class:`Router` over asyncio streams.

    Parameters
    ----------
    router:
        The route table; handlers are ``async (Request) -> (status,
        payload[, headers]) | Response | EventStream``.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    middleware:
        Optional ``async (Request) -> None`` invoked before routing.
        Raising :class:`ServiceError` short-circuits the request with
        that error (admission control returns its 429s/503s this way).
    """

    def __init__(self, router: Router, *, host: str = "127.0.0.1", port: int = 0,
                 middleware=None):
        self._router = router
        self._host = host
        self._requested_port = port
        self._middleware = middleware
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        # Request ids are unique per server instance *and* across
        # instances (the random prefix), so log lines from two serve
        # processes never collide.
        self._id_prefix = os.urandom(3).hex()
        self._id_counter = itertools.count(1)

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self._host

    async def start(self) -> "HttpServer":
        """Bind and start accepting connections; returns ``self``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port,
            limit=MAX_HEADER_BYTES,
        )
        return self

    async def close(self) -> None:
        """Stop accepting connections and wait for the socket to close.

        Handler tasks parked on idle keep-alive connections are
        cancelled first — on Python >= 3.12.1 ``Server.wait_closed()``
        waits for every connection handler, so leaving them blocked in
        ``readuntil`` would hang shutdown until clients disconnect.
        """
        if self._server is not None:
            self._server.close()
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    def _response_headers(self, request: Request, extra: dict[str, str]) -> dict[str, str]:
        """Envelope headers of every response: the request id."""
        return {"X-Request-Id": request.request_id, **extra}

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer or "")
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _ProtocolError as error:
                    writer.write(json_response(
                        error.status, error_payload(error.status, str(error))
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                request.client = client
                request.request_id = f"{self._id_prefix}-{next(self._id_counter):06x}"
                response = await self._dispatch(request)
                log.info(
                    "%s %s %s -> %d [%s]",
                    request.client_key, request.method, request.path,
                    response.status, request.request_id,
                )
                if isinstance(response, EventStream):
                    writer.write(stream_head(
                        response.status, self._response_headers(request, response.headers)
                    ))
                    await writer.drain()
                    async for chunk in response.chunks:
                        writer.write(chunk)
                        await writer.drain()
                    break  # Connection: close is the stream framing
                envelope = self._response_headers(request, response.headers)
                if response.content_type is not None:
                    writer.write(text_response(
                        response.status, response.payload,
                        response.content_type, envelope,
                    ))
                else:
                    writer.write(json_response(
                        response.status, response.payload, envelope,
                    ))
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels handler tasks parked on idle
            # keep-alive connections; ending quietly (instead of
            # re-raising) keeps the stream-protocol teardown silent.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # CancelledError: server.close() cancelled this handler
                # while it waited for the transport teardown — the
                # socket is closed either way.
                pass

    async def _dispatch(self, request: Request):
        tracer = telemetry.get_tracer()
        started = time.perf_counter()
        with tracer.trace(request.request_id), \
                tracer.span("http.request", method=request.method,
                            path=request.path) as span:
            response = await self._dispatch_inner(request)
            span.set("status", response.status)
        route = request.route or "unmatched"
        _HTTP_REQUESTS.labels(route=route, method=request.method,
                              status=str(response.status)).inc()
        _HTTP_LATENCY.labels(route=route, method=request.method).observe(
            time.perf_counter() - started)
        return response

    async def _dispatch_inner(self, request: Request):
        try:
            if self._middleware is not None:
                await self._middleware(request)
            handler = self._router.resolve(request)
            result = await handler(request)
            if isinstance(result, EventStream):
                return result
            return Response.coerce(result)
        except ServiceError as error:
            return Response(
                error.status,
                error_payload(error.status, str(error), code=error.code,
                              request_id=request.request_id),
                dict(error.headers),
            )
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            log.exception("unhandled error serving %s %s [%s]",
                          request.method, request.path, request.request_id)
            return Response(
                500,
                error_payload(500, f"{type(error).__name__}: {error}",
                              request_id=request.request_id),
            )
