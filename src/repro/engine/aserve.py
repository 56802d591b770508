"""The asyncio serving surface: one event loop, thousands of parked waiters.

The threaded ``BaseHTTPRequestHandler`` front end spent one OS thread per
parked long poll, which capped a server at a few hundred concurrent
``?wait=`` requests.  :class:`AsyncAnalysisServer` replaces it with a single
``asyncio.start_server`` loop (stdlib only — no new dependencies): a parked
waiter is a coroutine awaiting a future, so holding 500+ of them costs
kilobytes, not megabytes of stack.

The engine side stays threaded — batches still run under the service's
batcher thread and ``threading.Condition`` — so the bridge is explicit:
the server registers one result listener with
:meth:`~repro.engine.service.AnalysisService.add_result_listener`, and every
terminal transition crosses into the loop via
``loop.call_soon_threadsafe``, which resolves the parked futures for the
finished fingerprints.  No polling on either side.

Surface compatibility: the class exposes ``server_address``,
``serve_forever()``, ``shutdown()`` and ``server_close()`` with the
semantics of ``socketserver`` — ``serve_forever`` runs the loop in the
calling thread, ``shutdown`` stops it from any thread, ``server_close``
releases the socket — so every existing fixture and script drives it
unchanged.

Beyond the ``/v1`` JSON routes (same handlers, same envelopes) the async
surface adds ``GET /v1/stream``: an RFC 6455 WebSocket speaking
newline-free JSON text frames —

* client → server ``{"op": "subscribe", "fingerprints": [...]}`` and
  ``{"op": "submit", "jobs": [<job payload>, ...]}`` (submit auto-subscribes
  to every submitted fingerprint);
* server → client ``{"type": "submitted", "jobs": [...]}``,
  ``{"type": "result", "job": <status entry>}`` pushed as each job finishes
  (at most once per fingerprint), ``{"type": "stopped"}`` when the service
  shuts down, and ``{"type": "error", "error": <envelope>}`` for bad ops.

The retired unversioned endpoints (``POST /jobs``, ``GET /jobs/<fp>``,
``/healthz``) answer **410 Gone** with a structured envelope naming the
``/v1`` successor.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import hashlib
import json
import math
import threading
import time
from urllib.parse import parse_qs, urlparse

from ..errors import (
    BatchLimitExceeded,
    EngineError,
    JobNotFoundError,
    ReproError,
    error_envelope,
)
from ..obs import metrics as obs_metrics

__all__ = ["AsyncAnalysisServer", "read_http_request", "send_http_response"]

#: Reason phrases for the status codes this surface emits.
_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Largest request body accepted (a 1024-job batch is well under this).
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: RFC 6455 magic GUID for the Sec-WebSocket-Accept digest.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_WS_TEXT = 0x1
_WS_CLOSE = 0x8
_WS_PING = 0x9
_WS_PONG = 0xA


def _parked_gauge():
    return obs_metrics.gauge(
        "repro_async_parked_waiters",
        "Coroutines parked on the asyncio surface awaiting a result "
        "(long polls + WebSocket subscriptions).",
    )


def _route_label(path: str, api_version: str) -> str:
    """Low-cardinality endpoint label for the latency histograms."""
    prefix = f"/{api_version}"
    if path.startswith(prefix):
        sub = path[len(prefix):]
        if sub.startswith("/jobs"):
            return f"{prefix}/jobs/{{fingerprint}}"
        return f"{prefix}{sub}" if sub else prefix
    if path.startswith("/jobs"):
        return "/jobs"
    if path == "/healthz":
        return "/healthz"
    return "other"


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, bytes] | None:
    """One HTTP/1.1 request off a stream: (method, target, headers, body).

    Returns None at EOF (client closed between requests); header names are
    lower-cased.
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) < 2:
        raise EngineError(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 256:
            raise EngineError("too many request headers")
    length = int(headers.get("content-length", 0) or 0)
    if length > _MAX_BODY_BYTES:
        raise EngineError(f"request body of {length} bytes exceeds the limit")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def send_http_response(
    writer: asyncio.StreamWriter,
    code: int,
    body: bytes,
    content_type: str,
    *,
    keep_alive: bool = True,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> None:
    """One HTTP/1.1 response with an explicit Content-Length."""
    lines = [
        f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def _ws_accept_key(key: str) -> str:
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One unmasked (server-to-client) frame with FIN set."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    if length < 126:
        header.append(length)
    elif length < 1 << 16:
        header.append(126)
        header += length.to_bytes(2, "big")
    else:
        header.append(127)
        header += length.to_bytes(8, "big")
    return bytes(header) + payload


async def _ws_read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One client frame, unmasked; raises IncompleteReadError at EOF."""
    first = await reader.readexactly(2)
    fin = bool(first[0] & 0x80)
    opcode = first[0] & 0x0F
    masked = bool(first[1] & 0x80)
    length = first[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > _MAX_BODY_BYTES:
        raise EngineError(f"WebSocket frame of {length} bytes exceeds the limit")
    if not fin:
        # Control of the protocol stays simple: the ops this surface speaks
        # are small JSON texts, so fragmentation is rejected, not buffered.
        raise EngineError("fragmented WebSocket frames are not supported")
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length)
    if masked:
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return opcode, payload


class _WsConnection:
    """Per-WebSocket state: the outbound event queue and live subscriptions."""

    def __init__(self):
        self.events: asyncio.Queue = asyncio.Queue()
        self.subscribed: set[str] = set()


class AsyncAnalysisServer:
    """Serve an :class:`~repro.engine.service.AnalysisService` over asyncio.

    Binds synchronously in the constructor (``port 0`` = ephemeral, so
    ``server_address`` is final immediately); ``serve_forever()`` then runs
    the loop in whatever thread calls it.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        from .service import API_VERSION

        self.service = service
        self.api_version = API_VERSION
        self._loop = asyncio.new_event_loop()
        #: fingerprint -> futures parked by HTTP long polls (loop thread only).
        self._parked: dict[str, set[asyncio.Future]] = {}
        #: fingerprint -> WebSocket connections awaiting its result.
        self._subs: dict[str, set[_WsConnection]] = {}
        self._connections: set[_WsConnection] = set()
        self._closed = False
        self._serving = threading.Event()
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle_client, host, port)
        )
        self.server_address = self._server.sockets[0].getsockname()
        service.add_result_listener(self._on_results)

    # -- socketserver-compatible lifecycle ----------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (from any thread)."""
        asyncio.set_event_loop(self._loop)
        self._serving.set()
        try:
            self._loop.run_forever()
        finally:
            self._serving.clear()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread (idempotent)."""
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._loop.stop)

    def server_close(self) -> None:
        """Release the socket and the loop.  Call after :meth:`shutdown`."""
        if self._closed:
            return
        self._closed = True
        self.service.remove_result_listener(self._on_results)
        if self._loop.is_running():  # shutdown not awaited; last resort
            self.shutdown()
            deadline = time.monotonic() + 5.0
            while self._loop.is_running() and time.monotonic() < deadline:
                time.sleep(0.01)
        self._server.close()
        tasks = asyncio.all_tasks(self._loop)
        for task in tasks:
            task.cancel()
        with contextlib.suppress(RuntimeError):
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self._loop.run_until_complete(self._server.wait_closed())
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    # -- the thread -> loop result bridge ------------------------------------
    def _on_results(self, fingerprints: list[str]) -> None:
        """Service callback (batcher/submitter thread): hop into the loop."""
        with contextlib.suppress(RuntimeError):  # loop already closed
            self._loop.call_soon_threadsafe(self._wake, list(fingerprints))

    def _wake(self, fingerprints: list[str]) -> None:
        """Resolve parked futures and push WebSocket events (loop thread)."""
        if not fingerprints:  # service stop: release everything
            for futures in self._parked.values():
                for future in futures:
                    if not future.done():
                        future.set_result(None)
            self._parked.clear()
            for connection in list(self._connections):
                connection.events.put_nowait({"type": "stopped"})
            self._subs.clear()
            return
        for fingerprint in fingerprints:
            for future in self._parked.pop(fingerprint, ()):
                if not future.done():
                    future.set_result(None)
            connections = self._subs.pop(fingerprint, None)
            if not connections:
                continue
            entry = self.service.status(fingerprint)
            if entry is None:
                continue
            for connection in connections:
                connection.subscribed.discard(fingerprint)
                connection.events.put_nowait({"type": "result", "job": entry})

    async def _park(self, fingerprint: str, timeout: float) -> None:
        """Await a result notification for ``fingerprint`` (or the timeout).

        The future is registered *before* the caller re-reads the status, so
        a result landing between the read and the await still wakes us.
        """
        future = self._loop.create_future()
        self._parked.setdefault(fingerprint, set()).add(future)
        gauge = _parked_gauge()
        gauge.inc()
        try:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(future, timeout)
        finally:
            gauge.dec()
            waiters = self._parked.get(fingerprint)
            if waiters is not None:
                waiters.discard(future)
                if not waiters:
                    self._parked.pop(fingerprint, None)

    async def _await_entry(self, fingerprint: str, seconds: float) -> dict | None:
        """The async twin of ``AnalysisService.wait_for``."""
        service = self.service
        deadline = self._loop.time() + max(0.0, seconds)
        terminal = tuple(self.service.terminal_statuses)
        while True:
            future = self._loop.create_future()
            self._parked.setdefault(fingerprint, set()).add(future)
            # Status is read only after the future is registered: a terminal
            # transition in between fires _wake and resolves this future, so
            # the wakeup cannot be lost.
            entry = service.status(fingerprint)
            remaining = deadline - self._loop.time()
            if (
                entry is None
                or entry["status"] in terminal
                or remaining <= 0
                or service.stopped
            ):
                self._unpark(fingerprint, future)
                return entry
            gauge = _parked_gauge()
            gauge.inc()
            try:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(future, remaining)
            finally:
                gauge.dec()
                self._unpark(fingerprint, future)

    def _unpark(self, fingerprint: str, future: asyncio.Future) -> None:
        waiters = self._parked.get(fingerprint)
        if waiters is not None:
            waiters.discard(future)
            if not waiters:
                self._parked.pop(fingerprint, None)

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                if (
                    method == "GET"
                    and headers.get("upgrade", "").lower() == "websocket"
                ):
                    await self._serve_websocket(reader, writer, target, headers)
                    break
                keep_alive = await self._dispatch(method, target, headers, body, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            EngineError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader) -> tuple[str, str, dict, bytes] | None:
        return await read_http_request(reader)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        body: bytes,
        content_type: str,
        *,
        keep_alive: bool = True,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        await send_http_response(
            writer,
            code,
            body,
            content_type,
            keep_alive=keep_alive,
            extra_headers=extra_headers,
        )

    async def _send_json(
        self, writer, code: int, payload: dict, *, keep_alive: bool = True,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        await self._send(
            writer,
            code,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            keep_alive=keep_alive,
            extra_headers=extra_headers,
        )

    async def _send_error(self, writer, exc: BaseException, status: int) -> None:
        await self._send_json(writer, status, error_envelope(exc, status=status))

    async def _send_gone(self, writer, successor: str) -> None:
        """410 Gone for a retired unversioned endpoint, pointing at /v1."""
        envelope = error_envelope(
            EngineError(
                f"this endpoint was retired; use {successor} "
                f"(API {self.api_version})"
            ),
            status=410,
        )
        await self._send_json(
            writer,
            410,
            envelope,
            extra_headers=(("Link", f'<{successor}>; rel="successor-version"'),),
        )

    async def _dispatch(self, method, target, headers, body, writer) -> bool:
        parsed = urlparse(target)
        path = parsed.path.rstrip("/")
        endpoint = _route_label(path, self.api_version)
        in_flight = obs_metrics.gauge(
            "repro_http_in_flight", "HTTP requests currently being handled."
        )
        in_flight.inc()
        started = time.perf_counter()
        try:
            await self._route(method, path, parse_qs(parsed.query), body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:  # a handler bug must not kill the connection task
            with contextlib.suppress(Exception):
                await self._send_error(writer, exc, 500)
            return False
        finally:
            in_flight.dec()
            obs_metrics.histogram(
                "repro_http_request_seconds",
                "HTTP request latency by endpoint and method.",
                {"endpoint": endpoint, "method": method},
            ).observe(time.perf_counter() - started)
        return headers.get("connection", "").lower() != "close"

    async def _route(self, method, path, query, body, writer) -> None:
        prefix = f"/{self.api_version}"
        if path.startswith(prefix):
            sub = path[len(prefix):]
            if method == "GET":
                await self._v1_get(sub, query, writer)
            elif method == "POST":
                await self._v1_post(sub, body, writer)
            else:
                await self._send_error(
                    writer, EngineError(f"method {method} not allowed"), 405
                )
            return
        # The unversioned surface is retired: every route answers 410 Gone
        # with an envelope naming its /v1 successor.
        if path == "/healthz":
            await self._send_gone(writer, f"{prefix}/healthz")
            return
        if path == "/jobs" or path.startswith("/jobs/"):
            successor = (
                f"{prefix}/batches" if method == "POST" else f"{prefix}/jobs/<fingerprint>"
            )
            await self._send_gone(writer, successor)
            return
        await self._send_error(writer, EngineError(f"unknown path {path!r}"), 404)

    async def _v1_get(self, sub: str, query: dict, writer) -> None:
        service = self.service
        if sub == "/capabilities":
            await self._send_json(writer, 200, service.capabilities())
            return
        if sub == "/healthz":
            await self._send_json(writer, 200, service.healthz())
            return
        if sub == "/metrics":
            await self._send(
                writer,
                200,
                service.render_metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if sub.startswith("/jobs/"):
            fingerprint = sub[len("/jobs/"):]
            wait = query.get("wait")
            if wait is not None:
                try:
                    requested = float(wait[0])
                    if not math.isfinite(requested):
                        # NaN slips through min/max clamps and would park
                        # the coroutine on a nonsense deadline.
                        raise ValueError("wait must be finite")
                    seconds = min(max(requested, 0.0), service.max_wait_seconds)
                except (TypeError, ValueError):
                    await self._send_error(
                        writer, EngineError(f"invalid wait parameter {wait[0]!r}"), 400
                    )
                    return
                entry = await self._await_entry(fingerprint, seconds)
            else:
                entry = service.status(fingerprint)
            if entry is None:
                await self._send_error(
                    writer,
                    JobNotFoundError(f"unknown fingerprint {fingerprint!r}"),
                    404,
                )
            else:
                await self._send_json(writer, 200, entry)
            return
        await self._send_error(writer, EngineError(f"unknown path {sub!r}"), 404)

    async def _v1_post(self, sub: str, body: bytes, writer) -> None:
        service = self.service
        if sub != "/batches":
            await self._send_error(writer, EngineError(f"unknown path {sub!r}"), 404)
            return
        try:
            payload = json.loads(body or b"null")
        except (ValueError, json.JSONDecodeError) as exc:
            await self._send_error(writer, EngineError(f"invalid JSON body: {exc}"), 400)
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("jobs"), list):
            await self._send_error(
                writer, EngineError("body must be {'jobs': [<job payload>, ...]}"), 400
            )
            return
        submissions = payload["jobs"]
        if not submissions:
            await self._send_error(
                writer, EngineError("batch must contain at least one job"), 400
            )
            return
        try:
            entries = service.submit_payloads(submissions)
        except BatchLimitExceeded as exc:
            await self._send_error(writer, exc, 413)
            return
        except ReproError as exc:
            await self._send_error(writer, exc, 400)
            return
        await self._send_json(
            writer, 202, {"jobs": entries, "batch": {"submitted": len(entries)}}
        )

    # -- WebSocket -----------------------------------------------------------
    async def _serve_websocket(self, reader, writer, target, headers) -> None:
        parsed = urlparse(target)
        if parsed.path.rstrip("/") != f"/{self.api_version}/stream":
            await self._send_error(
                writer, EngineError(f"no WebSocket endpoint at {parsed.path!r}"), 404
            )
            return
        key = headers.get("sec-websocket-key")
        if not key:
            await self._send_error(
                writer, EngineError("missing Sec-WebSocket-Key header"), 400
            )
            return
        handshake = (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {_ws_accept_key(key)}\r\n\r\n"
        )
        writer.write(handshake.encode("latin-1"))
        await writer.drain()
        connection = _WsConnection()
        self._connections.add(connection)
        connections_gauge = obs_metrics.gauge(
            "repro_ws_connections", "Open WebSocket connections on /v1/stream."
        )
        connections_gauge.inc()
        pusher = self._loop.create_task(self._ws_push_loop(connection, writer))
        try:
            await self._ws_read_loop(connection, reader, writer)
        finally:
            connections_gauge.dec()
            self._connections.discard(connection)
            for fingerprint in list(connection.subscribed):
                subscribers = self._subs.get(fingerprint)
                if subscribers is not None:
                    subscribers.discard(connection)
                    if not subscribers:
                        self._subs.pop(fingerprint, None)
            pusher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pusher

    async def _ws_push_loop(self, connection: _WsConnection, writer) -> None:
        """Drain the event queue into text frames; one task per connection."""
        gauge = _parked_gauge()
        while True:
            gauge.inc()
            try:
                event = await connection.events.get()
            finally:
                gauge.dec()
            frame = _ws_frame(_WS_TEXT, json.dumps(event).encode("utf-8"))
            writer.write(frame)
            await writer.drain()

    async def _ws_read_loop(self, connection, reader, writer) -> None:
        service = self.service
        terminal = tuple(service.terminal_statuses)
        while True:
            try:
                opcode, payload = await _ws_read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if opcode == _WS_CLOSE:
                with contextlib.suppress(ConnectionError):
                    writer.write(_ws_frame(_WS_CLOSE, payload[:125]))
                    await writer.drain()
                return
            if opcode == _WS_PING:
                writer.write(_ws_frame(_WS_PONG, payload[:125]))
                await writer.drain()
                continue
            if opcode != _WS_TEXT:
                continue
            try:
                message = json.loads(payload.decode("utf-8"))
                if not isinstance(message, dict):
                    raise EngineError("WebSocket ops must be JSON objects")
                op = message.get("op")
                if op == "subscribe":
                    fingerprints = message.get("fingerprints")
                    if not isinstance(fingerprints, list):
                        raise EngineError(
                            "subscribe needs {'fingerprints': [<fp>, ...]}"
                        )
                    self._ws_subscribe(connection, fingerprints, terminal)
                elif op == "submit":
                    jobs = message.get("jobs")
                    if not isinstance(jobs, list) or not jobs:
                        raise EngineError("submit needs {'jobs': [<payload>, ...]}")
                    entries = service.submit_payloads(jobs)
                    connection.events.put_nowait(
                        {"type": "submitted", "jobs": entries}
                    )
                    self._ws_subscribe(
                        connection,
                        [entry["fingerprint"] for entry in entries],
                        terminal,
                    )
                else:
                    raise EngineError(f"unknown WebSocket op {op!r}")
            except ReproError as exc:
                connection.events.put_nowait(
                    {"type": "error", "error": error_envelope(exc, status=400)}
                )
            except (ValueError, UnicodeDecodeError) as exc:
                connection.events.put_nowait(
                    {
                        "type": "error",
                        "error": error_envelope(
                            EngineError(f"invalid WebSocket payload: {exc}"),
                            status=400,
                        ),
                    }
                )

    def _ws_subscribe(
        self, connection: _WsConnection, fingerprints: list, terminal: tuple
    ) -> None:
        """Register interest; already-terminal jobs are pushed immediately.

        Registration happens before the status read (same lost-wakeup
        discipline as :meth:`_await_entry`): a result landing in between
        fires :meth:`_wake`, which both pushes the event and clears the
        subscription, and the duplicate push is prevented by the
        ``subscribed`` set check.
        """
        service = self.service
        for fingerprint in fingerprints:
            fingerprint = str(fingerprint)
            if fingerprint in connection.subscribed:
                continue
            connection.subscribed.add(fingerprint)
            self._subs.setdefault(fingerprint, set()).add(connection)
            entry = service.status(fingerprint)
            if entry is None:
                connection.subscribed.discard(fingerprint)
                subscribers = self._subs.get(fingerprint)
                if subscribers is not None:
                    subscribers.discard(connection)
                    if not subscribers:
                        self._subs.pop(fingerprint, None)
                connection.events.put_nowait(
                    {
                        "type": "error",
                        "error": error_envelope(
                            JobNotFoundError(
                                f"unknown fingerprint {fingerprint!r}"
                            ),
                            status=404,
                        ),
                    }
                )
                continue
            if entry["status"] in terminal and fingerprint in connection.subscribed:
                connection.subscribed.discard(fingerprint)
                subscribers = self._subs.get(fingerprint)
                if subscribers is not None:
                    subscribers.discard(connection)
                    if not subscribers:
                        self._subs.pop(fingerprint, None)
                connection.events.put_nowait({"type": "result", "job": entry})
