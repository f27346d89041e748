"""Asyncio HTTP front door for the saturation service.

A deliberately minimal HTTP/1.1 layer over ``asyncio.start_server`` —
stdlib-only, matching the repo's zero-dependency policy.  One request
per connection (``Connection: close``), JSON bodies, and one streaming
endpoint (newline-delimited JSON events).

Endpoints (see ``docs/service.md``):

* ``POST /jobs`` — submit a job spec; fully-warm results are served
  inline from the store (no worker round-trip), cold keys are enqueued;
* ``POST /sweeps`` — submit a job list or a generator cross product;
  planned once server-side and materialised as a DAG of jobs (inline /
  pool / dependent / duplicate — see ``JobService.submit_sweep``);
* ``GET /jobs/<id>`` — record + per-phase progress (classification,
  checkpoint presence/ages, ``resumed_phase``);
* ``GET /jobs/<id>/events`` — phase transitions as NDJSON, streamed
  until the job reaches a terminal state;
* ``GET /sweeps/<id>`` — sweep record + live member rollup;
* ``GET /healthz`` — liveness;
* ``GET /stats`` — queue depth, lease table, store summary, sweeps.

Blocking :class:`~repro.service.jobs.JobService` calls (planning, warm
inline serves) run in the default thread-pool executor so slow clients
never stall the accept loop.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

_T = TypeVar("_T")

from ..core import BoolEOptions
from ..store import ArtifactStore
from .jobs import TERMINAL_STATES, JobService

_MAX_BODY = 32 * 1024 * 1024
#: Longest request or header line; also the stream reader's buffer limit,
#: so an over-long line surfaces as a 400 instead of a reader error.
_MAX_HEADER_LINE = 64 * 1024
#: Most header lines one request may carry.
_MAX_HEADERS = 100
#: Seconds a client gets to send its whole request (head and body); a
#: client that stalls longer is answered 408 and disconnected, so it
#: cannot hold a handler open indefinitely.
_READ_TIMEOUT = 30.0

#: How often the events endpoint re-reads the job record.
_EVENT_POLL_SECONDS = 0.2
#: Hard cap on one events stream, seconds.
_EVENT_STREAM_TIMEOUT = 300.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large",
            500: "Internal Server Error"}


class _BadRequest(Exception):
    """Malformed HTTP or JSON from the client (mapped to 400/413)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class ServiceServer:
    """The async front door; all durable state lives in the store."""

    def __init__(self, store: Union[ArtifactStore, str, Path], *,
                 host: str = "127.0.0.1", port: int = 0,
                 options: Optional[BoolEOptions] = None) -> None:
        self.service = JobService(store, options)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (resolves ``port=0`` to the real one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_HEADER_LINE)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- background-thread mode (tests, examples, embedded use) --------
    def start_background(self) -> None:
        """Run the server in a daemon thread; returns once bound."""
        ready = threading.Event()

        def _run() -> None:
            asyncio.run(self._background_main(ready))

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-service-server")
        self._thread.start()
        if not ready.wait(timeout=30.0):  # pragma: no cover - startup hang
            raise RuntimeError("service server failed to start")

    async def _background_main(self, ready: threading.Event) -> None:
        await self.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        ready.set()
        await self._stop_event.wait()
        await self.stop()

    def stop_background(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            stop_event = self._stop_event
            self._loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), _READ_TIMEOUT)
            except _BadRequest as error:
                await self._send_json(writer, error.status,
                                      {"error": str(error)})
                return
            except asyncio.TimeoutError:
                await self._send_json(writer, 408,
                                      {"error": "request timed out"})
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            await self._dispatch(writer, method, path, body)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:
            # The stream limit is _MAX_HEADER_LINE: readline reports an
            # over-long line as ValueError (after discarding it).
            raise _BadRequest("header line too long") from None

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        method, path, headers = await self._read_head(reader)
        return method, path, await self._read_body(reader, headers)

    async def _read_head(self, reader: asyncio.StreamReader
                         ) -> Tuple[str, str, Dict]:
        request_line = await self._read_line(reader)
        if not request_line:
            raise _BadRequest("empty request")
        try:
            method, target, _version = (
                request_line.decode("ascii").split(None, 2))
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers: Dict = {}
        lines = 0
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > _MAX_HEADERS:
                raise _BadRequest("too many headers")
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Dict) -> bytes:
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest("bad Content-Length") from None
        if length < 0 or length > _MAX_BODY:
            raise _BadRequest("body too large", status=413)
        if length == 0:
            return b""
        return await reader.readexactly(length)

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        path: str, body: bytes) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {"ok": True})
            return
        if path == "/stats" and method == "GET":
            stats = await self._call(self.service.stats)
            await self._send_json(writer, 200, stats)
            return
        if path == "/jobs" and method == "POST":
            await self._handle_submit(writer, body)
            return
        if path == "/sweeps" and method == "POST":
            await self._handle_submit_sweep(writer, body)
            return
        if path.startswith("/sweeps/"):
            parts = [part for part in path.split("/") if part]
            if method != "GET":
                await self._send_json(writer, 405,
                                      {"error": "method not allowed"})
                return
            if len(parts) == 2:
                await self._handle_sweep_status(writer, parts[1])
                return
        if path.startswith("/jobs/"):
            parts = [part for part in path.split("/") if part]
            if method != "GET":
                await self._send_json(writer, 405,
                                      {"error": "method not allowed"})
                return
            if len(parts) == 2:
                await self._handle_status(writer, parts[1])
                return
            if len(parts) == 3 and parts[2] == "events":
                await self._handle_events(writer, parts[1])
                return
        await self._send_json(writer, 404, {"error": f"no route {path}"})

    async def _call(self, func: Callable[..., _T], *args: object) -> _T:
        """Run a blocking JobService call off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, func, *args)

    async def _handle_submit(self, writer: asyncio.StreamWriter,
                             body: bytes) -> None:
        try:
            request = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            await self._send_json(writer, 400, {"error": "invalid JSON body"})
            return
        try:
            response = await self._call(self.service.submit, request)
        except ValueError as error:
            await self._send_json(writer, 400, {"error": str(error)})
            return
        await self._send_json(writer, 200, response)

    async def _handle_submit_sweep(self, writer: asyncio.StreamWriter,
                                   body: bytes) -> None:
        try:
            request = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            await self._send_json(writer, 400, {"error": "invalid JSON body"})
            return
        try:
            response = await self._call(self.service.submit_sweep, request)
        except ValueError as error:
            await self._send_json(writer, 400, {"error": str(error)})
            return
        await self._send_json(writer, 200, response)

    async def _handle_sweep_status(self, writer: asyncio.StreamWriter,
                                   sweep_id: str) -> None:
        try:
            status = await self._call(self.service.sweep_status, sweep_id)
        except ValueError:
            status = None  # malformed id: same 404 as an unknown one
        if status is None:
            await self._send_json(writer, 404,
                                  {"error": f"unknown sweep {sweep_id}"})
            return
        await self._send_json(writer, 200, status)

    async def _handle_status(self, writer: asyncio.StreamWriter,
                             job_id: str) -> None:
        try:
            status = await self._call(self.service.status, job_id)
        except ValueError:
            status = None  # malformed id: same 404 as an unknown one
        if status is None:
            await self._send_json(writer, 404,
                                  {"error": f"unknown job {job_id}"})
            return
        await self._send_json(writer, 200, status)

    async def _handle_events(self, writer: asyncio.StreamWriter,
                             job_id: str) -> None:
        """Stream job events as NDJSON until the job is terminal."""
        try:
            record = await self._call(self.service.load, job_id)
        except ValueError:
            record = None
        if record is None:
            await self._send_json(writer, 404,
                                  {"error": f"unknown job {job_id}"})
            return
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("ascii"))
        await writer.drain()

        sent = 0
        deadline = (asyncio.get_running_loop().time()
                    + _EVENT_STREAM_TIMEOUT)
        while True:
            for event in record.events[sent:]:
                line = json.dumps(event, sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
            if len(record.events) > sent:
                await writer.drain()
                sent = len(record.events)
            if record.state in TERMINAL_STATES:
                return
            if asyncio.get_running_loop().time() >= deadline:
                return  # stream cap; client re-connects for the rest
            await asyncio.sleep(_EVENT_POLL_SECONDS)
            refreshed = await self._call(self.service.load, job_id)
            if refreshed is None:  # pragma: no cover - record collected
                return
            record = refreshed
