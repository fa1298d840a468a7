"""Minimal stdlib/asyncio HTTP front-end for the solver service.

``repro serve --http PORT`` exposes two endpoints over HTTP/1.1:

- ``POST /solve`` -- body is one JSON request object (the same shape
  :func:`repro.serve.service.request_from_json` accepts); the response
  body is the typed JSON answer of
  :func:`repro.serve.service.answer_json`, with the HTTP status mapped
  from the error type (table below);
- ``GET /health`` -- liveness plus the numbers an operator scales on:
  atlas entry count, cache hit-rate/disk-read counters, and the
  service's request/coalesce/degraded stats.

The wire contract matches batch mode: every request gets a typed
JSON body, never a silently dropped connection.  Status mapping:

========================  ======
error type                status
========================  ======
(success)                 200
malformed request/JSON    400
unknown path              404
method not allowed        405
``RequestTooLargeError``  413
``ServiceOverloadError``  429
solver failures           500
``ServiceShutdownError``  503
deadline/budget misses    504
========================  ======

This is deliberately not a web framework: the parser handles exactly
the HTTP/1.1 subset the service needs (request line, headers,
``Content-Length`` bodies, keep-alive), stays dependency-free, and
rides the same asyncio loop as the service so coalescing and admission
control see all of its traffic together.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.errors import RequestTooLargeError
from repro.serve.service import (
    MAX_REQUEST_BYTES,
    SolverService,
    answer_json,
)

#: Reason phrases for the statuses this front-end emits.
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}

#: Error-type name (as produced by ``answer_json``) -> HTTP status.
STATUS_BY_ERROR = {
    "ServiceOverloadError": 429,
    "ServiceShutdownError": 503,
    "RequestTooLargeError": 413,
    "SolveDeadlineError": 504,
    "SolverBudgetExceededError": 504,
    "JSONDecodeError": 400,
    "KeyError": 400,
    "TypeError": 400,
    "ValueError": 400,
    "ReproError": 400,
    "SolverInputError": 400,
}


def status_for(result: Dict) -> int:
    """HTTP status for one ``answer_json``-shaped result object."""
    if result.get("ok"):
        return 200
    return STATUS_BY_ERROR.get(str(result.get("error")), 500)


def health_payload(service: SolverService) -> Dict:
    """The ``GET /health`` body: atlas size, cache efficiency and the
    live service counters."""
    astats = service.atlas.stats
    sstats = service.stats
    return {
        "ok": True,
        "status": "closed" if service.closed else "serving",
        "atlas_entries": len(service.atlas),
        "cache": {
            "hits": astats.cache_hits,
            "misses": astats.cache_misses,
            "evictions": astats.cache_evictions,
            "hit_rate": round(astats.cache_hit_rate(), 4),
            "disk_reads": astats.disk_reads,
        },
        "service": {
            "requests": sstats.requests,
            "atlas_hits": sstats.atlas_hits,
            "coalesced": sstats.coalesced,
            "solves": sstats.solves,
            "degraded": sstats.degraded,
            "overloads": sstats.overloads,
        },
    }


def _response_bytes(status: int, payload: Dict,
                    keep_alive: bool = True) -> bytes:
    """Serialize one JSON response with correct framing headers."""
    body = (json.dumps(payload) + "\n").encode()
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


class _BadRequest(Exception):
    """Internal: a malformed frame, carrying the response to send."""

    def __init__(self, status: int, payload: Dict,
                 recoverable: bool = False) -> None:
        super().__init__(payload.get("message", "bad request"))
        self.status = status
        self.payload = payload
        #: Whether the stream position is still trustworthy (the frame
        #: was fully consumed) so keep-alive may continue.
        self.recoverable = recoverable


async def _read_request(reader: asyncio.StreamReader, max_body: int
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """Parse one request frame: ``(method, target, headers, body)``.

    Returns ``None`` on a clean EOF before a request line.  Raises
    :class:`_BadRequest` with the typed response on malformed framing
    or an oversized body (the body is then *not* read -- the
    connection must close, exactly like the TCP front-end's overrun
    path).
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        error = RequestTooLargeError(
            f"request line exceeds the stream limit ({exc})")
        raise _BadRequest(413, {
            "ok": False, "error": type(error).__name__,
            "message": str(error)}) from exc
    if not line or not line.strip():
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(400, {
            "ok": False, "error": "BadRequestLine",
            "message": f"malformed request line: {line!r}"})
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            continue
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and name in headers \
                and headers[name] != value:
            # RFC 7230 3.3.2: conflicting duplicate Content-Length
            # values make the body length ambiguous -- request
            # smuggling territory.  Last-wins silently picked one.
            raise _BadRequest(400, {
                "ok": False, "error": "BadContentLength",
                "message": f"conflicting Content-Length values "
                           f"{headers[name]!r} and {value!r}"})
        headers[name] = value
    raw_length = headers.get("content-length")
    if raw_length is None or raw_length == "":
        length = 0
    elif raw_length.isascii() and raw_length.isdigit():
        # RFC 7230: Content-Length is 1*DIGIT.  ``int()`` alone is too
        # lenient -- it accepts "+5", " 5 ", "1_0" and unicode digits,
        # all of which a proxy in front of us may frame differently.
        length = int(raw_length)
    else:
        raise _BadRequest(400, {
            "ok": False, "error": "BadContentLength",
            "message": f"malformed Content-Length: {raw_length!r}"})
    if length > max_body:
        error = RequestTooLargeError(
            f"request body of {length} bytes exceeds the "
            f"{max_body}-byte limit")
        raise _BadRequest(413, {
            "ok": False, "error": type(error).__name__,
            "message": str(error)})
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def serve_http(service: SolverService, host: str, port: int,
                     max_body: int = MAX_REQUEST_BYTES
                     ) -> asyncio.AbstractServer:
    """Start the HTTP front-end; returns the started server (the
    caller owns its lifetime)."""

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    frame = await _read_request(reader, max_body)
                except _BadRequest as exc:
                    writer.write(_response_bytes(
                        exc.status, exc.payload,
                        keep_alive=exc.recoverable))
                    await writer.drain()
                    if not exc.recoverable:
                        break
                    continue
                except asyncio.IncompleteReadError:
                    break  # peer hung up mid-frame; nothing to answer
                if frame is None:
                    break
                method, target, _headers, body = frame
                path = target.split("?", 1)[0]
                if path in ("/health", "/healthz"):
                    if method != "GET":
                        result, status = _method_not_allowed(method, path)
                    else:
                        result, status = health_payload(service), 200
                elif path == "/solve":
                    if method != "POST":
                        result, status = _method_not_allowed(method, path)
                    else:
                        try:
                            obj = json.loads(body.decode("utf-8"))
                        except (json.JSONDecodeError,
                                UnicodeDecodeError) as exc:
                            result = {"ok": False,
                                      "error": "JSONDecodeError",
                                      "message": f"malformed JSON "
                                                 f"body: {exc}"}
                            status = 400
                        else:
                            result = await answer_json(service, obj)
                            status = status_for(result)
                else:
                    result = {"ok": False, "error": "NotFound",
                              "message": f"unknown path {path!r} "
                                         f"(try POST /solve or "
                                         f"GET /health)"}
                    status = 404
                writer.write(_response_bytes(status, result))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished; nothing left to answer
        finally:
            writer.close()

    def _method_not_allowed(method: str, path: str) -> Tuple[Dict, int]:
        return ({"ok": False, "error": "MethodNotAllowed",
                 "message": f"{method} not allowed on {path}"}, 405)

    # Stream limit sized to the body bound so the header phase can
    # never buffer more than one legitimate frame.
    return await asyncio.start_server(handle, host, port,
                                      limit=max(max_body, 1 << 16))
