"""Stdlib-only asyncio HTTP/1.1 transport for the profiling app.

A deliberately small server: request-line + headers + Content-Length
bodies, keep-alive by default, no TLS, no chunked encoding — the
endpoints are JSON-in/JSON-out and the load harness drives thousands of
requests per second through exactly this path, so every line here is on
the hot path.  Malformed requests get a 400 and the connection closes;
a handler can never raise (the app converts everything to JSON errors).
"""

from __future__ import annotations

import asyncio
import signal
import sys
from urllib.parse import unquote, urlsplit

from repro.serve.app import App, Response

#: Per-line read limit (request line / one header line).
LINE_LIMIT = 64 * 1024

#: Largest accepted request body (a grid spec is tiny; be generous).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: GIL switch interval of a running server, in seconds.  A sweep on a
#: worker thread is mostly pure-Python work that holds the GIL, and a hot
#: read on the event loop waits up to one interval for it: at the
#: interpreter's 5 ms default a hot read beside a sweep took 1.75-2.02 ms,
#: at 0.2 ms it is as prompt as beside an idle engine.
SWITCH_INTERVAL_S = 0.0002

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _render(response: Response, *, keep_alive: bool) -> bytes:
    reason = _STATUS_TEXT.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in response.headers.items()]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body


async def _read_request(reader: asyncio.StreamReader):
    """One parsed request: (method, path, body), or None at EOF/garbage."""
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return None
    method, target, _version = parts

    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return None
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            return None
        name, _, value = line.decode("latin-1", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 256:
            return None

    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        return None
    if length < 0 or length > MAX_BODY_BYTES:
        return None
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None

    path = unquote(urlsplit(target).path)
    close = headers.get("connection", "").lower() == "close"
    return method.upper(), path, body, close


async def handle_connection(app: App, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one keep-alive connection until EOF or a parse error."""
    try:
        while True:
            request = await _read_request(reader)
            if request is None:
                if not reader.at_eof():
                    writer.write(_render(
                        Response(400, b'{"error": "malformed request"}\n'),
                        keep_alive=False))
                    await writer.drain()
                return
            method, path, body, close = request
            response = await app.handle(method, path, body)
            # A draining server answers the in-flight request but ends
            # the keep-alive session, steering the client elsewhere.
            close = close or app.draining
            writer.write(_render(response, keep_alive=not close))
            await writer.drain()
            if close:
                return
    except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
        pass
    finally:
        # close() without wait_closed(): the transport finishes tearing
        # down on the next loop turn, and blocking the handler task here
        # makes event-loop shutdown cancel it mid-await (noisy logs).
        writer.close()


async def create_server(app: App, host: str = "127.0.0.1",
                        port: int = 0) -> asyncio.AbstractServer:
    """Bind and start serving ``app``; ``port=0`` picks a free port."""
    return await asyncio.start_server(
        lambda reader, writer: handle_connection(app, reader, writer),
        host, port, limit=LINE_LIMIT)


def server_address(server: asyncio.AbstractServer) -> tuple[str, int]:
    """The bound ``(host, port)`` of a running server."""
    host, port = server.sockets[0].getsockname()[:2]
    return host, port


def run_server(app: App, host: str = "127.0.0.1", port: int = 8321) -> None:
    """Blocking entry point used by ``repro serve``.

    Ctrl-C stops immediately; SIGTERM drains gracefully — the listener
    closes (no new connections), in-flight requests finish, and the
    flight recorder's event log is flushed before the process exits.
    While it serves, the GIL switch interval is :data:`SWITCH_INTERVAL_S`
    (restored on exit), so hot reads stay prompt beside sweeps.
    """

    async def _serve() -> None:
        server = await create_server(app, host, port)
        bound_host, bound_port = server_address(server)
        print(f"repro serve: listening on http://{bound_host}:{bound_port} "
              f"(workers={app.workers}, queue_limit={app.queue_limit}, "
              f"hot_cache={app.hot.capacity_bytes // (1024 * 1024)}MB)")
        print("endpoints: /healthz /readyz /stats /metrics /points "
              "/profile/<point> /perfetto/<point> POST /grid "
              "/debug/requests /debug/trace/<trace_id>")
        if app.flight.event_log_path is not None:
            print(f"event log: {app.flight.event_log_path} "
                  "(inspect with `repro flight`)")

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loops: Ctrl-C remains the only stop
        async with server:
            serve_task = asyncio.ensure_future(server.serve_forever())
            stop_task = asyncio.ensure_future(stop.wait())
            try:
                await asyncio.wait({serve_task, stop_task},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                serve_task.cancel()
                stop_task.cancel()
            if stop.is_set():
                print("repro serve: SIGTERM, draining")
                server.close()
                drained = await app.drain()
                print("repro serve: drained" if drained
                      else "repro serve: drain timed out")

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: stopped")
    finally:
        sys.setswitchinterval(previous_interval)
        app.close()
