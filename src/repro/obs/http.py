"""Live telemetry endpoint: a background-thread HTTP metrics server.

One :class:`MetricsServer` exposes the process's observability state
over three read-only endpoints while a run is in flight:

* ``GET /metrics`` — the registry in Prometheus text exposition format
  (version 0.0.4, via :func:`repro.obs.export.render_prom`), ready for
  a Prometheus scrape job;
* ``GET /healthz`` — a small JSON liveness document (status, uptime,
  whether recording is enabled);
* ``GET /summary`` — the flattened registry
  (:func:`repro.obs.export.summary`) plus the current stage-funnel
  snapshot (:func:`repro.obs.export.funnel_snapshot`) and any extra
  state the embedding component contributes — the JSON face of the
  same telemetry, for dashboards and scripts.

The server runs on a daemon thread (one per instance) and binds
``127.0.0.1`` by default — it is an introspection port, not a public
API.  ``port=0`` asks the OS for an ephemeral port; the bound port is
readable from :attr:`MetricsServer.port` and the full base URL from
:attr:`MetricsServer.url`.  Handlers only *read* registry snapshots,
so scraping mid-run never blocks or perturbs detection beyond the
instruments' own per-series locks.

Embedding components can mount additional endpoints next to the three
built-ins with :meth:`MetricsServer.add_route` (or the ``routes=``
constructor argument): a route maps ``(method, path)`` to a callable
``handler(body, query) -> (status, payload)`` where ``payload`` is a
dict (rendered as JSON), ``str`` (text/plain) or ready
``(content_type, bytes)``.  A handler may instead return a three-tuple
``(status, payload, headers)`` to attach extra response headers (the
serve plane's ``Retry-After`` on 429).  ``POST`` routes receive the
request body; this is how :mod:`repro.serve` turns the metrics server
into the service control plane (``/ingest``, ``/verdicts``,
``/shards``, …) without a second HTTP stack.

Clients that hang up mid-response (a curl ^C, a drained soak harness)
raise ``BrokenPipeError``/``ConnectionResetError`` inside the handler
thread; those are a fact of network life, not a server fault, so they
are logged at DEBUG and never as a traceback.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set, so a
client that reuses one connection (a collector posting chunks, a
poller) gets each reply without waiting on its own delayed ACK.

Both CLIs expose this as ``--prom-port`` (through
:class:`~repro.obs.session.ObsSession`), so a long run can be scraped
while it is in flight.  Use as a context manager or call
:meth:`close`::

    with MetricsServer(port=0) as server:
        print(server.url)          # http://127.0.0.1:49512
        run_long_pipeline()        # scrape /metrics at any moment
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from . import metrics as _metrics
from .export import funnel_snapshot, render_prom, summary
from .logconf import get_logger

__all__ = ["MetricsServer", "PROM_CONTENT_TYPE", "RouteHandler"]

#: Signature of a mounted route: ``handler(body, query)`` returning
#: ``(status, payload)`` — ``payload`` a dict (JSON), ``str``
#: (text/plain) or a ``(content_type, bytes)`` pair — or
#: ``(status, payload, headers)`` with a ``{name: value}`` dict of
#: extra response headers.
RouteHandler = Callable[[Optional[bytes], str], Tuple[int, object]]

#: Content type of the text exposition format, version 0.0.4.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

logger = get_logger("obs.http")


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`MetricsServer` instance."""

    # Set per-server via the type() call in MetricsServer.__init__.
    server_ref: "MetricsServer"

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  A response goes out
    # as two writes (headers, then body); with Nagle on, the body waits
    # for the peer to ACK the headers, and on a keep-alive connection
    # the peer delays that ACK by ~40 ms — a floor under every reply.
    disable_nagle_algorithm = True

    def _send(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        payload: Dict,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        self._send(
            status, "application/json; charset=utf-8", body, headers=headers
        )

    def _send_payload(
        self,
        status: int,
        payload: object,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Render a route handler's payload (dict/str/(ctype, bytes))."""
        if isinstance(payload, dict):
            self._send_json(payload, status=status, headers=headers)
        elif isinstance(payload, str):
            self._send(
                status,
                "text/plain; charset=utf-8",
                payload.encode("utf-8"),
                headers=headers,
            )
        else:
            content_type, body = payload
            self._send(status, content_type, bytes(body), headers=headers)

    def _dispatch(self, method: str, body: Optional[bytes]) -> None:
        server = self.server_ref
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        try:
            route = server.route(method, path)
            if route is not None:
                result = route(body, query)
                if len(result) == 3:
                    status, payload, headers = result
                else:
                    status, payload = result
                    headers = None
                self._send_payload(status, payload, headers=headers)
            elif method == "GET" and path == "/metrics":
                prom = render_prom(server.registry).encode("utf-8")
                self._send(200, PROM_CONTENT_TYPE, prom)
            elif method == "GET" and path == "/healthz":
                self._send_json(server.health())
            elif method == "GET" and path in ("/summary", "/"):
                self._send_json(server.summary())
            else:
                self._send_json({"error": f"unknown path {path}"}, status=404)
        except (BrokenPipeError, ConnectionResetError) as exc:
            # The client hung up; the run is fine.  No traceback, no
            # WARNING — disconnects are routine under chaos soaks.
            logger.debug("client disconnected on %s: %s", path, exc)
            self.close_connection = True  # nothing left to say to them
        except Exception as exc:  # telemetry must never take down a run
            logger.warning("metrics endpoint %s failed: %s", path, exc)
            try:
                self._send_json({"error": str(exc)}, status=500)
            except OSError:
                pass  # client hung up mid-error; nothing left to say

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET", None)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        self._dispatch("POST", body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)


class _QuietServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that does not traceback on disconnects.

    The stock ``handle_error`` prints a full traceback to stderr for
    *any* exception escaping a handler thread — including the
    ``BrokenPipeError`` of a client vanishing between our dispatch
    try/except and the socket teardown.  Keep real faults loud, make
    disconnects a DEBUG line.
    """

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            logger.debug("client %s disconnected: %s", client_address, exc)
            return
        logger.warning(
            "error handling request from %s: %s", client_address, exc
        )


class MetricsServer:
    """Serve ``/metrics``, ``/healthz`` and ``/summary`` from a thread.

    Parameters
    ----------
    port:
        TCP port to bind (``0`` = ephemeral, read :attr:`port` after).
    host:
        Bind address (default loopback).
    registry:
        Metrics registry to expose (default: the process registry).
    extra_summary:
        Optional zero-argument callable whose dict return value is
        merged into the ``/summary`` document under ``"state"`` — how
        the serve coordinator publishes its shard and window state
        without the server knowing its internals.
    routes:
        Optional ``{(method, path): handler}`` map of additional
        endpoints (see :data:`RouteHandler`); routes win over the
        built-in paths and can also be added later with
        :meth:`add_route`.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[_metrics.MetricsRegistry] = None,
        extra_summary: Optional[Callable[[], Dict]] = None,
        routes: Optional[Dict[Tuple[str, str], RouteHandler]] = None,
    ) -> None:
        self.registry = registry or _metrics.get_registry()
        self.extra_summary = extra_summary
        self._routes: Dict[Tuple[str, str], RouteHandler] = dict(routes or {})
        self.started_at = time.time()
        handler = type("_BoundHandler", (_Handler,), {"server_ref": self})
        self._httpd = _QuietServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-metrics-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        logger.info("serving telemetry on %s", self.url)

    # -- routing --------------------------------------------------------
    def add_route(self, method: str, path: str, handler: RouteHandler) -> None:
        """Mount ``handler`` at ``(method, path)`` (e.g. ``POST /ingest``)."""
        self._routes[(method.upper(), path.rstrip("/") or "/")] = handler

    def route(self, method: str, path: str) -> Optional[RouteHandler]:
        """The mounted handler for ``(method, path)``, or ``None``."""
        return self._routes.get((method.upper(), path))

    # -- documents ------------------------------------------------------
    def health(self) -> Dict:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "recording": _metrics.is_enabled(),
        }

    def summary(self) -> Dict:
        doc = {
            "metrics": summary(self.registry),
            "funnel": funnel_snapshot(self.registry),
            "recording": _metrics.is_enabled(),
        }
        if self.extra_summary is not None:
            try:
                doc["state"] = dict(self.extra_summary())
            except Exception as exc:  # never fail the scrape over extras
                doc["state"] = {"error": str(exc)}
        return doc

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the port (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join(timeout=5.0)
            self._httpd = None  # type: ignore[assignment]

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
