"""Live telemetry over HTTP: watch a campaign while it runs.

Spans accumulate in memory, metrics are dumped at end-of-run, and
flight rings hit disk only on a violation. This module is the live
half: a stdlib ``ThreadingHTTPServer`` that serves the *current* state
of a campaign (``--serve-telemetry HOST:PORT``), so the fleet is
scrapeable (Prometheus), watchable (Perfetto), and debuggable (flight
dumps) without waiting for the checkpoint.

Endpoints (all GET):

- ``/healthz``       — liveness probe, ``200 ok``.
- ``/metrics``       — the metrics registry, Prometheus text exposition.
- ``/spans``         — current spans as Chrome ``trace_event`` JSON
  (load the response straight into ui.perfetto.dev).
- ``/flight``        — the current flight-recorder ring as JSON.
- ``/profile``       — collapsed-stack flamegraph text from the
  sampling profiler.
- ``/campaign``      — JSON heartbeat: hypercalls/hour, coverage,
  cache hit-rate, findings, per-worker liveness, and the most recent
  samples of the engine's heartbeat ring (a bounded
  :class:`~repro.obs.flight.FlightRecorder`).

The server is wired by *callables*, not objects: the campaign engine
(``CampaignEngine._start_telemetry``) passes one provider per endpoint,
each computing its body from the engine's merged state when a request
asks for it, and absent providers 404.

Everything runs on daemon threads and ``close()`` is synchronous — the
telemetry-smoke CI job fails if a server thread survives engine
shutdown. The module is imported only by a served campaign, so an
unserved run never loads ``http.server``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["TelemetryServer", "parse_hostport"]

#: Thread name for the accept loop; tests and the CI smoke job assert
#: no thread with this name outlives ``close()``.
SERVER_THREAD_NAME = "obs-telemetry"


def parse_hostport(spec: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; port 0 = kernel-assigned."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.lstrip("-").isdigit():
        raise ValueError(
            f"--serve-telemetry wants HOST:PORT, got {spec!r}"
        )
    value = int(port)
    if value < 0 or value > 65535:
        raise ValueError(f"port {value} outside 0..65535")
    return host or "127.0.0.1", value


class TelemetryServer:
    """Serve live observability state over HTTP until ``close()``.

    Providers return the *body* for their endpoint; the server handles
    framing, content types, and error mapping (a provider raising maps
    to 500 with the exception text, a missing provider to 404).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: Callable[[], str] | None = None,
        spans: Callable[[], dict] | None = None,
        flight: Callable[[], dict] | None = None,
        profile: Callable[[], str] | None = None,
        campaign: Callable[[], dict] | None = None,
    ):
        self._providers = {
            "/metrics": (metrics, "text/plain; version=0.0.4"),
            "/spans": (spans, "application/json"),
            "/flight": (flight, "application/json"),
            "/profile": (profile, "text/plain"),
            "/campaign": (campaign, "application/json"),
        }
        self._httpd = ThreadingHTTPServer(
            (host, port), self._handler_class()
        )
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetryServer":
        if self._thread is not None:
            raise RuntimeError("telemetry server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=SERVER_THREAD_NAME,
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, join the accept loop, release the socket.

        Idempotent; after this returns no server thread is alive — the
        engine calls it in a ``finally`` so a crashing campaign cannot
        leak the port or the thread.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- request handling --------------------------------------------------

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0].rstrip("/") or "/healthz"
                if path == "/healthz":
                    self._send(200, "text/plain", "ok\n")
                    return
                provider, content_type = server._providers.get(
                    path, (None, None)
                )
                if provider is None:
                    self._send(
                        404, "text/plain", f"no such endpoint: {path}\n"
                    )
                    return
                try:
                    body = provider()
                except Exception as exc:  # noqa: BLE001 - mapped to 500
                    self._send(
                        500, "text/plain", f"{type(exc).__name__}: {exc}\n"
                    )
                    return
                if not isinstance(body, (str, bytes)):
                    body = json.dumps(body)
                self._send(200, content_type, body)

            def _send(self, status, content_type, body):
                data = body.encode() if isinstance(body, str) else body
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):  # quiet: stderr is the CLI's
                pass

        return Handler
