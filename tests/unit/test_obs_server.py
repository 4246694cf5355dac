"""The telemetry HTTP server, in isolation.

Every test binds port 0 (kernel-assigned) so the suite is parallel-safe,
and every server is closed before assertions about thread hygiene.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.server import SERVER_THREAD_NAME, TelemetryServer, parse_hostport


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


# -- parse_hostport ------------------------------------------------------


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:9100") == ("127.0.0.1", 9100)
    assert parse_hostport(":0") == ("127.0.0.1", 0)
    assert parse_hostport("0.0.0.0:80") == ("0.0.0.0", 80)


@pytest.mark.parametrize("bad", ["9100", "host:", "host:port", "host:-1", "h:70000"])
def test_parse_hostport_rejects(bad):
    with pytest.raises(ValueError):
        parse_hostport(bad)


# -- TelemetryServer -----------------------------------------------------


def test_serves_providers_with_content_types():
    server = TelemetryServer(
        "127.0.0.1",
        0,
        metrics=lambda: "m_total 1\n",
        campaign=lambda: {"batches": 3},
    )
    with server:
        status, ctype, body = _get(server.url + "/healthz")
        assert (status, body) == (200, b"ok\n")
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body == b"m_total 1\n"
        status, ctype, body = _get(server.url + "/campaign")
        assert ctype == "application/json"
        assert json.loads(body) == {"batches": 3}
    assert not server.running


def test_missing_provider_404s():
    with TelemetryServer("127.0.0.1", 0, metrics=lambda: "x 1\n") as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/profile")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404


def test_provider_exception_maps_to_500():
    def boom():
        raise RuntimeError("provider died")

    with TelemetryServer("127.0.0.1", 0, metrics=boom) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/metrics")
        assert err.value.code == 500
        assert b"provider died" in err.value.read()


def test_close_joins_thread_and_is_idempotent():
    server = TelemetryServer("127.0.0.1", 0, metrics=lambda: "")
    server.start()
    assert any(
        t.name == SERVER_THREAD_NAME for t in threading.enumerate()
    )
    server.close()
    server.close()
    assert not any(
        t.name == SERVER_THREAD_NAME for t in threading.enumerate()
    )


def test_start_twice_raises():
    server = TelemetryServer("127.0.0.1", 0)
    server.start()
    try:
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.close()
