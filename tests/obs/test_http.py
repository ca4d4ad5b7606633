"""The live telemetry endpoint: /metrics, /healthz, /summary."""

import http.client
import json
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.http import PROM_CONTENT_TYPE, MetricsServer


def get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


class TestEndpoints:
    def test_metrics_is_valid_prometheus_text(self, enabled_obs):
        obs.counter("http_test_total", "help text").inc(4)
        with MetricsServer(port=0) as server:
            status, ctype, body = get(server.url + "/metrics")
        assert status == 200
        assert ctype == PROM_CONTENT_TYPE
        parsed = obs.parse_prom(body.decode("utf-8"))
        assert parsed["http_test_total"][()] == 4.0

    def test_healthz(self, enabled_obs):
        with MetricsServer(port=0) as server:
            status, _, body = get(server.url + "/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["recording"] is True
        assert doc["uptime_seconds"] >= 0

    def test_summary_includes_funnel_and_extra_state(self, enabled_obs):
        obs.gauge(
            "repro_stage_input_hosts", "", labels=("stage",)
        ).set(10, stage="theta_vol")
        obs.gauge(
            "repro_stage_surviving_hosts", "", labels=("stage",)
        ).set(4, stage="theta_vol")
        with MetricsServer(
            port=0, extra_summary=lambda: {"window_index": 3}
        ) as server:
            _, _, body = get(server.url + "/summary")
        doc = json.loads(body)
        assert doc["funnel"] == [
            {"stage": "theta_vol", "input_hosts": 10.0, "surviving_hosts": 4.0}
        ]
        assert doc["state"] == {"window_index": 3}
        assert "metrics" in doc

    def test_root_serves_summary(self, enabled_obs):
        with MetricsServer(port=0) as server:
            _, _, body = get(server.url + "/")
        assert "metrics" in json.loads(body)

    def test_unknown_path_is_404(self, enabled_obs):
        with MetricsServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url + "/nope")
            assert err.value.code == 404

    def test_broken_extra_summary_does_not_fail_scrape(self, enabled_obs):
        def boom():
            raise RuntimeError("detector gone")

        with MetricsServer(port=0, extra_summary=boom) as server:
            status, _, body = get(server.url + "/summary")
        assert status == 200
        assert json.loads(body)["state"] == {"error": "detector gone"}


class TestLifecycle:
    def test_ephemeral_port_and_url(self, clean_obs):
        server = MetricsServer(port=0)
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.close()

    def test_close_is_idempotent_and_releases_port(self, clean_obs):
        server = MetricsServer(port=0)
        url = server.url
        server.close()
        server.close()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            get(url + "/healthz")

    def test_scrape_reflects_live_updates(self, enabled_obs):
        c = obs.counter("live_updates_total", "")
        with MetricsServer(port=0) as server:
            c.inc()
            first = obs.parse_prom(get(server.url + "/metrics")[2].decode())
            c.inc(2)
            second = obs.parse_prom(get(server.url + "/metrics")[2].decode())
        assert first["live_updates_total"][()] == 1.0
        assert second["live_updates_total"][()] == 3.0


class TestKeepAlive:
    """Replies on a reused connection do not wait on a delayed ACK.

    A response is written as headers then body; with Nagle on, the
    body waits for the client to ACK the headers, which a keep-alive
    client delays by ~40 ms.  A fresh connection per request hides
    this (the kernel ACKs a new connection's first segments at once),
    so the round trips here share one ``HTTPConnection``.
    """

    BODY = b"x" * 300_000

    @staticmethod
    def round_trips(server, method, path, body, n=20):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                payload = resp.read()
                times.append(time.perf_counter() - t0)
                assert resp.status == 200
            return times, payload
        finally:
            conn.close()

    def test_get_median_round_trip_under_20ms(self, clean_obs):
        with MetricsServer(port=0) as server:
            times, payload = self.round_trips(server, "GET", "/healthz", None)
        assert json.loads(payload)["status"] == "ok"
        assert statistics.median(times) < 0.020

    def test_post_300kb_median_round_trip_under_20ms(self, clean_obs):
        def echo_length(body, query):
            return 200, {"bytes": len(body)}

        with MetricsServer(
            port=0, routes={("POST", "/ingest"): echo_length}
        ) as server:
            times, payload = self.round_trips(
                server, "POST", "/ingest", self.BODY
            )
        assert json.loads(payload) == {"bytes": len(self.BODY)}
        assert statistics.median(times) < 0.020
