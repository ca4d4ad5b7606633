"""Acceptance: scrape /metrics live while an OnlineDetector tumbles.

The detector is the long-running deployment shape — eight days of
windows — so its telemetry must be scrapeable *mid-run*, not just
exportable at exit: an ``ObsSession(prom_port=...)`` around the
detector serves the registry over HTTP, and every window evaluation
refreshes the ``repro_stage_*`` funnel gauges the scrape reports.
"""

import json
import urllib.request

from repro.detection.incremental import OnlineDetector
from repro.flows import FlowRecord, FlowState, Protocol
from repro.obs import ObsSession, parse_prom
from repro.obs.export import FUNNEL_STAGES
from repro.obs.http import PROM_CONTENT_TYPE


def flow(src, dst="d", start=0.0, src_bytes=100, failed=False):
    return FlowRecord(
        src=src, sport=1, dport=2, proto=Protocol.TCP, dst=dst,
        start=start, end=start + 1, src_bytes=src_bytes,
        state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
    )


def scrape(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


class TestLiveScrapeDuringTumble:
    def test_metrics_endpoint_serves_funnel_series_mid_run(self, clean_obs):
        hosts = {f"h{i}" for i in range(6)}
        detector = OnlineDetector(hosts, window=100.0)
        with ObsSession(prom_port=0) as session:
            url = session.server.url
            # Hosts with distinct failure rates (host i fails i of 6
            # connections) so the percentile reduction keeps a strict
            # subset and every downstream stage runs.
            for i in range(6):
                for k in range(6):
                    detector.ingest(
                        flow(f"h{i}", start=10.0 * k, src_bytes=200 * (i + 1),
                             failed=(k < i))
                    )
            # Crossing the boundary tumbles window 0 and evaluates it.
            detector.ingest(flow("h0", start=150.0))
            status, ctype, body = scrape(url + "/metrics")
            assert status == 200
            assert ctype == PROM_CONTENT_TYPE
            parsed = parse_prom(body.decode("utf-8"))
            # The stage funnel is live: every pipeline stage reported
            # its input population for the tumbled window.
            inputs = parsed["repro_stage_input_hosts"]
            surviving = parsed["repro_stage_surviving_hosts"]
            for stage in FUNNEL_STAGES:
                key = (("stage", stage),)
                assert key in inputs, f"missing funnel series for {stage}"
                assert key in surviving
            assert inputs[(("stage", "reduction"),)] == 6.0
            # /summary carries the same funnel.
            _, _, body = scrape(url + "/summary")
            doc = json.loads(body)
            assert {s["stage"] for s in doc["funnel"]} == set(FUNNEL_STAGES)
        assert len(detector.history) == 1

    def test_funnel_gauges_refresh_on_each_evaluation(self, clean_obs):
        detector = OnlineDetector({"a", "b"}, window=50.0)
        with ObsSession(prom_port=0) as session:
            url = session.server.url
            detector.ingest(flow("a", start=0.0))
            detector.evaluate()
            first = parse_prom(scrape(url + "/metrics")[2].decode())
            detector.ingest(flow("b", start=10.0))
            detector.evaluate()
            second = parse_prom(scrape(url + "/metrics")[2].decode())
        key = (("stage", "reduction"),)
        assert first["repro_stage_input_hosts"][key] == 1.0
        assert second["repro_stage_input_hosts"][key] == 2.0
