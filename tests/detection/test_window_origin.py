"""Window-grid alignment and early finalisation (the serve substrate)."""

from __future__ import annotations

from repro.detection.incremental import OnlineDetector
from repro.flows.record import FlowRecord, FlowState, Protocol

HOSTS = {f"10.0.0.{i}" for i in range(8)}


def _flow(src: str, start: float, *, success: bool = True) -> FlowRecord:
    return FlowRecord(
        src=src,
        dst="192.168.0.1",
        sport=1024,
        dport=80,
        proto=Protocol.TCP,
        start=start,
        end=start,
        src_bytes=100,
        state=FlowState.ESTABLISHED if success else FlowState.TIMEOUT,
    )


class TestAlignedStart:
    def test_first_window_snaps_to_grid(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        detector.ingest(_flow("10.0.0.1", 25.0))
        assert detector._window_start == 20.0

    def test_nonzero_origin(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=3.0)
        detector.ingest(_flow("10.0.0.1", 25.0))
        assert detector._window_start == 23.0

    def test_negative_offset_from_origin(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=100.0)
        detector.ingest(_flow("10.0.0.1", 84.0))
        assert detector._window_start == 80.0

    def test_no_origin_keeps_first_flow_behaviour(self):
        detector = OnlineDetector(HOSTS, window=10.0)
        detector.ingest(_flow("10.0.0.1", 25.0))
        assert detector._window_start == 25.0

    def test_tumbles_land_on_grid_instants(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        for t in (25.0, 31.0, 47.0, 52.0):
            detector.ingest(_flow("10.0.0.1", t))
        ends = [verdict.evaluated_at for verdict in detector.history]
        assert ends == [30.0, 40.0, 50.0]

    def test_staggered_starts_share_the_grid(self):
        """Detectors started at different stream offsets tumble alike —
        the property worker restart/replay relies on."""
        flows = [_flow("10.0.0.1", float(t)) for t in range(5, 95, 3)]
        full = OnlineDetector(HOSTS, window=20.0, window_origin=0.0)
        late = OnlineDetector(HOSTS, window=20.0, window_origin=0.0)
        for flow in flows:
            full.ingest(flow)
        for flow in flows:
            if flow.start >= 40.0:  # a replacement replaying from t0=40
                late.ingest(flow)
        full_ends = [v.evaluated_at for v in full.history]
        late_ends = [v.evaluated_at for v in late.history]
        assert late_ends == [end for end in full_ends if end > 40.0]


class TestFinalizeWindow:
    def test_returns_verdict_and_resets(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        detector.ingest(_flow("10.0.0.1", 21.0))
        verdict = detector.finalize_window()
        assert verdict is not None
        assert verdict.evaluated_at == 30.0
        assert detector.history[-1] is verdict
        assert detector._window_start is None

    def test_nothing_to_finalize_returns_none(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        assert detector.finalize_window() is None
        detector.ingest(_flow("10.0.0.1", 5.0))
        assert detector.finalize_window() is not None
        assert detector.finalize_window() is None  # already tumbled

    def test_explicit_at_overrides_grid_end(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        detector.ingest(_flow("10.0.0.1", 21.0))
        verdict = detector.finalize_window(at=27.5)
        assert verdict.evaluated_at == 27.5

    def test_next_flow_opens_fresh_grid_window(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        detector.ingest(_flow("10.0.0.1", 21.0))
        detector.finalize_window()
        detector.ingest(_flow("10.0.0.1", 44.0))
        assert detector._window_start == 40.0

    def test_window_index_advances(self):
        detector = OnlineDetector(HOSTS, window=10.0, window_origin=0.0)
        detector.ingest(_flow("10.0.0.1", 1.0))
        first = detector.finalize_window()
        detector.ingest(_flow("10.0.0.1", 11.0))
        second = detector.finalize_window()
        assert (first.window_index, second.window_index) == (0, 1)
