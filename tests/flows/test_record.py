"""Unit and property tests for the flow-record model."""

import pytest
from hypothesis import given, strategies as st

from repro.flows import PAYLOAD_SNIPPET_LEN, FlowRecord, FlowState, Protocol


def make_flow(**overrides):
    base = dict(
        src="10.1.0.1",
        dst="8.8.8.8",
        sport=1234,
        dport=80,
        proto=Protocol.TCP,
        start=10.0,
        end=12.0,
        src_bytes=100,
        dst_bytes=500,
        src_pkts=2,
        dst_pkts=3,
        state=FlowState.ESTABLISHED,
        payload=b"GET /",
    )
    base.update(overrides)
    return FlowRecord(**base)


class TestConstruction:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_flow(start=10.0, end=9.0)

    @pytest.mark.parametrize("field", ["start", "end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, field, value):
        # ``end < start`` is false for NaN, so this needs its own check.
        with pytest.raises(ValueError, match="finite"):
            make_flow(**{field: value})

    def test_zero_duration_allowed(self):
        assert make_flow(start=5.0, end=5.0).duration == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            make_flow(src_bytes=-1)

    def test_negative_pkts_rejected(self):
        with pytest.raises(ValueError):
            make_flow(dst_pkts=-3)

    def test_port_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_flow(sport=70000)
        with pytest.raises(ValueError):
            make_flow(dport=-1)

    def test_payload_truncated_to_snippet_length(self):
        flow = make_flow(payload=b"x" * 200)
        assert len(flow.payload) == PAYLOAD_SNIPPET_LEN


class TestDerivedViews:
    def test_duration(self):
        assert make_flow(start=1.0, end=4.5).duration == 3.5

    def test_total_bytes_and_pkts(self):
        flow = make_flow(src_bytes=10, dst_bytes=20, src_pkts=1, dst_pkts=2)
        assert flow.total_bytes == 30
        assert flow.total_pkts == 3

    def test_failed_states(self):
        assert not make_flow(state=FlowState.ESTABLISHED).failed
        assert make_flow(state=FlowState.REJECTED).failed
        assert make_flow(state=FlowState.TIMEOUT).failed

    def test_five_tuple(self):
        flow = make_flow()
        assert flow.five_tuple == (
            "10.1.0.1",
            "8.8.8.8",
            1234,
            80,
            Protocol.TCP,
        )

    def test_involves_and_peer_of(self):
        flow = make_flow()
        assert flow.involves("10.1.0.1")
        assert flow.involves("8.8.8.8")
        assert not flow.involves("1.2.3.4")
        assert flow.peer_of("10.1.0.1") == "8.8.8.8"
        assert flow.peer_of("8.8.8.8") == "10.1.0.1"
        assert flow.peer_of("1.2.3.4") is None


class TestTransformations:
    def test_shifted_moves_both_ends(self):
        flow = make_flow(start=10.0, end=12.0).shifted(5.0)
        assert flow.start == 15.0
        assert flow.end == 17.0

    def test_shifted_preserves_other_fields(self):
        original = make_flow()
        shifted = original.shifted(1.0)
        assert shifted.src == original.src
        assert shifted.src_bytes == original.src_bytes
        assert shifted.payload == original.payload

    def test_reassigned_changes_only_src(self):
        flow = make_flow().reassigned("10.2.0.9")
        assert flow.src == "10.2.0.9"
        assert flow.dst == "8.8.8.8"

    def test_scaled_volume(self):
        flow = make_flow(src_bytes=100).scaled_volume(2.5)
        assert flow.src_bytes == 250

    def test_scaled_volume_rejects_negative(self):
        with pytest.raises(ValueError):
            make_flow().scaled_volume(-1.0)


@given(
    start=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    duration=st.floats(min_value=0, max_value=1e5, allow_nan=False),
    delta=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
)
def test_shift_preserves_duration(start, duration, delta):
    flow = make_flow(start=start, end=start + duration)
    shifted = flow.shifted(delta)
    assert shifted.duration == pytest.approx(flow.duration, abs=1e-6)


@given(factor=st.floats(min_value=0, max_value=100, allow_nan=False))
def test_volume_scaling_is_proportional(factor):
    flow = make_flow(src_bytes=1000)
    assert flow.scaled_volume(factor).src_bytes == int(round(1000 * factor))
