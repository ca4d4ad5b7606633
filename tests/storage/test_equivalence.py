"""Bit-identity between the disk plane and the in-memory plane.

The storage subsystem's contract is that it changes *where* rows live,
never *what* the detector computes: columnar snapshots, per-host
features, sharded extraction and the full pipeline funnel must all be
exactly equal to their in-memory counterparts — the pipeline's
percentile thresholds amplify any drift into different suspect sets.
"""

import random
import traceback
import zlib

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.flows import FlowRecord, FlowState, FlowStore, Protocol
from repro.flows.metrics import extract_all_features, extract_features_sharded
from repro.storage import (
    SegmentStore,
    StorageBudgetError,
    StoreChain,
    StoreView,
    spool_flow_store,
)


def flow(src, dst="d", start=0.0, src_bytes=100, failed=False):
    return FlowRecord(
        src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
        start=start, end=start + 1.0, src_bytes=src_bytes,
        state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
    )


def random_store(n_hosts=20, max_flows=25, seed=0):
    rng = random.Random(seed)
    flows = []
    for h in range(n_hosts):
        src = f"10.0.0.{h}"
        t = rng.random() * 100
        for _ in range(rng.randint(1, max_flows)):
            t += rng.expovariate(1 / 40.0)
            flows.append(
                flow(
                    src=src,
                    dst=f"d{rng.randrange(12)}",
                    start=t,
                    src_bytes=rng.randrange(0, 5000),
                    failed=rng.random() < 0.3,
                )
            )
    rng.shuffle(flows)
    store = FlowStore()
    store.extend(flows)
    return store


def assert_columnar_equal(a, b):
    assert a.hosts == b.hosts
    np.testing.assert_array_equal(a.host_offsets, b.host_offsets)
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.src_bytes, b.src_bytes)
    np.testing.assert_array_equal(a.success, b.success)
    np.testing.assert_array_equal(a.dst_codes, b.dst_codes)
    assert a.n_destinations == b.n_destinations
    assert a.starts.dtype == b.starts.dtype
    assert a.success.dtype == b.success.dtype


# A flow row the storage plane must carry losslessly: host, dst, start,
# bytes, success.  Times include duplicates (via rounding) to exercise
# the stable-sort tiebreak contract.
flow_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),   # src host id
        st.integers(min_value=0, max_value=4),   # dst id
        st.floats(
            min_value=0.0, max_value=1000.0,
            allow_nan=False, allow_infinity=False,
        ).map(lambda x: round(x, 1)),
        st.integers(min_value=0, max_value=10_000),  # src_bytes
        st.booleans(),                            # failed
    ),
    min_size=1,
    max_size=120,
)


class TestHypothesisRoundTrip:
    @given(rows=flow_rows, segment_rows=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_spool_mmap_read_features_bit_identical(
        self, rows, segment_rows, tmp_path_factory
    ):
        """write -> mmap read -> features equals the in-memory plane,
        for arbitrary row sets and arbitrary segment cut points."""
        store = FlowStore()
        store.extend(
            flow(
                src=f"h{s}", dst=f"d{d}", start=t, src_bytes=b, failed=failed
            )
            for s, d, t, b, failed in rows
        )
        tmp = tmp_path_factory.mktemp("seg")
        view = spool_flow_store(store, tmp, segment_rows=segment_rows)

        assert len(view) == len(store)
        assert view.initiators == store.initiators
        assert_columnar_equal(view.columnar(), store.columnar())
        assert extract_all_features(view) == extract_all_features(store)


# Flow rows on a coarse clock: most starts tie with another row's, so
# the order a multi-store gather breaks ties in shows in the features.
tied_flow_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=30).map(float),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    min_size=8,
    max_size=120,
)


class TestMultiStoreView:
    """One view over several stores ≡ one in-memory store of their rows.

    The rows are split the way the serve plane spools them: cut into
    consecutive runs (epochs), each run split by host hash (shards),
    and the stores chained epoch by epoch, shard by shard.  A host may
    therefore sit in several stores; equal start times must still tie
    in arrival order, as in a :class:`FlowStore` of the rows in order.
    """

    CONFIG = PipelineConfig(reduction_percentile=10.0, vol_percentile=90.0)

    @given(
        rows=st.one_of(flow_rows, tied_flow_rows),
        cuts=st.lists(st.integers(min_value=0, max_value=100), max_size=3),
        n_shards=st.integers(min_value=1, max_value=3),
        segment_rows=st.integers(min_value=1, max_value=32),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),
            st.floats(min_value=0.0, max_value=1000.0),
        )
        | st.tuples(
            st.integers(min_value=0, max_value=31).map(float),
            st.integers(min_value=0, max_value=31).map(float),
        ),
    )
    # No explain phase: after a first failure it line-traces every
    # later example (sys.settrace before Python 3.12) and keeps each
    # example's branch set, which for an example that runs
    # find_plotters twice made shrinking take minutes and gigabytes.
    @settings(
        max_examples=60,
        deadline=None,
        phases=[p for p in Phase if p is not Phase.explain],
    )
    def test_chained_stores_match_one_flow_store(
        self, rows, cuts, n_shards, segment_rows, window, tmp_path_factory
    ):
        # Hypothesis keeps each failing example's exception in its
        # example cache while it shrinks, and with it the frames of its
        # traceback: an assertion raised in the frame that holds the
        # example's memory-mapped stores (one open file each), views
        # and results would keep every one of them alive until the run
        # ends.  The checks run in a helper whose frame is gone before
        # this test fails.
        try:
            self.check_chain(
                rows, cuts, n_shards, segment_rows, window,
                tmp_path_factory.mktemp("chain"),
            )
        except AssertionError:
            failure = traceback.format_exc()
        else:
            return
        raise AssertionError(failure)

    def check_chain(self, rows, cuts, n_shards, segment_rows, window, tmp):
        flows = [
            flow(src=f"h{s}", dst=f"d{d}", start=t, src_bytes=b, failed=bad)
            for s, d, t, b, bad in rows
        ]
        # Epoch boundaries at percentages of the row list.
        bounds = [0, *sorted(len(flows) * c // 100 for c in cuts), len(flows)]
        stores = []
        for epoch, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            for shard in range(n_shards):
                part = [
                    f for f in flows[lo:hi]
                    if zlib.crc32(f.src.encode()) % n_shards == shard
                ]
                store = SegmentStore.create(tmp / f"e{epoch}-s{shard}")
                writer = store.writer(segment_rows=segment_rows)
                for f in part:
                    writer.add(f)
                writer.cut()
                stores.append(store)
        mem = FlowStore(flows)
        view = StoreView(StoreChain(stores))

        assert len(view) == len(mem)
        assert view.flow_counts() == mem.flow_counts()
        assert_columnar_equal(view.columnar(), mem.columnar())
        assert extract_features_sharded(view) == extract_features_sharded(mem)
        assert extract_features_sharded(view) == extract_all_features(mem)
        disk = find_plotters(view, mem.initiators, self.CONFIG)
        ref = find_plotters(mem, mem.initiators, self.CONFIG)
        assert disk.suspects == ref.suspects
        assert disk.funnel() == ref.funnel()

        t0, t1 = sorted(window)
        mem_win, view_win = mem.between(t0, t1), view.between(t0, t1)
        assert view_win.flow_counts() == mem_win.flow_counts()
        assert extract_features_sharded(view_win) == extract_features_sharded(
            mem_win
        )
        if mem_win:
            disk = find_plotters(view_win, mem_win.initiators, self.CONFIG)
            ref = find_plotters(mem_win, mem_win.initiators, self.CONFIG)
            assert disk.suspects == ref.suspects
            assert disk.funnel() == ref.funnel()


class TestViewEquivalence:
    def test_columnar_snapshot_identical(self, tmp_path):
        store = random_store(seed=1)
        view = spool_flow_store(store, tmp_path / "s", segment_rows=37)
        assert_columnar_equal(view.columnar(), store.columnar())

    def test_flow_counts_and_len(self, tmp_path):
        store = random_store(seed=2)
        view = spool_flow_store(store, tmp_path / "s", segment_rows=37)
        assert view.flow_counts() == store.flow_counts()
        assert len(view) == len(store)
        assert bool(view) is True

    def test_time_windows_identical(self, tmp_path):
        store = random_store(seed=3)
        view = spool_flow_store(store, tmp_path / "s", segment_rows=37)
        lo = min(f.start for f in store)
        hi = max(f.start for f in store)
        mid = (lo + hi) / 2
        mem_win = store.between(lo, mid)
        view_win = view.between(lo, mid)
        assert len(view_win) == len(mem_win)
        assert view_win.initiators == mem_win.initiators
        assert extract_all_features(view_win) == extract_all_features(mem_win)

    def test_parallel_extraction_identical(self, tmp_path):
        store = random_store(seed=4)
        view = spool_flow_store(store, tmp_path / "s", segment_rows=53)
        expected = extract_all_features(store)
        assert extract_features_sharded(view) == expected
        assert extract_all_features(view) == expected


SCALES = [(12, 10, 11), (40, 30, 17)]


class TestPipelineEquivalence:
    @pytest.mark.parametrize("n_hosts,max_flows,seed", SCALES)
    def test_find_plotters_from_view_bit_identical(
        self, tmp_path, n_hosts, max_flows, seed
    ):
        store = random_store(n_hosts=n_hosts, max_flows=max_flows, seed=seed)
        view = spool_flow_store(store, tmp_path / "s", segment_rows=41)
        config = PipelineConfig(
            reduction_percentile=10.0, vol_percentile=90.0
        )
        mem = find_plotters(store, store.initiators, config)
        disk = find_plotters(view, store.initiators, config)
        assert disk.suspects == mem.suspects
        assert disk.reduction == mem.reduction
        assert disk.volume == mem.volume
        assert disk.churn == mem.churn
        assert disk.hm == mem.hm
        assert disk.degradations == mem.degradations == ()

    @pytest.mark.parametrize("n_hosts,max_flows,seed", SCALES)
    def test_store_dir_config_bit_identical(
        self, tmp_path, n_hosts, max_flows, seed
    ):
        """The pipeline's own spool path (PipelineConfig.store_dir)."""
        store = random_store(n_hosts=n_hosts, max_flows=max_flows, seed=seed)
        base = PipelineConfig(reduction_percentile=10.0, vol_percentile=90.0)
        spooled = PipelineConfig(
            reduction_percentile=10.0,
            vol_percentile=90.0,
            store_dir=str(tmp_path / "spool"),
            segment_rows=29,
        )
        mem = find_plotters(store, store.initiators, base)
        disk = find_plotters(store, store.initiators, spooled)
        assert disk.suspects == mem.suspects
        assert disk.reduction == mem.reduction
        assert disk.hm == mem.hm
        assert disk.degradations == ()

    def test_budget_is_per_shard_gather(self, tmp_path):
        """The gather budget bounds one shard's materialisation, not the
        trace: a budget a quarter of the total row count still extracts
        exactly, because the extractor sizes its shard count from it."""
        store = random_store(seed=5)
        total = len(store)
        view = spool_flow_store(
            store,
            tmp_path / "s",
            segment_rows=31,
            max_gather_rows=total // 4,
        )
        assert extract_features_sharded(view) == extract_all_features(store)

    def test_hopeless_budget_fails_loudly(self, tmp_path, monkeypatch):
        """A budget below the largest host's rows raises out of the
        pipeline on the first gather: no retries, no fallback rungs
        (there is no in-memory rung for a view — the trace may not fit),
        never a partial result."""
        from repro.storage import SegmentStore

        store = random_store(seed=5)
        largest = max(store.flow_counts().values())
        view = spool_flow_store(
            store, tmp_path / "s", segment_rows=31, max_gather_rows=largest - 1
        )
        gathers = []
        real_gather = SegmentStore.gather

        def counting_gather(self, *args, **kwargs):
            gathers.append(args)
            return real_gather(self, *args, **kwargs)

        monkeypatch.setattr(SegmentStore, "gather", counting_gather)
        config = PipelineConfig(
            reduction_percentile=10.0, vol_percentile=90.0
        )
        with pytest.raises(StorageBudgetError):
            find_plotters(view, store.initiators, config)
        assert len(gathers) == 1

    def test_storage_read_fault_degrades_identically(self, tmp_path):
        from repro.resilience import faults

        store = random_store(seed=6)
        config = PipelineConfig(
            reduction_percentile=10.0,
            vol_percentile=90.0,
            store_dir=str(tmp_path / "spool"),
        )
        mem = find_plotters(
            store,
            store.initiators,
            PipelineConfig(reduction_percentile=10.0, vol_percentile=90.0),
        )
        with faults.injected(io_errors=["store-read"]):
            disk = find_plotters(store, store.initiators, config)
        assert disk.suspects == mem.suspects
        assert disk.reduction == mem.reduction
        (event,) = disk.degradations
        assert (event.stage, event.from_mode, event.to_mode) == (
            "extract_features",
            "store",
            "in-memory",
        )


class TestIngestSpill:
    def test_read_flows_to_store_matches_in_memory(self, tmp_path):
        from repro.flows.argus import read_flows, write_flows

        store = random_store(seed=7)
        trace = tmp_path / "trace.csv"
        write_flows(trace, list(store))

        mem = read_flows(trace)
        view = read_flows(trace, to_store=tmp_path / "spill", segment_rows=43)
        assert isinstance(view, StoreView)
        assert len(view) == len(mem)
        assert view.initiators == mem.initiators
        assert extract_all_features(view) == extract_all_features(mem)
