"""Tests for sharded feature extraction.

The load-bearing property is *bit-identical equivalence*: the
production extractor (:func:`repro.flows.metrics.extract_features_sharded`)
must reproduce the per-host reference path
(:func:`repro.flows.metrics.extract_all_features`) exactly, over an
in-memory store and a segment-store view alike, for any host subset,
shard plan and gather budget — the pipeline's dynamic thresholds are
percentile cuts over these values and any drift would silently move τ.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows import FlowRecord, FlowState, FlowStore, Protocol
from repro.flows.metrics import (
    NEW_IP_GRACE_PERIOD,
    SHARDS,
    assemble_features,
    extract_all_features,
    extract_features_sharded,
    plan_shards,
    shard_count,
)
from repro.obs import metrics as obs_metrics
from repro.storage import spool_flow_store


def flow(src="h", dst="d", start=0.0, src_bytes=100, failed=False):
    return FlowRecord(
        src=src,
        dst=dst,
        sport=1,
        dport=2,
        proto=Protocol.TCP,
        start=start,
        end=start + 1.0,
        src_bytes=src_bytes,
        dst_bytes=0,
        state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
    )


def random_store(n_hosts=40, max_flows=30, seed=0):
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
    return FlowStore(flows)


class TestPlanShards:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            plan_shards({"a": 1}, 0)

    def test_partition_is_exact(self):
        counts = {f"h{i}": i + 1 for i in range(17)}
        shards = plan_shards(counts, 4)
        merged = sorted(host for shard in shards for host in shard)
        assert merged == sorted(counts)

    def test_deterministic(self):
        counts = {f"h{i}": (i * 7) % 13 + 1 for i in range(30)}
        assert plan_shards(counts, 5) == plan_shards(dict(counts), 5)

    def test_balances_by_flow_count(self):
        # One whale plus many minnows: LPT must isolate the whale, not
        # put it with half the minnows the way a host-count split would.
        counts = {"whale": 1000}
        counts.update({f"m{i}": 10 for i in range(30)})
        shards = plan_shards(counts, 4)
        loads = [sum(counts[h] for h in shard) for shard in shards]
        assert max(loads) == 1000  # the whale rides alone
        light = [x for x in loads if x != 1000]
        assert max(light) - min(light) <= 10

    def test_drops_empty_shards(self):
        assert len(plan_shards({"a": 5, "b": 3}, 10)) == 2


class TestShardCount:
    def test_without_budget(self):
        assert shard_count(10**9, None) == SHARDS

    def test_budget_sizes_shards_to_a_quarter_of_it(self):
        assert shard_count(1000, 250) == 16
        assert shard_count(1000, 333) == 13

    def test_generous_budget_keeps_the_default(self):
        assert shard_count(1000, 10**6) == SHARDS


class TestEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 7, 40, 200])
    def test_any_shard_count(self, n_shards):
        # The shard count is free to vary with the budget only because
        # every plan assembles the same features.
        store = random_store(seed=2)
        features = {}
        for shard in plan_shards(store.flow_counts(), n_shards):
            columns = store.shard_columns(shard, NEW_IP_GRACE_PERIOD)
            features.update(assemble_features(columns))
        assert features == extract_all_features(store)

    def test_host_subset(self):
        store = random_store(seed=3)
        subset = sorted(store.initiators)[:11]
        reference = {
            h: f for h, f in extract_all_features(store).items() if h in subset
        }
        assert extract_features_sharded(store, subset) == reference

    def test_unknown_hosts_ignored(self):
        store = random_store(n_hosts=4, seed=4)
        result = extract_features_sharded(store, list(store.initiators) + ["absent"])
        assert "absent" not in result
        assert result == extract_all_features(store)

    def test_empty_store(self):
        assert extract_features_sharded(FlowStore()) == {}

    def test_engine_reuse_and_store_mutation(self):
        store = random_store(n_hosts=10, seed=5)
        assert extract_features_sharded(store) == extract_all_features(store)
        store.add(flow(src="10.0.0.0", dst="dX", start=9999.0))
        # The cached columnar snapshot must notice the mutation.
        assert extract_features_sharded(store) == extract_all_features(store)


class TestUnsortedInput:
    def test_store_insertion_order_does_not_matter(self):
        # §IV-B and §IV-C are order-sensitive metrics; the store's
        # sort-once invariant must absorb any insertion order.
        records = [
            flow(src="h", dst="a", start=5000.0),
            flow(src="h", dst="b", start=0.0),
            flow(src="h", dst="a", start=1.0),
            flow(src="h", dst="a", start=4000.0),
        ]
        shuffled = FlowStore()
        for record in [records[0], records[3], records[1], records[2]]:
            shuffled.add(record)
        ordered = FlowStore(records)
        assert extract_all_features(shuffled) == extract_all_features(ordered)
        assert extract_features_sharded(shuffled) == extract_all_features(ordered)
        bundle = extract_all_features(shuffled)["h"]
        # First activity is t=0, so only the t=4000/t=5000 contacts of
        # "a" count as new; "a" was first contacted inside the grace
        # period at t=1.
        assert bundle.new_ip_fraction == 0.0
        assert bundle.interstitials == (3999.0, 1000.0)


@st.composite
def flow_batches(draw):
    n_hosts = draw(st.integers(1, 8))
    flows = []
    for h in range(n_hosts):
        # Some hosts get only failed flows — they must survive the
        # group-by (reduceat with zero successes) and be excluded by
        # initiated_successful downstream, not here.
        all_failed = draw(st.booleans())
        for _ in range(draw(st.integers(1, 12))):
            flows.append(
                flow(
                    src=f"h{h}",
                    dst=draw(st.sampled_from(["x", "y", "z"])),
                    # Grid starts put flows exactly one grace period
                    # after a host's first activity: the churn cutoff's
                    # strict ">" must hold on the tie.
                    start=draw(
                        st.one_of(
                            st.floats(0, 1e5, allow_nan=False, allow_infinity=False),
                            st.integers(0, 12).map(lambda k: k * 900.0),
                        )
                    ),
                    src_bytes=draw(st.integers(0, 10**6)),
                    failed=all_failed or draw(st.booleans()),
                )
            )
    return flows


class TestPropertyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(flows=flow_batches(), data=st.data())
    def test_extractor_equals_reference(self, flows, data, tmp_path_factory):
        store = FlowStore(flows)
        counts = store.flow_counts()
        hosts = data.draw(
            st.one_of(
                st.none(),
                st.lists(st.sampled_from(sorted(counts) + ["absent"]), unique=True),
            )
        )
        # Any budget a single host fits in: from the largest host's rows
        # (the most shards) up to the whole trace, or none at all.
        budget = data.draw(
            st.one_of(st.none(), st.integers(max(counts.values()), len(store)))
        )
        reference = extract_all_features(store)
        if hosts is not None:
            reference = {h: f for h, f in reference.items() if h in hosts}
        view = spool_flow_store(
            store, tmp_path_factory.mktemp("seg"), max_gather_rows=budget
        )
        assert extract_features_sharded(store, hosts) == reference
        assert extract_features_sharded(view, hosts) == reference


class TestObservability:
    def test_shard_counters(self):
        from repro.flows import metrics

        store = random_store(n_hosts=10, seed=11)
        obs_metrics.enable()
        try:
            before = metrics._SHARDS_TOTAL.value()
            extract_features_sharded(store)
            assert metrics._SHARDS_TOTAL.value() - before == SHARDS
            assert metrics._HOSTS_GAUGE.value() == 10
        finally:
            obs_metrics.disable()
