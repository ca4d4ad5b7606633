"""Metrics-registry semantics: instruments, labels, no-op mode, threads."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, enabled_obs):
        c = obs.counter("t_counter_basic")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_rejected(self, enabled_obs):
        c = obs.counter("t_counter_negative")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_labelled_series_independent(self, enabled_obs):
        c = obs.counter("t_counter_labels", labels=("backend",))
        c.inc(3, backend="loop")
        c.inc(7, backend="vectorized")
        assert c.value(backend="loop") == 3.0
        assert c.value(backend="vectorized") == 7.0

    def test_wrong_label_names_rejected(self, enabled_obs):
        c = obs.counter("t_counter_badlabel", labels=("backend",))
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(1, nope="x")
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(1)  # missing the declared label entirely


class TestGauge:
    def test_set_inc_dec(self, enabled_obs):
        g = obs.gauge("t_gauge_basic")
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value() == 13.0

    def test_set_overwrites(self, enabled_obs):
        g = obs.gauge("t_gauge_overwrite", labels=("stage",))
        g.set(100, stage="reduction")
        g.set(40, stage="reduction")
        assert g.value(stage="reduction") == 40.0


class TestHistogram:
    def test_bucket_counts_cumulative(self, enabled_obs):
        h = obs.histogram("t_hist_basic", buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(104.2)
        assert snap["buckets"]["1.0"] == 2
        assert snap["buckets"]["5.0"] == 3
        assert snap["buckets"]["+Inf"] == 4

    def test_boundary_value_falls_in_bucket(self, enabled_obs):
        h = obs.histogram("t_hist_boundary", buckets=(1.0,))
        h.observe(1.0)  # le="1.0" is inclusive, as in Prometheus
        assert h.snapshot()["buckets"]["1.0"] == 1

    def test_empty_buckets_rejected(self, enabled_obs):
        with pytest.raises(ValueError, match="at least one bucket"):
            obs.histogram("t_hist_empty", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, enabled_obs):
        a = obs.counter("t_reg_same", labels=("x",))
        b = obs.counter("t_reg_same", labels=("x",))
        assert a is b

    def test_kind_conflict_rejected(self, enabled_obs):
        obs.counter("t_reg_conflict")
        with pytest.raises(ValueError, match="already registered"):
            obs.gauge("t_reg_conflict")

    def test_label_conflict_rejected(self, enabled_obs):
        obs.counter("t_reg_labels", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            obs.counter("t_reg_labels", labels=("b",))

    def test_reset_zeroes_but_keeps_instruments(self, enabled_obs):
        c = obs.counter("t_reg_reset")
        c.inc(9)
        enabled_obs.reset()
        assert c.value() == 0.0
        # The module-level reference keeps working after reset.
        c.inc(1)
        assert c.value() == 1.0

    def test_independent_registries(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        obs.enable()
        try:
            r1.counter("t_reg_indep").inc(5)
            assert r2.counter("t_reg_indep").value() == 0.0
        finally:
            obs.disable()


class TestDeltaProtocol:
    """``delta_since`` / ``merge_delta``: how serve workers ship their
    telemetry to the coordinator's registry."""

    def test_delta_holds_only_what_changed(self):
        worker = MetricsRegistry()
        obs.enable()
        try:
            c = worker.counter("t_delta_c", labels=("k",))
            g = worker.gauge("t_delta_g")
            h = worker.histogram("t_delta_h")
            c.inc(2, k="a")
            g.set(5)
            baseline = worker.state()
            c.inc(3, k="a")
            c.inc(1, k="b")
            h.observe(0.2)
            delta = worker.delta_since(baseline)
        finally:
            obs.disable()
        assert delta["t_delta_c"]["series"] == {("a",): 3.0, ("b",): 1.0}
        assert "t_delta_g" not in delta  # unchanged gauge ships nothing
        assert delta["t_delta_h"]["series"][()]["count"] == 1
        assert MetricsRegistry().delta_since(None) == {}

    def test_merged_deltas_add_up_even_while_disabled(self):
        worker = MetricsRegistry()
        coordinator = MetricsRegistry()
        obs.enable()
        try:
            c = worker.counter("t_merge_c")
            g = worker.gauge("t_merge_g")
            h = worker.histogram("t_merge_h")
            baseline = None
            deltas = []
            for step in range(3):
                c.inc(step + 1)
                g.set(step)
                h.observe(0.1 * step)
                deltas.append(worker.delta_since(baseline))
                baseline = worker.state()
        finally:
            obs.disable()
        for delta in deltas:
            coordinator.merge_delta(delta)
        assert coordinator.counter("t_merge_c").value() == c.value() == 6.0
        assert coordinator.gauge("t_merge_g").value() == 2.0
        merged = coordinator.histogram("t_merge_h").snapshot()
        assert merged["count"] == h.snapshot()["count"] == 3


class TestDisabledMode:
    def test_mutations_are_noops(self, clean_obs):
        c = obs.counter("t_off_counter")
        g = obs.gauge("t_off_gauge")
        h = obs.histogram("t_off_hist")
        c.inc(100)
        g.set(42)
        h.observe(1.0)
        assert c.value() == 0.0
        assert g.value() == 0.0
        assert h.snapshot()["count"] == 0

    def test_enable_disable_roundtrip(self, clean_obs):
        c = obs.counter("t_off_roundtrip")
        obs.enable()
        c.inc()
        obs.disable()
        c.inc()
        assert c.value() == 1.0
        assert not obs.is_enabled()


class TestThreadSafety:
    def test_concurrent_increments_exact(self, enabled_obs):
        """N threads hammering one counter lose no increments."""
        c = obs.counter("t_threads_counter", labels=("worker",))
        n_threads, n_incs = 8, 2000

        def work(worker: int) -> None:
            for _ in range(n_incs):
                c.inc(worker=str(worker % 2))

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = c.value(worker="0") + c.value(worker="1")
        assert total == n_threads * n_incs

    def test_concurrent_histogram_observations(self, enabled_obs):
        h = obs.histogram("t_threads_hist", buckets=(0.5,))
        n_threads, n_obs = 6, 1500

        def work() -> None:
            for i in range(n_obs):
                h.observe(0.1 if i % 2 else 0.9)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap["count"] == n_threads * n_obs
        assert snap["buckets"]["+Inf"] == n_threads * n_obs

    def test_pairwise_emd_from_threads_counts_all_pairs(self, enabled_obs):
        """The EMD engine's telemetry is consistent under thread fan-out."""
        import numpy as np

        from repro.stats.emd import pairwise_emd
        from repro.stats.histogram import build_histogram

        rng = np.random.default_rng(3)
        hists = [build_histogram(rng.normal(i, 1, 60)) for i in range(12)]
        n_threads = 4

        def work() -> None:
            pairwise_emd(hists, backend="vectorized")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        pairs = obs.counter(
            "repro_emd_pairs_total", labels=("backend",)
        ).value(backend="vectorized")
        assert pairs == n_threads * (12 * 11 // 2)
