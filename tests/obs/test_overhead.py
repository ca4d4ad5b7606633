"""Disabled-path cost contract for counter/span call sites.

``BENCH_hm.json`` *samples* ``enabled_overhead_vs_disabled`` at kernel
scale; this tier-1 suite pins the structural half of that contract so a
regression cannot hide behind timing noise: while recording is
disabled, every instrument method returns before touching its child
map (no series allocation, no dict churn, no lock acquisition visible
as state), ``span()`` yields one shared inert object instead of
allocating a live span or growing the context stack, and the
instrumented EMD kernel reads no timer and updates no metric.
"""

import importlib
from types import SimpleNamespace

import numpy as np

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.export import InMemorySink
from repro.stats.histogram import build_histogram

# ``repro.stats`` re-exports the ``emd`` function under the submodule's
# name, so the module itself is reached through the import system.
emd_mod = importlib.import_module("repro.stats.emd")


class TestDisabledInstrumentsAllocateNothing:
    def test_counter_inc_leaves_no_series(self, clean_obs):
        c = obs.counter("overhead_counter_total", "", labels=("shard",))
        for i in range(100):
            c.inc(shard=str(i))
        assert c._series_state() == {}
        assert obs_metrics.get_registry().state()[
            "overhead_counter_total"
        ]["series"] == {}

    def test_gauge_set_inc_dec_leave_no_series(self, clean_obs):
        g = obs.gauge("overhead_gauge", "", labels=("stage",))
        g.set(1.0, stage="a")
        g.inc(stage="b")
        g.dec(stage="c")
        assert g._series_state() == {}

    def test_histogram_observe_leaves_no_series(self, clean_obs):
        h = obs.histogram("overhead_seconds", "")
        for _ in range(50):
            h.observe(0.01)
        assert h._series_state() == {}

    def test_disabled_calls_do_not_validate_amount(self, clean_obs):
        """The disabled path is a single boolean check — it returns
        before even the cheap argument validation runs."""
        c = obs.counter("overhead_validation_total", "")
        c.inc(-5)  # would raise ValueError while enabled

    def test_enabled_calls_do_allocate(self, clean_obs):
        """The control: the same call sites create series once enabled,
        so the assertions above are meaningful."""
        obs_metrics.enable()
        c = obs.counter("overhead_control_total", "", labels=("shard",))
        c.inc(shard="0")
        assert c._series_state() == {("0",): 1.0}


class TestDisabledSpansShareOneNoop:
    def test_span_yields_shared_noop_identity(self, clean_obs):
        with obs.span("outer") as a:
            with obs.span("inner") as b:
                pass
        assert a is b
        assert a is obs_tracing._NOOP

    def test_noop_span_absorbs_annotation(self, clean_obs):
        with obs.span("anywhere") as sp:
            sp.set(k="v")  # must not raise or store
        assert sp.attrs == {}

    def test_disabled_span_does_not_grow_the_stack(self, clean_obs):
        with obs.span("outer"):
            assert obs_tracing.current_span() is None

    def test_disabled_span_reaches_no_sink_and_no_histogram(self, clean_obs):
        sink = InMemorySink()
        obs_tracing.add_sink(sink)
        with obs.span("silent"):
            pass
        assert sink.spans == []
        state = obs_metrics.get_registry().state().get("repro_span_seconds")
        assert state is None or state["series"] == {}


class _Count:
    """A hook stand-in that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, *args, **kwargs) -> float:
        self.calls += 1
        return 0.0


class TestKernelBlockHooks:
    """``pairwise_emd``'s per-block telemetry, counted through patched
    hooks: no timer read and no registry update while disabled, one
    timed, counted observation per kernel block while enabled."""

    def pairwise(self, monkeypatch):
        rng = np.random.default_rng(3)
        hists = [build_histogram(rng.lognormal(0.0, 1.5, 400)) for _ in range(120)]
        timer, inc, observe = _Count(), _Count(), _Count()
        monkeypatch.setattr(emd_mod, "time", SimpleNamespace(perf_counter=timer))
        monkeypatch.setattr(emd_mod, "_BLOCKS_TOTAL", SimpleNamespace(inc=inc))
        monkeypatch.setattr(
            emd_mod, "_BLOCK_SECONDS", SimpleNamespace(observe=observe)
        )
        emd_mod.pairwise_emd(hists)
        n_pairs = len(hists) * (len(hists) - 1) // 2
        step = emd_mod._block_rows(max(len(h.centers) for h in hists))
        blocks = -(-n_pairs // step)
        assert blocks >= 2  # the per-block counts below mean something
        return blocks, timer.calls, inc.calls, observe.calls

    def test_disabled_kernel_makes_no_timer_or_registry_call(
        self, clean_obs, monkeypatch
    ):
        _, timer, inc, observe = self.pairwise(monkeypatch)
        assert (timer, inc, observe) == (0, 0, 0)

    def test_enabled_kernel_times_and_counts_each_block_once(
        self, clean_obs, monkeypatch
    ):
        obs_metrics.enable()
        blocks, timer, inc, observe = self.pairwise(monkeypatch)
        assert (timer, inc, observe) == (2 * blocks, blocks, blocks)
