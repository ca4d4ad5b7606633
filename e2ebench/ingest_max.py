"""``ingest-max``: a quarter-scale day into ``repro serve``, closed loop.

The seed-generated trace (quarter campus over a 4-hour collection
window, 13 Storm + 20 Nugache bots, start-time order) is cut into
2,000-row chunks and sent over one connection as fast as acks return,
into a ``repro serve`` process run with its defaults (2 shards, durable
acks) and 10-minute windows.  The pass is repeated on a fresh service,
at least ``MIN_PASSES`` times and until ``--seconds`` of ``detect_s``
(first send -> ``drain.json``) are measured; reported figures are
medians over passes.  Set-up is restated at the reference speed of a
speed probe (``speedprobe.py``) run on every vCPU while the service
starts; the replay's figures are wall-clock.

Load comes from this one process: a sender (the caller) and a
``/shards`` poller thread, one HTTP connection each.  Chunk bodies are
encoded before any clock starts.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from common import (
    Checks,
    Tracer,
    attr_total,
    child_env,
    input_layer_metrics,
    layer_self_times,
    program_spans,
    span_total,
    synthesise,
    vm_hwm_mb,
)
from speedprobe import Probe, speed_factor

SCALE = 0.25
STORM_BOTS = 13
NUGACHE_BOTS = 20
#: Collection window of the replayed day: 4 of the paper's 6 hours, so
#: the 22 runs a comparison of two commits takes fit its time budget.
DAY_S = 4 * 3600.0
#: 24 windows a day, so the replay closes 23 per shard.
WINDOW_S = DAY_S / 24
SHARDS = 2
#: The collector batch the serve plane's own bench posts.
CHUNK_ROWS = 2000
#: Passes per run at least (each on a fresh service): the median of
#: three ignores one pass that hits a slow spell of the shared host.
MIN_PASSES = 3
#: ``/shards`` poll period: window verdicts are timed by it.
POLL_S = 0.05


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Trace:
    flows: list
    bodies: List[bytes]
    chunk_max_start: List[float]
    hosts: int


def generate(seed: int, tracer: Tracer) -> Trace:
    """Seed -> time-ordered flows -> pre-encoded Argus CSV chunk bodies,
    each step in its own span (timed for the traced run only)."""
    from repro.datasets import CampusConfig
    from repro.flows.argus import dumps

    campus = replace(CampusConfig(seed=seed).scaled(SCALE), window=DAY_S)
    with tracer.span("synthesise"):
        day, _, _, overlaid = synthesise(campus, STORM_BOTS, NUGACHE_BOTS,
                                         seed, tracer)
    flows = sorted(overlaid.store, key=lambda f: f.start)
    chunks = [flows[i:i + CHUNK_ROWS] for i in range(0, len(flows), CHUNK_ROWS)]
    with tracer.span("flows.argus.write"):
        bodies = [dumps(chunk).encode() for chunk in chunks]
    return Trace(flows, bodies, [c[-1].start for c in chunks],
                 len(day.all_hosts))


# ----------------------------------------------------------------------
# The service under test
# ----------------------------------------------------------------------
class Service:
    """One ``repro serve`` process and its HTTP control plane."""

    def __init__(self, root: Path, ledger: bool) -> None:
        self.root = root
        self.spool = root / "spool"
        self.ledger = root / "ledger" if ledger else None
        self.proc: Optional[subprocess.Popen] = None
        self.host = self.port = None

    def start(self) -> float:
        """Spawn; return seconds until every worker is alive on /shards
        and has answered a ``POST /evaluate`` (i.e. finished importing)."""
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--spool-dir", str(self.spool), "--window", str(WINDOW_S)]
        if self.ledger is not None:
            cmd += ["--ledger-dir", str(self.ledger)]
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "stdout", "w") as out, \
                open(self.root / "stderr", "w") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, env=child_env(), stdout=out,
                                         stderr=err)
        discovery = self.spool / "serve.json"
        deadline = t0 + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up: "
                                   + (self.root / "stderr").read_text()[-2000:])
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not come up in 60 s")
            if discovery.exists():
                if self.host is None:
                    url = json.loads(discovery.read_text())["url"]
                    self.host, port = url.split("//", 1)[1].split(":")
                    self.port = int(port)
                shards = self.get("/shards")
                workers = shards["workers"]
                if len(workers) == SHARDS and all(w["alive"] for w in workers):
                    replied = self.request("POST", "/evaluate")[1]["replied"]
                    if len(replied) == SHARDS:
                        return time.perf_counter() - t0
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def request(self, method: str, path: str, body: bytes = b""):
        conn = self.connect()
        try:
            conn.request(method, path, body=body or None)
            resp = conn.getresponse()
            data = resp.read()
            ctype = resp.getheader("Content-Type", "")
            return resp.status, (json.loads(data) if "json" in ctype
                                 else data.decode())
        finally:
            conn.close()

    def get(self, path: str):
        status, doc = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return doc

    def worker_pids(self) -> List[int]:
        return [w["pid"] for w in self.get("/shards")["workers"]]

    def drain(self) -> Dict:
        """``POST /drain``; wait for ``drain.json`` and process exit."""
        report_path = self.spool / "drain.json"
        t0 = time.perf_counter()
        status, _ = self.request("POST", "/drain")
        if status != 202:
            raise RuntimeError(f"POST /drain -> {status}")
        deadline = t0 + 120.0
        while not report_path.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("drain did not publish drain.json")
            time.sleep(0.005)
        drained_at = time.perf_counter()
        hwm = vm_hwm_mb(self.proc.pid)
        report = json.loads(report_path.read_text())
        code = self.proc.wait(timeout=60)
        if code != 0:
            raise RuntimeError(f"repro serve exited {code} after drain")
        return {"drain_s": drained_at - t0, "drained_at": drained_at,
                "report": report, "coordinator_hwm": hwm}

    def stop(self) -> None:
        """Terminate if still running (SIGTERM drains), then reap."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def shards_sample(doc: Dict) -> tuple:
    """``(time, backlog rows, window end every shard has finalised)``."""
    ends = [w["last_final_end"] or 0.0 for w in doc["workers"]]
    return time.perf_counter(), doc["backlog_rows"], min(ends) if ends else 0.0


@dataclass
class Poller:
    """Samples ``/shards`` every ``period``: backlog and window progress."""

    service: Service
    period: float
    samples: List[tuple] = field(default_factory=list)
    stop: threading.Event = field(default_factory=threading.Event)
    errors: int = 0

    def run(self) -> None:
        conn = self.service.connect()
        while not self.stop.is_set():
            try:
                conn.request("GET", "/shards")
                self.samples.append(
                    shards_sample(json.loads(conn.getresponse().read())))
            except (OSError, http.client.HTTPException, ValueError):
                self.errors += 1
                conn.close()
                conn = self.service.connect()
            self.stop.wait(self.period)
        conn.close()


def send_all(service: Service, bodies: List[bytes]) -> List[Dict]:
    """Send every chunk over one connection, each as soon as the
    previous one is acked."""
    conn = service.connect()
    out = []
    for body in bodies:
        sent = time.perf_counter()
        try:
            conn.request("POST", "/ingest", body=body,
                         headers={"Content-Type": "text/csv"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            status = resp.status
        except (OSError, http.client.HTTPException, ValueError):
            status, doc = None, {}
            conn.close()
            conn = service.connect()
        out.append({"sent": sent, "acked": time.perf_counter(),
                    "status": status, "rows_ok": doc.get("rows_ok", 0)})
    conn.close()
    return out


def wait_backlog_zero(service: Service) -> tuple:
    """The first ``/shards`` sample with no rows waiting on a worker.
    A worker ships the verdicts of the windows a batch closed before
    it acks the batch, so this sample has seen every window close."""
    deadline = time.perf_counter() + 120.0
    while time.perf_counter() < deadline:
        sample = shards_sample(service.get("/shards"))
        if sample[1] == 0:
            return sample
        time.sleep(0.005)
    raise RuntimeError("worker backlog did not drain within 120 s")


def measure_pass(service: Service, trace: Trace, traced: bool) -> Dict:
    """One replay of the whole trace into a started service, drained."""
    poller = Poller(service, POLL_S)
    thread = threading.Thread(target=poller.run, name="poller", daemon=True)
    thread.start()
    try:
        sends = send_all(service, trace.bodies)
        idle = wait_backlog_zero(service)
    finally:
        poller.stop.set()
        thread.join(timeout=10)
    scraped = {}
    if traced:
        scraped = {"metrics": service.request("GET", "/metrics")[1],
                   "summary": service.get("/summary")}
    worker_hwm = [vm_hwm_mb(pid) or 0.0 for pid in service.worker_pids()]
    drained = service.drain()
    return {"sends": sends, "idle_at": idle[0],
            "poll": sorted(poller.samples + [idle]),
            "poll_errors": poller.errors, "worker_hwm": worker_hwm,
            "scraped": scraped, **drained}


# ----------------------------------------------------------------------
# Verdict lag
# ----------------------------------------------------------------------
def window_ends(trace: Trace) -> List[float]:
    """Ends of the grid windows the replay closes (not the drain)."""
    first, last = trace.flows[0].start, trace.flows[-1].start
    k = int(first // WINDOW_S) + 1
    ends = []
    while k * WINDOW_S <= last:
        ends.append(k * WINDOW_S)
        k += 1
    return ends


def trigger_chunk(trace: Trace, end: float) -> int:
    """The chunk carrying the first flow at or past ``end``."""
    return next(k for k, top in enumerate(trace.chunk_max_start) if top >= end)


def window_lags(trace: Trace, run: Dict) -> List[float]:
    """Per window: send of the closing chunk -> first ``/shards`` sample
    showing every shard past the window's end (None if none did)."""
    lags = []
    for end in window_ends(trace):
        seen = next((t for t, _, done in run["poll"] if done >= end), None)
        lags.append(None if seen is None else
                    seen - run["sends"][trigger_chunk(trace, end)]["sent"])
    return lags


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace_on: bool, work: Path) -> Dict:
    from repro.detection.pipeline import PipelineConfig, find_plotters
    from repro.flows.store import FlowStore

    tracer = Tracer(f"ingest-max-{seed}-{os.getpid()}")
    checks = Checks()
    trace = generate(seed, tracer)
    gen_rss = vm_hwm_mb(os.getpid())
    n_rows = len(trace.flows)

    # Reference verdict over the same rows, computed here before any
    # service runs.
    reference = find_plotters(FlowStore(trace.flows), None, PipelineConfig())
    ref_suspects = sorted(reference.suspects)
    ref_funnel = json.loads(json.dumps(reference.funnel()))

    cpus = sorted(os.sched_getaffinity(0))
    setup: List[float] = []
    setup_ref: List[float] = []
    runs: List[Dict] = []
    while not runs or not trace_on and (
            len(runs) < MIN_PASSES or sum(
                r["drained_at"] - r["sends"][0]["sent"] for r in runs
            ) < seconds):
        service = Service(work / f"svc-{len(runs)}", ledger=trace_on)
        try:
            # Set-up keeps both vCPUs busy importing, so a speed probe on
            # each reads the host as it does beside a paper-day pass; the
            # probes stop before the replay starts.
            with ExitStack() as stack:
                probes = [stack.enter_context(Probe(cpu)) for cpu in cpus]
                spawned = time.time()
                setup.append(service.start())
            setup_ref.append(setup[-1] * speed_factor(
                [x for p in probes for x in p.samples],
                spawned, spawned + setup[-1]))
            with tracer.span("replay", pass_index=len(runs)):
                runs.append(measure_pass(service, trace, trace_on))
        finally:
            service.stop()
        runs[-1]["service"] = service

    attempted = failed = 0
    latencies: List[float] = []
    lags: List[float] = []
    rates, detects, rss = [], [], []
    backlog_max = 0
    expected_windows = len(window_ends(trace))
    for r in runs:
        report = r["report"]
        sends = r["sends"]
        ok = [s for s in sends if s["status"] == 200]
        acked_rows = sum(s["rows_ok"] for s in ok)
        attempted += len(sends) + 1
        failed += (len(sends) - len(ok) + report["restarts"]
                   + len(report["degradations"]))
        checks.check("rows acked == rows posted == rows ingested",
                     acked_rows == n_rows == report["rows_ingested"],
                     {"acked": acked_rows, "posted": n_rows,
                      "ingested": report["rows_ingested"]})
        checks.check("drain suspects == batch find_plotters suspects",
                     report["suspects"] == ref_suspects,
                     {"drain": len(report["suspects"]),
                      "batch": len(ref_suspects)})
        checks.check("drain funnel == batch funnel",
                     report["funnel"] == ref_funnel,
                     {"drain": report["funnel"], "batch": ref_funnel})
        checks.check("no duplicate verdicts", report["duplicate_verdicts"] == 0,
                     report["duplicate_verdicts"])
        checks.check("no degradations", not report["degradations"],
                     report["degradations"])
        lag = window_lags(trace, r)
        checks.check(f"{expected_windows} windows closed by every shard "
                     "before the backlog emptied",
                     len(lag) == expected_windows and None not in lag,
                     {"windows": len(lag),
                      "unseen": sum(x is None for x in lag)})
        lags += [x for x in lag if x is not None]
        latencies += [s["acked"] - s["sent"] for s in ok]
        first = sends[0]["sent"]
        rates.append(acked_rows / (r["idle_at"] - first))
        detects.append(r["drained_at"] - first)
        rss.append(r["coordinator_hwm"] + sum(r["worker_hwm"]))
        backlog_max = max([backlog_max] + [b for _, b, _ in r["poll"]])

    metrics = {
        "setup_s": median(setup_ref),
        "detect_s": median(detects),
        "peak_rss_mb": median(rss),
        "ingest_p50_ms": median(latencies) * 1e3,
        "verdict_lag_p50_ms": median(lags) * 1e3,
        "ingest_rows_per_s": median(rates),
    }
    context = {
        "hosts": trace.hosts,
        "flows": n_rows,
        "csv_bytes": sum(len(b) for b in trace.bodies),
        "chunks": len(trace.bodies),
        "chunk_rows": CHUNK_ROWS,
        "windows": expected_windows + 1,
        "passes": len(runs),
        "per_pass": {"setup_s": setup_ref, "setup_s_wall_clock": setup,
                     "detect_s": detects, "ingest_rows_per_s": rates},
        "backlog_max_rows": backlog_max,
        "samples": {"setup_s": len(setup), "detect_s": len(detects),
                    "peak_rss_mb": len(rss), "ingest_p50_ms": len(latencies),
                    "verdict_lag_p50_ms": len(lags),
                    "ingest_rows_per_s": len(rates)},
        "suspects": len(ref_suspects),
        "poll_errors": sum(r["poll_errors"] for r in runs),
    }
    out = {"checks": checks, "attempted": attempted, "failed": failed,
           "metrics": metrics, "context": context}
    if trace_on:
        out["layers"] = _trace_doc(tracer, trace, runs[-1], backlog_max,
                                   gen_rss, work)
    return out


def _replay_split(trace: Trace, work: Path) -> Dict[str, List[float]]:
    """Replay the ack path's three steps over the same chunk bodies:
    Argus decode, shard spool add + cut, journal append (fsync)."""
    from repro.flows.argus import loads_report
    from repro.serve.journal import CoordinatorLog
    from repro.serve.sharding import ShardMap
    from repro.storage import fresh_store

    shard_map = ShardMap(SHARDS)
    writers = [fresh_store(work / f"split-spool-{s}").writer()
               for s in range(SHARDS)]
    out = {"decode": [], "cut": [], "journal": []}
    with CoordinatorLog(work / "split-coord.log") as log:
        for seq, body in enumerate(trace.bodies):
            t0 = time.perf_counter()
            flows, _ = loads_report(body.decode(), errors="skip")
            t1 = time.perf_counter()
            touched = set()
            for flow in flows:
                shard = shard_map.shard_of(flow.src)
                writers[shard].add(flow)
                touched.add(shard)
            for shard in sorted(touched):
                writers[shard].cut()
            t2 = time.perf_counter()
            log.append({"kind": "chunk", "seq": seq, "rows": len(flows),
                        "cum": {str(s): writers[s].store.total_rows
                                for s in sorted(touched)}})
            t3 = time.perf_counter()
            out["decode"].append(t1 - t0)
            out["cut"].append(t2 - t1)
            out["journal"].append(t3 - t2)
    return out


def _prom_total(samples: Dict, name: str, **labels) -> float:
    want = tuple(sorted(labels.items()))
    return sum(v for key, v in samples.get(name, {}).items()
               if not want or set(want) <= set(key))


def _trace_doc(tracer: Tracer, trace: Trace, run: Dict, backlog_max: int,
               gen_rss: float, work: Path) -> Dict:
    from repro.obs import parse_prom

    prom = parse_prom(run["scraped"]["metrics"])
    split = _replay_split(trace, work)
    ledger = run["service"].ledger
    spans_file = next(ledger.glob("*/spans.jsonl"))
    drain_spans = program_spans(
        json.loads(line) for line in spans_file.read_text().splitlines()
        if line.strip())
    tracer.adopt(drain_spans, None, "p:")
    spans = tracer.spans

    def prog(name):
        return span_total(drain_spans, name)

    layers = layer_self_times(spans)
    ok = [s for s in run["sends"] if s["status"] == 200]
    ack_total = sum(s["acked"] - s["sent"] for s in ok)
    decode, cut, journal = (sum(split[k]) for k in ("decode", "cut",
                                                    "journal"))
    layers["flows.argus.decode"] = decode
    layers["storage.cut"] = cut
    layers["serve.journal"] = journal
    evaluate_s = _prom_total(prom, "repro_span_seconds_sum",
                             span="online_evaluate")
    layers["detection.incremental"] = evaluate_s
    # The drain outside find_plotters: final tumble, spool rebuild,
    # drain.json.
    layers["serve.drain"] = run["drain_s"] - prog("find_plotters")
    layers.pop("harness", None)
    # Ack time the replayed decode / cut / journal steps do not explain
    # (HTTP, dispatch to workers, and the gap between the quiet replay
    # and the loaded coordinator).  A remainder, not a measured span, so
    # it is reported beside the layers and never picked as the largest.
    residual = max(0.0, ack_total - decode - cut - journal)
    # The largest layer on the measured path: synthesis and encoding
    # happen before the clock starts.
    path = {k: v for k, v in layers.items()
            if not k.startswith("datasets.") and k != "flows.argus.write"}
    largest = max(path, key=path.get)
    hits = _prom_total(prom, "repro_online_hist_cache_total", result="hit")
    misses = _prom_total(prom, "repro_online_hist_cache_total", result="miss")
    spools = list(run["service"].spool.glob("epoch-*/shard-*/*.rseg"))
    per_layer = {
        **input_layer_metrics(spans),
        "datasets.flows": len(trace.flows),
        "datasets.peak_rss_mb": gen_rss,
        "flows.argus.csv_mb": sum(len(b) for b in trace.bodies) / 2**20,
        "storage.segments": len(spools),
        "detection.extract_s": prog("extract_features"),
        "detection.reduction_s": prog("reduction"),
        "detection.theta_vol_s": prog("theta_vol"),
        "detection.theta_churn_s": prog("theta_churn"),
        "detection.theta_hm.histograms_s":
            layers.get("detection.humanmachine", 0.0),
        "detection.theta_hm.hosts": attr_total(drain_spans, "theta_hm",
                                               "input_hosts"),
        "stats.emd_s": prog("emd_matrix") + prog("emd_pruned_partition"),
        "stats.emd.pairs": attr_total(drain_spans, "cluster_hosts", "pairs"),
        "stats.linkage_s": prog("linkage"),
        "query.db_writes": _prom_total(prom, "repro_query_db_writes_total"),
        "serve.ingest.decode_ms": median(split["decode"]) * 1e3,
        "serve.ingest.cut_ms": median(split["cut"]) * 1e3,
        "serve.ingest.journal_ms": median(split["journal"]) * 1e3,
        "storage.bytes_written":
            _prom_total(prom, "repro_storage_bytes_written_total"),
        "storage.segments_written":
            _prom_total(prom, "repro_storage_segments_written_total"),
        "serve.backlog_max_rows": backlog_max,
        "serve.rejected": _prom_total(prom, "repro_serve_ingest_rejected_total"),
        "serve.worker_restarts":
            _prom_total(prom, "repro_serve_worker_restarts_total"),
        "serve.verdicts": _prom_total(prom, "repro_serve_verdicts_total",
                                      result="accepted"),
        "serve.duplicate_verdicts":
            _prom_total(prom, "repro_serve_verdicts_total",
                        result="duplicate"),
        "detection.online_evaluate_s": evaluate_s,
        # Minus the one readiness evaluate per shard at start-up.
        "detection.online_evaluations": _prom_total(
            prom, "repro_span_seconds_count", span="online_evaluate") - SHARDS,
        "detection.online.hist_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "detection.online.tracked_hosts":
            _prom_total(prom, "repro_online_tracked_hosts"),
        "serve.drain.find_plotters_s": prog("find_plotters"),
        "serve.drain.extract_s": prog("extract_features"),
        "resilience.degradations": len(run["report"]["degradations"]),
    }
    return {
        "per_layer": per_layer,
        "layer_self_s": layers,
        "largest_layer": {"name": largest, "self_s": layers[largest]},
        "ack_residual": {"seconds": residual,
                         "share_of_ack_time": residual / ack_total},
        "summary_before_drain": run["scraped"]["summary"],
        "ack_split_ms": {k: {"median": median(v) * 1e3, "samples": len(v)}
                         for k, v in split.items()},
        "spans": spans,
    }
