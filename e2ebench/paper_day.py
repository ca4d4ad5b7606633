"""``paper-day``: one paper-scale day from seed to recorded verdicts.

Generation (campus, honeynets, overlay, Argus write) runs in this
process; detection runs in a fresh child (``detect_child.py``) that
reads the CSV straight into a segment store, runs ``find_plotters``
over the store view and records the verdicts.  The detect pass is
repeated, at least ``MIN_PASSES`` times and until ``--seconds`` of
detect time are measured; every reported figure is a median over
passes.  Each pass is pinned to one vCPU beside a speed probe
(``speedprobe.py``) on the same vCPU, and its timed figures are
restated at the probe's reference speed.  Generation is timed per layer
in the traced run only: its cost depends on the seed (see README.md).
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import median
from typing import Dict, List

from common import (
    BENCH_DIR,
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

#: Detect passes per run at least: the median of three ignores one
#: pass that hits a slow spell of the shared host.
MIN_PASSES = 3


def detect_pass(csv: Path, hosts: Path, work: Path, tag: str,
                with_obs: bool, cpu: int) -> Dict:
    """One fresh-process detect pass pinned to vCPU ``cpu``, with a
    speed probe on the same vCPU from before the spawn to the exit.

    Returns the child's report plus set-up (spawn -> the child's
    ``READY`` line), the probe's samples and the pass's timed
    intervals, each as ``(wall-clock start, end, seconds)``.
    """
    store_dir, db = work / f"store-{tag}", work / f"verdicts-{tag}.sqlite"
    args = [sys.executable, str(BENCH_DIR / "detect_child.py"),
            "--csv", str(csv), "--hosts", str(hosts),
            "--store-dir", str(store_dir), "--db", str(db),
            "--cpu", str(cpu)]
    with Probe(cpu) as probe:
        spawned_wall = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(args + (["--obs"] if with_obs else []),
                                stdout=subprocess.PIPE, env=child_env(),
                                text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if line.strip() != "READY":
                raise RuntimeError(f"detect child did not start: {line!r}")
            out, _ = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"detect child exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report.update(setup_s=ready, spawned_wall=spawned_wall, db=str(db),
                  cpu=cpu, probe=probe.samples)
    detect = _span(report, "detect")
    read = _span(report, "flows.argus.read_spool")
    recorded = _span(report, "query.record_batch")["end"]
    report["intervals"] = {
        "setup_s": (spawned_wall, spawned_wall + ready, ready),
        "detect_s": (detect["start"], detect["end"], detect["seconds"]),
        "read_spool_s": (read["start"], read["end"], read["seconds"]),
        "verdict_lag_s": (spawned_wall, recorded, recorded - spawned_wall),
    }
    report["detect_s"] = report["intervals"]["detect_s"][2]
    return report


def at_reference_speed(report: Dict) -> Dict[str, float]:
    """Each timed interval of a pass restated at the speed probe's
    reference speed (see ``speedprobe.speed_factor``)."""
    return {name: seconds * speed_factor(report["probe"], start, end)
            for name, (start, end, seconds) in report["intervals"].items()}


def _span(report: Dict, name: str) -> Dict:
    return next(s for s in report["spans"] if s["name"] == name)


def _profile_top(fn, limit: int = 20) -> str:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(limit)
    return buf.getvalue()


def run(seed: int, seconds: float, trace: bool, work: Path) -> Dict:
    from repro.datasets import (
        build_campus_day,
        capture_nugache_trace,
        capture_storm_trace,
        overlay_traces,
    )
    from repro.detection.pipeline import PipelineConfig, find_plotters
    from repro.experiments.config import ExperimentConfig
    from repro.flows.argus import read_flows_report, write_flows
    from repro.netsim.rng import substream
    from repro.query.api import QueryEngine

    paper = ExperimentConfig.paper()
    cfg = replace(paper, campus=replace(paper.campus, seed=seed), seed=seed)
    tracer = Tracer(f"paper-day-{seed}-{os.getpid()}")
    checks = Checks()
    csv = work / "day.csv"
    hosts_path = work / "hosts.json"

    with tracer.span("generate"):
        day, storm, nugache, overlaid = synthesise(
            cfg.campus, cfg.storm_bots, cfg.nugache_bots, cfg.seed, tracer)
        with tracer.span("flows.argus.write"):
            written = write_flows(csv, overlaid.store)
    gen_rss = vm_hwm_mb(os.getpid())
    internal = sorted(day.all_hosts)
    hosts_path.write_text(json.dumps(internal))
    n_flows = len(overlaid.store)
    checks.check("csv rows == generated rows", written == n_flows,
                 {"written": written, "generated": n_flows})

    # Detect passes with the program's telemetry off, repeated until the
    # budget is spent; the traced run makes one and adds one with it on.
    # Passes alternate over the vCPUs this process may use.
    cpus = sorted(os.sched_getaffinity(0))
    passes: List[Dict] = []
    while not passes or not trace and (
            len(passes) < MIN_PASSES
            or sum(p["detect_s"] for p in passes) < seconds):
        passes.append(detect_pass(csv, hosts_path, work, str(len(passes)),
                                  False, cpus[len(passes) % len(cpus)]))
    traced = None
    if trace:
        traced = detect_pass(csv, hosts_path, work, "obs", True, cpus[0])

    # Reference verdict over the in-memory generated store, outside
    # every timed step.
    reference = find_plotters(overlaid.store, hosts=set(internal),
                              config=PipelineConfig())
    ref_suspects = sorted(reference.suspects)
    ref_funnel = json.loads(json.dumps(reference.funnel()))
    for p in passes + ([traced] if traced else []):
        checks.check("spooled rows == generated rows",
                     p["rows_ok"] == n_flows and p["rows_bad"] == 0,
                     {"rows_ok": p["rows_ok"], "rows_bad": p["rows_bad"]})
        checks.check("store-backed suspects == in-memory suspects",
                     p["suspects"] == ref_suspects,
                     {"store": len(p["suspects"]), "memory": len(ref_suspects)})
        checks.check("store-backed funnel == in-memory funnel",
                     p["funnel"] == ref_funnel,
                     {"store": p["funnel"], "memory": ref_funnel})
    last = passes[-1]
    why_ms: List[float] = []
    unflagged = []
    with QueryEngine(db_path=last["db"]) as engine:
        for host in last["suspects"]:
            t0 = time.perf_counter()
            doc = engine.why(host)
            why_ms.append((time.perf_counter() - t0) * 1e3)
            if doc is None or not doc["flagged"]:
                unflagged.append(host)
    checks.check("why() reports every suspect flagged", not unflagged,
                 unflagged)

    degradations = sum(len(p["degradations"]) for p in passes)
    # Generation's five calls, each pass's spawn and three steps, and
    # every why() query.
    attempted = 5 + 4 * len(passes) + len(why_ms)
    # Timed figures are restated at the probe's reference speed; the
    # wall-clock ones stay in the context.
    norm = [at_reference_speed(p) for p in passes]

    def per_pass(name):
        return [n[name] for n in norm]

    read_s = per_pass("read_spool_s")
    metrics = {
        "setup_s": median(per_pass("setup_s")),
        "detect_s": median(per_pass("detect_s")),
        "peak_rss_mb": median([p["vm_hwm_mb"] for p in passes]),
        "ingest_p50_ms": median(read_s) * 1e3,
        "verdict_lag_p50_ms": median(per_pass("verdict_lag_s")) * 1e3,
        "ingest_rows_per_s": median([n_flows / s for s in read_s]),
    }
    context = {
        "hosts": len(internal),
        "flows": n_flows,
        "csv_bytes": csv.stat().st_size,
        "chunks": 1,
        "windows": 1,
        "detect_passes": len(passes),
        "per_pass": {
            "cpu": [p["cpu"] for p in passes],
            "at_reference_speed": norm,
            "wall_clock": [{k: v[2] for k, v in p["intervals"].items()}
                           for p in passes],
            "probe_samples": [len(p["probe"]) for p in passes],
        },
        "samples": {"setup_s": len(passes), "detect_s": len(passes),
                    "ingest_p50_ms": len(read_s),
                    "verdict_lag_p50_ms": len(passes),
                    "query.why_ms": len(why_ms)},
        "suspects": len(ref_suspects),
        "degradations": degradations,
    }
    out = {"checks": checks, "attempted": attempted, "failed": degradations,
           "metrics": metrics, "context": context}
    if trace:
        # The largest layer's public call again, under cProfile.  The
        # campus runs at quarter scale: under cProfile the full day
        # would take ~3x its 10-40 s and push the run past its budget.
        rerun = {
            "datasets.campus": lambda: build_campus_day(
                cfg.campus.scaled(0.25), 0),
            "datasets.honeynet": lambda: (
                capture_storm_trace(seed=cfg.seed, n_bots=cfg.storm_bots,
                                    window=cfg.campus.window),
                capture_nugache_trace(seed=cfg.seed, n_bots=cfg.nugache_bots,
                                      window=cfg.campus.window)),
            "datasets.overlay": lambda: overlay_traces(
                day, [storm, nugache], substream(cfg.seed, "overlay", 0)),
            "flows.argus.write": lambda: write_flows(work / "profile.csv",
                                                     overlaid.store),
            "flows.argus.read+storage.spool": lambda: read_flows_report(
                csv, to_store=work / "profile-store"),
            "detection": lambda: find_plotters(
                overlaid.store, hosts=set(internal), config=PipelineConfig()),
        }
        out["layers"] = _trace_doc(tracer, traced, passes[0],
                                   n_flows, gen_rss, csv, why_ms, rerun)
    return out


def _trace_doc(tracer, traced, plain, n_flows, gen_rss, csv,
               why_ms, rerun):
    """Per-layer metrics, self times, coverage and the profile."""
    tracer.adopt(traced["spans"], None, "c:")
    fp_id = "c:" + traced["find_plotters_span"]
    program = program_spans(traced["program_spans"])
    tracer.adopt(program, fp_id, "p:")
    spans = tracer.spans
    layers = layer_self_times(spans)

    def prog(name):
        return span_total(program, name)

    registry = traced.get("registry", {})

    def counter(name):
        return sum(float(v) for v in registry.get(name, {}).values())

    work_layers = {k: v for k, v in layers.items() if k != "harness"}
    largest = max(work_layers, key=work_layers.get)
    covered = sum(work_layers.values())
    e2e = span_total(spans, "generate") + traced["detect_s"]
    profile = _profile_top(rerun.get(largest, rerun["detection"]))

    traced_s = at_reference_speed(traced)["detect_s"]
    plain_s = at_reference_speed(plain)["detect_s"]
    overhead = (traced_s - plain_s) / plain_s
    per_layer = {
        **input_layer_metrics(spans),
        "datasets.flows": n_flows,
        "datasets.peak_rss_mb": gen_rss,
        "flows.argus.csv_mb": csv.stat().st_size / 2**20,
        "flows.argus.read_spool_s":
            _span(traced, "flows.argus.read_spool")["seconds"],
        "storage.segments": traced["segments"],
        "detection.extract_s": prog("extract_features"),
        "detection.reduction_s": prog("reduction"),
        "detection.theta_vol_s": prog("theta_vol"),
        "detection.theta_churn_s": prog("theta_churn"),
        "detection.theta_hm.histograms_s":
            layers.get("detection.humanmachine", 0.0),
        "detection.theta_hm.hosts": attr_total(program, "theta_hm",
                                               "input_hosts"),
        "stats.emd_s": prog("emd_matrix") + prog("emd_pruned_partition"),
        "stats.emd.pairs": attr_total(program, "cluster_hosts", "pairs"),
        "stats.linkage_s": prog("linkage"),
        "query.record_batch_s":
            _span(traced, "query.record_batch")["seconds"],
        "query.why_ms": median(why_ms) if why_ms else 0.0,
        "query.db_writes": counter("repro_query_db_writes_total"),
        "storage.bytes_written":
            counter("repro_storage_bytes_written_total"),
        "storage.segments_written":
            counter("repro_storage_segments_written_total"),
        "obs.tracing_overhead_pct": 100.0 * overhead,
        "resilience.degradations":
            len(traced["degradations"]) + len(plain["degradations"]),
    }
    return {
        "per_layer": per_layer,
        "layer_self_s": layers,
        "largest_layer": {"name": largest, "self_s": work_layers[largest]},
        "coverage": {"layer_self_s": covered, "generate_s+detect_s": e2e,
                     "share": covered / e2e},
        "profile_top20": profile,
        "spans": spans,
    }
