"""Shared plumbing for the end-to-end benchmark.

Everything here lives outside the program under test: locating the
checkout's ``src/`` tree, the metric catalogue (read from
``BENCHMARK.json``), a span recorder the harness wraps around each
public call it makes, the traced synthesis of a day, per-layer self
times, peak RSS from ``/proc``, and the result line the runner prints
last.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_ROOT = ROOT / ".e2ebench"


def program_present() -> bool:
    """Whether this checkout carries the program's source tree."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no install)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


# ----------------------------------------------------------------------
# Spans recorded by the harness around the calls it makes
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent and one id per run.

    Starts are wall-clock (``time.time``) so spans from the detect
    child and the program's own span tree share one time axis;
    durations come from ``perf_counter``.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._next = 1

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = f"b{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.time()
        t0 = time.perf_counter()
        record = {"name": name, "id": span_id, "parent": parent,
                  "run_id": self.run_id, "attrs": dict(attrs)}
        try:
            yield record
        finally:
            seconds = time.perf_counter() - t0
            self._stack.pop()
            record.update(start=start, end=start + seconds, seconds=seconds)
            self.spans.append(record)

    def adopt(self, records: Iterable[Dict], parent: Optional[str],
              prefix: str) -> None:
        """Graft spans recorded elsewhere (the detect child, the
        program's own span tree) under ``parent``."""
        for record in records:
            record = dict(record)
            record["id"] = prefix + str(record["id"])
            record["parent"] = (
                parent if record.get("parent") is None
                else prefix + str(record["parent"])
            )
            record["run_id"] = self.run_id
            self.spans.append(record)


def program_spans(records: Iterable[Dict]) -> List[Dict]:
    """The program's ``repro.obs`` span dicts in :class:`Tracer` form."""
    out = []
    for r in records:
        seconds = float(r.get("wall_seconds") or 0.0)
        out.append({
            "name": r["name"], "id": r["span_id"], "parent": r["parent_id"],
            "start": float(r["start"]), "end": float(r["start"]) + seconds,
            "seconds": seconds, "attrs": r.get("attrs", {}),
            "source": "program",
        })
    return out


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Self time per span id: its duration minus the part of its
    interval that its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = max(0.0, s["seconds"] - covered)
    return out


#: Span name -> layer (module) its self time is charged to.  Harness
#: spans that only group others are charged to ``harness``.
LAYER_OF = {
    "generate": "harness",
    "detect": "harness",
    "synthesise": "harness",
    "datasets.campus": "datasets.campus",
    "datasets.honeynet.storm": "datasets.honeynet",
    "datasets.honeynet.nugache": "datasets.honeynet",
    "datasets.overlay": "datasets.overlay",
    "flows.argus.write": "flows.argus.write",
    "flows.argus.read_spool": "flows.argus.read+storage.spool",
    "detection.find_plotters": "detection.pipeline",
    "find_plotters": "detection.pipeline",
    "extract_features": "flows.metrics",
    "reduction": "detection.reduction",
    "theta_vol": "detection.volume",
    "theta_churn": "detection.churn",
    "theta_hm": "detection.humanmachine",
    "cluster_hosts": "stats.clustering",
    "emd_matrix": "stats.emd",
    "emd_pruned_partition": "stats.emd",
    "linkage": "stats.clustering.linkage",
    "degradation": "resilience",
    "query.record_batch": "query.verdicts",
}


def layer_self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Self time summed per layer of :data:`LAYER_OF` (spans whose name
    has no layer are skipped, and their children still count toward
    their own)."""
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for s in spans:
        layer = LAYER_OF.get(s["name"])
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + own[s["id"]]
    return layers


def span_total(spans: Iterable[Dict], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s["seconds"] for s in spans if s["name"] == name)


def attr_total(spans: Iterable[Dict], name: str, key: str) -> float:
    """Summed attribute ``key`` of the spans called ``name``."""
    return sum(float(s["attrs"].get(key, 0)) for s in spans
               if s["name"] == name)


def input_layer_metrics(spans: Sequence[Dict]) -> Dict[str, float]:
    """Per-layer seconds of making the input: :func:`synthesise`'s
    spans and the Argus write."""
    return {
        "datasets.campus_s": span_total(spans, "datasets.campus"),
        "datasets.honeynet_s": span_total(spans, "datasets.honeynet"),
        "datasets.overlay_s": span_total(spans, "datasets.overlay"),
        "flows.argus.write_s": span_total(spans, "flows.argus.write"),
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def synthesise(campus, storm_bots: int, nugache_bots: int, seed: int,
               tracer: Tracer):
    """Seed -> one overlaid day, each public call in its own span:
    campus, Storm and Nugache honeynets, overlay.  Returns the clean
    day, the two honeynet traces and the overlaid trace."""
    from repro.datasets import (
        build_campus_day,
        capture_nugache_trace,
        capture_storm_trace,
        overlay_traces,
    )
    from repro.netsim.rng import substream

    with tracer.span("datasets.campus"):
        day = build_campus_day(campus, 0)
    with tracer.span("datasets.honeynet"):
        with tracer.span("datasets.honeynet.storm"):
            storm = capture_storm_trace(seed=seed, n_bots=storm_bots,
                                        window=campus.window)
        with tracer.span("datasets.honeynet.nugache"):
            nugache = capture_nugache_trace(seed=seed, n_bots=nugache_bots,
                                            window=campus.window)
    with tracer.span("datasets.overlay"):
        overlaid = overlay_traces(day, [storm, nugache],
                                  substream(seed, "overlay", 0))
    return day, storm, nugache, overlaid


# ----------------------------------------------------------------------
# Small measurement helpers
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def run_context(seed: int, workload: str, trace: bool) -> Dict[str, object]:
    """What every result is recorded with (input sizes added later)."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True)


class Checks:
    """Named correctness checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: List[Dict[str, object]] = []

    def check(self, name: str, ok: bool, detail: object = None) -> None:
        """Record one check; ``detail`` is kept only when it fails."""
        entry = {"check": name, "ok": bool(ok)}
        if not ok:
            entry["detail"] = detail
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)
        self.results.append(entry)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)


# ----------------------------------------------------------------------
# Metric catalogue
# ----------------------------------------------------------------------
def catalogue() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)``: metric name -> unit, as
    ``BENCHMARK.json`` at the checkout's root lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})
