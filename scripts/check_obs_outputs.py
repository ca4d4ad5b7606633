#!/usr/bin/env python
"""Validate the observability outputs of one instrumented pipeline run.

Used by CI after ``examples/observability_demo.py``; also runnable by
hand.  Three independently selectable checks:

* positional ``metrics.jsonl metrics.prom`` — the JSONL trace parses
  line by line with the four funnel stage spans (reduction, theta_vol,
  theta_churn, theta_hm) and a final ``{"type": "metrics"}`` snapshot,
  and the Prometheus file parses under a strict line grammar with the
  funnel gauges and the online evaluation counter;
* ``--ledger DIR`` — every recorded run directory is complete (manifest
  with required keys, parseable spans, grammar-clean ``metrics.prom``)
  and suspect checksums recompute;
* ``--scrape URL`` — a *live* server answers ``/healthz``, serves
  grammar-clean text on ``/metrics`` with the v0.0.4 content type, and
  returns funnel + registry JSON on ``/summary``.

Usage::

    python scripts/check_obs_outputs.py metrics.jsonl metrics.prom
    python scripts/check_obs_outputs.py --ledger runs/
    python scripts/check_obs_outputs.py --scrape http://127.0.0.1:9464
"""

import argparse
import hashlib
import json
import re
import urllib.request
from pathlib import Path

import _checklib
from _checklib import phase

STAGES = ("reduction", "theta_vol", "theta_churn", "theta_hm")

# name{labels} value  |  # HELP/TYPE lines  — the text exposition v0.0.4
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})? "
    r"[0-9eE+.\-]+(inf|nan)?$"
)
_PROM_META = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def check_jsonl(path: Path) -> None:
    spans = []
    snapshots = []
    for i, line in enumerate(path.read_text().splitlines(), 1):
        record = json.loads(line)  # raises on malformed lines
        if record.get("type") == "span":
            spans.append(record)
        elif record.get("type") == "metrics":
            snapshots.append(record)
        else:
            raise AssertionError(f"{path}:{i}: unknown record type {record!r}")
    by_name = {}
    for record in spans:
        by_name.setdefault(record["name"], record)
    missing = [s for s in STAGES if s not in by_name]
    assert not missing, f"missing stage spans: {missing}"
    funnel = []
    for stage in STAGES:
        record = by_name[stage]
        assert record["wall_seconds"] is not None and record["wall_seconds"] >= 0
        assert record["status"] == "ok", record
        attrs = record["attrs"]
        funnel.append((stage, attrs["input_hosts"], attrs["surviving_hosts"]))
        assert attrs["surviving_hosts"] <= attrs["input_hosts"], record
    # The funnel narrows: reduction feeds vol/churn, their union feeds hm.
    assert funnel[1][1] <= funnel[0][2], "theta_vol saw more hosts than survived reduction"
    assert funnel[3][2] <= funnel[3][1], "theta_hm emitted more hosts than it saw"
    assert snapshots, "no metrics snapshot event in JSONL"
    metrics = snapshots[-1]["metrics"]
    for required in (
        "repro_online_evaluations_total",
        "repro_emd_pairs_total",
        "repro_flows_ingested_total",
    ):
        assert metrics.get(required), f"snapshot missing {required}"
    print(f"{path}: {len(spans)} spans, funnel " + " -> ".join(
        f"{stage}:{int(n_in)}->{int(n_out)}" for stage, n_in, n_out in funnel
    ))


def _check_prom_text(text: str, origin: str) -> set:
    """Grammar-check exposition text; return the sample names seen."""
    names = set()
    for i, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            assert _PROM_META.match(line), f"{origin}:{i}: bad meta line {line!r}"
            continue
        assert _PROM_SAMPLE.match(line), f"{origin}:{i}: bad sample line {line!r}"
        names.add(line.split("{")[0].split(" ")[0])
    return names


def check_prom(path: Path) -> None:
    names = _check_prom_text(path.read_text(), str(path))
    for required in (
        "repro_stage_input_hosts",
        "repro_stage_surviving_hosts",
        "repro_stage_threshold",
        "repro_online_evaluations_total",
        "repro_span_seconds_bucket",
        "repro_flows_ingested_total",
    ):
        assert required in names, f"{path}: missing metric {required}"
    print(f"{path}: {len(names)} sample names, grammar OK")


_MANIFEST_KEYS = (
    "run_id", "kind", "status", "started", "finished",
    "duration_seconds", "funnel", "environment",
)


def check_ledger(root: Path) -> None:
    """Every run directory under ``root`` is complete and consistent."""
    run_dirs = sorted(
        entry
        for entry in root.iterdir()
        if entry.is_dir() and not entry.name.startswith(".")
    )
    assert run_dirs, f"{root}: no recorded runs"
    for run_dir in run_dirs:
        manifest_path = run_dir / "run.json"
        assert manifest_path.is_file(), f"{run_dir}: missing run.json"
        manifest = json.loads(manifest_path.read_text())
        for key in _MANIFEST_KEYS:
            assert key in manifest, f"{run_dir}: manifest missing {key!r}"
        assert manifest["run_id"] == run_dir.name, run_dir
        assert manifest["status"] in ("ok", "error"), manifest["status"]
        if manifest["status"] == "error":
            assert manifest.get("error"), f"{run_dir}: error run without summary"
        if manifest.get("suspects") is not None:
            canonical = json.dumps(sorted(manifest["suspects"]))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            assert digest == manifest.get("suspects_sha256"), (
                f"{run_dir}: suspect checksum does not recompute"
            )
        for line in (run_dir / "spans.jsonl").read_text().splitlines():
            if line.strip():
                json.loads(line)
        _check_prom_text(
            (run_dir / "metrics.prom").read_text(), str(run_dir / "metrics.prom")
        )
        json.loads((run_dir / "metrics.json").read_text())
    print(f"{root}: {len(run_dirs)} complete run(s)")


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.headers.get("Content-Type", ""), resp.read().decode("utf-8")


def check_scrape(base_url: str) -> None:
    """A live server answers all three endpoints correctly."""
    base_url = base_url.rstrip("/")
    _, health = _get(base_url + "/healthz")
    assert json.loads(health)["status"] == "ok", health
    ctype, metrics_text = _get(base_url + "/metrics")
    assert ctype.startswith("text/plain") and "version=0.0.4" in ctype, ctype
    names = _check_prom_text(metrics_text, base_url + "/metrics")
    assert names, "live /metrics exposed no samples"
    _, summary_text = _get(base_url + "/summary")
    doc = json.loads(summary_text)
    assert "metrics" in doc and "funnel" in doc, sorted(doc)
    print(
        f"{base_url}: live scrape OK "
        f"({len(names)} sample names, {len(doc['funnel'])} funnel stages)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "files",
        nargs="*",
        metavar="PATH",
        help="metrics.jsonl and metrics.prom from one run",
    )
    parser.add_argument(
        "--ledger", metavar="DIR", default=None, help="validate a run-ledger directory"
    )
    parser.add_argument(
        "--scrape",
        metavar="URL",
        default=None,
        help="validate a live /metrics server (base URL)",
    )
    args = parser.parse_args(argv)
    if not args.files and not args.ledger and not args.scrape:
        parser.error("nothing to check: pass files, --ledger, or --scrape")
    if args.files:
        if len(args.files) != 2:
            parser.error("expected exactly two files: metrics.jsonl metrics.prom")
        with phase("jsonl trace"):
            check_jsonl(Path(args.files[0]))
        with phase("prometheus text"):
            check_prom(Path(args.files[1]))
    if args.ledger:
        with phase("run ledger"):
            check_ledger(Path(args.ledger))
    if args.scrape:
        with phase("live scrape"):
            check_scrape(args.scrape)
    print("observability outputs OK")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
