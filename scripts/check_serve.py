#!/usr/bin/env python
"""Soak smoke test for the resident detection service.

Used by the CI ``serve-smoke`` job; also runnable by hand.  Drives a
real ``repro serve`` subprocess through the lifecycle an operator
fears, asserting the service contract rather than mere survival:

**Launch + discovery** — the service starts, publishes
``serve.json`` (bound URL, pid) under its spool dir, and answers
``/healthz`` + ``/metrics``.

**Ingest + live verdicts** — the synthetic trace (same generator the
extract/chaos smokes use) is fired at ``POST /ingest`` in chunks;
``/verdicts`` is polled until the finalized-window count stabilises,
proving workers tumble on the shared grid while ingest is still hot.

**Worker SIGKILL mid-window** — one worker pid (from ``/shards``) is
SIGKILLed between chunks.  The supervisor must respawn it (restart
counter increments, all shards report alive) and the replacement must
replay its shard's rows of the epoch spool — no flow may be lost, no
window double-counted.

**SIGTERM drain ≡ batch** — the service is SIGTERM-drained; its final
report (also ``drain.json``) must carry verdicts *bit-identical* to a
batch :func:`find_plotters` run over the very same flows — identical
suspect list and SHA-256 checksum — with ``duplicate_verdicts == 0``
despite the kill, and the run recorded in the ledger.  The epoch
spool then holds exactly one segment per journaled chunk with rows.

The drain report, discovery file, and run ledger land in
``--artifacts`` for CI upload.

With ``--ha`` the script instead runs the *leased-failover soak* (the
CI ``serve-ha-smoke`` job): two ``repro serve --ha`` nodes share one
spool and are driven through the full disaster catalogue —

1. **Election** — exactly one node takes the lease (fence 1), publishes
   ``serve.json`` with ``role=primary``; ingest goes through the
   :class:`repro.serve.ServeClient` library (seq-numbered chunks).
2. **SIGKILL failover** — the primary is SIGKILLed mid-run; the standby
   promotes (fence 2) after lease expiry, replays the journal, and a
   resend of an already-acked chunk comes back ``duplicate: true`` —
   the dedupe table survived the node.
3. **Crash between cut and journal** — the coordinator fault knob
   (``REPRO_FAULT_SERVE_COORD_EXIT_ONCE``) hard-exits the new primary
   at the nastiest ingest instant: rows durably cut, chunk not yet
   journaled.  The client's idempotent resend plus promotion's
   orphan-suffix truncation must yield exactly-once (fence 3).
4. **Lease stall (split brain drill)** — the heartbeat is stalled via
   ``REPRO_FAULT_SERVE_LEASE_STALL``; the standby takes over (fence 4)
   while the fenced ex-primary is still alive, must answer 409
   ``not_leader``, and must demote (not die).
5. **Saturation** — a burst larger than ``--max-backlog-rows`` must
   draw 429 + ``Retry-After`` on follow-up posts, then drain.
6. **Drain ≡ batch** — SIGTERM-drain of the final primary (incarnation
   4) must be bit-identical to batch :func:`find_plotters` over the
   union of everything ingested across all four incarnations; the
   surviving standby exits 0 on the terminal ``drained`` record, and
   each epoch spool holds exactly one segment per journaled chunk with
   rows — no cut duplicated or lost across the kills and failovers.

Knobs: ``REPRO_SERVE_SMOKE_SHARDS`` (default 2),
``REPRO_SERVE_SMOKE_WINDOW`` (default 300 s).

Usage:  python scripts/check_serve.py --artifacts serve-artifacts/
        python scripts/check_serve.py --ha --artifacts serve-ha-artifacts/
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import Counter
from pathlib import Path

import _checklib
from _checklib import phase

_checklib.bootstrap()

from check_chaos import synthesize_store  # noqa: E402

from repro.detection.pipeline import find_plotters  # noqa: E402
from repro.flows.argus import dumps  # noqa: E402
from repro.obs.ledger import suspects_checksum  # noqa: E402
from repro.resilience import RetryPolicy  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.journal import COORD_LOG_NAME  # noqa: E402
from repro.storage import SegmentStore  # noqa: E402

N_CHUNKS = 10
POLL_INTERVAL = 0.2
STARTUP_TIMEOUT = 60.0
RECOVERY_TIMEOUT = 60.0
DRAIN_TIMEOUT = 180.0

# HA soak tuning: a short lease so failovers complete in ~2 s, a
# watermark small enough that the saturation burst must overflow it.
HA_LEASE_TTL = 1.5
HA_STANDBY_POLL = 0.1
HA_MAX_BACKLOG = 512
HA_LEASE_STALL = 6.0
FAILOVER_TIMEOUT = 60.0
HA_N_CHUNKS = 12


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def _post(url: str, body: bytes):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=60) as resp:
        return json.loads(resp.read())


def _wait(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(POLL_INTERVAL)
    raise AssertionError(f"timed out after {timeout:.0f}s waiting for {what}")


def _chunks(csv_text: str, n_chunks: int):
    header, body = csv_text.split("\r\n", 1)
    rows = body.splitlines(keepends=True)
    size = max(1, len(rows) // n_chunks)
    return [
        (header + "\r\n" + "".join(rows[i : i + size])).encode()
        for i in range(0, len(rows), size)
    ]


def launch_service(spool_dir: Path, ledger_dir: Path, shards: int, window: float):
    """Start ``repro serve`` via the umbrella CLI; return (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(_checklib.REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--spool-dir",
            str(spool_dir),
            "--shards",
            str(shards),
            "--window",
            str(window),
            "--port",
            "0",
            "--ledger-dir",
            str(ledger_dir),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    discovery = spool_dir / "serve.json"

    def discovered():
        if proc.poll() is not None:
            _, err = proc.communicate()
            raise AssertionError(
                f"service exited during startup (rc={proc.returncode}): {err}"
            )
        return discovery.is_file()

    _wait(discovered, STARTUP_TIMEOUT, "serve.json discovery file")
    doc = json.loads(discovery.read_text())
    assert doc["pid"] == proc.pid, (doc["pid"], proc.pid)
    url = doc["url"]
    health = _get(url + "/healthz")
    assert health["status"] == "ok", health
    print(f"service up: {url} (pid {proc.pid}, {doc['n_shards']} shards)")
    return proc, url


def ingest_until_stable(url: str, chunks) -> None:
    """Post ``chunks``, then poll /verdicts until finalisation settles."""
    posted = 0
    for chunk in chunks:
        reply = _post(url + "/ingest", chunk)
        assert reply["rows_bad"] == 0, reply
        posted += reply["rows_ok"]
    stable = {"count": 0, "last": -1}

    def settled():
        doc = _get(url + "/verdicts")
        if doc["windows_finalized"] == stable["last"]:
            stable["count"] += 1
        else:
            stable["count"], stable["last"] = 0, doc["windows_finalized"]
        return stable["last"] > 0 and stable["count"] >= 3

    _wait(settled, RECOVERY_TIMEOUT, "verdicts to stabilise")
    doc = _get(url + "/verdicts")
    assert doc["duplicate_verdicts"] == 0, doc
    print(
        f"ingested {posted} rows; {doc['windows_finalized']} windows "
        f"finalized, {len(doc['suspects'])} live suspect(s)"
    )


def kill_one_worker(url: str) -> int:
    """SIGKILL a worker mid-stream; the supervisor must respawn it."""
    before = _get(url + "/shards")
    victim = before["workers"][0]
    os.kill(victim["pid"], signal.SIGKILL)
    print(f"SIGKILLed worker shard={victim['shard']} pid={victim['pid']}")

    def recovered():
        doc = _get(url + "/shards")
        return doc["restarts"] >= 1 and all(
            w["alive"] for w in doc["workers"]
        )

    _wait(recovered, RECOVERY_TIMEOUT, "worker respawn after SIGKILL")
    after = _get(url + "/shards")
    replacement = next(
        w for w in after["workers"] if w["shard"] == victim["shard"]
    )
    assert replacement["incarnation"] > victim["incarnation"], after
    assert replacement["pid"] != victim["pid"], after
    print(
        f"recovered: shard {victim['shard']} respawned as pid "
        f"{replacement['pid']} (incarnation {replacement['incarnation']})"
    )
    return after["restarts"]


def drain_service(proc, spool_dir: Path) -> dict:
    """SIGTERM the service and parse the drain report it prints."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=DRAIN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError(f"drain did not finish in {DRAIN_TIMEOUT:.0f}s")
    assert proc.returncode == 0, (
        f"service exited rc={proc.returncode} on drain: {err}"
    )
    report = json.loads(out.strip().splitlines()[-1])
    on_disk = json.loads((spool_dir / "drain.json").read_text())
    assert on_disk["suspects_sha256"] == report["suspects_sha256"], (
        "drain.json and the printed report disagree"
    )
    return report


def check_one_segment_per_chunk(spool_dir: Path) -> None:
    """Each epoch spool holds exactly one segment per journaled chunk
    record with rows: a cut duplicated or lost across kills and
    failover shows up as a count that differs."""
    chunks = Counter()
    for line in (spool_dir / COORD_LOG_NAME).read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "chunk" and record["rows"]:
            chunks[record["epoch"]] += 1
    segments = {
        int(directory.name.split("-", 1)[1]): SegmentStore.open(
            directory
        ).n_segments
        for directory in sorted(spool_dir.glob("epoch-*"))
    }
    epochs = sorted(set(segments) | set(chunks))
    assert [segments.get(e, 0) for e in epochs] == [chunks[e] for e in epochs], (
        f"segments per epoch {segments} != journaled chunks {dict(chunks)}"
    )
    print(
        "one segment per journaled chunk: "
        + ", ".join(f"epoch {e}: {chunks[e]}" for e in epochs)
    )


def check_ledger(ledger_dir: Path, report: dict) -> None:
    run_dirs = [
        entry
        for entry in ledger_dir.iterdir()
        if entry.is_dir() and (entry / "run.json").is_file()
    ]
    assert run_dirs, f"{ledger_dir}: service run not recorded"
    manifest = json.loads((run_dirs[-1] / "run.json").read_text())
    assert manifest["kind"] == "serve", manifest["kind"]
    assert manifest["status"] == "ok", manifest["status"]
    assert manifest["suspects_sha256"] == report["suspects_sha256"], (
        "ledger checksum differs from the drain report"
    )
    print(f"ledger OK: run {manifest['run_id']} recorded (kind=serve)")


# ---------------------------------------------------------------------------
# HA soak (--ha): leased failover, exactly-once resend, split brain, 429s
# ---------------------------------------------------------------------------


def _merge_chunks(chunks) -> bytes:
    """Concatenate CSV chunks into one payload (single header)."""
    header = chunks[0].split(b"\r\n", 1)[0]
    bodies = [chunk.split(b"\r\n", 1)[1] for chunk in chunks]
    return header + b"\r\n" + b"".join(bodies)


def launch_ha_node(
    name: str,
    spool_dir: Path,
    ledger_dir: Path,
    shards: int,
    window: float,
    fault_env: dict,
):
    """Start one ``repro serve --ha`` contender; return its process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(_checklib.REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if p
    )
    env.update(fault_env)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--ha",
            "--spool-dir",
            str(spool_dir),
            "--shards",
            str(shards),
            "--window",
            str(window),
            "--port",
            "0",
            "--ledger-dir",
            str(ledger_dir),
            "--lease-ttl",
            str(HA_LEASE_TTL),
            "--standby-poll",
            str(HA_STANDBY_POLL),
            "--max-backlog-rows",
            str(HA_MAX_BACKLOG),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    print(f"node {name} launched (pid {proc.pid})")
    return proc


def wait_primary(
    spool_dir: Path,
    *,
    fence: int,
    pid: int = None,
    timeout: float = FAILOVER_TIMEOUT,
) -> dict:
    """Block until serve.json names a live primary at this fence."""
    discovery = spool_dir / "serve.json"
    state = {}

    def promoted():
        try:
            doc = json.loads(discovery.read_text())
        except (OSError, ValueError):
            return False
        if doc.get("role") != "primary" or doc.get("incarnation") != fence:
            return False
        if pid is not None and doc.get("pid") != pid:
            return False
        try:
            if _get(doc["url"] + "/healthz")["status"] != "ok":
                return False
        except OSError:
            return False
        state.clear()
        state.update(doc)
        return True

    _wait(promoted, timeout, f"primary promotion to fence {fence}")
    print(
        f"primary: pid {state['pid']} fence {state['incarnation']} "
        f"at {state['url']}"
    )
    return dict(state)


def _reap(procs) -> None:
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.kill()
            try:
                # A killed node's workers notice orphanhood within a
                # second and release the inherited pipes.
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                pass


def check_ledger_ha(ledger_dir: Path, report: dict) -> None:
    """At least one recorded run must carry the drain's checksum."""
    manifests = [
        json.loads((entry / "run.json").read_text())
        for entry in sorted(ledger_dir.iterdir())
        if entry.is_dir() and (entry / "run.json").is_file()
    ]
    assert manifests, f"{ledger_dir}: no runs recorded"
    matching = [
        m
        for m in manifests
        if m.get("kind") == "serve"
        and m.get("status") == "ok"
        and m.get("suspects_sha256") == report["suspects_sha256"]
    ]
    assert matching, (
        f"none of the {len(manifests)} recorded runs carries the drain "
        "checksum"
    )
    print(
        f"ledger OK: {len(manifests)} run(s) recorded across the pair; "
        f"run {matching[-1]['run_id']} matches the drain checksum"
    )


def ha_main(args) -> int:
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    ledger_dir = artifacts / "ledger"

    shards = _checklib.env_int("SERVE_SMOKE_SHARDS", 2)
    window = _checklib.env_float("SERVE_SMOKE_WINDOW", 300.0)

    store = synthesize_store()
    chunks = _chunks(dumps(store), HA_N_CHUNKS)
    assert len(chunks) >= 11, f"trace too small: {len(chunks)} chunks"
    header = chunks[0].split(b"\r\n", 1)[0]
    print(
        f"synthetic trace: {len(store)} flows in {len(chunks)} chunks; "
        f"{shards} shards, {window:.0f}s windows, lease ttl "
        f"{HA_LEASE_TTL}s, backlog watermark {HA_MAX_BACKLOG} rows"
    )

    acked = []  # one ack per unique chunk, in seq order

    with tempfile.TemporaryDirectory(prefix="serve-ha-smoke-") as tmp:
        tmp = Path(tmp)
        spool_dir = tmp / "spool"
        spool_dir.mkdir()
        coord_exit = tmp / "coord-exit-once"
        lease_stall = tmp / "lease-stall"
        fault_env = {
            "REPRO_FAULT_SERVE_COORD_EXIT_ONCE": str(coord_exit),
            "REPRO_FAULT_SERVE_LEASE_STALL": str(lease_stall),
        }

        def launch(name):
            return launch_ha_node(
                name, spool_dir, ledger_dir, shards, window, fault_env
            )

        client = ServeClient(
            spool_dir,
            client_id="soak-client",
            policy=RetryPolicy(
                max_attempts=16,
                base_delay=0.2,
                multiplier=1.5,
                max_delay=1.0,
                jitter=0.3,
                retryable=lambda exc: isinstance(exc, ConnectionError),
            ),
        )

        def post(chunk: bytes) -> dict:
            reply = client.post(chunk.decode())
            assert reply["rows_bad"] == 0, reply
            acked.append(reply)
            return reply

        nodes = {}
        other = {"a": "b", "b": "a"}
        try:
            with phase("HA launch + election"):
                nodes["a"] = launch("a")
                nodes["b"] = launch("b")
                doc = wait_primary(spool_dir, fence=1)
                primary = next(
                    name
                    for name, proc in nodes.items()
                    if proc.pid == doc["pid"]
                )

            with phase("client ingest (fence 1)"):
                for chunk in chunks[:3]:
                    post(chunk)

            with phase("primary SIGKILL failover"):
                victim = nodes[primary]
                os.kill(victim.pid, signal.SIGKILL)
                victim.communicate(timeout=30)
                standby = other[primary]
                doc = wait_primary(
                    spool_dir, fence=2, pid=nodes[standby].pid
                )
                nodes[primary] = launch(primary)  # rejoin as standby
                primary = standby

            with phase("dedupe survives failover"):
                # Resend the last acked chunk with its original seq: the
                # promoted primary rebuilt the (client, seq) table from
                # the journal and must answer with a duplicate ack, not
                # re-ingest.
                reply = _post(
                    doc["url"]
                    + f"/ingest?client={client.client_id}&seq={client.seq}",
                    chunks[2],
                )
                assert reply.get("duplicate") is True, reply
                assert reply["rows_ok"] == acked[-1]["rows_ok"], reply
                print(
                    f"resend of seq {client.seq} answered duplicate ack "
                    f"({reply['rows_ok']} rows, not re-ingested)"
                )

            with phase("ingest (fence 2)"):
                for chunk in chunks[3:5]:
                    post(chunk)

            with phase("crash between cut and journal"):
                resent_before = client.stats["resent"]
                coord_exit.write_text("1\n")
                crash_victim = primary
                post(chunks[5])  # blocks across the failover
                standby = other[crash_victim]
                doc = wait_primary(
                    spool_dir, fence=3, pid=nodes[standby].pid
                )
                assert not coord_exit.exists(), "fault sentinel unclaimed"
                assert client.stats["resent"] > resent_before, (
                    "client never had to resend across the crash"
                )
                nodes[crash_victim].communicate(timeout=30)  # hard-exit reap
                nodes[crash_victim] = launch(crash_victim)
                primary = standby
                print(
                    "coordinator died after the segment cut, before the "
                    "journal append; resend landed exactly once on the "
                    f"fence-3 primary (resent={client.stats['resent']})"
                )

            with phase("ingest (fence 3)"):
                post(chunks[6])

            with phase("lease stall (split brain drill)"):
                stalled = primary
                old_url = doc["url"]
                lease_stall.write_text(f"{HA_LEASE_STALL}\n")
                standby = other[stalled]
                doc = wait_primary(
                    spool_dir, fence=4, pid=nodes[standby].pid
                )
                assert not lease_stall.exists(), "stall sentinel unclaimed"
                # The fenced ex-primary is still running (heartbeat
                # stalled, not dead): over the wire it must refuse
                # ingest with 409 until its keeper notices and demotes.
                try:
                    _post(old_url + "/ingest", header + b"\r\n")
                    raise AssertionError(
                        "fenced ex-primary accepted ingest"
                    )
                except urllib.error.HTTPError as err:
                    assert err.code == 409, err.code
                    payload = json.loads(err.read())
                    assert payload.get("not_leader") is True, payload
                    print("fenced ex-primary answers 409 not_leader")
                except urllib.error.URLError:
                    print(
                        "fenced ex-primary already demoted "
                        "(connection refused)"
                    )
                assert nodes[stalled].poll() is None, (
                    "fenced ex-primary must demote to standby, not die"
                )
                primary = standby
                post(chunks[7])  # client rediscovers the fence-4 primary
                # One more resend drill against the *final* primary so
                # the drain report itself witnesses the dedupe table
                # (duplicate_chunks is per-incarnation, not journaled).
                reply = _post(
                    doc["url"]
                    + f"/ingest?client={client.client_id}&seq={client.seq}",
                    chunks[7],
                )
                assert reply.get("duplicate") is True, reply

            with phase("saturated ingest sheds load (429)"):
                post(_merge_chunks(chunks[8:-1]))  # >> watermark rows
                rejections = 0
                for _ in range(200):
                    try:
                        _post(doc["url"] + "/ingest", header + b"\r\n")
                    except urllib.error.HTTPError as err:
                        assert err.code == 429, err.code
                        assert err.headers.get("Retry-After"), (
                            "429 without a Retry-After hint"
                        )
                        err.read()
                        rejections += 1
                        time.sleep(0.05)
                        continue
                    break  # admitted again: backlog fell below watermark
                assert rejections >= 1, (
                    "saturated coordinator never answered 429"
                )
                print(
                    f"backlog watermark held: {rejections} rejection(s) "
                    "with Retry-After, then drained and re-admitted"
                )
                post(chunks[-1])

            with phase("SIGTERM drain (fence 4)"):
                report = drain_service(nodes.pop(primary), spool_dir)
            with phase("one segment per journaled chunk"):
                check_one_segment_per_chunk(spool_dir)

            with phase("standby stands down on drained journal"):
                leftover = nodes.pop(other[primary])
                try:
                    out, err = leftover.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    leftover.kill()
                    leftover.communicate()
                    raise AssertionError(
                        "standby did not exit on the drained record"
                    )
                assert leftover.returncode == 0, (
                    f"standby exited rc={leftover.returncode}: {err}"
                )
                print("surviving standby read the drained record, rc 0")

            with phase("lease history audit"):
                history = spool_dir / "ha" / "lease-history.jsonl"
                events = [
                    json.loads(line)
                    for line in history.read_text().splitlines()
                ]
                acquired = [
                    e["fence"] for e in events if e["event"] == "acquired"
                ]
                # Exactly the four incarnations we drove (a standby may
                # briefly win a fifth fence in the release/drained race
                # and immediately stand down — benign).
                assert acquired[:4] == [1, 2, 3, 4], acquired
                assert events[-1]["event"] == "released", events[-1]
                print(
                    f"lease history: fences {acquired} acquired, "
                    f"final release by {events[-1]['holder']}"
                )

            shutil.copy(spool_dir / "drain.json", artifacts / "drain.json")
            shutil.copy(spool_dir / "coord.log", artifacts / "coord.log")
            shutil.copy(history, artifacts / "lease-history.jsonl")
        finally:
            _reap(nodes.values())

    with phase("drain ≡ batch across 4 incarnations"):
        batch = find_plotters(store)
        assert report["incarnation"] == 4, report["incarnation"]
        assert report["suspects"] == sorted(batch.suspects), (
            "drained suspects differ from batch: "
            f"{sorted(set(report['suspects']) ^ batch.suspects)}"
        )
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_ingested"] == len(store), (
            f"journal accounting drifted: {report['rows_ingested']} "
            f"of {len(store)} rows"
        )
        assert report["rows_rescored"] == len(store), (
            f"rescored {report['rows_rescored']} of {len(store)} rows"
        )
        assert report["duplicate_chunks"] >= 1, (
            "the resend drill never registered as a duplicate"
        )
        total_acked = sum(reply["rows_ok"] for reply in acked)
        assert total_acked == len(store), (
            f"client acks cover {total_acked} of {len(store)} rows"
        )
        print(
            f"drain ≡ batch: {len(report['suspects'])} suspect(s), "
            f"checksum {report['suspects_sha256'][:16]}…, "
            f"{report['windows_finalized']} windows, 4 incarnations, "
            f"client stats {client.stats}"
        )

    with phase("run ledger (HA)"):
        check_ledger_ha(ledger_dir, report)

    print("check_serve --ha: all assertions passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts",
        default="serve-artifacts",
        help="directory for the drain report and run ledger",
    )
    parser.add_argument(
        "--ha",
        action="store_true",
        help="run the leased-failover soak (two --ha nodes, SIGKILL + "
        "crash + lease-stall + saturation) instead of the single-node "
        "soak",
    )
    args = parser.parse_args()
    if args.ha:
        return ha_main(args)
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    ledger_dir = artifacts / "ledger"

    shards = _checklib.env_int("SERVE_SMOKE_SHARDS", 2)
    window = _checklib.env_float("SERVE_SMOKE_WINDOW", 300.0)

    store = synthesize_store()
    chunks = _chunks(dumps(store), N_CHUNKS)
    mid = len(chunks) * 3 // 5
    print(
        f"synthetic trace: {len(store)} flows in {len(chunks)} chunks; "
        f"{shards} shards, {window:.0f}s windows"
    )

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        spool_dir = Path(tmp) / "spool"
        spool_dir.mkdir()
        proc = None
        try:
            with phase("launch + discovery"):
                proc, url = launch_service(spool_dir, ledger_dir, shards, window)
            with phase("ingest + live verdicts"):
                ingest_until_stable(url, chunks[:mid])
            with phase("worker SIGKILL recovery"):
                restarts = kill_one_worker(url)
            with phase("post-recovery ingest"):
                ingest_until_stable(url, chunks[mid:])
            with phase("SIGTERM drain"):
                report = drain_service(proc, spool_dir)
                proc = None
            with phase("one segment per journaled chunk"):
                check_one_segment_per_chunk(spool_dir)
            shutil.copy(spool_dir / "drain.json", artifacts / "drain.json")
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.communicate()

    with phase("drain ≡ batch"):
        batch = find_plotters(store)
        assert report["suspects"] == sorted(batch.suspects), (
            "drained suspects differ from batch: "
            f"{sorted(set(report['suspects']) ^ batch.suspects)}"
        )
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_rescored"] == len(store), (
            f"rescored {report['rows_rescored']} of {len(store)} rows"
        )
        assert report["restarts"] >= restarts >= 1, report["restarts"]
        assert report["duplicate_verdicts"] == 0, (
            f"{report['duplicate_verdicts']} duplicate verdicts after restart"
        )
        print(
            f"drain ≡ batch: {len(report['suspects'])} suspect(s), "
            f"checksum {report['suspects_sha256'][:16]}…, "
            f"{report['windows_finalized']} windows, "
            f"{report['restarts']} restart(s) survived"
        )

    with phase("run ledger"):
        check_ledger(ledger_dir, report)

    print("check_serve: all assertions passed")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
