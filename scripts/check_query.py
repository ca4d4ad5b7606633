#!/usr/bin/env python
"""Query-plane smoke test: the index survives crashes, lies never.

Used by the CI ``query-smoke`` job; also runnable by hand.  Phases,
each asserting the query plane's contract rather than mere survival:

**Ingest + equivalence** — a synthetic trace is spooled into a
:class:`SegmentStore`, a :class:`QueryIndex` is built and attached,
more rows are appended through the live commit hook, and every
indexed answer (timeline, destinations) is asserted equal to
:func:`rescan_timeline`'s brute-force segment scan.

**Hook failure** — with ``REPRO_FAULT_IO_ERRORS=query-index`` the
index save raises at its I/O point; the store commit must still
succeed (hook failures never fail commits), and the now-stale on-disk
index must be detected and rebuilt on reopen.

**SIGKILL soak** — repeatedly: a child process appends rows and is
SIGKILLed *inside* the index save (``REPRO_FAULT_IO_DELAY`` holds it
at the ``query-index`` I/O point, the parent watches the manifest
generation to time the kill).  The atomic-write discipline means the
old index survives intact; reopen must report ``stale`` and the
rebuilt index must again equal a rescan.

**Torn tail** — the index file is truncated at several offsets and
bit-flipped; every mutilation must raise :class:`TornIndexError` and
``open_or_rebuild`` must recover to a rescan-equivalent index.

**Verdict DB + CLI** — a pipeline verdict is recorded twice plus one
serve-stream verdict; ``why`` / ``history`` / ``funnel`` answers are
cross-checked, and the ``repro query`` CLI is driven in-process.

Usage:  python scripts/check_query.py --artifacts query-artifacts/
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import _checklib
from _checklib import CheckFailure, env_float, env_int, phase

_checklib.bootstrap()

from repro.query.api import rescan_timeline  # noqa: E402
from repro.query.index import QueryIndex, TornIndexError  # noqa: E402
from repro.query.verdicts import VerdictDB  # noqa: E402
from repro.storage import SegmentStore  # noqa: E402

SEGMENT_ROWS = 16
N_HOSTS = 12
KILL_DELAY = 2.0  # seconds each I/O point stalls in the victim
KILL_TIMEOUT = 90.0


def synth_rows(seed: int, n_rows: int, host_base: str = "10.0.0"):
    rng = random.Random(seed)
    rows = []
    t = float(seed % 100)
    for _ in range(n_rows):
        t += rng.expovariate(1 / 30.0)
        rows.append(
            (
                f"{host_base}.{rng.randrange(N_HOSTS)}",
                f"198.51.100.{rng.randrange(20)}",
                t,
                rng.randrange(0, 4000),
                rng.random() < 0.8,
            )
        )
    return rows


def append_rows(store: SegmentStore, rows) -> None:
    writer = store.writer(segment_rows=SEGMENT_ROWS)
    for src, dst, start, nbytes, ok in rows:
        writer.append(src, dst, start, nbytes, ok)
    writer.cut()


def assert_index_equals_rescan(index: QueryIndex, store: SegmentStore) -> None:
    """Every indexed answer must be bit-equal to a brute-force scan."""
    expected_hosts = set()
    for segment in store.segments():
        expected_hosts.update(segment.hosts)
    assert set(index.hosts()) == expected_hosts, (
        f"indexed host set diverged: {sorted(set(index.hosts()) ^ expected_hosts)}"
    )
    assert index.total_rows == store.total_rows
    for host in index.hosts():
        oracle = rescan_timeline(store, host)
        timeline = index.timeline(host)
        assert timeline.rows == oracle["rows"], host
        assert timeline.first_seen == oracle["first_seen"], host
        assert timeline.last_seen == oracle["last_seen"], host
        if timeline.destinations_exact:
            assert index.destinations(host) == oracle["destinations"], host
    assert index.timeline("203.0.113.250") is None


# ----------------------------------------------------------------------
# Victim mode: append rows, die inside the index save
# ----------------------------------------------------------------------
def victim(store_dir: Path, seed: int) -> int:
    store = SegmentStore.open(store_dir)
    index, reason = QueryIndex.open_or_rebuild(store)
    assert reason is None, f"victim expected a current index, got {reason!r}"
    index.attach(store)
    # The appended segment's commit lands (stalled by the injected
    # delay), then the commit hook stalls at the query-index I/O point
    # — where the parent's SIGKILL finds us.
    append_rows(store, synth_rows(seed, 3 * SEGMENT_ROWS, host_base="10.7.0"))
    print("victim: survived the append (kill came too late)", flush=True)
    return 0


def read_generation(store_dir: Path) -> int:
    # An append commits by renaming its segment into place and leaves
    # the manifest snapshot alone: only the opened catalog moves.
    return SegmentStore.open(store_dir).generation


def kill_mid_save(store_dir: Path, seed: int) -> None:
    """Spawn the victim, SIGKILL it once the store commit has landed
    (when it is stalled inside the index save)."""
    before = read_generation(store_dir)
    env = dict(os.environ)
    env["REPRO_FAULT_IO_DELAY"] = str(KILL_DELAY)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_checklib.REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            __file__,
            "--victim",
            str(store_dir),
            "--seed",
            str(seed),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + KILL_TIMEOUT
    try:
        while read_generation(store_dir) == before:
            if proc.poll() is not None:
                raise CheckFailure(
                    "victim exited before committing: "
                    f"{proc.stdout.read().decode(errors='replace')}"
                )
            if time.monotonic() > deadline:
                raise CheckFailure("victim never committed the append")
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def check_kill_soak(store_dir: Path, rounds: int) -> None:
    for round_no in range(rounds):
        store = SegmentStore.open(store_dir)
        rows_before = store.total_rows
        # A current index must be on disk for the victim to dirty.
        index, _ = QueryIndex.open_or_rebuild(store)
        kill_mid_save(store_dir, seed=1000 + round_no)

        store = SegmentStore.open(store_dir)
        assert store.total_rows > rows_before, (
            "the killed append never became durable"
        )
        index, reason = QueryIndex.open_or_rebuild(store)
        assert reason == "stale", (
            f"round {round_no}: expected the pre-kill index to survive as "
            f"stale, got {reason!r}"
        )
        assert_index_equals_rescan(index, store)
        print(
            f"kill round {round_no}: commit durable "
            f"({rows_before} -> {store.total_rows} rows), stale index "
            "rebuilt, rescan-equivalent"
        )


def check_torn_tail(store_dir: Path) -> None:
    store = SegmentStore.open(store_dir)
    index, _ = QueryIndex.open_or_rebuild(store)
    path = index.path
    pristine = path.read_bytes()
    cuts = sorted(
        {len(pristine) // 3, len(pristine) // 2, len(pristine) - 2}
    )
    for cut in cuts:
        path.write_bytes(pristine[:cut])
        try:
            QueryIndex.load(store_dir)
        except TornIndexError:
            pass
        else:
            raise CheckFailure(f"truncation at byte {cut} went undetected")
        rebuilt, reason = QueryIndex.open_or_rebuild(store)
        assert reason == "torn", f"cut at {cut}: reason {reason!r}"
        assert_index_equals_rescan(rebuilt, store)
    # One flipped byte in the middle must fail the CRC, too.
    flipped = bytearray(pristine)
    flipped[len(flipped) // 2] ^= 0xFF
    path.write_bytes(bytes(flipped))
    try:
        QueryIndex.load(store_dir)
    except TornIndexError:
        pass
    else:
        raise CheckFailure("bit flip went undetected")
    rebuilt, reason = QueryIndex.open_or_rebuild(store)
    assert reason == "torn"
    assert_index_equals_rescan(rebuilt, store)
    print(f"torn tail OK: cuts at {cuts} + bit flip all detected and rebuilt")


def check_hook_failure(store_dir: Path) -> None:
    store = SegmentStore.open(store_dir)
    index, _ = QueryIndex.open_or_rebuild(store)
    hook = index.attach(store)
    os.environ["REPRO_FAULT_IO_ERRORS"] = "query-index"
    try:
        append_rows(store, synth_rows(5, 2 * SEGMENT_ROWS, host_base="10.8.0"))
    finally:
        del os.environ["REPRO_FAULT_IO_ERRORS"]
        store.remove_commit_hook(hook)
    reopened, reason = QueryIndex.open_or_rebuild(store)
    assert reason == "stale", (
        f"failed hook save should leave a stale index, got {reason!r}"
    )
    assert_index_equals_rescan(reopened, store)
    print("hook failure OK: commit durable, stale index rebuilt on reopen")


# ----------------------------------------------------------------------
# Verdict DB + CLI
# ----------------------------------------------------------------------
def synth_result():
    from repro.detection.pipeline import PipelineResult
    from repro.detection.testbase import TestResult

    rng = random.Random(11)
    hosts = [f"10.0.0.{h}" for h in range(N_HOSTS)]
    vol = {h: rng.uniform(0.0, 2000.0) for h in hosts}
    vol_sel = frozenset(h for h in hosts if vol[h] < 600.0)
    churn = {h: rng.uniform(0.0, 1.0) for h in hosts}
    churn_sel = frozenset(h for h in hosts if churn[h] < 0.35)
    union = vol_sel | churn_sel
    hm = {h: rng.uniform(0.0, 1.0) for h in union}
    hm_sel = frozenset(h for h in union if hm[h] < 0.4)
    return PipelineResult(
        input_hosts=frozenset(hosts),
        reduction=None,
        volume=TestResult("volume", vol_sel, 600.0, vol),
        churn=TestResult("churn", churn_sel, 0.35, churn),
        hm=TestResult("human-machine", hm_sel, 0.4, hm),
    )


def run_cli(argv) -> dict:
    from repro.query.cli import main as query_cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = query_cli(list(argv) + ["--json"])
    assert rc == 0, f"repro query {' '.join(argv)} exited {rc}"
    return json.loads(buffer.getvalue())


def check_verdicts_and_cli(store_dir: Path, db_path: Path) -> dict:
    result = synth_result()
    assert result.suspects, "synthetic verdict produced no suspects"
    suspect = sorted(result.suspects)[0]
    with VerdictDB(db_path) as db:
        db.record_batch(result, evaluated_at=1000.0)
        db.record_batch(result, evaluated_at=2000.0)
        db.record_serve_verdict(
            0,
            "shard-00",
            {
                "evaluated_at": 3000.0,
                "window_index": 3,
                "suspects": sorted(result.suspects),
                "reduced": sorted(result.union_vol_churn),
                "hosts_seen": len(result.input_hosts),
            },
        )
        # The latest window is the serve one: flag yes, stage rows no
        # (live verdicts carry host sets only).
        why = db.why(suspect)
        assert why["flagged"], suspect
        assert why["stages"] == {}
        batch_window = next(
            w["id"] for w in db.windows() if w["source"] == "batch"
        )
        why = db.why(suspect, window_id=batch_window)
        assert set(why["stages"]) == {"volume", "churn", "human-machine"}
        history = db.history(suspect)
        assert [w["evaluated_at"] for w in history] == [1000.0, 2000.0, 3000.0]
        drops = db.funnel_drop("theta_vol", "theta_hm")
        for drop in drops:
            assert drop["host"] not in result.suspects

    doc = run_cli(["why", suspect, "--db", str(db_path)])
    assert doc["flagged"] is True
    rows = run_cli(["history", suspect, "--db", str(db_path)])
    assert len(rows) == 3
    funnel = run_cli(
        ["funnel", "--survived", "theta_vol", "--died", "theta_hm",
         "--db", str(db_path)]
    )
    assert funnel == drops
    overview = run_cli(
        ["overview", "--store-dir", str(store_dir), "--db", str(db_path)]
    )
    assert overview["db"]["windows"] == 3
    assert overview["index"]["rows"] > 0
    print(
        f"verdicts + CLI OK: {len(result.suspects)} suspects, "
        f"{len(drops)} funnel drops, 3-window history served"
    )
    return overview


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts",
        default="query-artifacts",
        help="directory for the overview + index summary artifacts",
    )
    parser.add_argument("--victim", metavar="STORE_DIR", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.victim:
        return victim(Path(args.victim), args.seed)

    rounds = env_int("QUERY_KILL_ROUNDS", 3)
    global KILL_DELAY
    KILL_DELAY = env_float("QUERY_KILL_DELAY", KILL_DELAY)

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(prefix="query-smoke-") as tmp_str:
        tmp = Path(tmp_str)
        store_dir = tmp / "store"
        store = SegmentStore.create(store_dir)
        append_rows(store, synth_rows(1, 8 * SEGMENT_ROWS))

        with phase("ingest + index equivalence"):
            index, reason = QueryIndex.open_or_rebuild(store)
            assert reason == "missing"
            hook = index.attach(store)
            append_rows(store, synth_rows(2, 2 * SEGMENT_ROWS))
            assert_index_equals_rescan(index, store)
            store.remove_commit_hook(hook)
        with phase("hook failure"):
            check_hook_failure(store_dir)
        with phase(f"SIGKILL soak ({rounds} rounds)"):
            check_kill_soak(store_dir, rounds)
        with phase("torn tail"):
            check_torn_tail(store_dir)
        with phase("verdict DB + CLI"):
            overview = check_verdicts_and_cli(
                store_dir, tmp / "verdicts.sqlite"
            )

        (artifacts / "overview.json").write_text(
            json.dumps(overview, indent=2) + "\n"
        )
    print("check_query: all assertions passed")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
