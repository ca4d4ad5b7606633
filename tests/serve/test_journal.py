"""Coordinator journal: replay, torn tails, tailing, dedupe state."""

from __future__ import annotations

import json

from repro.serve.journal import CoordinatorLog, LogState, LogTail


def _chunk(client, seq, epoch=0, rows=10, cum=None, reply=None):
    return {
        "kind": "chunk",
        "client": client,
        "seq": seq,
        "epoch": epoch,
        "rows": rows,
        "cum": cum,
        "reply": reply or {"rows_ok": rows},
    }


class TestLogState:
    def test_replay_rebuilds_every_table(self):
        state = LogState()
        state.apply({"kind": "epoch", "epoch": 0, "n_shards": 2})
        state.apply(_chunk("c1", 1, cum=10))
        state.apply(_chunk("c1", 2, cum=20))
        state.apply(
            {
                "kind": "verdict",
                "epoch": 0,
                "shard": 0,
                "grid": 3,
                "verdict": {"evaluated_at": 900.0},
            }
        )
        state.apply({"kind": "epoch", "epoch": 1, "n_shards": 3})
        assert state.epoch == 1
        assert state.n_shards == 3
        assert state.applied["c1"][0] == 2
        assert state.cum == {0: 20}
        assert state.accepted[(0, 0, 3)] == {"evaluated_at": 900.0}
        assert state.last_final_end[(0, 0)] == 900.0
        assert state.rows_ingested == 20
        assert not state.drained
        assert not state.per_shard_layout

    def test_per_shard_cum_flags_the_old_layout(self):
        state = LogState()
        state.apply(_chunk("c1", 1, cum=10))
        assert not state.per_shard_layout
        state.apply(_chunk("c1", 2, cum={"0": 15, "1": 5}))
        assert state.per_shard_layout
        assert state.cum == {0: 10}

    def test_seen_answers_for_current_and_earlier_seq(self):
        state = LogState()
        state.apply(_chunk("c1", 3, reply={"rows_ok": 7}))
        assert state.seen("c1", 3) == {"rows_ok": 7}
        assert state.seen("c1", 2) == {"rows_ok": 7}  # earlier → replayed
        assert state.seen("c1", 4) is None
        assert state.seen("c2", 1) is None

    def test_unknown_kinds_are_skipped(self):
        state = LogState()
        state.apply({"kind": "future-extension", "x": 1})
        assert state.records == 1
        assert state.epoch is None


class TestTornTail:
    def test_tail_does_not_consume_incomplete_line(self, tmp_path):
        path = tmp_path / "coord.log"
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "epoch", "epoch": 0, "n_shards": 2}))
            fh.write("\n")
            fh.write('{"kind": "chunk", "cli')  # torn mid-append
        tail = LogTail(path)
        assert tail.advance() == 1
        assert tail.state.epoch == 0
        # The torn fragment stays unread; completing it makes it land.
        with open(path, "a") as fh:
            fh.write('ent": "c1", "seq": 1, "epoch": 0, "rows": 3, '
                     '"cum": {}, "reply": {}}\n')
        assert tail.advance() == 1
        assert tail.state.applied["c1"][0] == 1

    def test_writer_truncates_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "coord.log"
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "epoch", "epoch": 0, "n_shards": 2}))
            fh.write("\n")
            fh.write('{"kind": "chu')
        with CoordinatorLog(path) as log:
            log.append({"kind": "drained"})
        state = CoordinatorLog.load_state(path)
        assert state.records == 2
        assert state.drained
        # No torn bytes survive in the file.
        lines = path.read_bytes().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_missing_file_reads_as_empty_state(self, tmp_path):
        tail = LogTail(tmp_path / "nope.log")
        assert tail.advance() == 0
        assert tail.state.records == 0


class TestIncrementalTail:
    def test_standby_tail_tracks_live_appends(self, tmp_path):
        path = tmp_path / "coord.log"
        log = CoordinatorLog(path)
        tail = LogTail(path)
        log.append({"kind": "epoch", "epoch": 0, "n_shards": 2})
        assert tail.advance() == 1
        log.append(_chunk("c1", 1))
        log.append(_chunk("c1", 2))
        assert tail.advance() == 2
        assert tail.advance() == 0  # nothing new
        assert tail.state.applied["c1"][0] == 2
        log.close()

    def test_undecodable_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "coord.log"
        path.write_bytes(b'not json at all\n{"kind": "drained"}\n')
        state = CoordinatorLog.load_state(path)
        assert state.drained
        assert state.records == 1
