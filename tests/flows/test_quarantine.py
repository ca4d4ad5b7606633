"""Quarantine parsing: a pinned malformed-row corpus through every policy.

The corpus interleaves six well-formed rows with five malformed ones —
one per failure class the parser must survive (arity, float, int, enum,
hex).  Counts, line numbers, dead-letter contents and metric deltas are
pinned exactly so a parsing change that silently reclassifies rows
fails here.
"""

import csv

import pytest

from repro import obs
from repro.flows import FlowRecord, Protocol
from repro.flows.argus import (
    ARGUS_COLUMNS,
    DEAD_LETTER_COLUMNS,
    PARSE_ERROR_MODES,
    default_dead_letter_path,
    dumps,
    flow_to_row,
    loads,
    loads_columns,
    loads_report,
    read_flows,
    read_flows_report,
    row_to_flow,
    write_flows,
)


def good_flow(i):
    return FlowRecord(
        src=f"10.0.0.{i}",
        dst="8.8.8.8",
        sport=1000 + i,
        dport=53,
        proto=Protocol.UDP,
        start=float(i),
        end=float(i) + 1.0,
        src_bytes=100,
        dst_bytes=200,
        payload=b"\x01\x02",
    )


GOOD = [good_flow(i) for i in range(6)]


def bad_rows():
    """Five malformed rows, one per failure class."""
    base = flow_to_row(good_flow(99))
    wrong_arity = ["garbage", "row"]
    bad_float = list(base)
    bad_float[0] = "notafloat"
    bad_int = list(base)
    bad_int[4] = "12.5"
    bad_enum = list(base)
    bad_enum[2] = "icmp"
    bad_hex = list(base)
    bad_hex[12] = "zz"
    return [wrong_arity, bad_float, bad_int, bad_enum, bad_hex]


def corpus_text():
    """Good and bad rows interleaved; returns (csv_text, bad_linenos)."""
    lines = [",".join(ARGUS_COLUMNS)]
    bad_linenos = []
    bad = bad_rows()
    for i, flow in enumerate(GOOD):
        lines.append(",".join(flow_to_row(flow)))
        if i < len(bad):
            lines.append(",".join(bad[i]))
            bad_linenos.append(len(lines))
    return "\r\n".join(lines) + "\r\n", bad_linenos


class TestStrictDefault:
    def test_strict_is_the_default_and_raises_with_line_context(self):
        text, bad_linenos = corpus_text()
        with pytest.raises(ValueError, match=rf"<string>:{bad_linenos[0]}:"):
            loads(text)

    def test_read_flows_strict_names_the_file(self, tmp_path):
        text, bad_linenos = corpus_text()
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        with pytest.raises(ValueError, match=rf"trace\.csv:{bad_linenos[0]}:"):
            read_flows(trace)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown errors mode"):
            loads("x", errors="ignore")
        assert PARSE_ERROR_MODES == ("strict", "skip", "quarantine")


class TestSkip:
    def test_pinned_counts_and_surviving_flows(self):
        text, _ = corpus_text()
        store, report = loads_report(text, errors="skip")
        assert report.rows_ok == 6
        assert report.rows_skipped == 5
        assert report.rows_quarantined == 0
        assert report.rows_bad == 5
        assert report.dead_letter is None
        assert sorted(f.src for f in store) == sorted(f.src for f in GOOD)

    def test_error_samples_carry_line_numbers(self):
        text, bad_linenos = corpus_text()
        _, report = loads_report(text, errors="skip")
        assert len(report.error_samples) == 5
        for sample, lineno in zip(report.error_samples, bad_linenos):
            assert sample.startswith(f"<string>:{lineno}:")


class TestQuarantine:
    def test_dead_letter_file_contents_pinned(self, tmp_path):
        text, _ = corpus_text()
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        dead = tmp_path / "dead.csv"
        store, report = read_flows_report(
            trace, errors="quarantine", dead_letter=dead
        )
        assert report.rows_ok == 6
        assert report.rows_quarantined == 5
        assert report.dead_letter == str(dead)
        assert len(store) == 6

        with open(dead, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == DEAD_LETTER_COLUMNS
        assert len(rows) == 1 + 5
        for row in rows[1:]:
            # Raw fields padded/truncated to the trace arity + error.
            assert len(row) == len(ARGUS_COLUMNS) + 1
            assert row[-1]  # the error column is never empty
        # The arity failure keeps its surviving raw fields.
        assert rows[1][0] == "garbage"
        assert rows[1][1] == "row"
        assert "expected 13 columns" in rows[1][-1]

    def test_default_dead_letter_path_beside_trace(self, tmp_path):
        text, _ = corpus_text()
        trace = tmp_path / "day0.flows.csv"
        trace.write_text(text)
        _, report = read_flows_report(trace, errors="quarantine")
        expected = tmp_path / "day0.flows.csv.deadletter.csv"
        assert default_dead_letter_path(trace) == expected
        assert report.dead_letter == str(expected)
        assert expected.exists()

    def test_repeated_reads_accumulate_in_dead_letter(self, tmp_path):
        text, _ = corpus_text()
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        dead = tmp_path / "dead.csv"
        read_flows_report(trace, errors="quarantine", dead_letter=dead)
        read_flows_report(trace, errors="quarantine", dead_letter=dead)
        with open(dead, newline="") as fh:
            rows = list(csv.reader(fh))
        # One header, then 5 rows per read: append-mode, no overwrite.
        assert len(rows) == 1 + 10

    def test_clean_trace_writes_no_dead_letter(self, tmp_path):
        trace = tmp_path / "trace.csv"
        write_flows(trace, GOOD)
        dead = tmp_path / "dead.csv"
        _, report = read_flows_report(
            trace, errors="quarantine", dead_letter=dead
        )
        assert report.rows_bad == 0
        assert not dead.exists()  # the writer opens lazily

    def test_loads_quarantine_without_dead_letter_just_counts(self):
        text, _ = corpus_text()
        store, report = loads_report(text, errors="quarantine")
        assert report.rows_quarantined == 5
        assert report.dead_letter is None
        assert len(store) == 6


class TestDeadLetterOpenContract:
    """The dead-letter CSV is opened lazily, at most once per read call.

    Every physical open passes through the ``dead-letter`` fault point,
    so counting its hits counts opens exactly.  A regression to
    per-batch reopening would multiply the count (and the header-write
    races that come with it); this pins it at one."""

    def test_one_open_per_read_despite_many_bad_rows(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience import faults as faults_module

        text, _ = corpus_text()
        trace = tmp_path / "trace.csv"
        trace.write_text(text)

        opens = []
        real_io_point = faults_module.io_point

        def counting_io_point(tag):
            if tag == "dead-letter":
                opens.append(tag)
            return real_io_point(tag)

        monkeypatch.setattr(faults_module, "io_point", counting_io_point)
        _, report = read_flows_report(
            trace, errors="quarantine", dead_letter=tmp_path / "dead.csv"
        )
        assert report.rows_quarantined == 5
        assert len(opens) == 1

    def test_second_read_opens_again_and_appends(self, tmp_path, monkeypatch):
        from repro.resilience import faults as faults_module

        text, _ = corpus_text()
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        dead = tmp_path / "dead.csv"

        opens = []
        real_io_point = faults_module.io_point

        def counting_io_point(tag):
            if tag == "dead-letter":
                opens.append(tag)
            return real_io_point(tag)

        monkeypatch.setattr(faults_module, "io_point", counting_io_point)
        read_flows_report(trace, errors="quarantine", dead_letter=dead)
        read_flows_report(trace, errors="quarantine", dead_letter=dead)
        assert len(opens) == 2  # one open per call, not per bad row
        with open(dead, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 10  # single header, appended rows


class TestBomTolerance:
    def test_loads_with_leading_bom(self):
        text, _ = corpus_text()
        store = loads("﻿" + text, errors="skip")
        assert len(store) == 6

    def test_read_flows_with_bom_file(self, tmp_path):
        trace = tmp_path / "bom.csv"
        trace.write_bytes(b"\xef\xbb\xbf" + dumps(GOOD).encode())
        store = read_flows(trace)
        assert sorted(f.src for f in store) == sorted(f.src for f in GOOD)


class TestIngestMetrics:
    def test_counter_deltas_pinned(self, tmp_path):
        obs.clear_sinks()
        obs.get_registry().reset()
        obs.enable()
        try:
            text, _ = corpus_text()
            trace = tmp_path / "trace.csv"
            trace.write_text(text)
            loads(text, errors="skip")
            read_flows_report(
                trace, errors="quarantine", dead_letter=tmp_path / "dl.csv"
            )
            registry = obs.get_registry()
            ok = registry.counter("repro_ingest_rows_ok_total")
            skipped = registry.counter("repro_ingest_rows_skipped_total")
            quarantined = registry.counter(
                "repro_ingest_rows_quarantined_total"
            )
            assert ok.value() == 12.0
            assert skipped.value() == 5.0
            assert quarantined.value() == 5.0
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.clear_sinks()


def torn_text(newline="\r\n"):
    """Two good rows, a torn row whose unterminated quote swallows the
    next lines until its field passes ``csv.field_size_limit``, then
    two good rows.  Returns ``(text, lineno of the tokenizer error)``."""
    filler = "y" * (csv.field_size_limit() // 2 + 10)
    lines = [",".join(ARGUS_COLUMNS)]
    lines += [",".join(flow_to_row(flow)) for flow in GOOD[:2]]
    lines += ['1.0,"torn', filler, filler]
    error_lineno = len(lines)
    lines += [",".join(flow_to_row(flow)) for flow in GOOD[2:4]]
    return newline.join(lines) + newline, error_lineno


class TestTokenizerErrors:
    """``csv.reader`` raises ``csv.Error``, not ``ValueError``, for a
    field past the field size limit; it is one more malformed row."""

    def test_strict_raises_value_error_with_line(self, tmp_path):
        text, lineno = torn_text()
        with pytest.raises(ValueError, match=rf"<string>:{lineno}: field larger"):
            loads(text)
        trace = tmp_path / "torn.csv"
        trace.write_text(text)
        with pytest.raises(ValueError, match=rf"torn\.csv:{lineno}: field larger"):
            read_flows(trace)

    @pytest.mark.parametrize("errors", ["skip", "quarantine"])
    def test_lenient_modes_count_it_and_resume_at_next_line(self, errors):
        limit = csv.field_size_limit()
        text, lineno = torn_text()
        store, report = loads_report(text, errors=errors)
        assert report.rows_ok == 4
        assert report.rows_bad == 1
        assert report.error_samples == [
            f"<string>:{lineno}: field larger than field limit ({limit})"
        ]
        assert sorted(f.src for f in store) == sorted(f.src for f in GOOD[:4])
        assert csv.field_size_limit() == limit  # no process-global change

    def test_quarantine_dead_letters_the_error(self, tmp_path):
        text, _ = torn_text("\n")
        trace = tmp_path / "torn.csv"
        trace.write_text(text)
        dead = tmp_path / "dead.csv"
        view, report = read_flows_report(
            trace, errors="quarantine", dead_letter=dead,
            to_store=tmp_path / "spool",
        )
        assert (report.rows_ok, report.rows_quarantined) == (4, 1)
        assert view.store.total_rows == 4
        with open(dead, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == [""] * len(ARGUS_COLUMNS) + [
            f"field larger than field limit ({csv.field_size_limit()})"
        ]


class TestCountsBeyondInt64:
    """Counts are stored as int64: a larger one is a malformed row."""

    def huge_row(self, field_name):
        row = flow_to_row(good_flow(7))
        row[ARGUS_COLUMNS.index(field_name)] = str(10**20)
        return row

    @pytest.mark.parametrize(
        "field_name", ["src_pkts", "dst_pkts", "src_bytes", "dst_bytes"]
    )
    def test_row_to_flow_rejects(self, field_name):
        with pytest.raises(ValueError, match="int64"):
            row_to_flow(self.huge_row(field_name))

    def test_int64_max_is_accepted(self):
        row = flow_to_row(good_flow(7))
        row[ARGUS_COLUMNS.index("src_bytes")] = str(2**63 - 1)
        assert row_to_flow(row).src_bytes == 2**63 - 1

    def text(self):
        rows = [flow_to_row(flow) for flow in GOOD]
        rows.insert(3, self.huge_row("src_bytes"))
        return "\r\n".join(",".join(r) for r in [list(ARGUS_COLUMNS)] + rows) + "\r\n"

    def test_reader_skips_it(self):
        store, report = loads_report(self.text(), errors="skip")
        assert (report.rows_ok, report.rows_skipped) == (6, 1)
        assert "int64" in report.error_samples[0]
        assert len(store) == 6

    def test_spool_skips_it_and_completes(self, tmp_path):
        trace = tmp_path / "huge.csv"
        trace.write_text(self.text())
        view, report = read_flows_report(
            trace, errors="skip", to_store=tmp_path / "spool", segment_rows=2
        )
        assert (report.rows_ok, report.rows_skipped) == (6, 1)
        assert view.store.total_rows == 6
        assert int(view.store.gather().src_bytes.max()) == 100


class TestNonFiniteTimes:
    """``float`` parses ``nan``/``inf``/``-inf`` and ``end < start`` is
    false for NaN: a row with a non-finite time is one malformed row."""

    def text(self, column, value):
        row = flow_to_row(good_flow(7))
        row[ARGUS_COLUMNS.index(column)] = value
        rows = [flow_to_row(flow) for flow in GOOD]
        rows.insert(3, row)  # line 5, after the header and three rows
        lines = [",".join(r) for r in [list(ARGUS_COLUMNS)] + rows]
        return "\r\n".join(lines) + "\r\n"

    @pytest.mark.parametrize("column", ["start", "end"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("errors", PARSE_ERROR_MODES)
    def test_one_malformed_row_under_every_policy(self, errors, value, column):
        text = self.text(column, value)
        message = "<string>:5: flow times must be finite"
        if errors == "strict":
            for read in (loads_report, loads_columns):
                with pytest.raises(ValueError, match=message):
                    read(text, errors="strict")
            return
        store, report = loads_report(text, errors=errors)
        assert (report.rows_ok, report.rows_bad) == (6, 1)
        assert report.error_samples[0].startswith(message)
        assert sorted(f.src for f in store) == sorted(f.src for f in GOOD)
        columns, report = loads_columns(text, errors=errors)
        assert (len(columns.start), report.rows_bad) == (6, 1)

    def test_spool_keeps_only_finite_times(self, tmp_path):
        trace = tmp_path / "nan.csv"
        trace.write_text(self.text("start", "nan"))
        view, report = read_flows_report(
            trace, errors="skip", to_store=tmp_path / "spool", segment_rows=2
        )
        assert (report.rows_ok, report.rows_skipped) == (6, 1)
        assert view.store.total_rows == 6
