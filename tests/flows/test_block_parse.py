"""The block parser against its oracle, a per-row ``row_to_flow`` loop.

``flows.argus`` parses each screened CSV block with numpy's text reader
and checks it column-wise, and sends every other block (one the screen,
numpy or a check flags) down the row path, ``csv.reader`` and
:func:`row_to_flow`, so :func:`row_to_flow` alone decides which rows
survive.  The traces here mix good rows with every kind of mangled row
(arity, odd numeric strings, enums, hex, ranges, blank lines, quoted
newlines, tokenizer errors, and the characters on which numpy's reader
and ``csv.reader`` could part), sized around the block boundary, with
and without a quoted host in every block, and go through all three
policies and all three readers.  Everything
observable must equal the reference loop kept in this file: the report,
the error samples with their line numbers, the dead-letter bytes, the
counter deltas and the surviving records or segment bytes — also what
a strict-mode failure leaves committed in the store.
"""

from __future__ import annotations

import csv
import io
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.flows import argus
from repro.flows.argus import (
    _BLOCK_ROWS,
    _REPORT_ERROR_CAP,
    ARGUS_COLUMNS,
    _read_table,
    _screened,
    DEAD_LETTER_COLUMNS,
    PARSE_ERROR_MODES,
    dumps,
    flow_to_row,
    loads_columns,
    loads_report,
    read_flows_report,
    row_to_flow,
)
from repro.flows.store import FlowStore
from repro.storage import fresh_store

HOSTS = [f"10.0.0.{i}" for i in range(5)] + ["10.0.0.9\nmultiline"]
#: Hosts csv.writer leaves unquoted: a block of good rows over these
#: reaches numpy's reader, where one quoted host sends it down the row
#: path.
PLAIN_HOSTS = HOSTS[:-1]
COUNTERS = (
    "repro_ingest_rows_ok_total",
    "repro_ingest_rows_skipped_total",
    "repro_ingest_rows_quarantined_total",
)
FLOAT_FIELDS = (0, 1)
PORT_FIELDS = (4, 6)
#: loads_columns' column dtypes: src, dst, start, src_bytes, success.
COLUMN_DTYPES = [np.dtype(t) for t in (object, object, np.float64, np.int64, bool)]
COUNT_FIELDS = (7, 8, 9, 10)
NUMERIC = (
    "nan", "inf", "-inf", "1_0", " 5 ", "+5", "-1", "5.5", "", "0x1",
    "1e3", str(2**63 - 1), str(2**63), str(10**20), "65535", "65536",
)


def good_row(i: int, hosts: list = HOSTS) -> list:
    # Starts are not monotone, so the start-ordered readers reorder.
    start = float((i * 7919) % 1013) + i / 8.0
    return [
        repr(start),
        repr(start + (i % 4)),
        ("tcp", "udp")[i % 2],
        hosts[i % len(hosts)],
        str(1024 + i),
        f"192.168.0.{i % 7}",
        "80",
        str(i % 5),
        str(i % 3),
        str(100 * (i % 11)),
        str(i % 2),
        ("est", "rej", "timeout")[i % 3],
        "0a0b" * (i % 3),
    ]


def mangle(row: list, kind: str, a, b) -> object:
    """A mangled copy of ``row`` (a list), or raw text for what the CSV
    writer cannot produce (blank lines, tokenizer errors)."""
    row = list(row)
    if kind == "arity":
        return row[:a] if a < len(row) else row + ["extra"] * (a - len(row))
    if kind == "set":
        row[a] = b
    elif kind == "suffix":  # a quoted newline: one row, two lines
        row[a] += b
    elif kind == "end_before_start":
        row[1] = repr(float(row[0]) - a)
    elif a == "blank":
        return ""
    elif a == "oversized":
        return "x" * (csv.field_size_limit() + 1) + ",1"
    elif a == "torn":  # the unterminated quote swallows two lines
        filler = "y" * (csv.field_size_limit() // 2 + 10)
        return '1.0,"torn\n' + filler + "\n" + filler
    elif a == "bare_cr":  # a line break to a file, an error to a string
        return ",".join(row[:3]) + "\r" + ",".join(row[3:])
    elif a == "spaces":
        return " \t "
    elif a == "quote_at_block_end":
        # Inserted after the header and five rows, as the single-mangle
        # test inserts it, the blank lines push the quoted field's first
        # line to the first block's last line, so the row path must pull
        # the next line to close it.
        row[3] += "\nspill"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(row)
        return "\n" * (_BLOCK_ROWS - 6) + buf.getvalue()
    return row


#: Every single-row mangle, as ``(kind, a, b)`` for :func:`mangle`.
SINGLE_MANGLES = (
    [("arity", n, None) for n in (1, 2, 6, 12, 14)]
    + [
        ("set", f, v)
        for f in FLOAT_FIELDS + PORT_FIELDS + COUNT_FIELDS
        for v in NUMERIC
    ]
    + [("set", 2, v) for v in ("icmp", "TCP", "", " tcp", "udp")]
    + [("set", 11, v) for v in ("EST", "established", "", "rej ", "timeout")]
    + [("set", 12, v) for v in ("abc", "zz", "0g", "a" * 129, "ab" * 65, "01 02")]
    + [("set", f, v) for f in PORT_FIELDS for v in ("-1", "65536", "65535", "0")]
    + [("set", f, v) for f in COUNT_FIELDS for v in ("-1", "-9")]
    + [("end_before_start", d, None) for d in (0.5, 3.0)]
    + [("suffix", f, "\nspill") for f in (2, 3, 5, 11)]
    + [("raw", r, None) for r in ("blank", "oversized", "torn")]
    # Where numpy's reader and csv.reader could split a line apart: the
    # screen must send each of these down the row path.
    + [("raw", r, None) for r in ("bare_cr", "spaces", "quote_at_block_end")]
    + [("set", 3, v) for v in ('10.0.0.1"quoted', "10.0.0.1\0nul")]
    + [("set", 0, "#1.0"), ("set", 0, "# x"), ("set", 0, "1.0\x1c"), ("set", 4, "\x1f80")]
    + [("set", 3, "h" * n) for n in (csv.field_size_limit(), csv.field_size_limit() + 1)]
)


@st.composite
def traces(draw, hosts: list = HOSTS):
    """Trace text: good rows sized around the block boundary with
    mangled rows spliced in, ``\r\n`` or ``\n`` line ends, maybe a BOM."""
    b = _BLOCK_ROWS
    n_good = draw(st.sampled_from([0, 1, 7, b - 2, b - 1, b, b + 1, 2 * b + 3]))
    inserts = draw(
        st.lists(
            st.tuples(st.integers(0, n_good), st.sampled_from(SINGLE_MANGLES)),
            max_size=4,
        )
    )
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    bom = draw(st.booleans())
    items = [good_row(i, hosts) for i in range(n_good)]
    for pos, (kind, a, b) in sorted(inserts, key=lambda t: t[0], reverse=True):
        items.insert(pos, mangle(good_row(pos, hosts), kind, a, b))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(ARGUS_COLUMNS)
    for item in items:
        if isinstance(item, str):
            buf.write(item + newline)
        else:
            writer.writerow(item)
    return ("\ufeff" if bom else "") + buf.getvalue()


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
class Reference:
    """The per-row read: ``csv.reader`` row by row, ``row_to_flow`` per
    row, a tokenizer error as a malformed row with empty fields."""

    def __init__(self, reader, source: str, errors: str) -> None:
        self.reader, self.source, self.errors = reader, source, errors
        self.counts = {"rows_ok": 0, "rows_skipped": 0, "rows_quarantined": 0}
        self.samples: list = []
        self.dead_rows: list = []

    def _bad(self, row, exc) -> None:
        message = f"{self.source}:{self.reader.line_num}: {exc}"
        if self.errors == "strict":
            raise ValueError(message)
        if len(self.samples) < _REPORT_ERROR_CAP:
            self.samples.append(message)
        if self.errors == "quarantine":
            self.counts["rows_quarantined"] += 1
            width = len(ARGUS_COLUMNS)
            self.dead_rows.append((list(row) + [""] * width)[:width] + [str(exc)])
        else:
            self.counts["rows_skipped"] += 1

    def flows(self):
        header = next(self.reader)
        assert [header[0].lstrip("\ufeff")] + header[1:] == list(ARGUS_COLUMNS)
        while True:
            try:
                row = next(self.reader)
            except StopIteration:
                return
            except csv.Error as exc:
                self._bad([], exc)
                continue
            if not row:
                continue
            try:
                flow = row_to_flow(row)
            except ValueError as exc:
                self._bad(row, exc)
                continue
            self.counts["rows_ok"] += 1
            yield flow

    def counter_deltas(self, failed: bool) -> tuple:
        ok = 0 if failed else self.counts["rows_ok"]
        return (ok, self.counts["rows_skipped"], self.counts["rows_quarantined"])

    def dead_letter_bytes(self, path: Path):
        if not self.dead_rows:
            return None
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(DEAD_LETTER_COLUMNS)
            writer.writerows(self.dead_rows)
        return path.read_bytes()


def counter_values() -> tuple:
    registry = obs.get_registry()
    return tuple(registry.counter(name).value() for name in COUNTERS)


def observe(call):
    """``(result, strict-mode message or None, counter deltas)``."""
    before = counter_values()
    try:
        result, message = call(), None
    except ValueError as exc:
        result, message = None, str(exc)
    after = counter_values()
    return result, message, tuple(int(a - b) for a, b in zip(after, before))


def rows_of(store) -> list:
    return [flow_to_row(flow) for flow in store]


def row_of(flow) -> tuple:
    """A flow's five stored columns, Python-typed."""
    return (flow.src, flow.dst, flow.start, flow.src_bytes, not flow.state.failed)


def column_rows(columns) -> list:
    """Decoded columns as Python-typed rows, one tuple per flow."""
    return list(zip(*(column.tolist() for column in columns)))


def dir_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def read_bytes_or_none(path: Path):
    return path.read_bytes() if path.exists() else None


def check_report(report, ref: Reference, dead_letter) -> None:
    assert (report.rows_ok, report.rows_skipped, report.rows_quarantined) == (
        ref.counts["rows_ok"],
        ref.counts["rows_skipped"],
        ref.counts["rows_quarantined"],
    )
    assert report.error_samples == ref.samples
    assert report.dead_letter == dead_letter


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
def check_trace(text: str, segment_rows: int) -> None:
    """Every policy through every reader equals the reference."""
    obs.enable()
    try:
        with tempfile.TemporaryDirectory() as tmp_str:
            tmp = Path(tmp_str)
            trace = tmp / "trace.csv"
            trace.write_bytes(text.encode("utf-8"))
            for errors in PARSE_ERROR_MODES:
                check_string_readers(text, errors, tmp)
                check_file_readers(trace, errors, tmp, segment_rows)
    finally:
        obs.disable()


@settings(max_examples=100, deadline=None)
@given(text=traces(), segment_rows=st.sampled_from([97, 1000]))
def test_block_parse_equals_row_by_row_reference(text, segment_rows):
    check_trace(text, segment_rows)


@settings(max_examples=100, deadline=None)
@given(text=traces(PLAIN_HOSTS), segment_rows=st.sampled_from([97, 1000]))
def test_plain_block_parse_equals_row_by_row_reference(text, segment_rows):
    # No quoted host: a block numpy's reader takes unless a mangled row
    # in it sends it down the row path.
    check_trace(text, segment_rows)


MANGLE_IDS = [f"{kind}-{a}-{str(b)[:8]}" for kind, a, b in SINGLE_MANGLES]


@pytest.mark.parametrize("kind,a,b", SINGLE_MANGLES, ids=MANGLE_IDS)
def test_each_mangle_alone_in_a_block_equals_reference(kind, a, b):
    # The only odd row of its block, so the column checks alone must
    # flag it (or pass it) exactly as row_to_flow does.
    check_single_mangle(kind, a, b, HOSTS)


@pytest.mark.parametrize("kind,a,b", SINGLE_MANGLES, ids=MANGLE_IDS)
def test_each_mangle_alone_in_a_plain_block_equals_reference(kind, a, b):
    # As above in a block numpy's reader would take without the mangled
    # row: the screen, numpy or a column check must flag it (or pass
    # it) exactly as row_to_flow does.
    check_single_mangle(kind, a, b, PLAIN_HOSTS)


def check_single_mangle(kind: str, a, b, hosts: list) -> None:
    rows = [good_row(i, hosts) for i in range(9)]
    rows.insert(5, mangle(good_row(5, hosts), kind, a, b))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ARGUS_COLUMNS)
    for row in rows:
        if isinstance(row, str):
            buf.write(row + "\r\n")
        else:
            writer.writerow(row)
    check_trace(buf.getvalue(), segment_rows=4)


def check_string_readers(text: str, errors: str, tmp: Path) -> None:
    def reference() -> Reference:
        return Reference(
            csv.reader(io.StringIO(text.lstrip("\ufeff"))), "<string>", errors
        )

    ref = reference()
    ref_result, ref_message, _ = observe(lambda: FlowStore(ref.flows()))
    dead = tmp / f"loads-{errors}.dead.csv"
    dead_letter = str(dead) if errors == "quarantine" else None
    result, message, deltas = observe(
        lambda: loads_report(text, errors=errors, dead_letter=dead_letter)
    )
    assert message == ref_message
    assert deltas == ref.counter_deltas(failed=message is not None)
    assert read_bytes_or_none(dead) == ref.dead_letter_bytes(tmp / "ref.dead.csv")
    if message is None:
        store, report = result
        check_report(report, ref, dead_letter)
        assert rows_of(store) == rows_of(ref_result)
        expected_rows = [row_of(flow) for flow in store]

    # loads_columns: the same rows, in the same order, as typed arrays
    # whose elements are row_of's values, types included.
    ref = reference()
    observe(lambda: list(ref.flows()))
    result, message, deltas = observe(
        lambda: loads_columns(text, errors=errors)
    )
    assert message == ref_message
    assert deltas == ref.counter_deltas(failed=message is not None)
    if message is None:
        columns, report = result
        check_report(report, ref, None)
        assert [column.dtype for column in columns] == COLUMN_DTYPES
        rows = column_rows(columns)
        assert [tuple(map(type, r)) for r in rows] == [
            tuple(map(type, r)) for r in expected_rows
        ]
        assert [(*r[:2], repr(r[2]), *r[3:]) for r in rows] == [
            (*r[:2], repr(r[2]), *r[3:]) for r in expected_rows
        ]


def check_file_readers(
    trace: Path, errors: str, tmp: Path, segment_rows: int
) -> None:
    dead = tmp / f"file-{errors}.dead.csv"
    dead_letter = str(dead) if errors == "quarantine" else None

    def check(ref: Reference, call, ref_dir=None, spool_dir=None) -> None:
        result, message, deltas = observe(call)
        assert message == ref_message
        assert deltas == ref.counter_deltas(failed=message is not None)
        assert read_bytes_or_none(dead) == ref.dead_letter_bytes(
            tmp / "ref.dead.csv"
        )
        if spool_dir is not None:
            assert dir_bytes(spool_dir) == dir_bytes(ref_dir)
        if message is None:
            store, report = result
            check_report(report, ref, dead_letter)
            if spool_dir is None:
                assert rows_of(store) == rows_of(ref_store)
        if dead.exists():
            dead.unlink()

    # In memory.
    with open(trace, newline="", encoding="utf-8-sig") as handle:
        ref = Reference(csv.reader(handle), str(trace), errors)
        ref_store, ref_message, _ = observe(lambda: FlowStore(ref.flows()))
    check(
        ref,
        lambda: read_flows_report(trace, errors=errors, dead_letter=dead_letter),
    )

    # Spooled: the same segment bytes, also what a strict failure
    # leaves committed (the full segments cut before the bad row).
    ref_dir = tmp / f"ref-spool-{errors}"
    with open(trace, newline="", encoding="utf-8-sig") as handle:
        ref = Reference(csv.reader(handle), str(trace), errors)

        def spool_reference() -> None:
            store = fresh_store(ref_dir)
            with store.writer(segment_rows=segment_rows) as writer:
                for flow in ref.flows():
                    writer.add(flow)

        observe(spool_reference)
    spool_dir = tmp / f"spool-{errors}"
    check(
        ref,
        lambda: read_flows_report(
            trace,
            errors=errors,
            dead_letter=dead_letter,
            to_store=spool_dir,
            segment_rows=segment_rows,
        ),
        ref_dir,
        spool_dir,
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(HOSTS),
            st.sampled_from(["192.168.0.1", "192.168.0.2", "172.16.0.9"]),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.integers(0, 2**63 - 1),
            st.booleans(),
        ),
        max_size=40,
    ),
    splits=st.lists(st.integers(0, 40), max_size=6),
    feeds=st.lists(
        st.sampled_from(["rows", "lists", "arrays"]), min_size=7, max_size=7
    ),
    segment_rows=st.integers(1, 9),
    segment_bytes=st.integers(1, 400),
)
def test_append_columns_equals_row_by_row_append(
    rows, splits, feeds, segment_rows, segment_bytes
):
    # Runs of rows fed as rows, as lists or as the parser's typed
    # arrays, in any mix, cut the same segments as rows alone.
    with tempfile.TemporaryDirectory() as tmp_str:
        tmp = Path(tmp_str)
        limits = dict(segment_rows=segment_rows, segment_bytes=segment_bytes)
        with fresh_store(tmp / "rows").writer(**limits) as writer:
            for row in rows:
                writer.append(*row)
        with fresh_store(tmp / "columns").writer(**limits) as writer:
            bounds = [0] + sorted(min(s, len(rows)) for s in splits) + [len(rows)]
            for lo, hi, feed in zip(bounds, bounds[1:], feeds):
                if feed == "rows":
                    for row in rows[lo:hi]:
                        writer.append(*row)
                    continue
                columns = [list(c) for c in zip(*rows[lo:hi])] or [[]] * 5
                if feed == "arrays":
                    columns = [
                        np.array(c, dtype=d) for c, d in zip(columns, COLUMN_DTYPES)
                    ]
                writer.append_columns(*columns)
        assert dir_bytes(tmp / "columns") == dir_bytes(tmp / "rows")


# ----------------------------------------------------------------------
# numpy's text reader
# ----------------------------------------------------------------------
#: Whitespace and digits beyond ASCII, signs, underscores, exponents,
#: the letters of inf/nan, quote and NUL: the edges where
#: ``float``/``int`` and numpy's converters could part.  No comma or
#: line break: they would move the field.
NUMBER_ALPHABET = (
    "0123456789+-._eExXinfatyINFATY \t\x0b\x0c\x1c\x1d\x1e\x1f\x00\""
    "\x85\xa0\u2003\u3000\u0661\uff11"
)


@settings(max_examples=400, deadline=None)
@given(
    text=st.one_of(
        st.floats().map(repr),
        st.integers(-(2**64), 2**64).map(str),
        st.text(alphabet=NUMBER_ALPHABET, max_size=12),
        st.tuples(
            st.text(alphabet=" \t\xa0", max_size=2),
            st.one_of(st.floats().map(repr), st.integers().map(str)),
            st.text(alphabet=" \t\xa0_", max_size=2),
        ).map("".join),
    ),
    field=st.sampled_from(FLOAT_FIELDS + PORT_FIELDS + COUNT_FIELDS),
)
def test_numpy_reader_accepts_only_what_float_and_int_accept(text, field):
    # Where the screen passes a line and numpy's reader converts its
    # numeric field, float()/int() accept the same text and give the
    # same bits, so a block numpy parses holds exactly the values
    # row_to_flow would build.
    row = good_row(1)
    row[field] = text
    lines = [",".join(row) + "\r\n"]
    if not _screened(lines, True, csv.field_size_limit()):
        return
    table = _read_table(lines)
    if table is None:
        return
    value = table[ARGUS_COLUMNS[field]][0]
    if field in FLOAT_FIELDS:
        assert struct.pack("<d", value) == struct.pack("<d", float(text))
    else:
        assert int(value) == int(text)


def test_screen_refuses_a_bare_carriage_return():
    # String input is split at \n only, so a \r inside a line reaches
    # the screen: csv.reader ends a row there and numpy's reader does
    # not (numpy refuses it too, as "currently not supported", but the
    # screen must not lean on that).
    limit = csv.field_size_limit()
    crlf = [",".join(good_row(i)) + "\r\n" for i in range(3)]
    assert _screened(crlf, True, limit)
    assert _screened([line[:-2] + "\n" for line in crlf], True, limit)
    inside = crlf[:1] + [crlf[1].replace(",", "\r,", 1)] + crlf[2:]
    assert not _screened(inside, True, limit)
    at_end = crlf[:2] + [crlf[2][:-2] + "\r"]
    assert not _screened(at_end, True, limit)
    # File input is split at \r as well: no line holds one inside.
    assert _screened(crlf, False, limit)


@pytest.mark.parametrize("blank_lines", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_blank_line_blocks_emit_no_warning(blank_lines, tmp_path):
    # np.loadtxt warns "input contained no data" on blank lines alone;
    # a block of them must never reach it.
    text = (
        ",".join(ARGUS_COLUMNS) + "\r\n"
        + "\r\n" * blank_lines
        + ",".join(good_row(1)) + "\r\n"
        + "\n" * blank_lines
    )
    trace = tmp_path / "trace.csv"
    trace.write_text(text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store, report = loads_report(text)
        columns, _ = loads_columns(text)
        read_flows_report(trace)
        view, _ = read_flows_report(trace, to_store=tmp_path / "spool")
    assert report.rows_ok == len(store) == len(columns.src) == len(view) == 1
    assert rows_of(store) == [good_row(1)]


def test_clean_trace_never_takes_the_row_path(monkeypatch, tmp_path):
    # Every block of a clean trace is numpy's reader's: row_to_flow is
    # never called.
    flows = [row_to_flow(good_row(i, PLAIN_HOSTS)) for i in range(2 * _BLOCK_ROWS + 3)]
    text = dumps(flows)
    trace = tmp_path / "trace.csv"
    trace.write_text(text, newline="")

    def row_path(row):
        raise AssertionError(f"row path taken for {row!r}")

    monkeypatch.setattr(argus, "row_to_flow", row_path)
    expected = rows_of(FlowStore(flows))
    assert rows_of(loads_report(text)[0]) == expected
    assert rows_of(read_flows_report(trace)[0]) == expected
    columns, _ = loads_columns(text)
    rows = column_rows(columns)
    expected_rows = [row_of(flow) for flow in FlowStore(flows)]
    assert rows == expected_rows
    assert [tuple(map(type, r)) for r in rows] == [
        tuple(map(type, r)) for r in expected_rows
    ]
    view, report = read_flows_report(trace, to_store=tmp_path / "spool")
    assert report.rows_ok == len(view) == len(flows)
