"""Serialization of flow records to and from an Argus-like CSV format.

Argus (referenced in §III of the paper) emits textual flow summaries; this
module provides an equivalent on-disk representation so synthesised traces
can be captured once and replayed across experiments.  The column set
mirrors the fields the paper lists: addressing, protocol, timestamps,
per-direction packet/byte counts, connection state, and the 64-byte payload
snippet (hex-encoded).

Fault-tolerant ingest
---------------------
An eight-day border trace is millions of rows from a real collector —
some of them torn, truncated, or mis-encoded.  :func:`read_flows` and
:func:`loads` therefore take an ``errors`` policy:

* ``"strict"`` (the default) — the first malformed row raises
  ``ValueError`` with ``path:lineno`` context, exactly as before;
* ``"skip"`` — malformed rows are counted, logged, and dropped;
* ``"quarantine"`` — as ``skip``, but each bad row is also appended to
  a *dead-letter CSV* (the same columns plus an ``error`` column) so
  it can be inspected or replayed after the collector bug is fixed.

:func:`row_to_flow` is the one definition of a valid row: arity,
``float``/``int``/``bytes.fromhex`` field parses, protocol and state
membership, finite times with ``end >= start``, counts in
``[0, 2**63 - 1]`` (the storage columns are int64) and ports in
``[0, 65535]``.  A tokenizer error — ``csv.Error``, e.g. a field past
``csv.field_size_limit`` because a torn row's unterminated quote
swallowed the lines after it — is one more malformed row: strict
raises ``ValueError`` with ``source:lineno``, skip and quarantine
count and sample it (quarantine dead-letters empty fields plus the
error) and reading resumes at the next line.

:func:`read_flows_report` returns the :class:`IngestReport` alongside
the store; the ``repro_ingest_rows_{ok,skipped,quarantined}_total``
counters feed the metrics registry.  Writes go through the crash-safe
atomic writer (:mod:`repro.resilience.io`), so a killed
:func:`write_flows` never leaves a half-written trace where a complete
one stood.

Block parse
-----------
Reading builds neither a record per row to validate it nor a Python
string per numeric field.  The trace's physical lines are cut into
blocks of :data:`_BLOCK_ROWS`.  A cheap screen checks that
``csv.reader`` would split every line of a block exactly at its commas:
no quote, NUL or ASCII information separator, no ``\\r`` but in a line
end, no line longer than ``csv.field_size_limit()``, no parse corruptor
active, and at least one non-blank line.  Such a block is parsed by one
call of numpy's C text reader (``np.loadtxt``) into a structured table
— float64 times, int64 ports and counts, the text fields as ``str`` —
and the table is checked column-wise for everything :func:`row_to_flow`
checks.  numpy accepts a subset of what ``float``/``int`` accept, with
the same bits: it refuses ``1_0``, non-ASCII digits and counts past
int64, and those rows take the row path.

Every other block — one the screen, numpy or a column check flags —
takes the row path: ``csv.reader`` reads it, pulling on past its last
line while a quoted field is still open, and :func:`row_to_flow`
checks each row.  So :func:`row_to_flow` alone decides which rows
survive and words every ``source:lineno: message``, and the columns of
the rows it accepts come from their records.  The validated columns
feed the consumers directly: the segment spool
(:meth:`SegmentWriter.append_columns
<repro.storage.writer.SegmentWriter.append_columns>`), the serve
coordinator (:func:`loads_columns`) and, for the in-memory readers,
the records of a :class:`FlowStore`.

Out-of-core ingest
------------------
With ``to_store=`` the parsed rows are streamed straight into a
:class:`repro.storage.SegmentStore` at that directory — at no point is
the full trace materialised in memory; only one segment's buffer
(``segment_rows`` rows) is ever held.  The return value is then a
:class:`repro.storage.StoreView` (FlowStore-shaped, bit-identical
features) instead of a :class:`FlowStore`.  The error policies compose
unchanged: quarantined rows still land in the dead-letter CSV while
good rows land in segments.  Segments are cut at the same rows, with
the same dictionary codes, as row-by-row appends would cut them.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.logconf import get_logger
from ..resilience import faults
from ..resilience.io import atomic_write
from .record import FlowRecord, FlowState, Protocol
from .store import FlowStore

if TYPE_CHECKING:  # pragma: no cover - typing only (lazy at runtime)
    from ..storage.view import StoreView

__all__ = [
    "ARGUS_COLUMNS",
    "DEAD_LETTER_COLUMNS",
    "PARSE_ERROR_MODES",
    "FlowColumns",
    "IngestReport",
    "flow_to_row",
    "row_to_flow",
    "write_flows",
    "read_flows",
    "read_flows_report",
    "default_dead_letter_path",
    "dumps",
    "loads",
    "loads_report",
    "loads_columns",
]

#: Column order of the Argus-like CSV format.
ARGUS_COLUMNS = (
    "start",
    "end",
    "proto",
    "src",
    "sport",
    "dst",
    "dport",
    "src_pkts",
    "dst_pkts",
    "src_bytes",
    "dst_bytes",
    "state",
    "payload_hex",
)

#: Dead-letter files carry the raw fields plus the parse error.
DEAD_LETTER_COLUMNS = ARGUS_COLUMNS + ("error",)

#: Recognised malformed-row policies.
PARSE_ERROR_MODES = ("strict", "skip", "quarantine")

#: Cap on per-report retained error messages/rows — enough to debug,
#: bounded so a 99%-corrupt file cannot balloon the report.
_REPORT_ERROR_CAP = 32

#: Physical lines per parse block, one ``np.loadtxt`` call each.  512,
#: 2,048 and 4,096 read the paper-day trace and 2,000-row serve chunks
#: equally fast (one pinned vCPU of a 2-vCPU Xeon VM); a smaller block
#: keeps less of a trace on the row path behind one bad row.  Not an
#: option: it changes no output.
_BLOCK_ROWS = 512

#: Largest count the int64 storage columns hold.
_INT64_MAX = 2**63 - 1

_PROTOCOLS = {proto.value: proto for proto in Protocol}
_STATES = {state.value: state for state in FlowState}

#: One row as numpy's text reader parses it: float64 times, int64 ports
#: and counts, and the text fields as ``str`` objects.
_ROW_DTYPE = np.dtype(
    list(
        zip(
            ARGUS_COLUMNS,
            (np.float64, np.float64, object, object, np.int64, object, np.int64,
             np.int64, np.int64, np.int64, np.int64, object, object),
        )
    )
)
_COUNT_COLUMNS = ("src_pkts", "dst_pkts", "src_bytes", "dst_bytes")

#: Lines ``csv.reader`` yields no row for; numpy's reader skips them too.
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})

#: A ``\r`` that does not end a line (string input is split at ``\n``
#: only).
_BARE_CR = re.compile(r"\r(?!\n)")

#: Characters on which ``csv.reader`` and numpy's reader part: the
#: quote, NUL, and the ASCII information separators, which numpy strips
#: around a number as whitespace and ``float()``/``int()`` do not.
_UNSCREENED = '"\0\x1c\x1d\x1e\x1f'


def _loadtxt_ints_strictly() -> bool:
    """Whether numpy's text reader refuses a non-integer in an int
    column, as ``int()`` does.

    From 1.23 numpy parsed such a field via ``float`` instead, with a
    ``DeprecationWarning``, until the deprecation expired; on such a
    numpy every block takes the row path.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.5"], dtype=np.int64)
        except ValueError:
            return True
    return False


_LOADTXT_INTS_STRICT = _loadtxt_ints_strictly()

logger = get_logger("flows.argus")

_ROWS_OK = obs_metrics.counter(
    "repro_ingest_rows_ok_total", "Trace rows parsed into flow records"
)
_ROWS_SKIPPED = obs_metrics.counter(
    "repro_ingest_rows_skipped_total",
    "Malformed trace rows dropped under errors='skip'",
)
_ROWS_QUARANTINED = obs_metrics.counter(
    "repro_ingest_rows_quarantined_total",
    "Malformed trace rows diverted to a dead-letter file",
)


def flow_to_row(flow: FlowRecord) -> List[str]:
    """Render one flow as a CSV row (list of strings)."""
    # repr() of a float round-trips exactly in Python 3, so traces can
    # be compared record-for-record after a save/load cycle.
    return [
        repr(flow.start),
        repr(flow.end),
        flow.proto.value,
        flow.src,
        str(flow.sport),
        flow.dst,
        str(flow.dport),
        str(flow.src_pkts),
        str(flow.dst_pkts),
        str(flow.src_bytes),
        str(flow.dst_bytes),
        flow.state.value,
        flow.payload.hex(),
    ]


def row_to_flow(row: List[str]) -> FlowRecord:
    """Parse one CSV row back into a :class:`FlowRecord`.

    This is the definition of a valid row; the block parse flags
    exactly the blocks holding a row this rejects.

    Raises
    ------
    ValueError
        If the row has the wrong arity, a field fails to parse or a
        value is out of range.
    """
    if len(row) != len(ARGUS_COLUMNS):
        raise ValueError(
            f"expected {len(ARGUS_COLUMNS)} columns, got {len(row)}: {row!r}"
        )
    (start, end, proto, src, sport, dst, dport,
     src_pkts, dst_pkts, src_bytes, dst_bytes, state, payload_hex) = row
    flow = FlowRecord(
        src=src,
        dst=dst,
        sport=int(sport),
        dport=int(dport),
        proto=Protocol(proto),
        start=float(start),
        end=float(end),
        src_bytes=int(src_bytes),
        dst_bytes=int(dst_bytes),
        src_pkts=int(src_pkts),
        dst_pkts=int(dst_pkts),
        state=FlowState(state),
        payload=bytes.fromhex(payload_hex),
    )
    counts = (flow.src_pkts, flow.dst_pkts, flow.src_bytes, flow.dst_bytes)
    if max(counts) > _INT64_MAX:
        raise ValueError(f"packet/byte counts must fit in int64: {counts}")
    return flow


def write_flows(path: Union[str, Path], flows: Iterable[FlowRecord]) -> int:
    """Write flows to ``path`` in Argus-like CSV format.

    The write is crash-safe: rows land in a temp file beside ``path``
    which is fsync'd and atomically renamed into place, so a reader
    (or a killed writer) never observes a truncated trace.  Returns
    the number of records written.
    """
    count = 0
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ARGUS_COLUMNS)
        for flow in flows:
            writer.writerow(flow_to_row(flow))
            count += 1
    return count


# ----------------------------------------------------------------------
# Fault-tolerant reading
# ----------------------------------------------------------------------
@dataclass
class IngestReport:
    """Outcome counts (and sampled errors) of one trace read."""

    source: str
    errors_mode: str = "strict"
    rows_ok: int = 0
    rows_skipped: int = 0
    rows_quarantined: int = 0
    dead_letter: Optional[str] = None
    #: First few ``source:lineno: message`` strings, capped.
    error_samples: List[str] = field(default_factory=list)

    @property
    def rows_bad(self) -> int:
        """Malformed rows encountered, regardless of policy."""
        return self.rows_skipped + self.rows_quarantined

    def describe(self) -> str:
        out = (
            f"{self.source}: {self.rows_ok} rows ok, "
            f"{self.rows_bad} malformed ({self.errors_mode})"
        )
        if self.dead_letter is not None and self.rows_quarantined:
            out += f"; dead-letter: {self.dead_letter}"
        return out

    def _note_error(self, message: str) -> None:
        if len(self.error_samples) < _REPORT_ERROR_CAP:
            self.error_samples.append(message)


def default_dead_letter_path(path: Union[str, Path]) -> Path:
    """Where quarantined rows go when no explicit path is given."""
    path = Path(path)
    return path.with_name(path.name + ".deadletter.csv")


class _DeadLetterWriter:
    """Appends quarantined rows (raw fields + error) to a CSV file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        self._writer = None

    def _open(self):
        if self._writer is None:
            faults.io_point("dead-letter")
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(self.path, "a", newline="")
            self._writer = csv.writer(self._handle)
            if fresh:
                self._writer.writerow(DEAD_LETTER_COLUMNS)
        return self._writer

    def append(self, row: List[str], error: str) -> None:
        width = len(ARGUS_COLUMNS)
        padded = (list(row) + [""] * width)[:width]
        self._open().writerow(padded + [error])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
            self._writer = None


def _strip_bom(cell: str) -> str:
    return cell.lstrip("\ufeff")


class FlowColumns(NamedTuple):
    """The five feature-bearing columns of a run of parsed flows.

    The projection :meth:`SegmentWriter.append
    <repro.storage.writer.SegmentWriter.append>` stores, one array per
    field: ``src`` and ``dst`` hold ``str`` objects, ``start`` is
    float64, ``src_bytes`` int64 and ``success`` bool.  Flow ``i`` is
    element ``i`` of each.
    """

    src: np.ndarray
    dst: np.ndarray
    start: np.ndarray
    src_bytes: np.ndarray
    success: np.ndarray

    def take(self, index) -> "FlowColumns":
        """The rows ``index`` selects (positions, a mask or a slice), in
        its order."""
        return FlowColumns(*(column[index] for column in self))


#: The columns of no rows, in the column dtypes.
_NO_COLUMNS = FlowColumns(
    np.empty(0, dtype=object),
    np.empty(0, dtype=object),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=bool),
)


class _TableBlock(NamedTuple):
    """A block numpy's text reader parsed and the column checks passed."""

    table: np.ndarray
    proto: List[str]
    state: List[str]
    payload: List[bytes]

    def columns(self) -> FlowColumns:
        """Views of the table's columns (a consumer that keeps them
        copies them: a view holds the whole table)."""
        table = self.table
        return FlowColumns(
            table["src"],
            table["dst"],
            table["start"],
            table["src_bytes"],
            table["state"] == FlowState.ESTABLISHED.value,
        )

    def records(self) -> Iterator[FlowRecord]:
        table = self.table
        return map(
            FlowRecord,
            table["src"].tolist(),
            table["dst"].tolist(),
            table["sport"].tolist(),
            table["dport"].tolist(),
            map(_PROTOCOLS.__getitem__, self.proto),
            table["start"].tolist(),
            table["end"].tolist(),
            table["src_bytes"].tolist(),
            table["dst_bytes"].tolist(),
            table["src_pkts"].tolist(),
            table["dst_pkts"].tolist(),
            map(_STATES.__getitem__, self.state),
            self.payload,
        )


class _RecordBlock(NamedTuple):
    """The rows :func:`row_to_flow` accepted from a block that took the
    row path."""

    flows: List[FlowRecord]

    def columns(self) -> FlowColumns:
        flows = self.flows
        n = len(flows)
        return FlowColumns(
            np.array([flow.src for flow in flows], dtype=object),
            np.array([flow.dst for flow in flows], dtype=object),
            np.fromiter((flow.start for flow in flows), np.float64, n),
            np.fromiter((flow.src_bytes for flow in flows), np.int64, n),
            np.fromiter(
                (flow.state is FlowState.ESTABLISHED for flow in flows), bool, n
            ),
        )

    def records(self) -> Iterator[FlowRecord]:
        return iter(self.flows)


_Block = Union[_TableBlock, _RecordBlock]


def _read_table(lines: List[str]) -> Optional[np.ndarray]:
    """``lines`` as a :data:`_ROW_DTYPE` table, or ``None`` where
    numpy's text reader refuses them (a field it cannot convert, a line
    of the wrong arity, an embedded line break) or would parse an int
    field via ``float`` (see :func:`_loadtxt_ints_strictly`)."""
    if not _LOADTXT_INTS_STRICT:
        return None
    try:
        return np.loadtxt(
            lines,
            dtype=_ROW_DTYPE,
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=1,
        )
    except ValueError:
        return None


def _table_block(lines: List[str]) -> Optional[_TableBlock]:
    """The rows of ``lines``, or ``None`` if any of them is invalid.

    Column-wise, the checks :func:`row_to_flow` makes row by row, on
    the values numpy's reader gave (which ``float``/``int`` give too):
    finite times with ``end >= start``, counts in ``[0, 2**63 - 1]``
    (int64 holds no more), ports in ``[0, 65535]``, protocol and state
    membership by value, then ``bytes.fromhex`` on each payload.
    """
    table = _read_table(lines)
    if table is None:
        return None
    start, end = table["start"], table["end"]
    if not (
        np.isfinite(start).all()
        and np.isfinite(end).all()
        and (end >= start).all()
        and min(table[name].min() for name in _COUNT_COLUMNS) >= 0
        and min(table["sport"].min(), table["dport"].min()) >= 0
        and max(table["sport"].max(), table["dport"].max()) <= 65535
    ):
        return None
    proto = table["proto"].tolist()
    state = table["state"].tolist()
    if not (set(proto) <= _PROTOCOLS.keys() and set(state) <= _STATES.keys()):
        return None
    try:
        payload = list(map(bytes.fromhex, table["payload_hex"].tolist()))
    except ValueError:
        return None
    return _TableBlock(table, proto, state, payload)


def _screened(lines: List[str], bare_cr: bool, field_limit: int) -> bool:
    """Whether ``csv.reader`` would split each of ``lines`` exactly at
    its commas, as numpy's reader does, and one of them holds a row.

    None of :data:`_UNSCREENED`; no ``\\r`` but in a line end
    (``bare_cr`` says whether a line may hold one elsewhere: string
    input is split at ``\\n`` only); no line longer than the field
    limit, so no field passes it; not only blank lines, on which numpy
    warns.
    """
    text = "".join(lines)
    return (
        not any(map(text.__contains__, _UNSCREENED))
        and not (bare_cr and "\r" in text and _BARE_CR.search(text))
        and (
            len(text) <= field_limit
            or max(map(len, lines)) <= field_limit
        )
        and not all(map(_BLANK_LINES.__contains__, lines))
    )


def _parse_blocks(
    lines: Iterator[str],
    *,
    source: str,
    errors: str,
    report: IngestReport,
    dead_letter: Optional[_DeadLetterWriter],
    bare_cr: bool,
) -> Iterator[_Block]:
    """Parse a trace's physical lines under the given malformed-row
    policy, by block.

    ``lines`` is the text split as ``csv.reader`` would be fed it, so
    line numbers in error context count the same physical lines.  A
    UTF-8 BOM on the header row is tolerated — collectors on Windows
    prepend one.  In strict mode the valid rows before the first bad
    one are yielded before the ``ValueError`` is raised, as a
    row-by-row read would.
    """
    header_reader = csv.reader(lines)
    try:
        header = next(header_reader, None)
    except csv.Error as exc:
        raise ValueError(f"{source}:{header_reader.line_num}: {exc}") from exc
    if header is None:
        return
    if header:
        header = [_strip_bom(header[0])] + list(header[1:])
    if tuple(header) != ARGUS_COLUMNS:
        raise ValueError(f"{source}: unrecognised trace header: {header!r}")
    line_num = header_reader.line_num
    corrupt = faults.parse_corruptor()
    field_limit = csv.field_size_limit()

    def reject(row: List[str], lineno: int, exc: Exception) -> None:
        message = f"{source}:{lineno}: {exc}"
        if errors == "strict":
            raise ValueError(message) from exc
        report._note_error(message)
        if errors == "quarantine":
            report.rows_quarantined += 1
            _ROWS_QUARANTINED.inc()
            if dead_letter is not None:
                dead_letter.append(row, str(exc))
        else:
            report.rows_skipped += 1
            _ROWS_SKIPPED.inc()

    while True:
        block = list(islice(lines, _BLOCK_ROWS))
        if not block:
            break
        parsed = (
            _table_block(block)
            if corrupt is None and _screened(block, bare_cr, field_limit)
            else None
        )
        if parsed is not None:
            line_num += len(block)
            report.rows_ok += len(parsed.table)
            yield parsed
            continue
        # The row path: csv.reader over the block, pulling on past its
        # last line while a quoted field is still open.
        reader = csv.reader(chain(block, lines))
        good: List[FlowRecord] = []
        while reader.line_num < len(block):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                row, failure = [], exc
            else:
                if not row:
                    continue
                if corrupt is not None:
                    row = corrupt(row)
                try:
                    good.append(row_to_flow(row))
                    continue
                except ValueError as exc:
                    failure = exc
            if errors == "strict" and good:
                yield _RecordBlock(good)
            reject(row, line_num + reader.line_num, failure)
        line_num += reader.line_num
        if good:
            report.rows_ok += len(good)
            yield _RecordBlock(good)
    _ROWS_OK.inc(report.rows_ok)
    if report.rows_bad:
        logger.warning(
            "%s: %d malformed row(s) %s (first: %s)",
            source,
            report.rows_bad,
            "quarantined" if errors == "quarantine" else "skipped",
            report.error_samples[0] if report.error_samples else "?",
        )


def _check_errors_mode(errors: str) -> None:
    if errors not in PARSE_ERROR_MODES:
        raise ValueError(
            f"unknown errors mode {errors!r}; expected one of {PARSE_ERROR_MODES}"
        )


@contextmanager
def _ingest(source: str, errors: str, dead_letter: Optional[Union[str, Path]]):
    """A fresh report and, in quarantine mode with a path, its sink."""
    _check_errors_mode(errors)
    report = IngestReport(source=source, errors_mode=errors)
    sink: Optional[_DeadLetterWriter] = None
    if errors == "quarantine" and dead_letter is not None:
        report.dead_letter = str(dead_letter)
        sink = _DeadLetterWriter(dead_letter)
    try:
        yield report, sink
    finally:
        if sink is not None:
            sink.close()


def _records(blocks: Iterator[_Block]) -> Iterator[FlowRecord]:
    return chain.from_iterable(block.records() for block in blocks)


def _spill_to_store(
    blocks: Iterator[_Block],
    to_store: Union[str, Path],
    segment_rows: Optional[int],
):
    """Stream parsed blocks into a fresh segment store; return its view.

    Imported lazily — :mod:`repro.storage` builds on the flows package,
    so the dependency must stay call-time-only, and readers that never
    spill never pay for it.
    """
    from ..storage import StoreView, fresh_store
    from ..storage.writer import DEFAULT_SEGMENT_ROWS

    store = fresh_store(to_store)
    with store.writer(
        segment_rows=segment_rows or DEFAULT_SEGMENT_ROWS
    ) as writer:
        for block in blocks:
            writer.append_columns(*block.columns())
    return StoreView(store)


def read_flows_report(
    path: Union[str, Path],
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
    to_store: Optional[Union[str, Path]] = None,
    segment_rows: Optional[int] = None,
) -> Tuple[Union[FlowStore, "StoreView"], IngestReport]:
    """Read a trace and return ``(store, ingest report)``.

    In ``quarantine`` mode malformed rows are appended to
    ``dead_letter`` (default: ``<path>.deadletter.csv`` beside the
    trace).  The dead-letter file is append-mode, so repeated partial
    loads accumulate rather than overwrite.

    With ``to_store`` the rows are spilled to a segment store at that
    directory as they parse — the full trace is never held in memory —
    and the first element of the return value is a
    :class:`repro.storage.StoreView` over it.  ``segment_rows``
    controls the cut threshold (default
    :data:`repro.storage.DEFAULT_SEGMENT_ROWS`).
    """
    if errors == "quarantine":
        dead_letter = Path(
            dead_letter
            if dead_letter is not None
            else default_dead_letter_path(path)
        )
    with _ingest(str(path), errors, dead_letter) as (report, sink):
        # utf-8-sig transparently strips a leading BOM; BOM-free files
        # read identically.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            blocks = _parse_blocks(
                handle,
                source=str(path),
                errors=errors,
                report=report,
                dead_letter=sink,
                bare_cr=False,
            )
            if to_store is not None:
                store = _spill_to_store(blocks, to_store, segment_rows)
            else:
                store = FlowStore(_records(blocks))
    return store, report


def read_flows(
    path: Union[str, Path],
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
    to_store: Optional[Union[str, Path]] = None,
    segment_rows: Optional[int] = None,
) -> Union[FlowStore, "StoreView"]:
    """Read a trace written by :func:`write_flows` into a store.

    ``errors`` selects the malformed-row policy (see the module
    docstring); the default ``"strict"`` raises on the first bad row,
    with ``path:lineno`` context, preserving the original behaviour.
    ``to_store`` spills rows to a segment store instead of memory (see
    :func:`read_flows_report`).  Use :func:`read_flows_report` when the
    outcome counts are needed.
    """
    store, _ = read_flows_report(
        path,
        errors=errors,
        dead_letter=dead_letter,
        to_store=to_store,
        segment_rows=segment_rows,
    )
    return store


def dumps(flows: Iterable[FlowRecord]) -> str:
    """Serialise flows to an in-memory CSV string."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(ARGUS_COLUMNS)
    for flow in flows:
        writer.writerow(flow_to_row(flow))
    return buffer.getvalue()


def loads_report(
    text: str,
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
) -> Tuple[FlowStore, IngestReport]:
    """Parse a CSV string and return ``(store, ingest report)``.

    Without a ``dead_letter`` path, quarantine mode still counts and
    samples the bad rows in the report — there is just no file to
    append them to.
    """
    with _ingest("<string>", errors, dead_letter) as (report, sink):
        store = FlowStore(_records(_string_blocks(text, errors, report, sink)))
    return store, report


def loads_columns(
    text: str, *, errors: str = "strict"
) -> Tuple[FlowColumns, IngestReport]:
    """Parse a CSV string into its five projected columns.

    The rows, their order (stably by start time, as a
    :class:`FlowStore` iterates) and the report are those of
    :func:`loads_report`; only no record is built.  This is the serve
    coordinator's ingest decode.
    """
    with _ingest("<string>", errors, None) as (report, sink):
        parts = [
            block.columns()
            for block in _string_blocks(text, errors, report, sink)
        ]
    columns = FlowColumns(*map(np.concatenate, zip(_NO_COLUMNS, *parts)))
    return columns.take(np.argsort(columns.start, kind="stable")), report


def _string_blocks(
    text: str,
    errors: str,
    report: IngestReport,
    sink: Optional[_DeadLetterWriter],
) -> Iterator[_Block]:
    return _parse_blocks(
        io.StringIO(text.lstrip("\ufeff")),
        source="<string>",
        errors=errors,
        report=report,
        dead_letter=sink,
        bare_cr=True,
    )


def loads(
    text: str,
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
) -> FlowStore:
    """Parse a CSV string produced by :func:`dumps`."""
    store, _ = loads_report(text, errors=errors, dead_letter=dead_letter)
    return store
