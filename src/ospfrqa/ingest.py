"""Turn raw observations into LSA event streams and binned count series.

Two input paths: classic pcap capture files (tcpdump output) holding raw
OSPF packets, and the JSON-lines event log that the simulator writes and
every other part of the pipeline exchanges.  An event is an
:class:`LsaEvent`, a named tuple of the ``LOG_FIELDS`` values; a
simulator row is the same tuple unnamed.  Each input has a per-event
definition, :func:`extract_pcap_events` and :func:`read_lsa_log`, which
yields events and words every error, and a columnar reader,
:func:`read_pcap_columns` and :func:`read_log_columns`, which parses a
whole file at once into the :class:`EventColumns` that :func:`bin_series`
counts into the uniformly binned series the recurrence analysis consumes.

The columnar readers parse in bulk what the pipeline produces: a log
whose every line is as :func:`write_lsa_log` writes it, and pcap frames
of the two one-LSA Ethernet layouts.  A log with any other line goes
through the per-line definition as a whole; any other frame goes through
:func:`parse_ospf_packet` on its own.  Both paths therefore give the same
events and the same error messages for the same file.  Either pcap
reader reads a capture whole, once, through one record table.  The
series CSV writer renders the series that the pipeline writes (times in
[0, 2^32 s), counts below 2^32) from integers, beside the plain ``%``
formatting that defines the format; the reader takes a file by numpy
only when it is byte for byte the writer's file for the series it reads,
and any other through the line loop that defines the format.
"""

from __future__ import annotations

import ipaddress
import json
import re
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IPV4 = 101

OSPF_PROTO = 89
OSPF_LS_UPDATE = 4
OSPF_LS_ACK = 5

LSA_HEADER_LEN = 20
LS_TYPES = range(1, 6)  # RFC 2328: router, network, two summaries, AS-external
MAX_AGE = 3600  # seconds: RFC 2328 MaxAge, the oldest age an LSA can have
# CSV rows formatted per write: whole-column formatting is about twice as
# fast as formatting value by value, and chunks keep the strings it builds
# to about 1.5 MB.
CSV_CHUNK_ROWS = 2048
# Bin starts in [0, 2^32 s) print exactly (see write_series_csv); series
# CSV rows are rendered this many at a time.
SERIES_TIME_GUARD_US = 2**32 * 1_000_000
SERIES_CSV_BLOCK_ROWS = 1 << 14
# Slack allowed on series CSV start times, which are written to the
# microsecond from float seconds.
SPACING_TOL_S = 1e-3


class UnsupportedFormatError(ValueError):
    """Input file is not a classic pcap."""


class TruncatedPcapError(ValueError):
    """Record header or body ended mid-stream."""


class MalformedPacketError(ValueError):
    """OSPF frame with inconsistent length fields."""


class LogFormatError(ValueError):
    """Bad line in an LSA event log; the message names the path and line."""


class LsaEvent(NamedTuple):
    """One observed LSA update (or acknowledgment) at a monitoring point.
    Construction checks nothing; the readers check what they read."""

    ts_us: int
    monitor: str
    ls_type: int
    adv_router: str
    ls_id: str
    ls_age: int
    ls_seq: int
    is_ack: bool = False


LOG_FIELDS = LsaEvent._fields


@dataclass(frozen=True, eq=False)
class EventColumns:
    """What binning reads of a set of events, one array per field.

    ``ts_us`` is int64 (object when a time lies outside int64), ``ls_type``
    int64 and ``is_ack`` bool; ``monitor`` and ``adv_router`` hold each
    event's index into the tuples ``monitors`` and ``routers`` of the
    distinct names.  The events are in no particular order.
    """

    ts_us: np.ndarray
    ls_type: np.ndarray
    is_ack: np.ndarray
    monitor: np.ndarray
    monitors: tuple[str, ...]
    adv_router: np.ndarray
    routers: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.ts_us.size)

    @classmethod
    def from_events(cls, events: Iterable[tuple]) -> EventColumns:
        """The columns of ``events``, LsaEvents or rows, in their order."""
        events = list(events)
        ts, monitor, ls_type, adv_router, _, _, _, is_ack = zip(*events) if events else [()] * 8
        try:
            ts_us = np.array(ts, dtype=np.int64)
        except OverflowError:
            ts_us = np.array(ts, dtype=object)
        monitor, monitors = _coded(monitor)
        adv_router, routers = _coded(adv_router)
        return cls(ts_us, np.array(ls_type, dtype=np.int64), np.array(is_ack, dtype=bool),
                   monitor, monitors, adv_router, routers)


def _coded(values: Iterable) -> tuple[np.ndarray, tuple]:
    """Each value's index into the tuple of the distinct values, which is
    in order of first appearance."""
    index: dict = {}
    codes = [index.setdefault(v, len(index)) for v in values]
    return np.array(codes, dtype=np.intp), tuple(index)


@dataclass(frozen=True)
class EventFilter:
    """Event selector: monitoring point, advertising router, LSA types.

    ``None`` fields match everything; acks are excluded unless
    ``include_acks`` is set (the measured quantity is LSA updates).
    """

    monitor: str | None = None
    origin: str | None = None
    ls_types: frozenset[int] | None = None
    include_acks: bool = False

    def mask(self, events: EventColumns) -> np.ndarray:
        """Which of the events the filter selects, as a bool array."""
        keep = np.ones(len(events), dtype=bool) if self.include_acks else ~events.is_ack
        for name, codes, names in ((self.monitor, events.monitor, events.monitors),
                                   (self.origin, events.adv_router, events.routers)):
            if name is not None:
                keep &= codes == (names.index(name) if name in names else -1)
        if self.ls_types is not None:
            keep &= np.isin(events.ls_type, list(self.ls_types))
        return keep


@dataclass
class CountSeries:
    """Uniformly binned LSA counts: the x_t fed to the recurrence analysis."""

    start_us: int
    bin_size_s: int
    counts: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        _check_bin_size(self.bin_size_s)
        self.counts = np.asarray(self.counts, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.counts.size)


def _check_bin_size(bin_size_s) -> None:
    """Bins of under a second would give bin starts that do not increase."""
    if bin_size_s < 1:
        raise ValueError("bin size must be >= 1 second")


# --- pcap ------------------------------------------------------------------


def _read_capture(path) -> tuple[bytes, int, np.ndarray, TruncatedPcapError | None]:
    """A classic pcap file of either byte order, read whole and once: its
    bytes, its link type (Ethernet or raw IPv4, else UnsupportedFormatError),
    its :func:`_record_table` and the error of a record cut short."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 24:
        raise UnsupportedFormatError(f"{path}: too short for a pcap global header")
    magic = struct.unpack_from("<I", blob)[0]
    endian = "<" if magic == PCAP_MAGIC else ">"
    if struct.unpack_from(endian + "I", blob)[0] != PCAP_MAGIC:
        raise UnsupportedFormatError(
            f"{path}: bad magic 0x{magic:08x}; only classic pcap is supported")
    link_type = struct.unpack_from(endian + "I", blob, 20)[0]
    if link_type not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IPV4):
        raise UnsupportedFormatError(f"{path}: unsupported link type {link_type}")
    return (blob, link_type, *_record_table(blob, endian, path))


def _record_table(blob: bytes, endian: str, path) -> tuple[np.ndarray, TruncatedPcapError | None]:
    """One int64 row ``(data offset, incl_len, orig_len, ts_us)`` per whole
    record of the pcap file ``blob``, in order, and the error of a record
    cut short after them (naming its number, from 1), if there is one.
    A frame that the capture's snaplen cut short has ``incl_len < orig_len``."""
    incl_at = struct.Struct(endian + "I").unpack_from
    starts, off, size = [], 24, len(blob)
    while off + 16 <= size:
        end = off + 16 + incl_at(blob, off + 8)[0]
        if end > size:
            break
        starts.append(off)
        off = end
    starts = np.array(starts, dtype=np.int64)
    header = np.frombuffer(blob, dtype=np.uint8)[starts[:, None] + np.arange(16)]
    ts_sec, ts_usec, incl_len, orig_len = header.view(endian + "u4").astype(np.int64).T
    table = np.stack([starts + 16, incl_len, orig_len, ts_sec * 1_000_000 + ts_usec], axis=1)
    k = starts.size + 1
    if off == size:
        return table, None
    if off + 16 > size:
        return table, TruncatedPcapError(
            f"{path}: record {k}: record header cut short at end of file")
    return table, TruncatedPcapError(
        f"{path}: record {k}: record body cut short: "
        f"expected {incl_at(blob, off + 8)[0]} bytes, got {size - off - 16}")


_OSPF_HEADER = struct.Struct(">BBH")  # version, packet type, packet length
_LSA_COUNT = struct.Struct(">I")
# age, options, type, link state id (4 bytes), advertising router (4 bytes),
# sequence number, checksum, length
_LSA_HEADER = struct.Struct(">HBB4B4BiHH")


def parse_ospf_packet(frame: bytes, link_type: int, ts_us: int = 0, monitor: str = "") -> list[LsaEvent]:
    """Decode one link-layer frame into LSA events.

    Only IPv4 packets carrying protocol 89 with OSPF packet type 4
    (LS Update) or 5 (LS Ack, producing ``is_ack`` events) yield anything;
    every other frame returns an empty list.  Each 20-byte LSA header is
    decoded big-endian.  Declared counts or lengths that run past the
    frame raise :class:`MalformedPacketError` naming the offset.

    Parsing is stateless: a frame's result never depends on its neighbors.
    """
    if link_type == LINKTYPE_ETHERNET:
        if len(frame) < 14 or frame[12:14] != b"\x08\x00":
            return []
        base = 14
    elif link_type == LINKTYPE_RAW_IPV4:
        base = 0
    else:
        raise UnsupportedFormatError(f"unsupported link type {link_type}")

    # Offsets below are into ``frame``.
    ip_len = len(frame) - base
    if ip_len < 20 or frame[base] >> 4 != 4:
        return []
    ihl = (frame[base] & 0x0F) * 4
    if frame[base + 9] != OSPF_PROTO or ip_len < ihl + 24:
        return []
    base += ihl

    version, ptype, ospf_len = _OSPF_HEADER.unpack_from(frame, base)
    if version != 2 or ptype not in (OSPF_LS_UPDATE, OSPF_LS_ACK):
        return []
    if ospf_len > len(frame) - base or ospf_len < 24:
        raise MalformedPacketError(
            f"OSPF length field {ospf_len} inconsistent with frame at offset {base + 2}"
        )
    start, end = base + 24, base + ospf_len  # the packet body

    events: list[LsaEvent] = []
    if ptype == OSPF_LS_UPDATE:
        if end - start < 4:
            raise MalformedPacketError(f"LS Update too short for LSA count at offset {start}")
        declared = _LSA_COUNT.unpack_from(frame, start)[0]
        off = start + 4
        for i in range(declared):
            if off + LSA_HEADER_LEN > end:
                raise MalformedPacketError(
                    f"LS Update declares {declared} LSAs but #{i + 1} is missing "
                    f"at offset {off}"
                )
            event, lsa_len = _decode_lsa_header(frame, off, ts_us, monitor, is_ack=False)
            events.append(event)
            if lsa_len < LSA_HEADER_LEN or off + lsa_len > end:
                raise MalformedPacketError(
                    f"LSA length {lsa_len} overruns packet at offset {off + 18}"
                )
            off += lsa_len
    else:
        # LS Ack: a bare run of LSA headers, no count and no bodies.
        if (end - start) % LSA_HEADER_LEN:
            raise MalformedPacketError(
                f"LS Ack body of {end - start} bytes is not a whole number of headers "
                f"at offset {start}"
            )
        for off in range(start, end, LSA_HEADER_LEN):
            events.append(_decode_lsa_header(frame, off, ts_us, monitor, is_ack=True)[0])
    return events


def _decode_lsa_header(frame: bytes, at: int, ts_us: int, monitor: str,
                       is_ack: bool) -> tuple[LsaEvent, int]:
    """The event of the LSA header at offset ``at``, and the LSA's length."""
    h = _LSA_HEADER.unpack_from(frame, at)
    ls_age, ls_type = h[0], h[2]
    if ls_type not in LS_TYPES:
        raise MalformedPacketError(f"LSA type {ls_type} out of range at offset {at + 3}")
    if ls_age > MAX_AGE:
        raise MalformedPacketError(f"LS age {ls_age} exceeds MaxAge at offset {at}")
    return LsaEvent(ts_us, monitor, ls_type, "%d.%d.%d.%d" % h[7:11], "%d.%d.%d.%d" % h[3:7],
                    ls_age, h[11], is_ack), h[13]


def extract_pcap_events(path, monitor: str) -> Iterator[LsaEvent]:
    """Stream LSA events out of a capture file, stamping the monitor name.

    The capture is read whole, once, through one record table, before the
    first event.  A frame's parse error names the path, the record (from 1)
    and any snaplen cut; a record cut short at the end of the file raises
    :class:`TruncatedPcapError` after the events before it.
    """
    blob, link_type, records, cut_short = _read_capture(path)
    yield from _record_events(path, blob, link_type, records, np.arange(len(records)), monitor)
    if cut_short is not None:
        raise cut_short


def _record_events(path, blob: bytes, link_type: int, records: np.ndarray, rows: np.ndarray,
                   monitor: str) -> Iterator[LsaEvent]:
    """:func:`parse_ospf_packet` on the frames of the ``rows`` of the record
    table, in order, with the path, the record (from 1) and any snaplen cut
    named in an error."""
    for k, (off, incl_len, orig_len, ts_us) in zip((rows + 1).tolist(), records[rows].tolist()):
        try:
            events = parse_ospf_packet(blob[off:off + incl_len], link_type, ts_us, monitor)
        except MalformedPacketError as e:
            cut = " (the capture's snaplen cut this frame short)" if incl_len < orig_len else ""
            raise type(e)(f"{path}: record {k}: {e}{cut}") from None
        yield from events


# The two frame layouts the pipeline's pcap writers produce, as (OSPF
# packet type, frame length): Ethernet, IPv4 with a 20-byte header
# (IHL 5), protocol 89, a 24-byte OSPFv2 header, then for an LS Update a
# count of 1 and one bare LSA header, for an LS Ack one LSA header.
_BULK_LAYOUTS = ((OSPF_LS_UPDATE, 82), (OSPF_LS_ACK, 78))


def read_pcap_columns(path, monitor: str) -> EventColumns:
    """The events of :func:`extract_pcap_events` as columns, or its error.

    In an Ethernet capture, the records whose frames have a layout of
    ``_BULK_LAYOUTS`` are decoded together at fixed offsets; those whose
    IPv4 and OSPF headers, OSPF length, LSA count, LSA length, LS type and
    age are as :func:`parse_ospf_packet` accepts for that layout give their
    events.  Such a frame parses without error, so a snaplen cut, which
    only words an error, does not matter for it.  Every other record (raw
    IPv4, other lengths, any frame that fails a check) goes through
    :func:`parse_ospf_packet` on its own, in record order.  So the first
    bad record, or else a cut-short tail, raises the per-record error.
    """
    blob, link_type, records, cut_short = _read_capture(path)
    off, incl_len, _, ts_us = records.T
    buf = np.frombuffer(blob, dtype=np.uint8)
    bulk = np.zeros(off.size, dtype=bool)
    parts = []  # (ts_us, ls_type, is_ack, adv_router as an integer) per layout
    for ptype, size in _BULK_LAYOUTS if link_type == LINKTYPE_ETHERNET else ():
        rows = np.flatnonzero(incl_len == size)
        f = buf[off[rows, None] + np.arange(size)].astype(np.int64)
        lsa = size - LSA_HEADER_LEN  # offset of the LSA header
        age, ls_type = f[:, lsa] << 8 | f[:, lsa + 1], f[:, lsa + 3]
        ok = ((f[:, 12] == 0x08) & (f[:, 13] == 0x00) & (f[:, 14] == 0x45)
              & (f[:, 23] == OSPF_PROTO) & (f[:, 34] == 2) & (f[:, 35] == ptype)
              & (f[:, 36] << 8 | f[:, 37] == size - 34)  # OSPF runs to the frame's end
              & np.isin(ls_type, LS_TYPES) & (age <= MAX_AGE))
        if ptype == OSPF_LS_UPDATE:
            ok &= ((f[:, 58:62] == (0, 0, 0, 1)).all(axis=1)
                   & (f[:, lsa + 18] << 8 | f[:, lsa + 19] == LSA_HEADER_LEN))
        bulk[rows[ok]] = True
        parts.append((ts_us[rows[ok]], ls_type[ok], np.full(ok.sum(), ptype == OSPF_LS_ACK),
                      f[ok, lsa + 8:lsa + 12] @ (1 << 24, 1 << 16, 1 << 8, 1)))
    rest = list(_record_events(path, blob, link_type, records, np.flatnonzero(~bulk), monitor))
    if cut_short is not None:
        raise cut_short
    ts, _, ls_type, adv, _, _, _, is_ack = zip(*rest) if rest else [()] * 8
    parts.append((np.array(ts, dtype=np.int64), np.array(ls_type, dtype=np.int64),
                  np.array(is_ack, dtype=bool),
                  np.array([int(ipaddress.IPv4Address(a)) for a in adv], dtype=np.int64)))
    ts, ls_type, is_ack, adv = (np.concatenate(column) for column in zip(*parts))
    adv_router, routers = _coded(adv.tolist())
    return EventColumns(ts, ls_type, is_ack, np.zeros(ts.size, dtype=np.intp), (monitor,),
                        adv_router, tuple(str(ipaddress.IPv4Address(r)) for r in routers))


# --- JSON-lines event log --------------------------------------------------


# One log line: the fields in LOG_FIELDS order, as ``json.dumps`` with
# compact separators writes them for integer and string fields.
_LOG_LINE = ('{"ts_us":%d,"monitor":%s,"ls_type":%d,"adv_router":%s,"ls_id":%s,'
             '"ls_age":%d,"ls_seq":%d,"is_ack":%s}\n')


class _JsonStrings(dict):
    """Memo of ``json.dumps`` per value; a log repeats few distinct strings."""

    def __missing__(self, value):
        self[value] = text = json.dumps(value)
        return text


def write_lsa_log(path, events: Iterable[tuple]) -> int:
    """Write events, LsaEvents or rows, as JSON lines; returns the number written."""
    q = _JsonStrings()
    lines = [_LOG_LINE % (ts_us, q[monitor], ls_type, q[adv_router], q[ls_id], ls_age, ls_seq,
                          "true" if is_ack else "false")
             for ts_us, monitor, ls_type, adv_router, ls_id, ls_age, ls_seq, is_ack in events]
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))
    return len(lines)


# Exactly the lines that ``write_lsa_log`` emits for ASCII strings free of
# quotes, backslashes and control characters, and integers of at most 18
# digits (so within int64): the fields in LOG_FIELDS order, compact
# separators, the newline.  On such a line the groups capture the values
# ``json.loads`` returns for the fields binning reads.  A match starts at
# a line start (``^`` under MULTILINE) and ends at its newline, and no
# field can hold a newline, so it is one whole line.
_JSON_INT = rb"-?(?:0|[1-9][0-9]{0,17})"
_JSON_ASCII = rb"[\x20\x21\x23-\x5b\x5d-\x7e]*"  # between the quotes
_CANONICAL_LINE = re.compile(
    rb'^\{"ts_us":(%s),"monitor":"(%s)","ls_type":(%s),"adv_router":"(%s)","ls_id":"%s",'
    rb'"ls_age":(%s),"ls_seq":%s,"is_ack":(true|false)\}\n'
    % (_JSON_INT, _JSON_ASCII, _JSON_INT, _JSON_ASCII, _JSON_ASCII, _JSON_INT, _JSON_INT),
    re.MULTILINE)


def read_lsa_log(path) -> Iterator[LsaEvent]:
    """Stream events back from a JSON-lines log, validating each line.

    Each line goes through ``json.loads`` and the field checks, which are
    the definition of the format; blank lines are skipped.  A bad line
    raises :class:`LogFormatError` naming the path and the line.
    """
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                event = _parse_log_line(raw)
            except ValueError as e:
                raise LogFormatError(f"{path}: line {line_no}: {e}") from None
            if event is not None:
                yield event


def read_log_columns(path) -> EventColumns:
    """The events of :func:`read_lsa_log` as columns, or its error.

    When every line of the file (the last one may lack its newline) is a
    ``_CANONICAL_LINE`` and every LS type and age passes the checks of
    :func:`read_lsa_log`, the columns come from one ``findall`` over the
    file's bytes.  Any other file is read by :func:`read_lsa_log` as a
    whole, so a bad line gets the message of the definition.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob and not blob.endswith(b"\n"):
        blob += b"\n"
    rows = _CANONICAL_LINE.findall(blob)
    if len(rows) == blob.count(b"\n"):  # each match is one whole line
        n = len(rows)
        ts, monitor, ls_type, adv_router, ls_age, is_ack = zip(*rows) if n else [()] * 6
        ls_type = np.fromiter(map(int, ls_type), np.int64, n)
        ls_age = np.fromiter(map(int, ls_age), np.int64, n)
        if (np.isin(ls_type, LS_TYPES) & (ls_age >= 0) & (ls_age <= MAX_AGE)).all():
            monitor, monitors = _coded(monitor)
            adv_router, routers = _coded(adv_router)
            return EventColumns(np.fromiter(map(int, ts), np.int64, n), ls_type,
                                np.fromiter(map(b"true".__eq__, is_ack), bool, n),
                                monitor, tuple(m.decode("ascii") for m in monitors),
                                adv_router, tuple(r.decode("ascii") for r in routers))
    return EventColumns.from_events(read_lsa_log(path))


def _parse_log_line(raw: bytes) -> LsaEvent | None:
    """The event of one log line, None for a blank line; ValueError if bad."""
    line = _utf8(raw).strip()
    if not line:
        return None
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:
        # Besides JSONDecodeError: integers past the digit limit,
        # arrays nested past the recursion limit.
        raise ValueError(f"not valid JSON ({getattr(e, 'msg', e)})") from None
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object")
    missing = [k for k in LOG_FIELDS if k not in rec]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    kinds = (int, str, int, str, str, int, int, bool)
    event = LsaEvent(*[_expect(rec, key, kind) for key, kind in zip(LOG_FIELDS, kinds)])
    if event.ls_type not in LS_TYPES:
        raise ValueError(f"ls_type must be {LS_TYPES[0]}-{LS_TYPES[-1]}, got {event.ls_type}")
    if not 0 <= event.ls_age <= MAX_AGE:
        raise ValueError(f"ls_age must be in [0, {MAX_AGE}], got {event.ls_age}")
    return event


def _utf8(raw: bytes) -> str:
    """``raw`` decoded; ValueError naming the first byte that is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"not valid UTF-8 (byte 0x{raw[e.start]:02x} "
                         f"at column {e.start + 1})") from None


def _read_text(path) -> str:
    """A UTF-8 text file's contents; a ValueError names the path and the
    line of its first byte that is not UTF-8."""
    with open(path, "rb") as f:
        blob = f.read()
    for line_no, raw in enumerate(blob.splitlines(), start=1):  # as text mode splits lines
        try:
            _utf8(raw)
        except ValueError as e:
            raise ValueError(f"{path}: line {line_no}: {e}") from None
    return blob.decode("utf-8")


def _expect(rec, key, kind):
    """``rec[key]``, which must be of type ``kind`` exactly: ``json.loads``
    returns exact ``int``, ``str`` and ``bool``, and a bool is no int."""
    v = rec[key]
    if type(v) is not kind:
        noun = {int: "an integer", str: "a string", bool: "a boolean"}[kind]
        raise ValueError(f"{key} must be {noun}, got {v!r}")
    return v


# --- binning ---------------------------------------------------------------


def bin_series(
    events: EventColumns,
    flt: EventFilter,
    bin_size_s: int,
    t0_us: int,
    t1_us: int,
) -> CountSeries:
    """Count filtered events into half-open bins [t0 + k*bin, t0 + (k+1)*bin).

    Events outside [t0, t1) are dropped and reported via the series'
    ``dropped`` counter, so that bins + dropped always conserves the
    filtered event total.
    """
    if t0_us >= t1_us:
        raise ValueError("need t0 < t1")
    _check_bin_size(bin_size_s)
    bin_us = bin_size_s * 1_000_000
    if bin_us >= 2**63:  # bins are counted in int64 microseconds
        raise ValueError(f"bin size {bin_size_s} s is too large: at most {(2**63 - 1) // 10**6} s")
    bins = -((t0_us - t1_us) // bin_us)  # ceil of duration / bin
    try:
        counts = np.zeros(bins, dtype=np.int64)
    except (ValueError, MemoryError):  # past numpy's size limits, or the memory's
        raise ValueError(f"{bins} bins of {bin_size_s} s over [{t0_us}, {t1_us}) us are more "
                         f"than an array can hold") from None
    ts = events.ts_us[flt.mask(events)]
    inside = ts[(ts >= t0_us) & (ts < t1_us)]
    if inside.size:  # offsets from t0 in Python ints where t0 or one lies outside int64
        if t0_us < -2**63 or int(inside.max()) - t0_us >= 2**63:
            inside = inside.astype(object)
        per_bin = np.bincount(((inside - t0_us) // bin_us).astype(np.intp))
        counts[:per_bin.size] = per_bin
    return CountSeries(t0_us, bin_size_s, counts, ts.size - inside.size)


def write_series_csv(path, series: CountSeries) -> None:
    """CountSeries CSV: header ``bin_index,t_start_s,count``.

    ``t_start_s`` is ``"%.6f" % (start_us / 1e6 + k * bin_size_s)``: the
    per-value ``%`` path, ``CSV_CHUNK_ROWS`` rows at a time, defines the
    format.  A series whose bin starts print exactly (:func:`_exact_seconds`)
    and whose counts lie in [0, 2^32), as every series the pipeline writes,
    is rendered from integers by :func:`_ascii_rows` instead.
    """
    with open(path, "wb") as f:
        f.writelines(_series_csv_blocks(series))


def _series_csv_blocks(series: CountSeries) -> Iterator[bytes]:
    """The bytes that :func:`write_series_csv` writes for ``series``, block by block."""
    n = len(series)
    start_us, bin_s, counts = series.start_us, series.bin_size_s, series.counts
    yield b"bin_index,t_start_s,count\n"
    if not (_exact_seconds(start_us, bin_s, np.arange(n))
            and 0 <= counts.min(initial=0) and counts.max(initial=0) < 2**32):
        idx = np.arange(n)
        times = start_us / 1e6 + idx * bin_s
        for lo in range(0, n, CSV_CHUNK_ROWS):  # Python numbers, as a per-row loop prints
            chunk = [c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in (idx, times, counts)]
            yield b"".join([b"%d,%.6f,%d\n" % values for values in zip(*chunk)])
        return
    # Bin k starts (start_s + k * bin_s) s and start_frac µs.
    start_s, start_frac = divmod(int(start_us), 1_000_000)
    frac = b".%06d," % start_frac
    for lo in range(0, n, SERIES_CSV_BLOCK_ROWS):
        k = np.arange(lo, min(lo + SERIES_CSV_BLOCK_ROWS, n), dtype=np.int64)
        yield _ascii_rows(k.size, [k, b",", start_s + k * int(bin_s), frac,
                                   counts[lo:lo + k.size], b"\n"])


def _exact_seconds(start_us, bin_s, k: np.ndarray) -> bool:
    """Whether ``k`` are integers in [0, 2^32) whose times ``"%.6f" % (start_us
    / 1e6 + k * bin_s)`` print exactly: with integer start and bin size, they
    do in [0, 2^32 s), where the float is within 2^-21 s < 0.5 µs of them."""
    if not (k.dtype.kind in "iu" and isinstance(start_us, (int, np.integer))
            and isinstance(bin_s, (int, np.integer))):
        return False
    lo, hi = int(k.min(initial=0)), int(k.max(initial=0))
    times = [int(start_us) + j * int(bin_s) * 1_000_000 for j in (lo, hi)]
    return 0 <= lo and hi < 2**32 and 0 <= min(times) and max(times) < SERIES_TIME_GUARD_US


def _ascii_rows(n_rows: int, fields: list) -> bytes:
    """Rows of ``fields`` rendered as ASCII, one row per index.

    A field is a constant ``bytes``, or a column of integers in [0, 2^32)
    printed as ``%d`` prints it.  Each field is laid out right-aligned in a
    fixed-width uint8 matrix with a keep-mask that is false on leading
    zeros; one boolean compress joins the rows.  Digits are peeled in
    uint32, where dividing by ten is several times cheaper than in 64 bits.
    """
    fields = [f if isinstance(f, bytes) else f.astype(np.uint32) for f in fields]
    widths = [len(f) if isinstance(f, bytes) else len(str(int(f.max(initial=0))))
              for f in fields]
    chars = np.empty((n_rows, sum(widths)), dtype=np.uint8)
    keep = np.ones((n_rows, sum(widths)), dtype=bool)
    col = 0
    for field, width in zip(fields, widths):
        out = chars[:, col:col + width]
        if isinstance(field, bytes):
            out[:] = np.frombuffer(field, dtype=np.uint8)
        else:
            # Column j of the field is a leading zero unless field >= 10^(width-1-j).
            for j in range(width - 1):
                np.greater_equal(field, np.uint32(10 ** (width - 1 - j)), out=keep[:, col + j])
            for j in range(width - 1, -1, -1):
                q = field // np.uint32(10)
                field -= q * np.uint32(10)
                field += np.uint32(ord("0"))
                out[:, j] = field
                field = q
        col += width
    return chars[keep].tobytes()


def read_series_csv(path) -> CountSeries:
    """Read back a CountSeries CSV written by :func:`write_series_csv`.

    Each row must be ASCII ``bin_index,t_start_s,count``, with the time in
    the writer's ``%.6f`` form.  Bin indices must run 0, 1, 2, ... and start
    times must increase in even steps of a whole number of seconds (within
    ``SPACING_TOL_S``).  Anything else raises ``ValueError`` naming the path
    and the first line that breaks the format.  A file that is byte for byte
    what the writer writes for it, where bin starts print exactly, is parsed
    by numpy; any other by the line loop that defines the format.
    """
    with open(path, "rb") as f:
        blob = f.read()
    series = _series_from_bytes(blob)
    return _read_series_lines(path, blob) if series is None else series


def _series_from_bytes(blob: bytes) -> CountSeries | None:
    """The series S whose :func:`write_series_csv` file is ``blob``, where S's bin
    starts print exactly, else None; the line loop reads that file back to S.
    The counts are the fields after each line's second comma, read right-aligned
    one digit column at a time (at most 18), the start and bin size the first two
    times; S is kept only when the writer's bytes for it equal ``blob``."""
    body = np.frombuffer(blob, np.uint8)
    ends = np.flatnonzero(body == ord("\n"))[1:]  # of the rows, past the header's
    counts = np.zeros(ends.size, np.uint64)  # before the temporaries, which it outlives
    commas = np.flatnonzero(body == ord(","))
    if not 0 < ends.size == commas[3::2].size:
        return None
    width = ends - commas[3::2] - 1  # of each count field
    for j in range(1, min(int(width.max()), 18) + 1):  # the j-th char from each field's end
        counts += (body[ends - j] - np.uint8(ord("0"))) * (width >= j) * np.uint64(10 ** (j - 1))
    try:
        us = [int(blob[a + 1:b].replace(b".", b"")) for a, b in zip(commas[2:6:2], commas[3:6:2])]
    except ValueError:
        return None
    bin_s = max((us[-1] - us[0]) // 1_000_000, 1)
    if not _exact_seconds(us[0], bin_s, np.arange(ends.size)):
        return None
    series, at = CountSeries(us[0], bin_s, counts.view(np.int64)), 0
    for block in _series_csv_blocks(series):  # compared in place, never joined
        if not blob.startswith(block, at):
            return None
        at += len(block)
    return series if at == len(blob) else None


def _read_series_lines(path, blob: bytes) -> CountSeries:
    """The series of a CSV file's bytes, line by line: the definition of the
    format, and of every error message."""
    # A negative count matches too, so that it gets the range message; -0 does not.
    row_form = re.compile(r"([0-9]+),(-?(?:0|[1-9][0-9]*)\.[0-9]{6}),([0-9]+|-0*[1-9][0-9]*)")
    counts: list[int] = []
    t_first = 0.0
    bin_size = 1
    t_prev = None
    where = f"{path}: line "  # formatted once, not once per line
    # Split as text mode reads lines: at \n, \r and \r\n.
    for line_no, raw in enumerate(blob.splitlines() or [b""], start=1):
        try:
            line = _utf8(raw).strip()
        except ValueError as e:
            raise ValueError(f"{where}{line_no}: {e}") from None
        if line_no == 1 and line != "bin_index,t_start_s,count":
            raise ValueError(f"{path}: unexpected CSV header {line!r}")
        if line_no == 1 or not line:
            continue
        row = row_form.fullmatch(line)
        if row is None:
            raise ValueError(f"{where}{line_no}: expected bin_index,t_start_s,count, got {line!r}")
        idx_s, t_text, count_s = row.groups()
        idx, t_s, count = int(idx_s), float(t_text), int(count_s)
        if idx != len(counts):
            raise ValueError(f"{where}{line_no}: bin index {idx}, expected {len(counts)}")
        if not 0 <= count < 2**63:
            raise ValueError(f"{where}{line_no}: count {count_s} is outside 0..2**63-1")
        if t_prev is None:
            t_first = t_s
        elif not t_s > t_prev:
            raise ValueError(f"{where}{line_no}: time {t_text} s does not increase")
        elif idx == 1:
            bin_size = round(t_s - t_first)
            if bin_size < 1 or abs(t_s - t_first - bin_size) > SPACING_TOL_S:
                raise ValueError(f"{where}{line_no}: bin spacing {t_s - t_first:g} s is not a "
                                 f"whole number of seconds")
        elif abs(t_s - (t_first + idx * bin_size)) > SPACING_TOL_S:
            raise ValueError(f"{where}{line_no}: uneven spacing, time {t_text} s where "
                             f"{t_first + idx * bin_size:.6f} s was expected")
        t_prev = t_s
        counts.append(count)
    if not counts:
        raise ValueError(f"{path}: empty series")
    return CountSeries(int(round(t_first * 1e6)), bin_size, np.array(counts))
