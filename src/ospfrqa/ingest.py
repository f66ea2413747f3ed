"""Turn raw observations into LSA event streams and binned count series.

Two input paths: classic pcap capture files (tcpdump output) holding raw
OSPF packets, and the JSON-lines event log that the simulator writes and
every other part of the pipeline exchanges.  Both converge on
:class:`LsaEvent`; :func:`bin_series` then produces the uniformly binned
counts the recurrence analysis consumes.

The log reader and the series CSV writer have a fast path for what the
pipeline produces: lines as :func:`write_lsa_log` writes them, and series
from time 0 on with counts below 2^32.  Any other input takes the plain
path beside it (``json.loads``, ``%`` formatting), which defines the
format; both paths give the same result for the same input.
"""

from __future__ import annotations

import itertools
import json
import re
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IPV4 = 101

OSPF_PROTO = 89
OSPF_LS_UPDATE = 4
OSPF_LS_ACK = 5

LSA_HEADER_LEN = 20
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

LOG_FIELDS = ("ts_us", "monitor", "ls_type", "adv_router", "ls_id", "ls_age", "ls_seq", "is_ack")


class UnsupportedFormatError(ValueError):
    """Input file is not a classic pcap."""


class TruncatedPcapError(ValueError):
    """Record header or body ended mid-stream."""


class MalformedPacketError(ValueError):
    """OSPF frame with inconsistent length fields."""


class LogFormatError(ValueError):
    """Bad line in an LSA event log; the message names the path and line."""


@dataclass(frozen=True)
class LsaEvent:
    """One observed LSA update (or acknowledgment) at a monitoring point."""

    ts_us: int
    monitor: str
    ls_type: int
    adv_router: str
    ls_id: str
    ls_age: int
    ls_seq: int
    is_ack: bool = False

    def __post_init__(self):
        if self.ls_type not in (1, 2, 3, 4, 5):
            raise ValueError(f"ls_type must be 1-5, got {self.ls_type}")
        if not 0 <= self.ls_age <= 3600:
            raise ValueError(f"ls_age must be in [0, 3600], got {self.ls_age}")


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

    def matches(self, ev: LsaEvent) -> bool:
        return ((self.include_acks or not ev.is_ack)
                and (self.monitor is None or ev.monitor == self.monitor)
                and (self.origin is None or ev.adv_router == self.origin)
                and (self.ls_types is None or ev.ls_type in self.ls_types))


@dataclass
class CountSeries:
    """Uniformly binned LSA counts: the x_t fed to the recurrence analysis."""

    start_us: int
    bin_size_s: int
    counts: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.counts.size)


# --- pcap ------------------------------------------------------------------


@dataclass(frozen=True)
class PcapRecord:
    ts_us: int
    data: bytes
    truncated: bool


def read_pcap(path) -> tuple[int, Iterator[PcapRecord]]:
    """Open a classic pcap file: its link type, and a stream of its records.

    Handles both byte orders; timestamps come back in microseconds.
    Frames shortened by the capture snaplen are passed through with the
    ``truncated`` flag set.  A file that does not start with the classic
    magic raises :class:`UnsupportedFormatError`; a record that ends
    mid-header or mid-body terminates the stream by raising
    :class:`TruncatedPcapError`, naming the path and the record's number
    (from 1), after the prior records were yielded.

    The global header is read and the file closed before this returns;
    iterating the records opens the file again.  So a stream that is never
    iterated holds no open file, and one dropped part-way closes its file
    when the generator is finalized.
    """
    with open(path, "rb") as f:
        head = f.read(24)
    if len(head) < 24:
        raise UnsupportedFormatError(f"{path}: too short for a pcap global header")
    magic = struct.unpack("<I", head[:4])[0]
    if magic == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack(">I", head[:4])[0] == PCAP_MAGIC:
        endian = ">"
    else:
        raise UnsupportedFormatError(
            f"{path}: bad magic 0x{magic:08x}; only classic pcap is supported"
        )
    link_type = struct.unpack(endian + "I", head[20:])[0]
    record_header = struct.Struct(endian + "IIII")

    def gen() -> Iterator[PcapRecord]:
        with open(path, "rb") as f:
            f.seek(24)
            for k in itertools.count(1):
                header = f.read(16)
                if not header:
                    return
                if len(header) < 16:
                    raise TruncatedPcapError(
                        f"{path}: record {k}: record header cut short at end of file")
                ts_sec, ts_usec, incl_len, orig_len = record_header.unpack(header)
                data = f.read(incl_len)
                if len(data) < incl_len:
                    raise TruncatedPcapError(
                        f"{path}: record {k}: record body cut short: "
                        f"expected {incl_len} bytes, got {len(data)}"
                    )
                yield PcapRecord(ts_sec * 1_000_000 + ts_usec, data, incl_len < orig_len)

    return link_type, gen()


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
    if ls_type not in (1, 2, 3, 4, 5):
        raise MalformedPacketError(f"LSA type {ls_type} out of range at offset {at + 3}")
    if ls_age > 3600:
        raise MalformedPacketError(f"LS age {ls_age} exceeds MaxAge at offset {at}")
    return LsaEvent(ts_us, monitor, ls_type, "%d.%d.%d.%d" % h[7:11], "%d.%d.%d.%d" % h[3:7],
                    ls_age, h[11], is_ack), h[13]


def extract_pcap_events(path, monitor: str) -> Iterator[LsaEvent]:
    """Stream LSA events out of a capture file, stamping the monitor name.
    A frame's parse error names the path, the record (from 1) and any snaplen cut."""
    link_type, records = read_pcap(path)
    if link_type not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IPV4):
        raise UnsupportedFormatError(f"{path}: unsupported link type {link_type}")
    try:
        for k, rec in enumerate(records, start=1):
            yield from parse_ospf_packet(rec.data, link_type, rec.ts_us, monitor)
    except MalformedPacketError as e:
        cut = " (the capture's snaplen cut this frame short)" if rec.truncated else ""
        raise type(e)(f"{path}: record {k}: {e}{cut}") from None


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


class _AsciiText(dict):
    """Memo of ``bytes.decode`` per value, so equal strings are shared."""

    def __missing__(self, raw):
        self[raw] = text = raw.decode("ascii")
        return text


def write_lsa_log(path, events: Iterable[LsaEvent]) -> int:
    """Write events as JSON lines; returns the number written."""
    q = _JsonStrings()
    lines = [_LOG_LINE % (ev.ts_us, q[ev.monitor], ev.ls_type, q[ev.adv_router], q[ev.ls_id],
                          ev.ls_age, ev.ls_seq, "true" if ev.is_ack else "false")
             for ev in events]
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))
    return len(lines)


# Exactly the lines that ``write_lsa_log`` emits for ASCII strings free of
# quotes, backslashes and control characters, and integers of at most 18
# digits: the fields in LOG_FIELDS order, compact separators, an optional
# newline.  On such a line the captured groups are the values ``json.loads``
# returns, so it can skip the JSON parser.
_JSON_INT = rb"(-?(?:0|[1-9][0-9]{0,17}))"
_JSON_ASCII = rb'"([\x20\x21\x23-\x5b\x5d-\x7e]*)"'
_CANONICAL_LINE = re.compile(
    rb'\{"ts_us":%s,"monitor":%s,"ls_type":%s,"adv_router":%s,"ls_id":%s,'
    rb'"ls_age":%s,"ls_seq":%s,"is_ack":(true|false)\}\n?'
    % (_JSON_INT, _JSON_ASCII, _JSON_INT, _JSON_ASCII, _JSON_ASCII, _JSON_INT, _JSON_INT))


def read_lsa_log(path) -> Iterator[LsaEvent]:
    """Stream events back from a JSON-lines log, validating each line.

    A line as :func:`write_lsa_log` writes it (see ``_CANONICAL_LINE``) is
    read by one regular-expression match; every other line, blank lines,
    whitespace, escapes, non-ASCII text, extra, missing or duplicate keys
    included, goes through ``json.loads`` and the field checks, which stay
    the definition of the format.  Both give the same event for the same
    line, and ``LsaEvent`` validates either.  A bad line raises
    :class:`LogFormatError` naming the path and the line.
    """
    canonical = _CANONICAL_LINE.fullmatch
    text = _AsciiText()
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            m = canonical(raw)
            try:
                if m is None:
                    event = _parse_log_line(raw)
                else:
                    ts, mon, ls_type, adv, ls_id, age, seq, ack = m.groups()
                    event = LsaEvent(int(ts), text[mon], int(ls_type), text[adv], text[ls_id],
                                     int(age), int(seq), ack == b"true")
            except ValueError as e:
                raise LogFormatError(f"{path}: line {line_no}: {e}") from None
            if event is not None:
                yield event


def _parse_log_line(raw: bytes) -> LsaEvent | None:
    """The event of one log line, None for a blank line; ValueError if bad."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as e:
        raise ValueError(f"not valid UTF-8 (byte 0x{raw[e.start]:02x} "
                         f"at column {e.start + 1})") from None
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
    kinds = (int, str, int, str, str, int, int, bool)  # LOG_FIELDS are LsaEvent's fields
    return LsaEvent(*[_expect(rec, key, kind) for key, kind in zip(LOG_FIELDS, kinds)])


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
    events: Iterable[LsaEvent],
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
    if bin_size_s < 1:
        raise ValueError("bin size must be >= 1 second")
    bin_us = bin_size_s * 1_000_000
    n_bins = -((t0_us - t1_us) // bin_us)  # ceil of duration / bin
    counts = np.zeros(n_bins, dtype=np.int64)
    dropped = 0
    for ev in events:
        if not flt.matches(ev):
            continue
        if not t0_us <= ev.ts_us < t1_us:
            dropped += 1
            continue
        counts[(ev.ts_us - t0_us) // bin_us] += 1
    return CountSeries(t0_us, bin_size_s, counts, dropped)


def write_series_csv(path, series: CountSeries) -> None:
    """CountSeries CSV: header ``bin_index,t_start_s,count``.

    ``t_start_s`` is ``"%.6f" % (start_us / 1e6 + k * bin_size_s)``: the
    per-value ``%`` path, ``CSV_CHUNK_ROWS`` rows at a time, defines the
    format.  A series with an integer start and bin size, every bin start
    in [0, ``SERIES_TIME_GUARD_US``) (2^32 s) and every bin index and count
    in [0, 2^32), as every series the pipeline writes, is rendered from
    integers by :func:`_ascii_rows` instead.  There the float is within
    2^-21 s < 0.5 µs of the exact bin start ``start_us + k * bin_size_s *
    10^6`` µs, so it prints as the exact decimal of that integer.
    """
    n = len(series)
    start_us, bin_s, counts = series.start_us, series.bin_size_s, series.counts
    first = last = -1
    if isinstance(start_us, (int, np.integer)) and isinstance(bin_s, (int, np.integer)):
        first = int(start_us)
        last = first + max(n - 1, 0) * int(bin_s) * 1_000_000
    if not (0 <= min(first, last) and max(first, last) < SERIES_TIME_GUARD_US
            and n <= 2**32 and 0 <= counts.min(initial=0) and counts.max(initial=0) < 2**32):
        idx = np.arange(n)
        times = start_us / 1e6 + idx * bin_s
        with open(path, "w", encoding="utf-8") as f:
            f.write("bin_index,t_start_s,count\n")
            for lo in range(0, n, CSV_CHUNK_ROWS):  # Python numbers, as a per-row loop prints
                chunk = [c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in (idx, times, counts)]
                f.write("".join(["%d,%.6f,%d\n" % values for values in zip(*chunk)]))
        return
    # Bin starts are linear in k, so all of them lie between the first and
    # the last; bin k starts (start_s + k * bin_s) s and start_frac µs.
    start_s, start_frac = divmod(first, 1_000_000)
    frac = b".%06d," % start_frac
    with open(path, "wb") as f:
        f.write(b"bin_index,t_start_s,count\n")
        for lo in range(0, n, SERIES_CSV_BLOCK_ROWS):
            k = np.arange(lo, min(lo + SERIES_CSV_BLOCK_ROWS, n), dtype=np.int64)
            f.write(_ascii_rows(k.size, [k, b",", start_s + k * int(bin_s), frac,
                                         counts[lo:lo + k.size], b"\n"]))


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
    and the first line that breaks the format.
    """
    # A negative count matches too, so that it gets the range message; -0 does not.
    row_form = re.compile(r"([0-9]+),(-?(?:0|[1-9][0-9]*)\.[0-9]{6}),([0-9]+|-0*[1-9][0-9]*)")
    counts: list[int] = []
    t_first = 0.0
    bin_size = 1
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "bin_index,t_start_s,count":
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        t_prev = None
        where = f"{path}: line "  # formatted once, not once per line
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            row = row_form.fullmatch(line)
            if row is None:
                raise ValueError(
                    f"{where}{line_no}: expected bin_index,t_start_s,count, got {line!r}"
                )
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
                    raise ValueError(
                        f"{where}{line_no}: bin spacing {t_s - t_first:g} s is not a "
                        f"whole number of seconds"
                    )
            elif abs(t_s - (t_first + idx * bin_size)) > SPACING_TOL_S:
                raise ValueError(
                    f"{where}{line_no}: uneven spacing, time {t_text} s where "
                    f"{t_first + idx * bin_size:.6f} s was expected"
                )
            t_prev = t_s
            counts.append(count)
    if not counts:
        raise ValueError(f"{path}: empty series")
    return CountSeries(int(round(t_first * 1e6)), bin_size, np.array(counts))
