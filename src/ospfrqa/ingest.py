"""Turn raw observations into LSA event streams and binned count series.

Two input paths: classic pcap capture files (tcpdump output) holding raw
OSPF packets, and the JSON-lines event log that the simulator writes and
every other part of the pipeline exchanges.  Both converge on
:class:`LsaEvent`; :func:`bin_series` then produces the uniformly binned
counts the recurrence analysis consumes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IPV4 = 101

OSPF_PROTO = 89
OSPF_LS_UPDATE = 4
OSPF_LS_ACK = 5

LSA_HEADER_LEN = 20
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
    """Bad line in an LSA event log; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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
        if ev.is_ack and not self.include_acks:
            return False
        if self.monitor is not None and ev.monitor != self.monitor:
            return False
        if self.origin is not None and ev.adv_router != self.origin:
            return False
        if self.ls_types is not None and ev.ls_type not in self.ls_types:
            return False
        return True

    def describe(self) -> str:
        parts = [
            f"monitor={self.monitor or '*'}",
            f"origin={self.origin or '*'}",
            f"ls_types={','.join(map(str, sorted(self.ls_types))) if self.ls_types else '*'}",
        ]
        if self.include_acks:
            parts.append("acks=included")
        return " ".join(parts)


@dataclass
class CountSeries:
    """Uniformly binned LSA counts: the x_t fed to the recurrence analysis."""

    start_us: int
    bin_size_s: int
    counts: np.ndarray
    filter_desc: str = ""
    dropped: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.counts.size)

    def bin_time_s(self, bin_index: int) -> float:
        """Wall-clock time at which the given bin closes."""
        return self.start_us / 1e6 + (bin_index + 1) * self.bin_size_s


# --- pcap ------------------------------------------------------------------


@dataclass(frozen=True)
class PcapRecord:
    ts_us: int
    data: bytes
    truncated: bool


@dataclass
class PcapReader:
    link_type: int
    snaplen: int
    records: Iterator[PcapRecord] = field(repr=False, default=None)

    def __iter__(self) -> Iterator[PcapRecord]:
        return self.records


def read_pcap(path) -> PcapReader:
    """Open a classic pcap file and stream its records.

    Handles both byte orders; timestamps come back in microseconds.
    Frames shortened by the capture snaplen are passed through with the
    ``truncated`` flag set.  A file that does not start with the classic
    magic raises :class:`UnsupportedFormatError`; a record that ends
    mid-header or mid-body terminates the stream by raising
    :class:`TruncatedPcapError` after the prior records were yielded.
    """
    f = open(path, "rb")
    head = f.read(24)
    if len(head) < 24:
        f.close()
        raise UnsupportedFormatError(f"{path}: too short for a pcap global header")
    magic = struct.unpack("<I", head[:4])[0]
    if magic == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack(">I", head[:4])[0] == PCAP_MAGIC:
        endian = ">"
    else:
        f.close()
        raise UnsupportedFormatError(
            f"{path}: bad magic 0x{magic:08x}; only classic pcap is supported"
        )
    _vmaj, _vmin, _zone, _sig, snaplen, link_type = struct.unpack(endian + "HHiIII", head[4:])

    def gen() -> Iterator[PcapRecord]:
        try:
            while True:
                rec_head = f.read(16)
                if not rec_head:
                    return
                if len(rec_head) < 16:
                    raise TruncatedPcapError("record header cut short at end of file")
                ts_sec, ts_usec, incl_len, orig_len = struct.unpack(endian + "IIII", rec_head)
                data = f.read(incl_len)
                if len(data) < incl_len:
                    raise TruncatedPcapError(
                        f"record body cut short: expected {incl_len} bytes, got {len(data)}"
                    )
                yield PcapRecord(ts_sec * 1_000_000 + ts_usec, data, incl_len < orig_len)
        finally:
            f.close()

    return PcapReader(link_type=link_type, snaplen=snaplen, records=gen())


def _ipv4_str(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


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
        ip = frame[14:]
        base = 14
    elif link_type == LINKTYPE_RAW_IPV4:
        ip = frame
        base = 0
    else:
        raise UnsupportedFormatError(f"unsupported link type {link_type}")

    if len(ip) < 20 or ip[0] >> 4 != 4:
        return []
    ihl = (ip[0] & 0x0F) * 4
    if ip[9] != OSPF_PROTO or len(ip) < ihl + 24:
        return []
    ospf = ip[ihl:]
    base += ihl

    version, ptype = ospf[0], ospf[1]
    if version != 2 or ptype not in (OSPF_LS_UPDATE, OSPF_LS_ACK):
        return []
    ospf_len = struct.unpack(">H", ospf[2:4])[0]
    if ospf_len > len(ospf) or ospf_len < 24:
        raise MalformedPacketError(
            f"OSPF length field {ospf_len} inconsistent with frame at offset {base + 2}"
        )
    body = ospf[24:ospf_len]

    events: list[LsaEvent] = []
    if ptype == OSPF_LS_UPDATE:
        if len(body) < 4:
            raise MalformedPacketError(f"LS Update too short for LSA count at offset {base + 24}")
        declared = struct.unpack(">I", body[:4])[0]
        off = 4
        for i in range(declared):
            if off + LSA_HEADER_LEN > len(body):
                raise MalformedPacketError(
                    f"LS Update declares {declared} LSAs but #{i + 1} is missing "
                    f"at offset {base + 24 + off}"
                )
            events.append(_decode_lsa_header(body[off : off + LSA_HEADER_LEN],
                                             ts_us, monitor, is_ack=False,
                                             at=base + 24 + off))
            lsa_len = struct.unpack(">H", body[off + 18 : off + 20])[0]
            if lsa_len < LSA_HEADER_LEN or off + lsa_len > len(body):
                raise MalformedPacketError(
                    f"LSA length {lsa_len} overruns packet at offset {base + 24 + off + 18}"
                )
            off += lsa_len
    else:
        # LS Ack: a bare run of LSA headers, no count and no bodies.
        if len(body) % LSA_HEADER_LEN:
            raise MalformedPacketError(
                f"LS Ack body of {len(body)} bytes is not a whole number of headers "
                f"at offset {base + 24}"
            )
        for off in range(0, len(body), LSA_HEADER_LEN):
            events.append(_decode_lsa_header(body[off : off + LSA_HEADER_LEN],
                                             ts_us, monitor, is_ack=True,
                                             at=base + 24 + off))
    return events


def _decode_lsa_header(hdr: bytes, ts_us: int, monitor: str, is_ack: bool, at: int) -> LsaEvent:
    ls_age, _options, ls_type = struct.unpack(">HBB", hdr[:4])
    ls_id = _ipv4_str(hdr[4:8])
    adv = _ipv4_str(hdr[8:12])
    ls_seq = struct.unpack(">i", hdr[12:16])[0]
    if ls_type not in (1, 2, 3, 4, 5):
        raise MalformedPacketError(f"LSA type {ls_type} out of range at offset {at + 3}")
    if ls_age > 3600:
        raise MalformedPacketError(f"LS age {ls_age} exceeds MaxAge at offset {at}")
    return LsaEvent(ts_us, monitor, ls_type, adv, ls_id, ls_age, ls_seq, is_ack)


def extract_pcap_events(path, monitor: str) -> Iterator[LsaEvent]:
    """Stream LSA events out of a capture file, stamping the monitor name."""
    reader = read_pcap(path)
    for rec in reader:
        yield from parse_ospf_packet(rec.data, reader.link_type, rec.ts_us, monitor)


# --- JSON-lines event log --------------------------------------------------


def write_lsa_log(path, events: Iterable[LsaEvent]) -> int:
    """Write events as JSON lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for ev in events:
            f.write(json.dumps({
                "ts_us": ev.ts_us, "monitor": ev.monitor, "ls_type": ev.ls_type,
                "adv_router": ev.adv_router, "ls_id": ev.ls_id, "ls_age": ev.ls_age,
                "ls_seq": ev.ls_seq, "is_ack": ev.is_ack,
            }, separators=(",", ":")) + "\n")
            n += 1
    return n


def read_lsa_log(path) -> Iterator[LsaEvent]:
    """Stream events back from a JSON-lines log, validating each line."""
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise LogFormatError(line_no, f"not valid JSON ({e.msg})") from None
            missing = [k for k in LOG_FIELDS if k not in rec]
            if missing:
                raise LogFormatError(line_no, f"missing fields: {', '.join(missing)}")
            try:
                yield LsaEvent(
                    ts_us=_expect_int(rec, "ts_us", line_no),
                    monitor=_expect_str(rec, "monitor", line_no),
                    ls_type=_expect_int(rec, "ls_type", line_no),
                    adv_router=_expect_str(rec, "adv_router", line_no),
                    ls_id=_expect_str(rec, "ls_id", line_no),
                    ls_age=_expect_int(rec, "ls_age", line_no),
                    ls_seq=_expect_int(rec, "ls_seq", line_no),
                    is_ack=_expect_bool(rec, "is_ack", line_no),
                )
            except ValueError as e:
                if isinstance(e, LogFormatError):
                    raise
                raise LogFormatError(line_no, str(e)) from None


def _expect_int(rec, key, line_no) -> int:
    v = rec[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise LogFormatError(line_no, f"{key} must be an integer, got {v!r}")
    return v


def _expect_str(rec, key, line_no) -> str:
    v = rec[key]
    if not isinstance(v, str):
        raise LogFormatError(line_no, f"{key} must be a string, got {v!r}")
    return v


def _expect_bool(rec, key, line_no) -> bool:
    v = rec[key]
    if not isinstance(v, bool):
        raise LogFormatError(line_no, f"{key} must be a boolean, got {v!r}")
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
    return CountSeries(t0_us, bin_size_s, counts, flt.describe(), dropped)


def write_series_csv(path, series: CountSeries) -> None:
    """CountSeries CSV: header ``bin_index,t_start_s,count``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("bin_index,t_start_s,count\n")
        start_s = series.start_us / 1e6
        for i, c in enumerate(series.counts):
            f.write(f"{i},{start_s + i * series.bin_size_s:.6f},{int(c)}\n")


def read_series_csv(path) -> CountSeries:
    """Read back a CountSeries CSV written by :func:`write_series_csv`.

    Bin indices must run 0, 1, 2, ... and start times must increase in
    even steps of a whole number of seconds (within ``SPACING_TOL_S``);
    anything else raises ``ValueError`` naming the path and line.
    """
    counts: list[int] = []
    t_first = 0.0
    bin_size = 1
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "bin_index,t_start_s,count":
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        t_prev = None
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_no}"
            try:
                idx_s, t_text, count_s = line.split(",")
                idx, t_s, count = int(idx_s), float(t_text), int(count_s)
                if not math.isfinite(t_s):
                    raise ValueError(t_text)
            except ValueError:
                raise ValueError(
                    f"{where}: expected bin_index,t_start_s,count, got {line!r}"
                ) from None
            if idx != len(counts):
                raise ValueError(f"{where}: bin index {idx}, expected {len(counts)}")
            if t_prev is None:
                t_first = t_s
            elif not t_s > t_prev:
                raise ValueError(f"{where}: time {t_text} s does not increase")
            elif idx == 1:
                bin_size = round(t_s - t_first)
                if bin_size < 1 or abs(t_s - t_first - bin_size) > SPACING_TOL_S:
                    raise ValueError(
                        f"{where}: bin spacing {t_s - t_first:g} s is not a "
                        f"whole number of seconds"
                    )
            elif abs(t_s - (t_first + idx * bin_size)) > SPACING_TOL_S:
                raise ValueError(
                    f"{where}: uneven spacing, time {t_text} s where "
                    f"{t_first + idx * bin_size:.6f} s was expected"
                )
            t_prev = t_s
            counts.append(count)
    if not counts:
        raise ValueError(f"{path}: empty series")
    return CountSeries(int(round(t_first * 1e6)), bin_size, np.array(counts))
