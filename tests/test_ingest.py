"""Event log, binning and pcap parsing tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospfrqa import ingest
from ospfrqa.ingest import EventFilter, LsaEvent


def make_event(**kw):
    defaults = dict(ts_us=0, monitor="m1", ls_type=1, adv_router="10.0.0.1",
                    ls_id="10.0.0.1", ls_age=3, ls_seq=-2147483647, is_ack=False)
    defaults.update(kw)
    return LsaEvent(**defaults)


event_strategy = st.builds(
    LsaEvent,
    ts_us=st.integers(min_value=0, max_value=2**48),
    monitor=st.sampled_from(["rcs1", "r7", "r14"]),
    ls_type=st.integers(min_value=1, max_value=5),
    adv_router=st.sampled_from(["10.0.0.1", "10.0.0.9", "192.168.1.200"]),
    ls_id=st.sampled_from(["10.0.0.1", "0.0.0.0", "255.255.255.255"]),
    ls_age=st.integers(min_value=0, max_value=3600),
    ls_seq=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    is_ack=st.booleans(),
)


class TestLsaEvent:
    def test_rejects_bad_type(self):
        with pytest.raises(ValueError, match="ls_type"):
            make_event(ls_type=7)

    def test_rejects_bad_age(self):
        with pytest.raises(ValueError, match="ls_age"):
            make_event(ls_age=3601)


class TestLogRoundTrip:
    def test_thousand_random_events(self, tmp_path):
        rng = np.random.default_rng(2024)
        events = [
            make_event(
                ts_us=int(rng.integers(0, 10**12)),
                monitor=f"r{rng.integers(1, 20)}",
                ls_type=int(rng.integers(1, 6)),
                adv_router=f"10.0.{rng.integers(0, 255)}.{rng.integers(1, 255)}",
                ls_id=f"10.0.{rng.integers(0, 255)}.{rng.integers(1, 255)}",
                ls_age=int(rng.integers(0, 3601)),
                ls_seq=int(rng.integers(-(2**31), 2**31)),
                is_ack=bool(rng.integers(0, 2)),
            )
            for _ in range(1000)
        ]
        path = tmp_path / "events.jsonl"
        assert ingest.write_lsa_log(path, events) == 1000
        assert list(ingest.read_lsa_log(path)) == events

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(ingest.read_lsa_log(path)) == []

    def test_bad_ls_type_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ingest.write_lsa_log(path, [make_event()])
        good = path.read_text()
        path.write_text(good + good.replace('"ls_type":1', '"ls_type":7'))
        with pytest.raises(ingest.LogFormatError, match="line 2"):
            list(ingest.read_lsa_log(path))

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"ts_us":1,"monitor":"m"}\n')
        with pytest.raises(ingest.LogFormatError, match="line 1.*missing"):
            list(ingest.read_lsa_log(path))

    def test_wrong_type_reports_line(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        ingest.write_lsa_log(path, [make_event()])
        path.write_text(path.read_text().replace('"ls_age":3', '"ls_age":"old"'))
        with pytest.raises(ingest.LogFormatError, match="line 1"):
            list(ingest.read_lsa_log(path))

    @given(st.lists(event_strategy, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, events):
        path = tmp_path_factory.mktemp("logs") / "rt.jsonl"
        ingest.write_lsa_log(path, events)
        assert list(ingest.read_lsa_log(path)) == events


class TestBinning:
    def test_two_events_first_bin(self):
        events = [make_event(ts_us=500_000), make_event(ts_us=9_900_000)]
        s = ingest.bin_series(events, EventFilter(), 10, 0, 30_000_000)
        assert s.counts.tolist() == [2, 0, 0]

    def test_boundary_is_half_open(self):
        s = ingest.bin_series([make_event(ts_us=10_000_000)], EventFilter(), 10, 0, 30_000_000)
        assert s.counts.tolist() == [0, 1, 0]

    def test_no_matching_events(self):
        s = ingest.bin_series([make_event(monitor="other")],
                              EventFilter(monitor="m1"), 10, 0, 50_000_000)
        assert s.counts.tolist() == [0] * 5

    def test_acks_excluded_by_default(self):
        events = [make_event(is_ack=True), make_event()]
        s = ingest.bin_series(events, EventFilter(), 10, 0, 10_000_000)
        assert s.counts.sum() == 1
        s2 = ingest.bin_series(events, EventFilter(include_acks=True), 10, 0, 10_000_000)
        assert s2.counts.sum() == 2

    def test_out_of_range_dropped_and_reported(self):
        events = [make_event(ts_us=-5), make_event(ts_us=40_000_000), make_event(ts_us=1)]
        s = ingest.bin_series(events, EventFilter(), 10, 0, 40_000_000)
        assert s.counts.sum() == 1
        assert s.dropped == 2

    @given(
        st.lists(st.integers(min_value=-10**7, max_value=5 * 10**7), max_size=60),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation_property(self, times, bin_size):
        events = [make_event(ts_us=t) for t in times]
        s = ingest.bin_series(events, EventFilter(), bin_size, 0, 40_000_000)
        assert int(s.counts.sum()) + s.dropped == len(times)

    def test_csv_round_trip(self, tmp_path):
        s = ingest.CountSeries(0, 10, np.array([1, 0, 4, 2]))
        path = tmp_path / "series.csv"
        ingest.write_series_csv(path, s)
        back = ingest.read_series_csv(path)
        assert back.counts.tolist() == [1, 0, 4, 2]
        assert back.bin_size_s == 10
        assert back.start_us == 0

    def test_csv_round_trip_at_epoch_times(self, tmp_path):
        s = ingest.CountSeries(1_700_000_000_123_456, 30, np.arange(5000) % 7)
        path = tmp_path / "series.csv"
        ingest.write_series_csv(path, s)
        back = ingest.read_series_csv(path)
        assert (back.start_us, back.bin_size_s) == (s.start_us, 30)
        assert np.array_equal(back.counts, s.counts)

    @pytest.mark.parametrize("rows, line, message", [
        (["0,0,1", "1,10,0", "2,35,2", "3,37,0"], 4, "uneven spacing"),
        (["0,0,1", "1,10,0", "3,30,2"], 4, "bin index 3, expected 2"),
        (["1,0,1", "2,10,0"], 2, "bin index 1, expected 0"),
        (["0,0,1", "1,10,0", "2,10,2"], 4, "does not increase"),
        (["0,10,1", "1,0,0"], 3, "does not increase"),
        (["0,0,1", "1,0.4,0"], 3, "not a whole number"),
        (["0,0,1", "1,12.5,0"], 3, "not a whole number"),
        (["0,0,1", "1,10"], 3, "expected bin_index,t_start_s,count"),
        (["0,0,1", "1,inf,0"], 3, "expected bin_index,t_start_s,count"),
    ])
    def test_csv_rejects_malformed_rows(self, tmp_path, rows, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["bin_index,t_start_s,count", *rows]) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            ingest.read_series_csv(path)
        assert f"{path}: line {line}:" in str(err.value)


# --- pcap fixtures ----------------------------------------------------------


def lsa_header(ls_age=4, ls_type=1, ls_id="10.0.0.1", adv="10.0.0.1",
               seq=-2147483647, length=20):
    out = struct.pack(">HBB", ls_age, 0, ls_type)
    out += bytes(int(x) for x in ls_id.split("."))
    out += bytes(int(x) for x in adv.split("."))
    out += struct.pack(">iHH", seq, 0, length)
    return out


def ospf_packet(ptype, payload, router_id="10.0.0.9"):
    length = 24 + len(payload)
    header = struct.pack(">BBH", 2, ptype, length)
    header += bytes(int(x) for x in router_id.split("."))
    header += struct.pack(">IHH", 0, 0, 0) + b"\x00" * 8
    return header + payload


def ipv4_packet(payload, proto=89):
    total = 20 + len(payload)
    hdr = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, 0, 0, 64, proto, 0,
                      bytes([10, 0, 0, 9]), bytes([224, 0, 0, 5]))
    return hdr + payload

def eth_frame(payload, ethertype=b"\x08\x00"):
    return b"\x02" * 6 + b"\x04" * 6 + ethertype + payload


def ls_update(lsas, declared=None, bodies=None):
    declared = len(lsas) if declared is None else declared
    payload = struct.pack(">I", declared)
    for i, hdr in enumerate(lsas):
        body = (bodies or {}).get(i, b"")
        # patch the length field to cover the body
        hdr = hdr[:18] + struct.pack(">H", 20 + len(body))
        payload += hdr + body
    return payload


def pcap_bytes(records, endian="<", link_type=1, snaplen=65535):
    out = struct.pack(endian + "IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, snaplen, link_type)
    for ts_us, data in records:
        out += struct.pack(endian + "IIII", ts_us // 10**6, ts_us % 10**6, len(data), len(data))
        out += data
    return out


class TestPcap:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(pcap_bytes([]))
        reader = ingest.read_pcap(path)
        assert reader.link_type == 1
        assert list(reader) == []

    def test_single_record_timestamp(self, tmp_path):
        path = tmp_path / "one.pcap"
        path.write_bytes(pcap_bytes([(10_000_005, b"\x01\x02")]))
        recs = list(ingest.read_pcap(path))
        assert len(recs) == 1
        assert recs[0].ts_us == 10_000_005
        assert recs[0].data == b"\x01\x02"

    def test_byte_swapped_twin(self, tmp_path):
        frame = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        native = tmp_path / "native.pcap"
        swapped = tmp_path / "swapped.pcap"
        native.write_bytes(pcap_bytes([(123456, frame)], endian="<"))
        swapped.write_bytes(pcap_bytes([(123456, frame)], endian=">"))
        a = list(ingest.read_pcap(native))
        b = list(ingest.read_pcap(swapped))
        assert a == b

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
        with pytest.raises(ingest.UnsupportedFormatError, match="magic"):
            ingest.read_pcap(path)

    def test_truncated_record_header(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        path.write_bytes(pcap_bytes([(1, b"xy")]) + b"\x00\x01\x02")
        reader = ingest.read_pcap(path)
        it = iter(reader)
        assert next(it).data == b"xy"
        with pytest.raises(ingest.TruncatedPcapError):
            next(it)

    def test_snaplen_truncation_flagged(self, tmp_path):
        path = tmp_path / "snap.pcap"
        data = struct.pack("<IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, 4, 1)
        data += struct.pack("<IIII", 0, 0, 4, 100) + b"abcd"
        path.write_bytes(data)
        rec = next(iter(ingest.read_pcap(path)))
        assert rec.truncated


class TestParseOspf:
    def test_tcp_packet_ignored(self):
        frame = eth_frame(ipv4_packet(b"\x00" * 30, proto=6))
        assert ingest.parse_ospf_packet(frame, 1) == []

    def test_non_ip_ethertype_ignored(self):
        assert ingest.parse_ospf_packet(eth_frame(b"\x00" * 40, b"\x86\xdd"), 1) == []

    def test_hello_packet_ignored(self):
        frame = eth_frame(ipv4_packet(ospf_packet(1, b"\x00" * 20)))
        assert ingest.parse_ospf_packet(frame, 1) == []

    def test_hand_assembled_ls_update(self):
        hdr = lsa_header(ls_age=4, ls_type=1, adv="10.0.0.1", ls_id="10.0.0.1", seq=-2147483640)
        frame = eth_frame(ipv4_packet(ospf_packet(4, ls_update([hdr]))))
        events = ingest.parse_ospf_packet(frame, 1, ts_us=77, monitor="cap0")
        assert len(events) == 1
        ev = events[0]
        assert ev.ls_type == 1
        assert ev.ls_age == 4
        assert ev.adv_router == "10.0.0.1"
        assert ev.ls_id == "10.0.0.1"
        assert ev.ls_seq == -2147483640
        assert ev.ts_us == 77 and ev.monitor == "cap0"
        assert not ev.is_ack

    def test_update_with_bodies_and_multiple_lsas(self):
        h1 = lsa_header(ls_age=1, adv="10.0.0.1")
        h2 = lsa_header(ls_age=9, ls_type=2, adv="10.0.0.2", ls_id="192.168.0.1")
        frame = eth_frame(ipv4_packet(ospf_packet(
            4, ls_update([h1, h2], bodies={0: b"\x00" * 12, 1: b"\x00" * 24}))))
        events = ingest.parse_ospf_packet(frame, 1)
        assert [e.adv_router for e in events] == ["10.0.0.1", "10.0.0.2"]
        assert [e.ls_type for e in events] == [1, 2]

    def test_declared_two_but_one_present(self):
        frame = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()], declared=2))))
        with pytest.raises(ingest.MalformedPacketError, match="offset"):
            ingest.parse_ospf_packet(frame, 1)

    def test_ls_ack_yields_ack_events(self):
        payload = lsa_header(ls_age=30) + lsa_header(ls_age=31, adv="10.0.0.2")
        frame = eth_frame(ipv4_packet(ospf_packet(5, payload)))
        events = ingest.parse_ospf_packet(frame, 1)
        assert len(events) == 2
        assert all(e.is_ack for e in events)

    def test_raw_ip_link_type(self):
        pkt = ipv4_packet(ospf_packet(4, ls_update([lsa_header()])))
        events = ingest.parse_ospf_packet(pkt, 101)
        assert len(events) == 1

    def test_stateless_across_frames(self):
        good = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        other = eth_frame(ipv4_packet(b"\x00" * 30, proto=17))
        alone = ingest.parse_ospf_packet(good, 1)
        for _ in range(3):
            ingest.parse_ospf_packet(other, 1)
        assert ingest.parse_ospf_packet(good, 1) == alone

    def test_extract_from_file(self, tmp_path):
        frames = [
            (1_000_000, eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))),
            (2_000_000, eth_frame(ipv4_packet(b"\x00" * 40, proto=6))),
            (3_000_000, eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header(ls_age=8)]))))),
        ]
        path = tmp_path / "cap.pcap"
        path.write_bytes(pcap_bytes(frames))
        events = list(ingest.extract_pcap_events(path, monitor="tap"))
        assert [e.ts_us for e in events] == [1_000_000, 3_000_000]
        assert all(e.monitor == "tap" for e in events)
