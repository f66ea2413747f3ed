"""Event log, binning and pcap parsing tests."""

import dataclasses
import gc
import io
import json
import re
import struct
import sys
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from ospfrqa import ingest
from ospfrqa.ingest import EventColumns, EventFilter, LsaEvent


def make_event(**kw):
    defaults = dict(ts_us=0, monitor="m1", ls_type=1, adv_router="10.0.0.1",
                    ls_id="10.0.0.1", ls_age=3, ls_seq=-2147483647, is_ack=False)
    defaults.update(kw)
    return LsaEvent(**defaults)


# Strings that need escaping in JSON: quotes, backslashes, controls,
# non-ASCII and lone surrogates.
awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\xe9\U0001f600'),
              st.characters(exclude_categories=())),
    max_size=12,
)

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


def assert_both_readers_reject(path, event, message):
    """The constructor and the writer take ``event`` as it is; both log
    readers reject its line with exactly ``message``."""
    assert ingest.write_lsa_log(path, [event]) == 1
    for read in (lambda p: list(ingest.read_lsa_log(p)), ingest.read_log_columns):
        with pytest.raises(ingest.LogFormatError) as err:
            read(path)
        assert str(err.value) == f"{path}: line 1: {message}"


class TestLsaEvent:
    def test_rejects_bad_type(self, tmp_path):
        assert_both_readers_reject(tmp_path / "type.jsonl", make_event(ls_type=7),
                                   "ls_type must be 1-5, got 7")

    def test_rejects_bad_age(self, tmp_path):
        assert_both_readers_reject(tmp_path / "age.jsonl", make_event(ls_age=3601),
                                   "ls_age must be in [0, 3600], got 3601")


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

    @given(st.lists(st.builds(
        LsaEvent,
        ts_us=st.integers(min_value=-(2**70), max_value=2**70),
        monitor=awkward_text, ls_type=st.integers(min_value=1, max_value=5),
        adv_router=awkward_text, ls_id=awkward_text,
        ls_age=st.integers(min_value=0, max_value=3600),
        ls_seq=st.integers(min_value=-(2**40), max_value=2**40), is_ack=st.booleans(),
    ), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_write_matches_json_dumps_per_event(self, tmp_path_factory, events):
        path = tmp_path_factory.getbasetemp() / "bytes.jsonl"
        assert ingest.write_lsa_log(path, events) == len(events)
        assert path.read_bytes() == oracle.lsa_log(events).encode("utf-8")

    @pytest.mark.parametrize("prefix, content, line", [
        (b"", b"\xff\xfe" + json.dumps({"ts_us": 0}).encode(), 1),
        (b"", json.dumps(make_event()._asdict()).encode("utf-16"), 1),
        (b"\n", b'{"monitor": "m\xe9"}', 2),
    ], ids=["bom-bytes", "utf-16", "latin-1-on-line-2"])
    def test_bytes_that_are_not_utf8_report_file_and_line(self, tmp_path, prefix, content, line):
        path = tmp_path / "odd.jsonl"
        ingest.write_lsa_log(path, [make_event()])
        path.write_bytes(path.read_bytes() + prefix + content + b"\n")
        with pytest.raises(ingest.LogFormatError, match="not valid UTF-8") as err:
            list(ingest.read_lsa_log(path))
        assert str(err.value).startswith(f"{path}: line {line + 1}:")


# Raw JSON texts that take a line off the canonical form, or onto its edge.
ODD_JSON_VALUES = [
    "0", "-0", "7", "-7", "007", "-01", "123456789012345678", "-123456789012345678",
    "1234567890123456789", "-9223372036854775808", "1" * 25, "1.0", "1e3", "true",
    "false", "1", "null", '"x"', '""', '"10.0.0.1"', '"\\u0041"', '"\\/"', '"a\\"b"',
    '"\u00e9"', '"\x7f"', '"tab\\t"', "[]", "{}",
]
odd_json_values = st.sampled_from(ODD_JSON_VALUES)


@st.composite
def log_line_bytes(draw):
    """One log line: canonical, or canonical with up to two edits."""
    event = draw(st.one_of(event_strategy, st.builds(
        LsaEvent, ts_us=st.integers(-(2**70), 2**70), monitor=awkward_text,
        ls_type=st.integers(1, 5), adv_router=awkward_text, ls_id=awkward_text,
        ls_age=st.integers(0, 3600), ls_seq=st.integers(-(2**64), 2**64),
        is_ack=st.booleans())))
    pairs = [[json.dumps(k), json.dumps(v)] for k, v in event._asdict().items()]
    sep = ","
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["value", "extra", "duplicate", "swap", "escaped key",
                                     "spaces"]))
        i = draw(st.integers(0, len(pairs) - 1))
        if edit == "value":
            pairs[i][1] = draw(odd_json_values)
        elif edit == "extra":
            pairs.insert(i, [json.dumps(draw(st.text(max_size=4))), draw(odd_json_values)])
        elif edit == "duplicate":
            pairs.append([pairs[i][0], draw(st.sampled_from([pairs[i][1], "3", '"x"']))])
        elif edit == "swap":
            j = draw(st.integers(0, len(pairs) - 1))
            pairs[i], pairs[j] = pairs[j], pairs[i]
        elif edit == "escaped key":
            pairs[i][0] = pairs[i][0].replace("_", "\\u005f")
        else:
            sep = ", "
            pairs[i][0] = " " + pairs[i][0] + " "
    text = "{" + sep.join(f"{k}:{v}" for k, v in pairs) + "}"
    return text.encode("utf-8", "surrogatepass") + draw(st.sampled_from([b"\n", b"\r\n", b" \n"]))


def read_log_by_json_path(blob):
    """The events, then the message of the first bad line, from the JSON
    path alone (``json.loads`` and the field checks), one line at a time."""
    events = []
    for line_no, raw in enumerate(io.BytesIO(blob), start=1):
        try:
            event = ingest._parse_log_line(raw)
        except ValueError as e:
            return events, f"line {line_no}: {e}"
        if event is not None:
            events.append(event)
    return events, None


# The fields binning reads, which are the ones EventColumns keeps.
BINNED_FIELDS = ("ts_us", "monitor", "ls_type", "adv_router", "is_ack")


def column_events(cols):
    """The events of ``cols`` as a multiset of their typed binned fields."""
    names = {"monitor": cols.monitors, "adv_router": cols.routers}
    columns = [[names[f][i] for i in getattr(cols, f).tolist()] if f in names
               else getattr(cols, f).tolist() for f in BINNED_FIELDS]
    return Counter(tuple((type(v), v) for v in row) for row in zip(*columns))


def typed(events):
    return Counter(tuple((type(getattr(e, f)), getattr(e, f)) for f in BINNED_FIELDS)
                   for e in events)


def assert_reads_as_json_path(path, blob):
    """``read_log_columns`` gives the events the JSON path gives for
    ``blob``, or fails, if that does, with the same message."""
    path.write_bytes(blob)
    expected, message = read_log_by_json_path(blob)
    try:
        got = ingest.read_log_columns(path)
    except ingest.LogFormatError as e:
        assert message is not None and str(e) == f"{path}: {message}", blob
    else:
        assert message is None, blob
        assert column_events(got) == typed(expected), blob


CANONICAL = (b'{"ts_us":5,"monitor":"m","ls_type":1,"adv_router":"10.0.0.1",'
             b'"ls_id":"10.0.0.1","ls_age":0,"ls_seq":1,"is_ack":false}\n')


class TestLogFastPath:
    def test_canonical_file_is_read_in_bulk(self, tmp_path):
        events = [make_event(ts_us=t, monitor=f"r{t % 3}", ls_type=1 + t % 5, ls_age=t * 300,
                             is_ack=t % 2 == 0) for t in range(13)]
        path = tmp_path / "canonical.jsonl"
        ingest.write_lsa_log(path, events)
        with mock.patch.object(ingest, "read_lsa_log", side_effect=AssertionError):
            cols = ingest.read_log_columns(path)
        assert column_events(cols) == typed(events)

    @given(st.lists(log_line_bytes(), min_size=1, max_size=6), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_json_path_line_by_line(self, tmp_path_factory, lines, cut_last_newline):
        blob = b"".join(lines)
        assert_reads_as_json_path(tmp_path_factory.getbasetemp() / "fast.jsonl",
                                  blob.rstrip(b"\n") if cut_last_newline else blob)

    def test_each_odd_value_in_each_field_matches_json_path(self, tmp_path):
        base = make_event()._asdict()
        for key in ingest.LOG_FIELDS:
            for raw in ODD_JSON_VALUES:
                line = "{" + ",".join(f'"{k}":{raw if k == key else json.dumps(v)}'
                                      for k, v in base.items()) + "}\n"
                assert_reads_as_json_path(tmp_path / "odd.jsonl", line.encode())

    @pytest.mark.parametrize("line, canonical", [
        (b'{"ts_us":5,"monitor":"m","ls_type":1,"adv_router":"a","ls_id":"b","ls_age":0,'
         b'"ls_seq":-0,"is_ack":true}', True),
        (b'{"ts_us":-123456789012345678,"monitor":"","ls_type":5,"adv_router":"~ !#[]",'
         b'"ls_id":"}{,:","ls_age":3600,"ls_seq":0,"is_ack":false}\n', True),
        (b'{"ts_us":5,"monitor":"m","ls_type":9,"adv_router":"a","ls_id":"b","ls_age":0,'
         b'"ls_seq":1,"is_ack":true}\n', True),
        (b'{"ts_us":5,"monitor":"m","ls_type":1,"adv_router":"a","ls_id":"b","ls_age":3601,'
         b'"ls_seq":1,"is_ack":true}\n', True),
        (b'{"ts_us":5,"monitor":"m\x7f","ls_type":1,"adv_router":"a","ls_id":"b",'
         b'"ls_age":1,"ls_seq":1,"is_ack":true}\n', False),
    ], ids=["no-newline-minus-zero", "edge-values", "bad-ls-type", "bad-ls-age", "raw-del"])
    def test_edge_lines_read_as_json_path(self, tmp_path, line, canonical):
        # The JSON path still rejects a bad type or age on a canonical line.  The
        # columns reader gives a last line its missing newline.
        assert bool(ingest._CANONICAL_LINE.fullmatch(line.rstrip(b"\n") + b"\n")) == canonical
        assert_reads_as_json_path(tmp_path / "edge.jsonl", line)

    @pytest.mark.parametrize("blob", [
        b"x" + CANONICAL,
        CANONICAL + b"\n" + CANONICAL,
        CANONICAL + b"\n",
        CANONICAL.replace(b"\n", b"\r\n") * 2,
        CANONICAL + CANONICAL.rstrip(b"\n"),
        b"\n",
    ], ids=["junk-before-a-record", "blank-line", "blank-last-line", "crlf", "no-final-newline",
            "only-a-newline"])
    def test_files_that_do_not_tile_read_as_json_path(self, tmp_path, blob):
        # Each line holds at most one match of the pattern, at its start: a
        # record glued to the one before it is no match of its own.
        assert_reads_as_json_path(tmp_path / "tile.jsonl", blob)

    def test_two_records_on_a_line_are_not_valid_json(self, tmp_path):
        # Were the newline optional, the two records would tile the line.
        path = tmp_path / "glued.jsonl"
        path.write_bytes(CANONICAL + CANONICAL.rstrip(b"\n") + CANONICAL)
        with pytest.raises(ingest.LogFormatError, match=re.escape(
                f"{path}: line 2: not valid JSON (Extra data)")):
            ingest.read_log_columns(path)


def bin_events(events, *args):
    return ingest.bin_series(EventColumns.from_events(events), *args)


ROUTERS = ["10.0.0.1", "10.0.0.9", "192.168.1.200"]

event_filters = st.builds(
    EventFilter,
    monitor=st.sampled_from([None, "rcs1", "r7", "absent"]),
    origin=st.sampled_from([None, *ROUTERS, "absent"]),
    ls_types=st.one_of(st.none(), st.frozensets(st.integers(0, 6))),
    include_acks=st.booleans(),
)


class TestBinning:
    def test_two_events_first_bin(self):
        events = [make_event(ts_us=500_000), make_event(ts_us=9_900_000)]
        s = bin_events(events, EventFilter(), 10, 0, 30_000_000)
        assert s.counts.tolist() == [2, 0, 0]

    def test_boundary_is_half_open(self):
        s = bin_events([make_event(ts_us=10_000_000)], EventFilter(), 10, 0, 30_000_000)
        assert s.counts.tolist() == [0, 1, 0]

    def test_no_matching_events(self):
        s = bin_events([make_event(monitor="other")], EventFilter(monitor="m1"), 10, 0, 50_000_000)
        assert s.counts.tolist() == [0] * 5

    def test_acks_excluded_by_default(self):
        events = [make_event(is_ack=True), make_event()]
        s = bin_events(events, EventFilter(), 10, 0, 10_000_000)
        assert s.counts.sum() == 1
        s2 = bin_events(events, EventFilter(include_acks=True), 10, 0, 10_000_000)
        assert s2.counts.sum() == 2

    @pytest.mark.parametrize("bin_size", [9_223_372_036_855, 10**20])
    def test_bin_past_int64_microseconds_names_the_bin_size(self, bin_size):
        events = [make_event(ts_us=5_000_000)]
        widest = bin_events(events, EventFilter(), 9_223_372_036_854, 0, 10_000_000)
        assert widest.counts.tolist() == [1]
        with pytest.raises(ValueError, match=f"bin size {bin_size} s is too large"):
            bin_events(events, EventFilter(), bin_size, 0, 10_000_000)

    @pytest.mark.parametrize("bin_size, t0_us, t1_us", [
        (9_000_000_000_000, -9_300_000_000_000 * 10**6, 10**7),  # t0 below int64
        (2**62 // 10**6, -(2**63) + 1, 2**63),  # t0 in int64, offsets past it
    ])
    def test_offsets_past_int64_bin_exactly(self, bin_size, t0_us, t1_us):
        events = [make_event(ts_us=t) for t in (5_000_000, 9_000_000, 2**63 - 1, -(2**63))]
        s = bin_events(events, EventFilter(), bin_size, t0_us, t1_us)
        assert (s.counts.tolist(), s.dropped) == oracle.bin_series(
            events, EventFilter(), bin_size, t0_us, t1_us)
        assert s.counts.sum() == sum(t0_us <= ev.ts_us < t1_us for ev in events) > 0

    @pytest.mark.parametrize("t0_us, t1_us", [
        (0, 2**62 * 10**6),  # 2**62 int64 counts: past numpy's byte-size limit
        (-10**306, 10**7),  # past numpy's dimension limit
    ], ids=["bytes", "dimension"])
    def test_more_bins_than_an_array_holds_names_them(self, t0_us, t1_us):
        bins = -((t0_us - t1_us) // 10**6)
        with pytest.raises(ValueError, match=re.escape(
                f"{bins} bins of 1 s over [{t0_us}, {t1_us}) us are more than an array")):
            bin_events([make_event(ts_us=5_000_000)], EventFilter(), 1, t0_us, t1_us)

    def test_out_of_range_dropped_and_reported(self):
        events = [make_event(ts_us=-5), make_event(ts_us=40_000_000), make_event(ts_us=1)]
        s = bin_events(events, EventFilter(), 10, 0, 40_000_000)
        assert s.counts.sum() == 1
        assert s.dropped == 2

    @given(
        st.lists(st.integers(min_value=-10**7, max_value=5 * 10**7), max_size=60),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation_property(self, times, bin_size):
        events = [make_event(ts_us=t) for t in times]
        s = bin_events(events, EventFilter(), bin_size, 0, 40_000_000)
        assert int(s.counts.sum()) + s.dropped == len(times)

    @given(st.lists(st.builds(
        LsaEvent, ts_us=st.one_of(st.integers(-10**8, 10**9),
                                  st.sampled_from([-(2**63) - 1, 2**63, 2**70])),
        monitor=st.sampled_from(["rcs1", "r7", "r14"]), ls_type=st.integers(1, 5),
        adv_router=st.sampled_from(ROUTERS), ls_id=st.just("10.0.0.1"), ls_age=st.just(1),
        ls_seq=st.just(1), is_ack=st.booleans()), max_size=40),
        event_filters, st.integers(1, 30), st.integers(-10**8, 5 * 10**8),
        st.integers(1, 6 * 10**8))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_event_reference(self, events, flt, bin_size, t0_us, span_us):
        s = bin_events(events, flt, bin_size, t0_us, t0_us + span_us)
        assert (s.counts.tolist(), s.dropped) == oracle.bin_series(
            events, flt, bin_size, t0_us, t0_us + span_us)

    @pytest.mark.parametrize("bin_size", [0, -10])
    def test_series_refuses_a_bin_under_one_second(self, bin_size):
        # Its bin starts would not increase, so read_series_csv would refuse the file.
        with pytest.raises(ValueError, match="bin size must be >= 1 second"):
            ingest.CountSeries(0, bin_size, [1, 2, 3])

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

    @given(start_us=st.one_of(st.integers(min_value=0, max_value=2**53),
                              st.just(1_700_000_000_123_457)),
           bin_size=st.sampled_from([1, 7, 10, 30, 3600]),
           counts=st.lists(st.integers(min_value=0, max_value=2**40), max_size=40),
           chunk=st.sampled_from([1, 3, 7, 2048]))
    @settings(max_examples=150, deadline=None)
    def test_csv_matches_per_row_formatting(self, tmp_path_factory, start_us, bin_size,
                                            counts, chunk):
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        with mock.patch.object(ingest, "CSV_CHUNK_ROWS", chunk):
            ingest.write_series_csv(path, ingest.CountSeries(start_us, bin_size, counts))
        assert path.read_bytes() == oracle.series_csv(start_us, bin_size, counts).encode()

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 3 * 2048 + 5])
    def test_csv_matches_per_row_formatting_across_chunks(self, tmp_path, n):
        counts = np.arange(n) * 7919 % 13
        path = tmp_path / "rows.csv"
        ingest.write_series_csv(path, ingest.CountSeries(1_700_000_000_123_457, 10, counts))
        assert path.read_text() == oracle.series_csv(1_700_000_000_123_457, 10, counts)

    @given(data=st.data(),
           bin_size=st.sampled_from([1, 7, 10, 3600]),
           block=st.sampled_from([1, 2, 3, 5, 8]),
           counts_max=st.sampled_from([9, 2**31, 2**62]))
    @settings(max_examples=300, deadline=None)
    def test_csv_matches_oracle_around_the_exact_time_guard(self, tmp_path_factory, data,
                                                            bin_size, block, counts_max):
        guard = ingest.SERIES_TIME_GUARD_US
        n = data.draw(st.sampled_from([0, 1, 2, max(block - 1, 0), block, block + 1, 9]))
        span = max(n - 1, 0) * bin_size * 1_000_000
        near = st.integers(-6, 6)
        start_us = data.draw(st.one_of(
            near.map(lambda d: guard + d),                  # start at +2^32 s
            near.map(lambda d: -guard + d),                 # start at -2^32 s
            near.map(lambda d: guard - span + d),           # last bin at +2^32 s
            near.map(lambda d: -guard - span + d),          # last bin at -2^32 s
            st.integers(-span - 3_000_000, 3_000_000),      # crossing zero
            st.integers(-guard, guard),
            st.integers(-(2**62), 2**62),
        ))
        counts = data.draw(st.lists(st.integers(-counts_max, counts_max), min_size=n,
                                    max_size=n))
        path = tmp_path_factory.getbasetemp() / "guard.csv"
        with mock.patch.object(ingest, "SERIES_CSV_BLOCK_ROWS", block):
            ingest.write_series_csv(path, ingest.CountSeries(start_us, bin_size, counts))
        assert path.read_bytes() == oracle.series_csv(start_us, bin_size, counts).encode()

    @pytest.mark.parametrize("extra", [-1, 0, 1, ingest.SERIES_CSV_BLOCK_ROWS + 3])
    def test_csv_matches_oracle_across_row_blocks(self, tmp_path, extra):
        n = ingest.SERIES_CSV_BLOCK_ROWS + extra
        counts = (np.arange(n) * 7919 % 23 - 3) ** 5
        path = tmp_path / "blocks.csv"
        ingest.write_series_csv(path, ingest.CountSeries(-3_000_000_500, 1, counts))
        assert path.read_text() == oracle.series_csv(-3_000_000_500, 1, counts)

    @pytest.mark.parametrize("extra", [-1, 0, 1, ingest.SERIES_CSV_BLOCK_ROWS + 3])
    def test_csv_integer_rendering_across_row_blocks(self, tmp_path, extra):
        n = ingest.SERIES_CSV_BLOCK_ROWS + extra
        counts = np.arange(n) * 7919 % 23
        counts[-1] = 2**32 - 1
        path = tmp_path / "blocks.csv"
        ingest.write_series_csv(path, ingest.CountSeries(1_700_000_000_123_457, 1, counts))
        assert path.read_text() == oracle.series_csv(1_700_000_000_123_457, 1, counts)

    @pytest.mark.parametrize("start_us", [0, 999_999, 2**32 * 10**6 - 10**6, -5_000_001])
    @pytest.mark.parametrize("last_count", [2**32 - 1, 2**32, -3])
    def test_csv_at_the_edges_of_integer_rendering(self, tmp_path, start_us, last_count):
        counts = [0, 9, 10, last_count]
        path = tmp_path / "edges.csv"
        ingest.write_series_csv(path, ingest.CountSeries(start_us, 1, counts[:1]))
        assert path.read_text() == oracle.series_csv(start_us, 1, counts[:1])
        ingest.write_series_csv(path, ingest.CountSeries(start_us, 1, counts))
        assert path.read_text() == oracle.series_csv(start_us, 1, counts)

    @pytest.mark.parametrize("counts", [[-(2**63), 2**63 - 1, 0, -1], [0] * 5])
    def test_csv_extreme_counts_match_oracle(self, tmp_path, counts):
        path = tmp_path / "extreme.csv"
        ingest.write_series_csv(path, ingest.CountSeries(-1, 1, np.array(counts, np.int64)))
        assert path.read_text() == oracle.series_csv(-1, 1, counts)

    @pytest.mark.parametrize("rows, line, message", [
        (["0,0.000000,1", "1,10.000000,0", "2,35.000000,2", "3,37.000000,0"], 4,
         "uneven spacing"),
        (["0,0.000000,1", "1,10.000000,0", "3,30.000000,2"], 4, "bin index 3, expected 2"),
        (["1,0.000000,1", "2,10.000000,0"], 2, "bin index 1, expected 0"),
        (["0,0.000000,1", "1,10.000000,0", "2,10.000000,2"], 4, "does not increase"),
        (["0,10.000000,1", "1,0.000000,0"], 3, "does not increase"),
        (["0,0.000000,1", "1,0.400000,0"], 3, "not a whole number"),
        (["0,0.000000,1", "1,12.500000,0"], 3, "not a whole number"),
        (["0,0.000000,1", "1,10.000000"], 3, "expected bin_index,t_start_s,count"),
        (["0,0.000000,1", "1,inf,0"], 3, "expected bin_index,t_start_s,count"),
        # The first line that breaks the format is named, whatever follows it.
        (["0,0.000000,1", "1,1e1,0", "2,20.000000,0", "9,30.000000,0"], 3,
         "expected bin_index,t_start_s,count"),
        (["0,0.000000,1", "1,10.0,0", "2,20.000000,0", "junk"], 3,
         "expected bin_index,t_start_s,count"),
        (["0,0.000000,1", "1,10.000000,-0", "2,20.000000,-05"], 3,
         "expected bin_index,t_start_s,count"),
        (["0,0.000000,1", "1,10.000000,-05"], 3, "count -05 is outside"),
        # Count fields that are all empty, and a row with no comma.
        (["0,0.000000,"], 2, "expected bin_index,t_start_s,count"),
        (["0,0.000000,", "1,10.000000,"], 2, "expected bin_index,t_start_s,count"),
        (["0,0.000000,1", "1"], 3, "expected bin_index,t_start_s,count"),
    ])
    def test_csv_rejects_malformed_rows(self, tmp_path, rows, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["bin_index,t_start_s,count", *rows]) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            ingest.read_series_csv(path)
        assert f"{path}: line {line}:" in str(err.value)


def series_fields(series):
    return series.start_us, series.bin_size_s, series.counts.dtype, series.counts.tolist()


def series_outcome(read, *args):
    """The fields of the series that ``read(*args)`` returns, or its error text."""
    try:
        return series_fields(read(*args))
    except ValueError as e:
        return str(e)


def assert_paths_agree(path):
    """``read_series_csv`` gives the line loop's series or its error text,
    and the numpy path, where it takes the file, the loop's series."""
    blob = path.read_bytes()
    loop = series_outcome(ingest._read_series_lines, path, blob)
    assert series_outcome(ingest.read_series_csv, path) == loop
    fast = ingest._series_from_bytes(blob)
    if fast is not None:
        assert series_fields(fast) == loop
    return fast


@st.composite
def writer_series(draw):
    """``(start_us, bin_size_s, counts)``: starts inside and outside
    [0, 2^32 s), near both ends of it, and counts near and past 2^32."""
    guard = ingest.SERIES_TIME_GUARD_US
    bin_size = draw(st.sampled_from([1, 7, 10, 30, 3600]))
    n = draw(st.integers(0, 12))
    span = max(n - 1, 0) * bin_size * 1_000_000
    near = st.integers(-3, 3)
    start_us = draw(st.one_of(
        st.integers(0, 10**13), st.just(1_700_000_000_123_457),
        near,                                   # around 0
        near.map(lambda d: guard - span + d),   # last bin around 2^32 s
        st.integers(-(2**53), 2**53),
        st.integers(2**53, 2**62)))             # where float seconds are coarser than 1 µs
    counts = draw(st.lists(st.one_of(st.integers(0, 40), st.integers(2**32 - 2, 2**32 + 2),
                                     st.integers(0, 2**63 - 1)), min_size=n, max_size=n))
    return start_us, bin_size, counts


@st.composite
def perturbed_series(draw):
    """A small writer output with one byte changed, inserted or deleted,
    CRLF line ends, a blank line, no final newline, or a byte order mark."""
    start_us = draw(st.sampled_from([0, 999_999, 1_700_000_000_123_457]))
    counts = draw(st.lists(st.one_of(st.integers(0, 2**40), st.integers(2**63 - 9, 2**63 - 1)),
                           min_size=1, max_size=6))
    blob = oracle.series_csv(start_us, 10, counts).encode()
    kind = draw(st.sampled_from(["change", "insert", "delete", "crlf", "blank",
                                 "no final newline", "bom"]))
    at = draw(st.integers(0, len(blob) - 1))
    byte = bytes([draw(st.one_of(st.sampled_from(b"0123456789,.\n\r -"),
                                 st.integers(0, 255)))])
    if kind in ("change", "insert", "delete"):
        return blob[:at] + (b"" if kind == "delete" else byte) + blob[at + (kind != "insert"):]
    if kind == "blank":
        at = draw(st.sampled_from([i + 1 for i, b in enumerate(blob) if b == ord("\n")]))
        return blob[:at] + b"\n" + blob[at:]
    return {"crlf": blob.replace(b"\n", b"\r\n"), "no final newline": blob[:-1],
            "bom": b"\xef\xbb\xbf" + blob}[kind]


class TestSeriesReader:
    """``read_series_csv``'s numpy path against the line loop that defines the format."""

    @given(case=writer_series())
    @example(case=(1_700_000_000_123_457, 30, [5]))  # one row
    @example(case=(0, 10, [3, 2**32]))  # written by the % blocks
    @example(case=(0, 10, [3, 10**18]))  # a count of 19 digits
    @settings(max_examples=300, deadline=None)
    def test_numpy_path_equals_the_loop_on_writer_output(self, tmp_path_factory, case):
        start_us, bin_size, counts = case
        path = tmp_path_factory.getbasetemp() / "writer.csv"
        ingest.write_series_csv(path, ingest.CountSeries(start_us, bin_size, counts))
        fast = assert_paths_agree(path)
        last_us = start_us + max(len(counts) - 1, 0) * bin_size * 1_000_000
        if counts and 0 <= start_us and last_us < ingest.SERIES_TIME_GUARD_US \
                and max(counts) < 10**18:
            assert fast is not None  # the writer's own form

    @given(blob=perturbed_series())
    @settings(max_examples=500, deadline=None)
    def test_perturbed_files_read_as_by_the_loop(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "perturbed.csv"
        path.write_bytes(blob)
        assert_paths_agree(path)

    @pytest.mark.parametrize("change, expected", [
        (lambda b: b.replace(b"\n", b"\r\n"), None),
        (lambda b: b.replace(b"\n", b"\n\n", 2), None),
        (lambda b: b[:-1], None),
        (lambda b: b"\xef\xbb\xbf" + b, "unexpected CSV header '\\ufeffbin_index,t_start_s,count'"),
        (lambda b: b + b"7", "line 6: expected bin_index,t_start_s,count, got '7'"),
    ])
    def test_files_off_the_writer_form_take_the_loop(self, tmp_path, change, expected):
        series = ingest.CountSeries(1_700_000_000_123_457, 10, [3, 0, 2**33, 1])
        path = tmp_path / "series.csv"
        ingest.write_series_csv(path, series)
        path.write_bytes(change(path.read_bytes()))
        assert ingest._series_from_bytes(path.read_bytes()) is None
        outcome = series_outcome(ingest.read_series_csv, path)
        assert outcome == (f"{path}: {expected}" if expected else series_fields(series))

    # Fields past what the numpy path reads in int64: counts of 19 digits and
    # more, and times of 2^64 µs and 2^64 µs + 10 s, which would wrap to 0 and 10 s.
    # Negative counts, which the writer prints and the loop refuses.
    @pytest.mark.parametrize("rows", [
        *[["0,0.000000,1", f"1,10.000000,{count}"] for count in [
            "9223372036854775807", "9223372036854775808", "09223372036854775807",
            "99999999999999999999", "-1", "-9223372036854775808"]],
        ["0,18446744073709.551616,1", "1,18446744073719.551616,2"],
    ])
    def test_wide_fields_read_as_by_the_loop(self, tmp_path, rows):
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(["bin_index,t_start_s,count", *rows]) + "\n")
        assert ingest._series_from_bytes(path.read_bytes()) is None
        assert_paths_agree(path)

    @pytest.mark.parametrize("start_us, bin_size, n", [
        (0, 10, 11_520), (1_700_000_000_123_457, 30, 5000),
        (ingest.SERIES_TIME_GUARD_US - 10_000_001, 1, 11), (0, 1, 1)])
    def test_writer_output_never_reaches_the_loop(self, tmp_path, start_us, bin_size, n):
        counts = np.arange(n) * 7919 % 13
        counts[-1] = 2**32 - 1
        path = tmp_path / "series.csv"
        ingest.write_series_csv(path, ingest.CountSeries(start_us, bin_size, counts))
        with mock.patch.object(ingest, "_read_series_lines",
                               side_effect=AssertionError("line loop called")):
            back = ingest.read_series_csv(path)
        assert series_fields(back) == (start_us, bin_size, np.dtype(np.int64), counts.tolist())

    def test_reader_memory_per_row(self, tmp_path):
        n = 60_000
        path = tmp_path / "long.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, np.arange(n) * 7919 % 13))
        tracemalloc.start()
        try:
            assert len(ingest.read_series_csv(path)) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * n

    @pytest.mark.parametrize("blob, line, column, byte", [
        (b"bin_index,t_start_s,count\n0,0.000000,1\n1,10.000000,\xff\n", 3, 13, "ff"),
        (b"bin_index,t_start_s,count\r\n0,0.0\xc3\x28\n", 2, 6, "c3"),
        (b"bin_index,t_start_s,\x80ount\n0,0.000000,1\n", 1, 21, "80"),
    ])
    def test_non_utf8_byte_is_named_with_its_line(self, tmp_path, blob, line, column, byte):
        path = tmp_path / "latin1.csv"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            ingest.read_series_csv(path)
        assert str(err.value) == \
            f"{path}: line {line}: not valid UTF-8 (byte 0x{byte} at column {column})"


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
        _, link_type, records, _ = ingest._read_capture(path)
        assert link_type == 1
        assert records.tolist() == []

    def test_single_record_timestamp(self, tmp_path):
        path = tmp_path / "one.pcap"
        path.write_bytes(pcap_bytes([(10_000_005, b"\x01\x02")]))
        recs = read_records(path)[0]
        assert len(recs) == 1
        ts_us, data, _ = recs[0]
        assert ts_us == 10_000_005
        assert data == b"\x01\x02"

    def test_byte_swapped_twin(self, tmp_path):
        frame = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        native = tmp_path / "native.pcap"
        swapped = tmp_path / "swapped.pcap"
        native.write_bytes(pcap_bytes([(123456, frame)], endian="<"))
        swapped.write_bytes(pcap_bytes([(123456, frame)], endian=">"))
        a = read_records(native)
        b = read_records(swapped)
        assert a == b

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
        with pytest.raises(ingest.UnsupportedFormatError, match="magic"):
            ingest._read_capture(path)

    def test_truncated_record_header(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        path.write_bytes(pcap_bytes([(1, b"xy")]) + b"\x00\x01\x02")
        assert read_records(path)[0][0][1] == b"xy"
        with pytest.raises(ingest.TruncatedPcapError, match=re.escape(
                f"{path}: record 2: record header cut short at end of file")):
            list(ingest.extract_pcap_events(path, monitor="tap"))

    @pytest.mark.parametrize("consumed", [0, 1, 2])
    def test_dropped_reader_leaves_no_open_file(self, tmp_path, monkeypatch, consumed):
        # An unclosed file warns from its finalizer, where the warning can
        # only reach sys.unraisablehook; collect it there as well.
        frame = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        path = tmp_path / "three.pcap"
        path.write_bytes(pcap_bytes([(1, frame), (2, frame), (3, frame)]))
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            it = ingest.extract_pcap_events(path, monitor="tap")
            for _ in range(consumed):
                next(it)
            del it
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_snaplen_truncation_flagged(self, tmp_path):
        path = tmp_path / "snap.pcap"
        data = struct.pack("<IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, 4, 1)
        data += struct.pack("<IIII", 0, 0, 4, 100) + b"abcd"
        path.write_bytes(data)
        _, _, truncated = read_records(path)[0][0]
        assert truncated

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_cut_at_every_byte_gives_prior_records_then_error(self, tmp_path, endian):
        frame = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        blob = pcap_bytes([(1, b""), (2_000_003, b"abcde"), (3, frame)], endian=endian)
        path = tmp_path / "cut.pcap"
        for cut in range(24, len(blob) + 1):
            path.write_bytes(blob[:cut])
            assert read_records(path) == oracle.pcap_records(blob[:cut]), cut

    @given(records=st.lists(st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                                      st.integers(min_value=0, max_value=10**6 - 1),
                                      st.binary(max_size=40),
                                      st.integers(min_value=0, max_value=3)), max_size=8),
           endian=st.sampled_from(["<", ">"]),
           cut=st.integers(min_value=0, max_value=400))
    @settings(max_examples=200, deadline=None)
    def test_bounded_buffer_reads_like_record_by_record(self, tmp_path_factory, records,
                                                        endian, cut):
        blob = struct.pack(endian + "IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        for ts_sec, ts_usec, data, snapped in records:
            blob += struct.pack(endian + "IIII", ts_sec, ts_usec, len(data),
                                len(data) + snapped) + data
        blob = blob[:max(24, len(blob) - cut)]
        path = tmp_path_factory.getbasetemp() / "buffered.pcap"
        path.write_bytes(blob)
        assert read_records(path) == oracle.pcap_records(blob)


def read_records(path):
    """The ``(ts_us, data, snaplen cut)`` of each row of the capture's record
    table, and whether a record was cut short after them."""
    blob, _, table, cut_short = ingest._read_capture(path)
    records = [(ts_us, blob[off:off + incl_len], incl_len < orig_len)
               for off, incl_len, orig_len, ts_us in table.tolist()]
    return records, cut_short is not None


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

    @pytest.mark.parametrize("snapped, note", [
        (0, ""), (40, " (the capture's snaplen cut this frame short)")])
    def test_extract_names_file_and_record_of_a_bad_frame(self, tmp_path, snapped, note):
        good = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        bad = good[:-8]  # the OSPF length field now runs past the frame
        path = tmp_path / "bad.pcap"
        blob = pcap_bytes([(1, good), (2, good)])
        blob += struct.pack("<IIII", 0, 3, len(bad), len(bad) + snapped) + bad
        path.write_bytes(blob)
        with pytest.raises(ingest.MalformedPacketError) as err:
            list(ingest.extract_pcap_events(path, monitor="tap"))
        assert str(err.value) == (f"{path}: record 3: OSPF length field 48 inconsistent "
                                  f"with frame at offset 36{note}")

    @pytest.mark.parametrize("records", [[], [(1, b"\x00" * 40)]])
    def test_extract_refuses_unsupported_link_type_before_any_record(self, tmp_path,
                                                                      records):
        path = tmp_path / "wifi.pcap"
        path.write_bytes(pcap_bytes(records, link_type=105))
        with pytest.raises(ingest.UnsupportedFormatError) as err:
            list(ingest.extract_pcap_events(path, monitor="tap"))
        assert str(err.value) == f"{path}: unsupported link type 105"

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


@st.composite
def lsa_headers(draw):
    return lsa_header(ls_age=draw(st.integers(0, 3600)), ls_type=draw(st.integers(1, 5)),
                      adv=draw(st.sampled_from(ROUTERS)),
                      seq=draw(st.integers(-(2**31), 2**31 - 1)))


@st.composite
def capture_records(draw):
    """``(link type, endian, records)`` of a capture mixing the two common
    frame layouts with uncommon frames, and at most one bad frame or a cut
    to append; a record is ``(ts_us, frame, orig_len)``."""
    link_type = draw(st.sampled_from([ingest.LINKTYPE_ETHERNET] * 3 + [ingest.LINKTYPE_RAW_IPV4]))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        hdr = draw(lsa_headers())
        kind = draw(st.sampled_from(["update", "ack", "update", "ack", "multi-lsa",
                                     "snaplen-cut", "two-acks", "not-ospf", "hello"]))
        ospf = {"update": ospf_packet(4, ls_update([hdr])), "ack": ospf_packet(5, hdr),
                "snaplen-cut": ospf_packet(4, ls_update([hdr])),
                "multi-lsa": ospf_packet(4, ls_update([hdr, draw(lsa_headers())],
                                                      bodies={0: b"\x00" * 4})),
                "two-acks": ospf_packet(5, hdr + draw(lsa_headers())),
                "hello": ospf_packet(1, b"\x00" * 20), "not-ospf": b"\x00" * 28}[kind]
        ip = ipv4_packet(ospf, proto=6 if kind == "not-ospf" else 89)
        frame = eth_frame(ip) if link_type == ingest.LINKTYPE_ETHERNET else ip
        records.append((draw(st.integers(0, 100 * 10**6)), frame,
                        len(frame) + (4 if kind == "snaplen-cut" else 0)))
    return link_type, draw(st.sampled_from(["<", ">"])), records


# Edits that take a common frame off its layout (frame offsets of an LS
# Update): some make it malformed, some only uncommon.
FRAME_EDITS = {
    "ls-type-0": lambda f: f[:65] + b"\x00" + f[66:],
    "ls-type-6": lambda f: f[:65] + b"\x06" + f[66:],
    "age-3601": lambda f: f[:62] + struct.pack(">H", 3601) + f[64:],
    "ospf-length-47": lambda f: f[:36] + struct.pack(">H", 47) + f[38:],
    "ospf-length-49": lambda f: f[:36] + struct.pack(">H", 49) + f[38:],
    "lsa-count-2": lambda f: f[:58] + struct.pack(">I", 2) + f[62:],
    "lsa-count-0": lambda f: f[:58] + struct.pack(">I", 0) + f[62:],
    "lsa-length-19": lambda f: f[:80] + struct.pack(">H", 19) + f[82:],
    "lsa-length-21": lambda f: f[:80] + struct.pack(">H", 21) + f[82:],
    "ethertype-arp": lambda f: f[:12] + b"\x08\x06" + f[14:],
    "ethertype-vlan": lambda f: f[:12] + b"\x81\x00" + f[14:],
    "ihl-6": lambda f: f[:14] + b"\x46" + f[15:],
    "protocol-6": lambda f: f[:23] + b"\x06" + f[24:],
    "ospf-version-3": lambda f: f[:34] + b"\x03" + f[35:],
    "ospf-type-ack": lambda f: f[:35] + b"\x05" + f[36:],
    "ospf-type-hello": lambda f: f[:35] + b"\x01" + f[36:],
    "cut-short": lambda f: f[:-8],
}


def binned_or_error(read, path, flt):
    """``(counts, dropped)`` of a capture read by ``read`` and binned, or
    the type and text of the error reading it raised."""
    try:
        return read(path, flt)
    except ValueError as e:
        return type(e), str(e)


def per_record(path, flt):
    return oracle.bin_series(list(ingest.extract_pcap_events(path, "tap")), flt,
                             10, 10 * 10**6, 90 * 10**6)


def by_columns(path, flt):
    s = ingest.bin_series(ingest.read_pcap_columns(path, "tap"), flt, 10, 10 * 10**6, 90 * 10**6)
    return s.counts.tolist(), s.dropped


class TestPcapColumns:
    @given(capture_records(), st.data(), event_filters.map(
        lambda f: dataclasses.replace(f, monitor=None if f.monitor is None else "tap")))
    @settings(max_examples=300, deadline=None)
    def test_columns_match_per_record_path(self, tmp_path_factory, capture, data, flt):
        link_type, endian, records = capture
        fault = data.draw(st.sampled_from([None, "cut tail", *FRAME_EDITS]))
        if fault in FRAME_EDITS:
            frame = FRAME_EDITS[fault](eth_frame(ipv4_packet(ospf_packet(
                4, ls_update([data.draw(lsa_headers())])))))
            if link_type == ingest.LINKTYPE_RAW_IPV4:
                frame = frame[14:]
            at = data.draw(st.integers(0, len(records)))
            records.insert(at, (data.draw(st.integers(0, 100 * 10**6)), frame, len(frame)))
        blob = struct.pack(endian + "IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, 65535, link_type)
        for ts_us, frame, orig_len in records:
            blob += struct.pack(endian + "IIII", ts_us // 10**6, ts_us % 10**6, len(frame),
                                orig_len) + frame
        if fault == "cut tail":
            blob = blob[:len(blob) - data.draw(st.integers(1, 60))] if records else blob + b"\0"
        path = tmp_path_factory.getbasetemp() / "mixed.pcap"
        path.write_bytes(blob)
        assert binned_or_error(by_columns, path, flt) == binned_or_error(per_record, path, flt)

    @pytest.mark.parametrize("edit", FRAME_EDITS)
    def test_each_frame_edit_matches_per_record_path(self, tmp_path, edit):
        good = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        ack = eth_frame(ipv4_packet(ospf_packet(5, lsa_header(ls_age=3600, ls_type=5))))
        path = tmp_path / "edited.pcap"
        path.write_bytes(pcap_bytes([(15 * 10**6, good), (25 * 10**6, FRAME_EDITS[edit](good)),
                                     (35 * 10**6, ack)]))
        flt = EventFilter(include_acks=True)
        assert binned_or_error(by_columns, path, flt) == binned_or_error(per_record, path, flt)

    def test_common_frames_are_decoded_in_bulk(self, tmp_path):
        events = [make_event(ts_us=t * 10**6, monitor="tap", ls_type=1 + t % 5, is_ack=t % 3 == 0,
                             adv_router=ROUTERS[t % 3], ls_age=t * 300) for t in range(13)]
        path = tmp_path / "common.pcap"
        path.write_bytes(oracle.lsa_pcap(events))
        with mock.patch.object(ingest, "parse_ospf_packet", side_effect=AssertionError):
            cols = ingest.read_pcap_columns(path, "tap")
        assert column_events(cols) == typed(events)

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_first_error_in_record_order_wins_over_a_cut_tail(self, tmp_path, endian):
        good = eth_frame(ipv4_packet(ospf_packet(4, ls_update([lsa_header()]))))
        blob = pcap_bytes([(1, good), (2, FRAME_EDITS["ls-type-6"](good)), (3, good)], endian)
        path = tmp_path / "bad.pcap"
        path.write_bytes(blob[:-1])
        with pytest.raises(ingest.MalformedPacketError, match=re.escape(
                f"{path}: record 2: LSA type 6 out of range at offset 65")):
            ingest.read_pcap_columns(path, "tap")


# --- fuzzing: malformed input raises only the documented error types -----


LINK_TYPES = st.sampled_from([ingest.LINKTYPE_ETHERNET, ingest.LINKTYPE_RAW_IPV4])

fuzzed_lsa_headers = st.builds(
    lambda age, ls_type, seq, length: lsa_header(ls_age=age, ls_type=ls_type,
                                                 seq=seq, length=length),
    st.integers(0, 0xFFFF), st.integers(0, 255),
    st.integers(-(2**31), 2**31 - 1), st.integers(0, 0xFFFF),
)


@st.composite
def ospf_shaped_ip(draw):
    """An IPv4/OSPF LS Update or Ack whose body mixes LSA headers and
    stray bytes, with the declared LSA count and the OSPF length field
    either as built or arbitrary, cut anywhere after the IP header."""
    ptype = draw(st.sampled_from([4, 5]))
    payload = b"".join(draw(st.lists(st.one_of(fuzzed_lsa_headers, st.binary(max_size=24)),
                                     max_size=6)))
    if ptype == 4:
        payload = struct.pack(">I", draw(st.integers(0, 2**32 - 1))) + payload
    ospf = ospf_packet(ptype, payload)
    if draw(st.booleans()):
        ospf = ospf[:2] + struct.pack(">H", draw(st.integers(0, 0xFFFF))) + ospf[4:]
    ip = ipv4_packet(ospf)
    return ip[:draw(st.integers(20, len(ip)))]


def parse_or_malformed(frame, link_type):
    try:
        events = ingest.parse_ospf_packet(frame, link_type)
    except ingest.MalformedPacketError:
        return
    assert all(isinstance(e, LsaEvent) for e in events)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8,
)
log_lines = st.one_of(
    st.text(max_size=60),
    json_values.map(json.dumps),
    st.fixed_dictionaries({k: json_values for k in ingest.LOG_FIELDS}).map(json.dumps),
    st.builds(lambda e, k, v: json.dumps({**e._asdict(), k: v}),
              event_strategy, st.sampled_from(ingest.LOG_FIELDS), json_values),
)


class TestFuzz:
    @given(st.binary(max_size=120), LINK_TYPES)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_parse_or_malformed(self, frame, link_type):
        parse_or_malformed(frame, link_type)

    @given(ospf_shaped_ip(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_ospf_shaped_frames_parse_or_malformed(self, ip, ethernet):
        if ethernet:
            parse_or_malformed(eth_frame(ip), ingest.LINKTYPE_ETHERNET)
        else:
            parse_or_malformed(ip, ingest.LINKTYPE_RAW_IPV4)

    @given(st.lists(log_lines, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_log_lines_read_or_log_format_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            events = list(ingest.read_lsa_log(path))
        except ingest.LogFormatError:
            return
        assert all(isinstance(e, LsaEvent) for e in events)

    @pytest.mark.parametrize("line", [
        "5", "null", "[1, 2]", '"ts_us monitor ls_type adv_router ls_id ls_age ls_seq is_ack"',
        "[" * 100_000, "1" * 5000,
    ], ids=["int", "null", "array", "string-naming-fields", "deep-nesting", "long-integer"])
    def test_line_that_is_not_a_json_object_reports_line(self, tmp_path, line):
        path = tmp_path / "odd.jsonl"
        ingest.write_lsa_log(path, [make_event()])
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ingest.LogFormatError, match="line 2"):
            list(ingest.read_lsa_log(path))
