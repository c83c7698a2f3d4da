"""Tests for the binary trace format and the columnar backend.

The binary format is the run cache's, the service's and the checkpoints'
payload, so its failure modes are load-bearing: a corrupt, truncated or
future-version payload must raise :class:`TraceIOError` (which the cache
maps to evict-and-rerun and the service to a rejected chunk), never yield
a silently wrong trace.  The writer produces format version 2 (one
prefix, one JSON header, one zlib body); version 1 (a zip of ``.npy``
members) is still read, and the tests below build it themselves with
``np.savez_compressed`` because the package no longer writes it.
"""

import gzip
import io
import json
import struct
import time
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.campaign import standard_attack
from repro.core.checker import check_trace
from repro.faults.campaign import standard_fault
from repro.sim.engine import run_scenario
from repro.sim.scenario import acc_scenario
from repro.trace.io import (
    TRACE_NPZ_VERSION,
    TraceIOError,
    TraceTruncationWarning,
    read_trace_auto,
    read_trace_npz,
    trace_from_bytes,
    trace_to_jsonl_bytes,
    trace_to_npz_bytes,
    write_trace_jsonl,
    write_trace_npz,
)
from repro.trace.schema import Trace, TraceMeta

from conftest import make_trace, short_scenario

PREFIX = struct.Struct("<4sII")


def sample_trace():
    def mutate(step, record):
        if step % 4 == 0:
            return record.replace(gps_fresh=False, attack_active=True,
                                  attack_name="gps_bias",
                                  attack_channel="gps",
                                  supervisor_mode="normal",
                                  supervisor_lost=step % 3)
        if step == 7:
            return record.replace(est_v=float("nan"))
        return record

    return make_trace(
        30,
        meta=TraceMeta(scenario="s_curve", controller="mpc",
                       attack="gps_bias", seed=11, dt=0.05,
                       route_length=321.5, extra={"note": "binary"}),
        mutate=mutate,
    )


def assert_bit_exact(back: Trace, trace: Trace) -> None:
    """Same metadata, and every column has the same dtype and bytes
    (float bits, NaN payloads and positions included)."""
    assert len(back) == len(trace)
    assert back.meta.to_dict() == trace.meta.to_dict()
    a, b = trace.columns(), back.columns()
    for name in Trace.field_names:
        assert b.get(name).dtype == a.get(name).dtype, name
        assert b.get(name).tobytes() == a.get(name).tobytes(), name


# --- version 1 (zip container), built here: src/ has no v1 writer -------

def v1_bytes(trace: Trace) -> bytes:
    """The version 1 payload older builds wrote for ``trace``."""
    cols = trace.columns()
    header = json.dumps({"format": "adassure-trace", "version": 1,
                         "n": len(trace), "meta": trace.meta.to_dict()})
    buf = io.BytesIO()
    np.savez_compressed(buf, header=np.asarray(header),
                        **{"col_" + name: cols.get(name)
                           for name in Trace.field_names})
    return buf.getvalue()


def repack_npz(data: bytes, *, header: dict | None = None,
               drop: str | None = None) -> bytes:
    """Rewrite a v1 payload with a patched header / a member removed."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    if header is not None:
        members["header"] = np.asarray(json.dumps(header))
    if drop is not None:
        del members[drop]
    buf = io.BytesIO()
    np.savez_compressed(buf, **members)
    return buf.getvalue()


def npz_header(data: bytes) -> dict:
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return json.loads(str(npz["header"][()]))


# --- version 2 (one stream) ---------------------------------------------

def v2_split(data: bytes) -> tuple[int, dict, bytes]:
    """(prefix version, header, inflated body) of a v2 payload."""
    magic, version, length = PREFIX.unpack_from(data)
    assert magic == b"ADTR"
    header = json.loads(data[PREFIX.size:PREFIX.size + length])
    return version, header, zlib.decompress(data[PREFIX.size + length:])


def v2_repack(data: bytes, *, header: dict | None = None,
              body: bytes | None = None, version: int | None = None,
              tail: bytes = b"") -> bytes:
    """Rewrite a v2 payload with a patched prefix version, header or
    (uncompressed) body, and optional bytes after the zlib stream."""
    old_version, old_header, old_body = v2_split(data)
    raw = json.dumps(old_header if header is None else header).encode()
    return (PREFIX.pack(b"ADTR", old_version if version is None else version,
                        len(raw))
            + raw + zlib.compress(old_body if body is None else body) + tail)


def body_offset(data: bytes) -> int:
    return PREFIX.size + PREFIX.unpack_from(data)[2]


class TestRoundTrip:
    def test_bytes_roundtrip_exact(self):
        trace = sample_trace()
        assert_bit_exact(trace_from_bytes(trace_to_npz_bytes(trace)), trace)

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.npz"
        write_trace_npz(trace, path)
        assert_bit_exact(read_trace_npz(path), trace)

    def test_typed_channels_preserved(self):
        trace = sample_trace()
        back = trace_from_bytes(trace_to_npz_bytes(trace))
        assert [r.gps_fresh for r in back] == [r.gps_fresh for r in trace]
        assert [r.supervisor_lost for r in back] == [
            r.supervisor_lost for r in trace]
        assert [r.attack_name for r in back] == [
            r.attack_name for r in trace]
        assert all(isinstance(r.step, int) for r in back)
        cols = back.columns()
        assert cols.gps_fresh.dtype == np.bool_
        assert cols.supervisor_lost.dtype == np.int64
        assert cols.attack_name.dtype.kind == "U"

    def test_empty_trace_roundtrip(self):
        trace = Trace(TraceMeta(scenario="empty"))
        back = trace_from_bytes(trace_to_npz_bytes(trace))
        assert len(back) == 0
        assert back.meta.scenario == "empty"
        assert_bit_exact(back, trace)

    def test_payload_is_deterministic(self):
        trace = sample_trace()
        assert trace_to_npz_bytes(trace) == trace_to_npz_bytes(trace)
        again = trace_from_bytes(trace_to_npz_bytes(trace))
        assert trace_to_npz_bytes(again) == trace_to_npz_bytes(trace)

    def test_payload_layout(self):
        trace = sample_trace()
        data = trace_to_npz_bytes(trace)
        version, header, body = v2_split(data)
        assert version == TRACE_NPZ_VERSION == 2
        assert header["format"] == "adassure-trace"
        assert header["version"] == 2 and header["n"] == len(trace)
        assert header["meta"] == trace.meta.to_dict()
        cols = trace.columns()
        assert header["columns"] == [[name, cols.get(name).dtype.str]
                                     for name in Trace.field_names]
        # Columns one after another, each byte-shuffled.
        t = cols.t
        n = len(trace)
        at = sum(n * cols.get(name).dtype.itemsize
                 for name in Trace.field_names[:Trace.field_names.index("t")])
        planes = np.frombuffer(body, np.uint8, n * 8, at).reshape(8, n)
        assert planes.T.tobytes() == t.tobytes()

    def test_decoded_columns_are_read_only(self):
        back = trace_from_bytes(trace_to_npz_bytes(sample_trace()))
        for name in Trace.field_names:
            assert not back.columns().get(name).flags.writeable, name


def _runs():
    s_curve = short_scenario("s_curve", duration=8.0)
    return {
        "clean": lambda: run_scenario(s_curve),
        "attacked": lambda: run_scenario(
            s_curve, controller="stanley",
            campaign=standard_attack("gps_bias", onset=3.0)),
        "faulted": lambda: run_scenario(
            s_curve, faults=standard_fault("gps_dropout", onset=3.0)),
        "supervised": lambda: run_scenario(
            s_curve, supervised=True,
            faults=standard_fault("gps_dropout", onset=3.0)),
        "lead": lambda: run_scenario(
            acc_scenario(seed=3, duration=8.0), controller="stanley",
            campaign=standard_attack("radar_scale", onset=3.0)),
    }


class TestRunTraces:
    """Simulated traces of every kind survive the codec bit for bit, and
    checking the decoded trace gives the same report."""

    @pytest.mark.parametrize("kind", sorted(_runs()))
    def test_roundtrip_preserves_bits_and_report(self, kind):
        trace = _runs()[kind]().trace
        back = trace_from_bytes(trace_to_npz_bytes(trace))
        assert_bit_exact(back, trace)
        assert check_trace(back).to_dict() == check_trace(trace).to_dict()
        assert trace_to_npz_bytes(back) == trace_to_npz_bytes(trace)


class TestRejection:
    """Each v1 rejection has its v2 counterpart."""

    # -- version -------------------------------------------------------
    def test_version_mismatch_rejected(self):
        data = v1_bytes(sample_trace())
        header = npz_header(data)
        header["version"] = 3
        with pytest.raises(TraceIOError, match="unsupported trace format"):
            trace_from_bytes(repack_npz(data, header=header))

    def test_v2_version_mismatch_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        with pytest.raises(TraceIOError, match="unsupported trace format"):
            trace_from_bytes(v2_repack(data, version=TRACE_NPZ_VERSION + 1))
        _, header, _ = v2_split(data)
        header["version"] = 1
        with pytest.raises(TraceIOError, match="disagrees"):
            trace_from_bytes(v2_repack(data, header=header))

    # -- foreign format ------------------------------------------------
    def test_foreign_format_name_rejected(self):
        data = v1_bytes(sample_trace())
        header = npz_header(data)
        header["format"] = "somebody-elses-trace"
        with pytest.raises(TraceIOError, match="not an adassure trace"):
            trace_from_bytes(repack_npz(data, header=header))

    def test_v2_foreign_format_name_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        header["format"] = "somebody-elses-trace"
        with pytest.raises(TraceIOError, match="not an adassure trace"):
            trace_from_bytes(v2_repack(data, header=header))

    # -- header missing / not a header ----------------------------------
    def test_headerless_npz_rejected(self):
        buf = io.BytesIO()
        np.savez_compressed(buf, stuff=np.arange(5))
        with pytest.raises(TraceIOError, match="no header"):
            trace_from_bytes(buf.getvalue())

    @pytest.mark.parametrize("raw", [b"", b"[1, 2]", b"{not json",
                                     b"\xff\xfe{}"])
    def test_v2_bad_header_rejected(self, raw):
        data = PREFIX.pack(b"ADTR", 2, len(raw)) + raw + zlib.compress(b"")
        with pytest.raises(TraceIOError):
            trace_from_bytes(data)

    # -- channels --------------------------------------------------------
    def test_missing_channel_rejected(self):
        data = v1_bytes(sample_trace())
        with pytest.raises(TraceIOError, match="missing channel"):
            trace_from_bytes(repack_npz(data, drop="col_est_v"))

    def test_v2_missing_channel_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        header["columns"] = [c for c in header["columns"] if c[0] != "est_v"]
        with pytest.raises(TraceIOError, match="missing channel 'est_v'"):
            trace_from_bytes(v2_repack(data, header=header))

    @pytest.mark.parametrize("columns", [
        None, 5, "columns", [["t"]], [[1, "<f8"]],
    ], ids=["none", "int", "str", "short-entry", "int-name"])
    def test_v2_malformed_channel_table_rejected(self, columns):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        header["columns"] = columns
        with pytest.raises(TraceIOError):
            trace_from_bytes(v2_repack(data, header=header))

    def test_v2_reordered_or_extra_channels_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        swapped = dict(header, columns=header["columns"][::-1])
        extra = dict(header, columns=header["columns"] + [["x", "<f8"]])
        for patched in (swapped, extra):
            with pytest.raises(TraceIOError, match="reordered"):
                trace_from_bytes(v2_repack(data, header=patched))

    @pytest.mark.parametrize("channel,dtype", [
        ("t", "<f4"), ("t", ">f8"), ("t", "<i8"), ("step", "<f8"),
        ("step", "<i4"), ("gps_fresh", "<i8"), ("gps_fresh", "|u1"),
        ("attack_name", "|S8"), ("attack_name", "<U"), ("attack_name", "<U0"),
        ("attack_name", "<U08"), ("attack_name", ">U8"), ("t", 8),
    ])
    def test_v2_wrong_dtype_rejected(self, channel, dtype):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        for entry in header["columns"]:
            if entry[0] == channel:
                entry[1] = dtype
        with pytest.raises(TraceIOError, match="dtype"):
            trace_from_bytes(v2_repack(data, header=header))

    # -- record count ----------------------------------------------------
    def test_record_count_mismatch_rejected(self):
        data = v1_bytes(sample_trace())
        header = npz_header(data)
        header["n"] = header["n"] + 5
        with pytest.raises(TraceIOError, match="header claims"):
            trace_from_bytes(repack_npz(data, header=header))

    def test_v2_record_count_mismatch_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        header["n"] += 5
        with pytest.raises(TraceIOError, match="header claims"):
            trace_from_bytes(v2_repack(data, header=header))
        header["n"] -= 10
        with pytest.raises(TraceIOError, match="inflates past"):
            trace_from_bytes(v2_repack(data, header=header))

    @pytest.mark.parametrize("n", [-1, 2.5, "30", True, None])
    def test_v2_bad_record_count_rejected(self, n):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        header["n"] = n
        with pytest.raises(TraceIOError, match="record count"):
            trace_from_bytes(v2_repack(data, header=header))

    def test_v2_bomb_is_cut_at_the_declared_size(self):
        # 16 MiB of zeros behind a header that declares 30 records: the
        # decoder stops inflating one byte past the declared size.
        data = trace_to_npz_bytes(sample_trace())
        bomb = v2_repack(data, body=bytes(16 << 20))
        t0 = time.perf_counter()
        with pytest.raises(TraceIOError, match="inflates past"):
            trace_from_bytes(bomb)
        assert time.perf_counter() - t0 < 1.0

    # -- body ------------------------------------------------------------
    def test_v2_trailing_bytes_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        with pytest.raises(TraceIOError, match="trailing"):
            trace_from_bytes(v2_repack(data, tail=b"\x00"))
        with pytest.raises(TraceIOError, match="trailing"):
            trace_from_bytes(data + b"junk")

    def test_v2_unfinished_stream_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        with pytest.raises(TraceIOError, match="mid-stream"):
            trace_from_bytes(data[:-4])  # adler-32 trailer cut off

    def test_v2_short_body_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        _, _, body = v2_split(data)
        with pytest.raises(TraceIOError, match="header claims"):
            trace_from_bytes(v2_repack(data, body=body[:-8]))

    def test_v2_corrupt_body_rejected(self):
        data = bytearray(trace_to_npz_bytes(sample_trace()))
        data[body_offset(bytes(data)) + 40] ^= 0xFF
        with pytest.raises(TraceIOError):
            trace_from_bytes(bytes(data))

    def test_v2_non_bool_bytes_rejected(self):
        trace = sample_trace()
        data = trace_to_npz_bytes(trace)
        _, header, body = v2_split(data)
        cols = trace.columns()
        at = sum(len(trace) * cols.get(name).dtype.itemsize
                 for name in Trace.field_names[
                     :Trace.field_names.index("gps_fresh")])
        body = bytearray(body)
        body[at] = 2
        with pytest.raises(TraceIOError, match="non-bool"):
            trace_from_bytes(v2_repack(data, body=bytes(body)))

    def test_v2_invalid_code_points_rejected(self):
        trace = sample_trace()
        data = trace_to_npz_bytes(trace)
        _, _, body = v2_split(data)
        name = [n for n in Trace.field_names if n in Trace.string_channels][-1]
        cols = trace.columns()
        at = sum(len(trace) * cols.get(c).dtype.itemsize
                 for c in Trace.field_names[:Trace.field_names.index(name)])
        body = bytearray(body)
        # Byte plane 2 of the first element: code point >= 0x10000 * 0x11.
        body[at + 2 * len(trace)] = 0x11
        with pytest.raises(TraceIOError, match="code points"):
            trace_from_bytes(v2_repack(data, body=bytes(body)))

    # -- truncation / garbage --------------------------------------------
    @pytest.mark.parametrize("cut", [0.25, 0.5, 0.9])
    def test_truncated_payload_rejected(self, cut):
        for data in (trace_to_npz_bytes(sample_trace()),
                     v1_bytes(sample_trace())):
            with pytest.raises(TraceIOError):
                trace_from_bytes(data[: int(len(data) * cut)])

    def test_garbage_rejected(self):
        for junk in (b"PK\x03\x04 but not actually a zip",
                     b"ADTR but not actually a trace"):
            with pytest.raises(TraceIOError):
                trace_from_bytes(junk)

    def test_file_errors_carry_path(self, tmp_path):
        path = tmp_path / "trace.npz"
        for data in (trace_to_npz_bytes(sample_trace()),
                     v1_bytes(sample_trace())):
            path.write_bytes(data[: len(data) // 2])
            with pytest.raises(TraceIOError, match="trace.npz"):
                read_trace_npz(path)
            with pytest.raises(TraceIOError, match="trace.npz"):
                read_trace_auto(path)


class TestMalformedMetadata:
    """Metadata that is not an object, or whose fields do not convert,
    is a TraceIOError through every reader, not an AttributeError or a
    bare ValueError."""

    BAD_META = [5, "meta", [1, 2], None, {"seed": "eleven"},
                {"dt": "fast"}, {"seed": [1]}, {"extra": 3},
                {"route_length": {}}, {"seed": 1e400}]

    @pytest.mark.parametrize("meta", BAD_META)
    def test_v2(self, meta):
        data = trace_to_npz_bytes(sample_trace())
        _, header, _ = v2_split(data)
        header["meta"] = meta
        with pytest.raises(TraceIOError, match="metadata"):
            trace_from_bytes(v2_repack(data, header=header))

    @pytest.mark.parametrize("meta", BAD_META)
    def test_v1(self, meta):
        data = v1_bytes(sample_trace())
        header = npz_header(data)
        header["meta"] = meta
        with pytest.raises(TraceIOError, match="metadata"):
            trace_from_bytes(repack_npz(data, header=header))

    @pytest.mark.parametrize("meta", BAD_META)
    def test_jsonl(self, meta):
        data = (json.dumps({"meta": meta}) + "\n").encode()
        with pytest.raises(TraceIOError, match="metadata"):
            trace_from_bytes(data)


class TestFormatSniffing:
    """trace_from_bytes / read_trace_auto dispatch on magic, not suffix."""

    def test_bytes_sniffs_npz(self):
        trace = sample_trace()
        assert len(trace_from_bytes(trace_to_npz_bytes(trace))) == len(trace)

    def test_bytes_sniffs_gzip_jsonl(self):
        trace = sample_trace()
        data = trace_to_jsonl_bytes(trace)  # gzip'd JSONL (legacy cache)
        assert len(trace_from_bytes(data)) == len(trace)

    def test_bytes_sniffs_plain_jsonl(self):
        trace = sample_trace()
        data = trace_to_jsonl_bytes(trace, compress=False)
        assert len(trace_from_bytes(data)) == len(trace)

    def test_auto_reads_npz_under_any_suffix(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"  # lying suffix
        path.write_bytes(trace_to_npz_bytes(trace))
        assert len(read_trace_auto(path)) == len(trace)

    def test_auto_reads_jsonl(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        assert len(read_trace_auto(path)) == len(trace)

    def test_auto_reads_gzip_under_plain_suffix(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.bin"
        path.write_bytes(trace_to_jsonl_bytes(trace))
        assert len(read_trace_auto(path)) == len(trace)

    def test_read_trace_npz_sniffs(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.npz"
        write_trace_jsonl(trace, path)  # JSONL under the binary suffix
        assert len(read_trace_npz(path)) == len(trace)


class TestLegacyV1:
    """Traces and checkpoints saved by older builds still load, bit for
    bit, through every binary entry point."""

    @pytest.mark.parametrize("factory", [
        sample_trace, lambda: Trace(TraceMeta(scenario="empty"))],
        ids=["sample", "empty"])
    def test_v1_decodes_bit_identically(self, tmp_path, factory):
        trace = factory()
        data = v1_bytes(trace)
        assert data[:4] == b"PK\x03\x04"
        path = tmp_path / "old.npz"
        path.write_bytes(data)
        for back in (trace_from_bytes(data), read_trace_auto(path),
                     read_trace_npz(path)):
            assert_bit_exact(back, trace)

    def test_v1_run_trace_checks_the_same(self):
        trace = run_scenario(
            short_scenario("s_curve", duration=8.0),
            campaign=standard_attack("gps_bias", onset=3.0)).trace
        back = trace_from_bytes(v1_bytes(trace))
        assert_bit_exact(back, trace)
        assert check_trace(back).to_dict() == check_trace(trace).to_dict()
        # Re-saving an old trace writes the current format.
        assert trace_to_npz_bytes(back)[:4] == b"ADTR"


# --- decoder fuzzing ----------------------------------------------------

FUZZ_BOUND_S = 1.0
"""Per-input time bound; a valid decode of the fuzz payload takes < 1 ms."""


def small_trace():
    return make_trace(
        6, meta=TraceMeta(scenario="fuzz", seed=3, extra={"k": "v"}),
        mutate=lambda step, r: r.replace(
            attack_name="gps_bias" if step % 2 else "",
            est_v=float("nan") if step == 2 else r.est_v))


FUZZ_TRACE = small_trace()
FUZZ_DATA = trace_to_npz_bytes(FUZZ_TRACE)


def decode_within_bound(data: bytes):
    """The decoded trace, or ``None`` for a TraceIOError; anything else
    (another exception, a slow decode) fails the test."""
    t0 = time.perf_counter()
    try:
        result = trace_from_bytes(data)
    except TraceIOError:
        result = None
    assert time.perf_counter() - t0 < FUZZ_BOUND_S
    return result


class TestDecoderFuzz:
    def test_truncation_at_every_offset(self):
        for cut in range(len(FUZZ_DATA)):
            assert decode_within_bound(FUZZ_DATA[:cut]) is None, cut

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, len(FUZZ_DATA) - 1),
                              st.integers(1, 255)), min_size=1, max_size=4))
    def test_byte_flips(self, flips):
        data = bytearray(FUZZ_DATA)
        for at, mask in flips:
            data[at] ^= mask
        back = decode_within_bound(bytes(data))
        if back is None:
            return
        # The zlib stream is checksummed and every header field but the
        # metadata is checked, so a surviving payload carries the original
        # records exactly; only a flip inside the header can change meta.
        n = len(FUZZ_TRACE)
        assert len(back) == n
        a, b = FUZZ_TRACE.columns(), back.columns()
        for name in Trace.field_names:
            assert b.get(name).dtype == a.get(name).dtype, name
            assert b.get(name).tobytes() == a.get(name).tobytes(), name
        if back.meta.to_dict() != FUZZ_TRACE.meta.to_dict():
            assert any(at < body_offset(FUZZ_DATA) for at, _ in flips)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2048))
    def test_random_bytes_after_magic(self, tail):
        back = decode_within_bound(b"ADTR" + tail)
        assert back is None or isinstance(back, Trace)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2048))
    def test_random_body_after_valid_header(self, tail):
        back = decode_within_bound(FUZZ_DATA[:body_offset(FUZZ_DATA)] + tail)
        assert back is None or isinstance(back, Trace)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["format", "version", "n", "meta", "columns"]),
           st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8),
               lambda inner: st.lists(inner, max_size=4)
               | st.dictionaries(st.text(max_size=6), inner, max_size=4),
               max_leaves=12))
    def test_random_header_field(self, field, value):
        _, header, _ = v2_split(FUZZ_DATA)
        header[field] = value
        back = decode_within_bound(v2_repack(FUZZ_DATA, header=header))
        assert back is None or isinstance(back, Trace)


    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(Trace.field_names) - 1),
           st.text(max_size=8) | st.sampled_from(
               ["<f8", "|b1", "<i8", "<U", "<U0", "<U1", "<U3", ">f8",
                "<U99999999999", "<U١", "|S4", "O"]))
    def test_random_channel_dtype(self, index, code):
        _, header, _ = v2_split(FUZZ_DATA)
        original = header["columns"][index][1]
        header["columns"][index][1] = code
        back = decode_within_bound(v2_repack(FUZZ_DATA, header=header))
        if back is not None:
            assert code == original
            assert_bit_exact(back, FUZZ_TRACE)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=512),
        st.binary(max_size=512).map(lambda b: gzip.compress(b, mtime=0)),
        st.lists(st.text(max_size=40), max_size=4).map(
            lambda lines: "\n".join(lines).encode())))
    def test_random_payloads_any_format(self, data):
        # Whatever the sniffer routes it to: a typed error or a trace.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TraceTruncationWarning)
            back = decode_within_bound(data)
        assert back is None or isinstance(back, Trace)


class TestColumnarBackend:
    def test_columns_cached_until_append(self):
        trace = make_trace(10)
        first = trace.columns()
        assert trace.columns() is first  # cached
        trace.append(trace[9].replace(step=10, t=0.5))
        rebuilt = trace.columns()
        assert rebuilt is not first  # invalidated by append
        assert rebuilt.n == 11

    def test_columns_read_only(self):
        cols = make_trace(5).columns()
        with pytest.raises(ValueError):
            cols.get("t")[0] = 99.0

    def test_from_columns_is_lazy(self):
        trace = sample_trace()
        loaded = trace_from_bytes(trace_to_npz_bytes(trace))
        # Columnar access must not materialize per-record storage.
        assert len(loaded) == len(trace)
        loaded.columns()
        assert loaded._records is None
        # Indexing one record builds only that record ...
        assert loaded[0] == trace[0]
        assert loaded._records is None
        # ... iterating builds the row view on demand.
        assert [r.step for r in loaded] == [r.step for r in trace]
        assert loaded._records is not None

    def test_from_columns_rejects_ragged(self):
        trace = make_trace(5)
        arrays = {name: trace.columns().get(name)
                  for name in Trace.field_names}
        arrays["t"] = arrays["t"][:3]
        with pytest.raises(ValueError, match="ragged"):
            Trace.from_columns(trace.meta, arrays)

    def test_from_columns_rejects_missing(self):
        with pytest.raises(ValueError, match="missing channels"):
            Trace.from_columns(None, {"t": np.zeros(3)})

    def test_materialized_records_compare_equal(self):
        trace = make_trace(12)
        loaded = trace_from_bytes(trace_to_npz_bytes(trace))
        assert loaded.records == trace.records
