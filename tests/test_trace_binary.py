"""Tests for the binary (.npz) trace format and the columnar backend.

The binary format is the run cache's payload, so its failure modes are
load-bearing: a corrupt, truncated or future-version payload must raise
:class:`TraceIOError` (which the cache maps to evict-and-rerun), never
yield a silently wrong trace.
"""

import io
import json

import numpy as np
import pytest

from repro.trace.io import (
    TRACE_NPZ_VERSION,
    TraceIOError,
    read_trace_auto,
    read_trace_npz,
    trace_from_bytes,
    trace_from_npz_bytes,
    trace_to_jsonl_bytes,
    trace_to_npz_bytes,
    write_trace_jsonl,
    write_trace_npz,
)
from repro.trace.schema import Trace, TraceMeta

from conftest import make_trace


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


def repack_npz(data: bytes, *, header: dict | None = None,
               drop: str | None = None) -> bytes:
    """Rewrite an npz payload with a patched header / a member removed."""
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


class TestRoundTrip:
    def test_bytes_roundtrip_exact(self):
        trace = sample_trace()
        back = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert len(back) == len(trace)
        assert back.meta.to_dict() == trace.meta.to_dict()
        for a, b in zip(trace, back):
            # NaN != NaN breaks whole-record equality; compare field-wise.
            for name in Trace.field_names:
                va, vb = getattr(a, name), getattr(b, name)
                assert va == vb or (va != va and vb != vb), name

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.npz"
        write_trace_npz(trace, path)
        back = read_trace_npz(path)
        assert len(back) == len(trace)
        assert back.meta.to_dict() == trace.meta.to_dict()

    def test_typed_channels_preserved(self):
        trace = sample_trace()
        back = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert [r.gps_fresh for r in back] == [r.gps_fresh for r in trace]
        assert [r.supervisor_lost for r in back] == [
            r.supervisor_lost for r in trace]
        assert [r.attack_name for r in back] == [
            r.attack_name for r in trace]
        assert all(isinstance(r.step, int) for r in back)

    def test_empty_trace_roundtrip(self):
        trace = Trace(TraceMeta(scenario="empty"))
        back = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert len(back) == 0
        assert back.meta.scenario == "empty"

    def test_payload_is_deterministic(self):
        trace = sample_trace()
        assert trace_to_npz_bytes(trace) == trace_to_npz_bytes(trace)


class TestRejection:
    def test_version_mismatch_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["version"] = TRACE_NPZ_VERSION + 1
        patched = repack_npz(data, header=header)
        with pytest.raises(TraceIOError, match="unsupported trace format"):
            trace_from_npz_bytes(patched)

    def test_foreign_format_name_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["format"] = "somebody-elses-trace"
        with pytest.raises(TraceIOError, match="not an adassure trace"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    def test_headerless_npz_rejected(self):
        buf = io.BytesIO()
        np.savez_compressed(buf, stuff=np.arange(5))
        with pytest.raises(TraceIOError, match="no header"):
            trace_from_npz_bytes(buf.getvalue())

    def test_missing_channel_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        with pytest.raises(TraceIOError, match="missing channel"):
            trace_from_npz_bytes(repack_npz(data, drop="col_est_v"))

    def test_record_count_mismatch_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["n"] = header["n"] + 5
        with pytest.raises(TraceIOError, match="header claims"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    @pytest.mark.parametrize("cut", [0.25, 0.5, 0.9])
    def test_truncated_payload_rejected(self, cut):
        data = trace_to_npz_bytes(sample_trace())
        with pytest.raises(TraceIOError):
            trace_from_npz_bytes(data[: int(len(data) * cut)])

    def test_garbage_rejected(self):
        with pytest.raises(TraceIOError):
            trace_from_npz_bytes(b"PK\x03\x04 but not actually a zip")

    def test_file_errors_carry_path(self, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace_npz(sample_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceIOError, match="trace.npz"):
            read_trace_npz(path)


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
        loaded = trace_from_npz_bytes(trace_to_npz_bytes(trace))
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
        loaded = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert loaded.records == trace.records
