"""Session-layer tests: chunk codec, the exactly-once gate, scoring,
monitor pooling."""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.catalog import default_catalog
from repro.core.checker import check_trace
from repro.core.monitor import OnlineMonitor
from repro.service.session import (
    ChunkRejected,
    MonitorPool,
    SessionState,
    chunk_to_bytes,
    records_from_chunk,
    score_trace_bytes,
)
from repro.trace.io import trace_to_npz_bytes
from repro.trace.schema import TraceMeta

from conftest import make_trace
from service_utils import attacked_trace as _attacked_trace


def _with_meta(payload: bytes, meta) -> bytes:
    """A binary chunk payload with its header's metadata replaced."""
    prefix = struct.Struct("<4sII")
    magic, version, length = prefix.unpack_from(payload)
    header = json.loads(payload[prefix.size:prefix.size + length])
    header["meta"] = meta
    raw = json.dumps(header).encode()
    return (prefix.pack(magic, version, len(raw)) + raw
            + payload[prefix.size + length:])


def _chunks(trace, size):
    records = list(trace.records)
    return [(i // size, chunk_to_bytes(trace.meta, records[i:i + size]))
            for i in range(0, len(records), size)]


class TestChunkCodec:
    def test_roundtrip_exact(self):
        trace = make_trace(30)
        meta, records = records_from_chunk(
            chunk_to_bytes(trace.meta, list(trace.records)[5:15]))
        assert len(records) == 10
        # float64-exact: the byte-identical verdict contract rests on this
        assert records == list(trace.records)[5:15]

    def test_reassembled_chunks_equal_source(self):
        trace = make_trace(50)
        rebuilt = []
        for _, payload in _chunks(trace, 7):
            rebuilt.extend(records_from_chunk(payload)[1])
        assert rebuilt == list(trace.records)


class TestExactlyOnceGate:
    def _session(self, monitor=True):
        return SessionState(
            "s1", TraceMeta(scenario="synthetic", controller="test"),
            monitor=OnlineMonitor(default_catalog()) if monitor else None)

    def test_in_order_chunks_apply(self):
        trace = make_trace(40)
        session = self._session()
        for seq, payload in _chunks(trace, 10):
            assert session.apply_chunk(seq, payload) is not None
        assert session.next_seq == 4
        assert len(session.records) == 40

    def test_duplicate_is_acknowledged_not_reapplied(self):
        trace = make_trace(20)
        session = self._session()
        chunks = _chunks(trace, 10)
        session.apply_chunk(*chunks[0])
        assert session.apply_chunk(*chunks[0]) is None  # dup: no re-feed
        assert len(session.records) == 10
        session.apply_chunk(*chunks[1])
        assert len(session.records) == 20

    def test_gap_rejected_with_cursor_hint(self):
        trace = make_trace(30)
        session = self._session()
        chunks = _chunks(trace, 10)
        session.apply_chunk(*chunks[0])
        with pytest.raises(ChunkRejected, match="1 is next"):
            session.apply_chunk(*chunks[2])
        assert len(session.records) == 10  # nothing partial applied

    def test_finished_session_is_immutable(self):
        trace = make_trace(10)
        session = self._session()
        session.apply_chunk(*_chunks(trace, 10)[0])
        session.finished = True
        with pytest.raises(ChunkRejected, match="finished"):
            session.apply_chunk(1, _chunks(trace, 10)[0][1])

    def test_garbage_payload_rejected(self):
        session = self._session()
        with pytest.raises(ChunkRejected, match="undecodable"):
            session.apply_chunk(0, b"PK\x03\x04 but not really a zip")

    @pytest.mark.parametrize("meta", [5, {"seed": "x"}, {"dt": "fast"}])
    def test_bad_metadata_rejected_cursor_kept(self, meta):
        # A CRC-valid chunk whose metadata does not convert is rejected
        # like any undecodable payload; the session carries on.
        trace = make_trace(20)
        session = self._session()
        chunks = _chunks(trace, 10)
        for bad in (_with_meta(chunks[0][1], meta),
                    (json.dumps({"meta": meta}) + "\n").encode()):
            with pytest.raises(ChunkRejected, match="metadata"):
                session.apply_chunk(0, bad)
            assert session.next_seq == 0 and not session.records
        session.apply_chunk(*chunks[0])
        assert session.next_seq == 1

    def test_non_monotonic_records_rejected(self):
        trace = make_trace(20)
        session = self._session()
        chunks = _chunks(trace, 10)
        session.apply_chunk(*chunks[0])
        # same records again under a *new* seq: overlap, not extension
        with pytest.raises(ChunkRejected, match="does not extend"):
            session.apply_chunk(1, chunks[0][1])

    def test_live_violations_surface_incrementally(self):
        trace = _attacked_trace()
        session = self._session()
        per_chunk = []
        for seq, payload in _chunks(trace, 20):
            per_chunk.append(session.apply_chunk(seq, payload))
        assert any(per_chunk), "attack must fire the incremental monitor"

    def test_replay_restores_cursor_and_monitor(self):
        trace = _attacked_trace()
        chunks = _chunks(trace, 20)
        straight = self._session()
        for seq, payload in chunks:
            straight.apply_chunk(seq, payload)

        resumed = self._session()
        resumed.replay(list(trace.records)[:80], next_seq=4)  # 4 x 20
        for seq, payload in chunks[4:]:
            resumed.apply_chunk(seq, payload)
        assert resumed.records == straight.records
        assert resumed.next_seq == straight.next_seq


class TestScoring:
    def test_score_matches_offline_check_trace(self):
        trace = _attacked_trace()
        verdict = score_trace_bytes(trace_to_npz_bytes(trace))
        offline = check_trace(trace)
        assert verdict["report"] == offline.to_dict()
        assert verdict["any_fired"] == offline.any_fired
        assert verdict["n_records"] == len(trace)

    def test_clean_trace_has_no_cause(self):
        # 300 steps: long enough to reach the goal (A15 liveness holds)
        verdict = score_trace_bytes(trace_to_npz_bytes(make_trace(300)))
        assert verdict["any_fired"] is False
        assert verdict["top_cause"] is None

    def test_assembled_session_scores_like_source(self):
        trace = _attacked_trace()
        session = SessionState("s1", trace.meta, monitor=None)
        for seq, payload in _chunks(trace, 30):
            session.apply_chunk(seq, payload)
        verdict = score_trace_bytes(session.assemble_bytes())
        assert verdict["report"] == check_trace(trace).to_dict()


class TestMonitorPool:
    def test_reuses_released_monitors(self):
        pool = MonitorPool()
        first = pool.acquire()
        pool.release(first)
        second = pool.acquire()
        assert second is first
        assert pool.created == 1
        assert pool.reused == 1

    def test_recycled_monitor_is_reset(self):
        trace = make_trace(10)
        pool = MonitorPool()
        monitor = pool.acquire()
        for record in trace.records:
            monitor.feed(record)
        monitor.finish()
        pool.release(monitor)
        recycled = pool.acquire()
        assert recycled is monitor
        # a finished monitor would raise on feed; reset re-arms it
        recycled.feed(list(trace.records)[0])

    def test_idle_cap_bounds_the_free_list(self):
        pool = MonitorPool(max_idle=1)
        a, b = pool.acquire(), pool.acquire()
        pool.release(a)
        pool.release(b)
        assert len(pool._idle) == 1
