"""Trace serialization: binary (preferred), JSONL, and CSV.

Three formats, by role:

* **Binary** (:func:`write_trace_npz` / :func:`trace_to_npz_bytes`) — a
  fixed prefix (magic ``ADTR``, format version, header length), a JSON
  header (format name, version, record count, run metadata, and each
  channel's name and dtype), then one zlib stream holding every channel
  byte-shuffled.  Exact round-trip of every column's dtype and bits, a
  fraction of JSONL's size, and loading yields the *columnar* trace form
  directly: one inflate and one un-shuffle copy per channel, no
  per-record parsing.  This is the run cache's, the service's and the
  checkpoints' payload format.  The ``npz`` in the names is historical:
  format version 1 was a zip of one ``.npy`` member per channel, which is
  still read (never written) so older saved traces and checkpoints load.
* **JSONL** (:func:`write_trace_jsonl`) — one metadata header line plus
  one record per line; round-tripping is exact up to float repr (Python's
  ``repr`` of a float is lossless).  Kept as the human-inspectable
  interchange format (``zcat``, ``jq``, hand-built fixtures).
* **CSV** (:func:`write_trace_csv`) — spreadsheet-friendly record table
  with the metadata in a ``# meta:`` comment line.

Paths ending in ``.gz`` are transparently gzip-compressed on the JSONL
path; :func:`read_trace_auto` / :func:`trace_from_bytes` sniff the format
(``ADTR`` = binary v2, zip = binary v1, gzip = compressed JSONL, else
plain JSONL).

Error handling contract: structurally broken input (missing header,
malformed metadata, corrupt record in the middle of a file, wrong CSV
columns, a binary payload with a missing channel, a wrong dtype, a short
or overlong body or an unknown format version) raises
:class:`TraceIOError` — a :class:`ValueError` subclass carrying the file
label.  A JSONL stream cut off mid-write (truncated gzip stream,
incomplete final line — what a killed worker or full disk leaves behind)
instead returns the parseable prefix and emits a
:class:`TraceTruncationWarning`, because the prefix is still a valid
trace and losing the tail is recoverable.  A truncated *binary* payload
is always a hard :class:`TraceIOError`: its channels are stored one
after another, so a prefix holds no complete record.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import struct
import sys
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.trace.schema import Trace, TraceMeta, TraceRecord

__all__ = [
    "TraceIOError",
    "TraceTruncationWarning",
    "TRACE_NPZ_VERSION",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "write_trace_csv",
    "read_trace_csv",
    "write_trace_npz",
    "read_trace_npz",
    "read_trace_auto",
    "trace_to_jsonl_bytes",
    "trace_from_jsonl_bytes",
    "trace_to_npz_bytes",
    "trace_from_bytes",
]

_GZIP_MAGIC = b"\x1f\x8b"
_ZIP_MAGIC = b"PK\x03\x04"
_V2_MAGIC = b"ADTR"

TRACE_NPZ_VERSION = 2
"""Binary trace format version the writer produces.  Readers take it and
the version 1 zip container; anything else is rejected."""

_NPZ_FORMAT_NAME = "adassure-trace"
_NPZ_COLUMN_PREFIX = "col_"


class TraceIOError(ValueError):
    """A trace file/payload is structurally unreadable (not just truncated)."""


class TraceTruncationWarning(UserWarning):
    """A trace stream ended mid-write; the parseable prefix was returned."""


def _meta_from(data, label: str) -> TraceMeta:
    """A header's ``meta`` object as :class:`TraceMeta`; every reader
    goes through this, so malformed metadata is a :class:`TraceIOError`."""
    if not isinstance(data, dict):
        raise TraceIOError(
            f"{label}: trace metadata is a {type(data).__name__}, "
            "not an object")
    try:
        return TraceMeta.from_dict(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceIOError(f"{label}: bad trace metadata: {exc}") from exc


def _record_to_dict(record: TraceRecord) -> dict:
    return {name: getattr(record, name) for name in Trace.field_names}


def _record_from_dict(data: dict) -> TraceRecord:
    kwargs = {}
    for name in Trace.field_names:
        if name not in data:
            raise ValueError(f"record is missing channel {name!r}")
        kwargs[name] = data[name]
    for name in Trace.int_channels:
        kwargs[name] = int(kwargs[name])
    return TraceRecord(**kwargs)


def _write_jsonl_stream(trace: Trace, f) -> None:
    f.write(json.dumps({"meta": trace.meta.to_dict()}) + "\n")
    for record in trace:
        f.write(json.dumps(_record_to_dict(record)) + "\n")


# Exceptions a file object raises mid-iteration when the underlying
# stream was cut off (gzip raises EOFError/BadGzipFile on a truncated
# member, plain files can surface OSError on bad media).
_STREAM_TRUNCATION = (EOFError, gzip.BadGzipFile, OSError)


def _read_jsonl_stream(f, label: str) -> Trace:
    try:
        header = f.readline()
    except (*_STREAM_TRUNCATION, UnicodeDecodeError) as exc:
        raise TraceIOError(f"{label}: unreadable trace stream: {exc}") from exc
    if not header:
        raise TraceIOError(f"{label}: empty trace file")
    try:
        head = json.loads(header)
    except (ValueError, RecursionError) as exc:
        raise TraceIOError(f"{label}: bad metadata header: {exc}") from exc
    if not isinstance(head, dict) or "meta" not in head:
        raise TraceIOError(f"{label}: missing metadata header line")
    trace = Trace(_meta_from(head["meta"], label))

    lines = iter(f)
    line_no = 1
    truncated: str | None = None
    while True:
        line_no += 1
        try:
            line = next(lines)
        except StopIteration:
            break
        except _STREAM_TRUNCATION as exc:
            truncated = f"stream ended mid-record: {exc}"
            break
        except UnicodeDecodeError as exc:
            raise TraceIOError(
                f"{label}:{line_no}: undecodable trace record: {exc}") from exc
        line = line.strip()
        if not line:
            continue
        try:
            trace.append(_record_from_dict(json.loads(line)))
        except (TypeError, ValueError, RecursionError) as exc:
            # A bad *final* line is what an interrupted write leaves
            # behind — salvage the prefix.  A bad line with more data
            # after it is corruption and must not be papered over.
            try:
                more = next(lines)
            except (StopIteration, *_STREAM_TRUNCATION):
                more = ""
            except UnicodeDecodeError:
                more = "?"  # undecodable bytes are still more data
            if more.strip():
                raise TraceIOError(
                    f"{label}:{line_no}: bad trace record: {exc}") from exc
            truncated = f"incomplete final record ({exc})"
            break
    if truncated is not None:
        warnings.warn(
            f"{label}: truncated trace, kept {len(trace)} record(s) "
            f"({truncated})",
            TraceTruncationWarning,
            stacklevel=3,
        )
    return trace


def write_trace_jsonl(trace: Trace, path: str | Path) -> None:
    """Write a trace to a JSON-lines file (header line + one record/line).

    A ``.gz`` suffix gzip-compresses the file transparently.
    """
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as f:
            _write_jsonl_stream(trace, f)
    else:
        with path.open("w", encoding="utf-8") as f:
            _write_jsonl_stream(trace, f)


def read_trace_jsonl(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_jsonl` (plain or .gz).

    Raises :class:`TraceIOError` on structurally corrupt input; a stream
    truncated mid-write yields the parseable prefix with a
    :class:`TraceTruncationWarning` instead.
    """
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as f:
            return _read_jsonl_stream(f, str(path))
    with path.open("r", encoding="utf-8") as f:
        return _read_jsonl_stream(f, str(path))


def trace_to_jsonl_bytes(trace: Trace, compress: bool = True) -> bytes:
    """Serialize a trace to JSONL bytes (gzip-compressed by default).

    This is the persistent run cache's payload format: identical to the
    on-disk JSONL files but round-tripped in memory, so cache writes are
    a single atomic file operation.
    """
    buf = io.StringIO()
    _write_jsonl_stream(trace, buf)
    data = buf.getvalue().encode("utf-8")
    if compress:
        # mtime=0 keeps the payload a pure function of the trace content
        # (content-addressed stores must not embed wall-clock time).
        data = gzip.compress(data, mtime=0)
    return data


def trace_from_jsonl_bytes(data: bytes) -> Trace:
    """Inverse of :func:`trace_to_jsonl_bytes`; auto-detects compression."""
    return _trace_from_jsonl(data, "<trace bytes>")


def _trace_from_jsonl(data: bytes, label: str) -> Trace:
    if data[:2] == _GZIP_MAGIC:
        stream = io.TextIOWrapper(
            gzip.GzipFile(fileobj=io.BytesIO(data)), encoding="utf-8")
        return _read_jsonl_stream(stream, label)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceIOError(
            f"{label}: not a trace payload (binary garbage, "
            f"{exc.reason} at byte {exc.start})") from exc
    return _read_jsonl_stream(io.StringIO(text), label)


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

_V2_PREFIX = struct.Struct("<4sII")  # magic, format version, header length

# The schema's dtype for each channel, as the byte-order-pinned
# ``dtype.str`` a v2 header must declare.  String channels are ``<U`` of
# any positive width (the widest label in the trace), so only their prefix
# is fixed.
_V2_DTYPES = {
    name: ("<U" if name in Trace.string_channels
           else "|b1" if name in Trace.bool_channels
           else "<i8" if name in Trace.int_channels
           else "<f8")
    for name in Trace.field_names
}
_MAX_CODE_POINT = 0x10FFFF

# Everything np.load / zipfile / zlib / json can throw at a damaged or
# truncated v1 payload; all of it maps to TraceIOError (binary payloads
# have no salvageable prefix, unlike JSONL).
_NPZ_READ_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    ValueError,
    KeyError,
    OSError,
    EOFError,
)


def _shuffled(arr: np.ndarray) -> bytes:
    """A column's bytes, every element's first byte first, then the
    second bytes, and so on (the little-endian form is what is stored)."""
    arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    return arr.view(np.uint8).reshape(arr.size, arr.itemsize).T.tobytes()


def trace_to_npz_bytes(trace: Trace) -> bytes:
    """Serialize a trace to the binary format (version 2).

    A fixed ``<4sII`` prefix (magic ``ADTR``, format version, header
    length), a UTF-8 JSON header (format name, version, record count,
    metadata, and each channel's ``[name, dtype.str]`` in
    :attr:`Trace.field_names` order), then one zlib stream holding every
    channel byte-shuffled, in header order.  Same trace, same bytes.  The
    name is historical: the payload has not been an ``.npz`` since
    version 2.
    """
    cols = trace.columns()
    arrays = [cols.get(name) for name in Trace.field_names]
    header = json.dumps({
        "format": _NPZ_FORMAT_NAME,
        "version": TRACE_NPZ_VERSION,
        "n": len(trace),
        "meta": trace.meta.to_dict(),
        "columns": [[name, arr.dtype.newbyteorder("<").str]
                    for name, arr in zip(Trace.field_names, arrays)],
    }).encode("utf-8")
    deflate = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    body = deflate.compress(b"".join(map(_shuffled, arrays)))
    return (_V2_PREFIX.pack(_V2_MAGIC, TRACE_NPZ_VERSION, len(header))
            + header + body + deflate.flush())


def _v2_columns(entries, label: str) -> list[tuple[str, np.dtype]]:
    """The header's channel table, checked against the schema."""
    try:
        names = [name for name, _ in entries]
    except (TypeError, ValueError) as exc:
        raise TraceIOError(
            f"{label}: bad channel table in trace header: {exc}") from exc
    if names != list(Trace.field_names):
        missing = [name for name in Trace.field_names if name not in names]
        raise TraceIOError(
            f"{label}: missing channel {missing[0]!r}" if missing else
            f"{label}: channel table has unknown, repeated or reordered "
            "channels")
    columns = []
    for name, code in entries:
        want = _V2_DTYPES[name]
        if want != "<U":
            if code != want:
                raise TraceIOError(
                    f"{label}: channel {name!r} has dtype {code!r}, the "
                    f"schema needs {want}")
            dtype = np.dtype(code)
        elif (isinstance(code, str) and code[:2] == want
              and code[2:].isascii() and code[2:].isdigit()
              and code[2] != "0"):
            try:
                dtype = np.dtype(code)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceIOError(
                    f"{label}: channel {name!r} has dtype {code!r}: "
                    f"{exc}") from exc
        else:
            raise TraceIOError(
                f"{label}: channel {name!r} has dtype {code!r}, the schema "
                "needs <U and a positive width")
        columns.append((name, dtype))
    return columns


def _trace_from_v2(data: bytes, label: str) -> Trace:
    if len(data) < _V2_PREFIX.size:
        raise TraceIOError(f"{label}: binary trace cut off inside its prefix")
    _, version, header_len = _V2_PREFIX.unpack_from(data)
    if version != TRACE_NPZ_VERSION:
        raise TraceIOError(
            f"{label}: unsupported trace format version {version!r} "
            f"(this build reads versions 1 and {TRACE_NPZ_VERSION})")
    body_at = _V2_PREFIX.size + header_len
    if len(data) < body_at:
        raise TraceIOError(f"{label}: binary trace cut off inside its header")
    try:
        header = json.loads(data[_V2_PREFIX.size:body_at].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise TraceIOError(f"{label}: bad trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _NPZ_FORMAT_NAME:
        raise TraceIOError(f"{label}: not an adassure trace")
    if header.get("version") != version:
        raise TraceIOError(
            f"{label}: header version {header.get('version')!r} disagrees "
            f"with prefix version {version}")
    n = header.get("n")
    if type(n) is not int or n < 0:
        raise TraceIOError(f"{label}: bad record count {n!r}")
    meta = _meta_from(header.get("meta", {}), label)
    columns = _v2_columns(header.get("columns"), label)
    expected = n * sum(dtype.itemsize for _, dtype in columns)
    if expected >= sys.maxsize:
        raise TraceIOError(f"{label}: header claims {n} records, too many")
    # Inflate at most one byte past what the header declares, so a
    # hostile body cannot balloon memory beyond the claimed size.
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(memoryview(data)[body_at:], expected + 1)
    except zlib.error as exc:
        raise TraceIOError(f"{label}: corrupt trace body: {exc}") from exc
    if len(raw) > expected:
        raise TraceIOError(
            f"{label}: trace body inflates past the {expected} bytes its "
            f"header declares for {n} records")
    if not inflate.eof:
        raise TraceIOError(f"{label}: trace body ends mid-stream")
    if len(raw) < expected:
        raise TraceIOError(
            f"{label}: header claims {n} records ({expected} bytes), body "
            f"holds {len(raw)} bytes")
    if inflate.unused_data:
        raise TraceIOError(
            f"{label}: {len(inflate.unused_data)} trailing byte(s) after "
            "the trace body")
    arrays = {}
    offset = 0
    for name, dtype in columns:
        size = dtype.itemsize
        planes = np.frombuffer(raw, np.uint8, n * size, offset)
        offset += n * size
        arr = planes.reshape(size, n).T.copy().view(dtype).reshape(n)
        if dtype.kind == "b" and planes.size and planes.max() > 1:
            raise TraceIOError(f"{label}: channel {name!r} holds non-bool bytes")
        if (dtype.kind == "U" and arr.size
                and arr.view("<u4").max() > _MAX_CODE_POINT):
            raise TraceIOError(
                f"{label}: channel {name!r} holds invalid code points")
        # Read-only before from_columns, which copies writeable arrays.
        arr.flags.writeable = False
        arrays[name] = arr
    return Trace.from_columns(meta, arrays)


def _trace_from_v1(data: bytes, label: str) -> Trace:
    """Read the legacy zip container: one ``.npy`` member per channel plus
    a ``header`` member.  Nothing writes it any more; saved traces and
    checkpoints from older builds still load."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            if "header" not in npz.files:
                raise TraceIOError(f"{label}: not a trace npz (no header)")
            try:
                header = json.loads(str(npz["header"][()]))
            except (ValueError, RecursionError) as exc:
                raise TraceIOError(f"{label}: bad npz header: {exc}") from exc
            if (not isinstance(header, dict)
                    or header.get("format") != _NPZ_FORMAT_NAME):
                raise TraceIOError(f"{label}: not an adassure trace npz")
            version = header.get("version")
            if version != 1:
                raise TraceIOError(
                    f"{label}: unsupported trace format version {version!r} "
                    "in a zip container (it holds version 1 only)")
            arrays = {}
            for name in Trace.field_names:
                member = _NPZ_COLUMN_PREFIX + name
                if member not in npz.files:
                    raise TraceIOError(f"{label}: missing channel {name!r}")
                arrays[name] = npz[member]
    except TraceIOError:
        raise
    except _NPZ_READ_ERRORS as exc:
        raise TraceIOError(
            f"{label}: unreadable binary trace: {exc}") from exc
    meta = _meta_from(header.get("meta", {}), label)
    try:
        trace = Trace.from_columns(meta, arrays)
    except ValueError as exc:
        raise TraceIOError(f"{label}: {exc}") from exc
    expected = header.get("n")
    if expected is not None and expected != len(trace):
        raise TraceIOError(
            f"{label}: header claims {expected} records, payload has "
            f"{len(trace)}")
    return trace


def write_trace_npz(trace: Trace, path: str | Path) -> None:
    """Write a trace in the binary format (conventional suffix ``.npz``,
    kept from version 1)."""
    Path(path).write_bytes(trace_to_npz_bytes(trace))


def read_trace_npz(path: str | Path) -> Trace:
    """Read a binary trace file of either version; the format is sniffed
    (this is :func:`read_trace_auto`), so a JSONL file loads too."""
    return read_trace_auto(path)


def _trace_from_bytes(data: bytes, label: str) -> Trace:
    if len(data) < len(_ZIP_MAGIC):
        raise TraceIOError(
            f"{label}: payload of {len(data)} byte(s) is too short "
            "to be a trace (no format magic)")
    magic = data[:4]
    if magic == _V2_MAGIC:
        return _trace_from_v2(data, label)
    if magic == _ZIP_MAGIC:
        return _trace_from_v1(data, label)
    return _trace_from_jsonl(data, label)


def trace_from_bytes(data: bytes) -> Trace:
    """Deserialize a trace payload of any supported format.

    Sniffs the leading magic: ``ADTR`` (binary, version 2), zip (binary,
    version 1, read-only), gzip (compressed JSONL), else plain-text
    JSONL.  The run cache, the service and checkpoints read through this,
    so payloads written by older builds still load.

    Payloads too short to even carry a format magic (what a torn network
    frame or a zero-byte cache file looks like) raise
    :class:`TraceIOError` up front rather than a confusing low-level
    error from whichever decoder the sniffer happened to guess.
    """
    return _trace_from_bytes(data, "<trace bytes>")


def read_trace_auto(path: str | Path) -> Trace:
    """Read a trace file of any supported format (sniffed, not by suffix,
    like :func:`trace_from_bytes`); errors carry the path."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceIOError(f"{path}: unreadable trace file: {exc}") from exc
    return _trace_from_bytes(data, str(path))


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as CSV with a ``# meta:`` comment header."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write("# meta: " + json.dumps(trace.meta.to_dict()) + "\n")
        writer = csv.writer(f)
        writer.writerow(Trace.field_names)
        for record in trace:
            writer.writerow(getattr(record, name) for name in Trace.field_names)


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_csv`."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        first = f.readline()
        meta = TraceMeta()
        if first.startswith("# meta:"):
            try:
                head = json.loads(first[len("# meta:"):])
            except json.JSONDecodeError as exc:
                raise TraceIOError(f"{path}: bad metadata line: {exc}") from exc
            meta = _meta_from(head, str(path))
            header_line = None
        else:
            header_line = first
        reader = csv.reader(f)
        if header_line is not None:
            header = next(csv.reader([header_line]))
        else:
            header = next(reader)
        if tuple(header) != Trace.field_names:
            raise TraceIOError(f"{path}: unexpected CSV columns")
        trace = Trace(meta)
        for row in reader:
            data = dict(zip(Trace.field_names, row))
            kwargs = {}
            for name, raw in data.items():
                if name in Trace.string_channels:
                    kwargs[name] = raw
                elif name in Trace.int_channels:
                    kwargs[name] = int(raw)
                elif name in Trace.bool_channels:
                    kwargs[name] = raw in ("True", "true", "1")
                else:
                    kwargs[name] = float(raw)
            trace.append(TraceRecord(**kwargs))
    return trace
