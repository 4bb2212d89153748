"""Wire formats between reporting devices and the ingestion service.

Two negotiated wires share one TCP port:

**JSONL (wire v1, the default).**  One JSON object per ``\\n``-terminated
line, both directions.  Requests:

``{"op": "submit", "epoch": E, "device_ids": [...], "values": [...],
"claimed_loss": L}``
    One scalar report batch — the network form of
    :meth:`~repro.aggregation.AggregationServer.submit_array`.

``{"op": "submit_counts", "epoch": E, "counts": [...], "n_reports": N,
"claimed_loss": L}``
    One categorical support-count batch
    (:meth:`~repro.aggregation.AggregationServer.submit_counts`).

``{"op": "snapshot"}`` / ``{"op": "metrics"}`` / ``{"op": "ping"}``
    Read-only endpoints: aggregation state, admission counters, liveness.

``{"op": "hello", "wire": "jsonl"|"binary", "version": V}``
    Per-connection wire negotiation.  A connection starts in JSONL; an
    acknowledged ``hello`` with ``wire="binary"`` switches its *request*
    stream to binary columnar frames (below).  Responses stay JSONL on
    both wires, so replies are greppable and the reply path is shared.

**Binary columnar (wire v2).**  A length-prefixed frame per request:
a ``uint32`` little-endian payload length, then a fixed 28-byte header
(magic, opcode, dtype tag, count, aux, epoch, claimed loss) followed by
the raw little-endian column buffers — ``values`` as ``float64[n]`` and
``device_ids`` as a fixed-width NUL-padded ``S{w}[n]`` column for
``submit``; ``counts`` as ``int64[d]`` for ``submit_counts``.  The
server decodes columns zero-copy via ``np.frombuffer``, and the guard
chain's schema guard takes them as they are — no per-report Python
objects are ever materialized.  Read-only ops ride the binary
connection inside an ``OP_JSON`` escape frame carrying one JSONL
request line.  The same 64 MiB fence bounds a frame as bounds a JSONL
line.

Responses always carry ``status``: ``admitted`` / ``repaired`` /
``blocked`` / ``busy`` / ``ok`` / ``error``, plus status-specific fields
(``seq``, ``guard``, ``reason``, ``delta``, ``queue_depth``, payloads).

Decoding is *strict at the boundary*: :func:`decode_line` rejects
anything that is not a JSON object with a string ``op``, and
:func:`decode_binary_frame` rejects anything that is not a well-formed
frame (bad magic, unknown opcode, wrong dtype tag, length/column
mismatch) — but neither decides anything about the batch's *content*.
Content admission (types, ranges, finiteness, rate limits) is the guard
chain's job, so that every content decision is an auditable
ALLOW/WARN/BLOCK/REPAIR with a reason, not a parse error.  The two
decoders hand the chain different representations of one request — a
JSONL submit carries lists, a binary one numpy columns — and the
chain's schema guard turns either into the same canonical columnar
request.

Floats survive both wires bit-for-bit: Python's ``json`` emits
``repr``-round-trippable doubles, and the binary frame ships the raw
IEEE-754 bytes — which is what makes a socket-fed epoch bit-identical
to the same epoch submitted in-process on either wire.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from ..errors import ReproError

__all__ = [
    "WireError",
    "decode_line",
    "encode",
    "encode_cached",
    "KNOWN_OPS",
    "BINARY_WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "encode_binary_submit",
    "encode_binary_counts",
    "encode_binary_json",
    "frame_prefix",
    "decode_binary_frame",
    "is_columnar",
]

#: Operations the service understands.
KNOWN_OPS = (
    "submit",
    "submit_counts",
    "snapshot",
    "metrics",
    "ping",
    "shutdown",
    "hello",
)

#: Hard cap on one request line — a malicious peer must not be able to
#: balloon the reader's buffer (64 MiB of JSON is ~4M reports, far past
#: any sane batch).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: The same fence for one binary frame's payload (prefix excluded).
MAX_FRAME_BYTES = MAX_LINE_BYTES

#: Version negotiated by ``{"op": "hello", "wire": "binary"}``.
BINARY_WIRE_VERSION = 2

#: Binary frame header: magic, opcode, dtype tag, count, aux, epoch,
#: claimed loss — all little-endian, 28 bytes.
_HEADER = struct.Struct("<2sBBIIQd")
_MAGIC = b"R2"

#: Frame opcodes.
OP_JSON = 0        #: escape frame: columns hold one JSONL request line
OP_SUBMIT = 1
OP_SUBMIT_COUNTS = 2

#: Column dtype tags.
DTYPE_NONE = 0     #: OP_JSON frames carry no typed column
DTYPE_F64 = 1      #: little-endian IEEE-754 float64
DTYPE_I64 = 2      #: little-endian int64


class WireError(ReproError):
    """A line failed wire-level decoding (malformed JSON, wrong shape)."""


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Strictly decode one request line into a dict with a string ``op``.

    Raises :class:`WireError` on anything else — oversized payloads,
    non-UTF-8 bytes, non-JSON, JSON scalars/arrays, or a missing/non-str
    ``op``.  Content validation beyond that shape is deliberately left
    to the guard chain (see module docstring).
    """
    if len(raw) > MAX_LINE_BYTES:
        raise WireError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"request line is not UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise WireError(f"request line is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError(f"request must be a JSON object, got {type(obj).__name__}")
    op = obj.get("op")
    if not isinstance(op, str):
        raise WireError("request needs a string 'op' field")
    return obj


def encode(obj: Dict[str, Any]) -> bytes:
    """Encode one message as a JSONL line (sorted keys, trailing ``\\n``)."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def response(status: str, **fields: Any) -> Dict[str, Any]:
    """Build a response object (``status`` plus status-specific fields)."""
    out: Dict[str, Any] = {"status": status}
    out.update(fields)
    return out


@functools.lru_cache(maxsize=512)
def _encode_cached(status: str, items: tuple) -> bytes:
    return encode(response(status, **dict(items)))


def encode_cached(status: str, **fields: Any) -> bytes:
    """Encode a reply whose encoding is worth caching.

    The hot constant replies — the ping ack, the ``busy`` backpressure
    answer (its ``queue_depth`` is bounded by the queue capacity), the
    wire-level blocks — re-run ``json.dumps(sort_keys=True)`` thousands
    of times per second for byte-identical output.  This memoizes the
    encoded line on the (status, fields) pair; unhashable field values
    fall back to a plain :func:`encode`.  LRU-bounded so adversarial
    reason strings cannot grow the cache without bound.
    """
    try:
        return _encode_cached(status, tuple(sorted(fields.items())))
    except TypeError:  # an unhashable field value: encode uncached
        return encode(response(status, **fields))


# ---------------------------------------------------------------------------
# Binary columnar frames (wire v2)
# ---------------------------------------------------------------------------
def frame_prefix(payload: bytes) -> bytes:
    """The 4-byte little-endian length prefix for one frame payload."""
    return struct.pack("<I", len(payload))


def _ids_column(device_ids: Union[Sequence[str], np.ndarray]) -> np.ndarray:
    """Fixed-width ``S{w}`` column from device ids (client-side encode).

    Ids are NUL-padded to the batch's widest id, so NUL bytes and empty
    ids cannot be represented unambiguously — both are rejected here
    (the server-side schema guard independently blocks empty ids).
    """
    if isinstance(device_ids, np.ndarray) and device_ids.dtype.kind == "S":
        ids = device_ids
        if ids.dtype.itemsize < 1:
            raise WireError("device id column must have itemsize >= 1")
        return ids
    encoded = []
    for i, device_id in enumerate(device_ids):
        if isinstance(device_id, bytes):
            raw = device_id
        elif isinstance(device_id, str):
            raw = device_id.encode("utf-8")
        else:
            raise WireError(f"device_ids[{i}] must be a string")
        if not raw:
            raise WireError(f"device_ids[{i}] is empty")
        if b"\x00" in raw:
            raise WireError(
                f"device_ids[{i}] contains NUL, which the NUL-padded "
                "fixed-width id column cannot represent"
            )
        encoded.append(raw)
    return np.asarray(encoded, dtype="S")


def encode_binary_submit(
    epoch: int,
    device_ids: Union[Sequence[str], np.ndarray],
    values: Union[Sequence[float], np.ndarray],
    claimed_loss: float,
) -> bytes:
    """One ``submit`` batch as a length-prefixed binary columnar frame."""
    vals = np.ascontiguousarray(values, dtype="<f8").reshape(-1)
    ids = np.ascontiguousarray(_ids_column(device_ids))
    if ids.size != vals.size:
        raise WireError(
            f"device_ids ({ids.size}) and values ({vals.size}) disagree"
        )
    if epoch < 0 or epoch > 2**64 - 1:
        raise WireError(f"epoch {epoch!r} does not fit the uint64 frame field")
    header = _HEADER.pack(
        _MAGIC,
        OP_SUBMIT,
        DTYPE_F64,
        vals.size,
        ids.dtype.itemsize,
        epoch,
        float(claimed_loss),
    )
    payload = header + vals.tobytes() + ids.tobytes()
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return frame_prefix(payload) + payload


def encode_binary_counts(
    epoch: int,
    counts: Union[Sequence[int], np.ndarray],
    n_reports: int,
    claimed_loss: float,
) -> bytes:
    """One ``submit_counts`` batch as a binary columnar frame."""
    vec = np.ascontiguousarray(counts, dtype="<i8").reshape(-1)
    if epoch < 0 or epoch > 2**64 - 1:
        raise WireError(f"epoch {epoch!r} does not fit the uint64 frame field")
    if n_reports < 0 or n_reports > 2**32 - 1:
        raise WireError(f"n_reports {n_reports!r} does not fit uint32")
    header = _HEADER.pack(
        _MAGIC,
        OP_SUBMIT_COUNTS,
        DTYPE_I64,
        int(n_reports),
        vec.size,
        epoch,
        float(claimed_loss),
    )
    payload = header + vec.tobytes()
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return frame_prefix(payload) + payload


def encode_binary_json(obj: Dict[str, Any]) -> bytes:
    """Wrap one JSONL request in an ``OP_JSON`` escape frame.

    Lets read-only ops (``ping``/``metrics``/``snapshot``/``shutdown``)
    ride a binary-negotiated connection without a second socket.
    """
    line = json.dumps(obj, sort_keys=True).encode("utf-8")
    header = _HEADER.pack(_MAGIC, OP_JSON, DTYPE_NONE, len(line), 0, 0, 0.0)
    payload = header + line
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return frame_prefix(payload) + payload


def decode_binary_frame(payload: bytes) -> Dict[str, Any]:
    """Strictly decode one frame payload into a request dict.

    Column buffers come back as **zero-copy** numpy views over the
    received bytes (``np.frombuffer``; read-only, which every consumer
    downstream honors).  A ``submit`` decodes to a *columnar* request —
    ``device_ids`` as an ``S{w}`` array and ``values`` as ``float64`` —
    recognizable via :func:`is_columnar`; an ``OP_JSON`` escape frame
    decodes through :func:`decode_line`.

    Raises :class:`WireError` on any structural defect: short payload,
    bad magic, unknown opcode, wrong dtype tag for the opcode, zero id
    width, or a payload length that does not exactly match the header's
    announced column sizes.  Content checks stay with the guard chain.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if len(payload) < _HEADER.size:
        raise WireError(
            f"frame payload of {len(payload)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    magic, opcode, dtype_tag, n, aux, epoch, claimed_loss = _HEADER.unpack_from(
        payload, 0
    )
    if magic != _MAGIC:
        raise WireError(f"bad frame magic {magic!r} (want {_MAGIC!r})")
    body = len(payload) - _HEADER.size
    if opcode == OP_JSON:
        if dtype_tag != DTYPE_NONE:
            raise WireError(f"OP_JSON frame must use dtype tag 0, got {dtype_tag}")
        if body != n:
            raise WireError(
                f"OP_JSON frame announces {n} bytes but carries {body}"
            )
        return decode_line(payload[_HEADER.size:])
    if opcode == OP_SUBMIT:
        if dtype_tag != DTYPE_F64:
            raise WireError(
                f"submit frame values must be float64 (tag {DTYPE_F64}), "
                f"got dtype tag {dtype_tag}"
            )
        if aux < 1:
            raise WireError("submit frame device-id width must be >= 1")
        expected = n * 8 + n * aux
        if body != expected:
            raise WireError(
                f"submit frame announces {n} reports x (8 + {aux}) bytes = "
                f"{expected}, but carries {body}"
            )
        values = np.frombuffer(payload, dtype="<f8", count=n, offset=_HEADER.size)
        ids = np.frombuffer(
            payload, dtype=f"S{aux}", count=n, offset=_HEADER.size + n * 8
        )
        return {
            "op": "submit",
            "epoch": int(epoch),
            "device_ids": ids,
            "values": values,
            "claimed_loss": float(claimed_loss),
        }
    if opcode == OP_SUBMIT_COUNTS:
        if dtype_tag != DTYPE_I64:
            raise WireError(
                f"submit_counts frame counts must be int64 (tag {DTYPE_I64}), "
                f"got dtype tag {dtype_tag}"
            )
        expected = aux * 8
        if body != expected:
            raise WireError(
                f"submit_counts frame announces {aux} categories x 8 bytes = "
                f"{expected}, but carries {body}"
            )
        counts = np.frombuffer(payload, dtype="<i8", count=aux, offset=_HEADER.size)
        return {
            "op": "submit_counts",
            "epoch": int(epoch),
            "counts": counts,
            "n_reports": int(n),
            "claimed_loss": float(claimed_loss),
        }
    raise WireError(f"unknown frame opcode {opcode}")


def is_columnar(request: Dict[str, Any]) -> bool:
    """True when a request carries numpy column buffers (binary wire)."""
    return isinstance(
        request.get("values", request.get("counts")), np.ndarray
    )


def peer_label(peername: Optional[Any]) -> str:
    """Stable ``host:port`` label for a connection's trace channel."""
    if isinstance(peername, (tuple, list)) and len(peername) >= 2:
        return f"{peername[0]}:{peername[1]}"
    return str(peername) if peername else "unknown"
