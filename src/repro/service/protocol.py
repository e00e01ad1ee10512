"""Wire protocol: length-prefixed, CRC-framed JSON messages.

Frames are :mod:`repro.framing` frames, the same envelope the WAL file
uses.  The CRC turns torn or garbled frames into a typed
:class:`~repro.errors.TornFrameError` instead of silent misparses — the
same role it plays for the log's crash tail.

Payloads are compact JSON objects.  Requests carry:

``{"id": <int>, "op": "sql"|"ingest"|"stats"|"ping"|"close", ...}``

``id`` is a client-chosen request id used for idempotency: the server
caches the response it sent for each id, so a client that retries after a
lost response gets the original answer back instead of a second execution.

Responses carry ``{"id": ..., "status": ..., ...}`` with status one of
``ok``, ``degraded`` (rows present but some reads were quarantine-degraded),
``error`` (typed engine/SQL error), ``overloaded`` (admission rejection,
with ``retry_after_ms``), ``timeout``, or ``bye`` (drain/close notice).

:class:`~repro.framing.FrameDecoder` is incremental: feed it arbitrary
byte chunks (a slow-loris client delivering one byte at a time is fine) and
it yields complete payloads as they close.
"""

from __future__ import annotations

import json

from repro.errors import ProtocolError
# FrameDecoder and MAX_FRAME are re-exported: the wire's stream decoder.
from repro.framing import MAX_FRAME, FrameDecoder, encode  # noqa: F401

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"
STATUS_TIMEOUT = "timeout"
STATUS_BYE = "bye"


def encode_message(message: dict) -> bytes:
    """JSON-encode a message dict and frame it."""
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return encode(payload)


def decode_message(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


# -- response constructors (the server's half of the protocol) ---------------

def ok_response(request_id, *, rows=None, rowcount=0, message="") -> dict:
    response = {"id": request_id, "status": STATUS_OK,
                "rowcount": rowcount, "message": message}
    if rows is not None:
        response["rows"] = rows
    return response


def degraded_response(request_id, *, rows, rowcount, degraded) -> dict:
    """Rows the engine could serve, plus which pages it could not."""
    return {
        "id": request_id,
        "status": STATUS_DEGRADED,
        "rows": rows,
        "rowcount": rowcount,
        "degraded": degraded,
    }


def error_response(request_id, exc: BaseException, *, retryable: bool) -> dict:
    return {
        "id": request_id,
        "status": STATUS_ERROR,
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": retryable,
    }


def overloaded_response(request_id, *, retry_after_ms, shed_kind) -> dict:
    return {
        "id": request_id,
        "status": STATUS_OVERLOADED,
        "retry_after_ms": retry_after_ms,
        "shed_kind": shed_kind,
        "retryable": True,
    }


def timeout_response(request_id, *, deadline_ms) -> dict:
    return {"id": request_id, "status": STATUS_TIMEOUT,
            "deadline_ms": deadline_ms}


def bye_response(reason: str) -> dict:
    """Unsolicited close notice (drain, idle timeout)."""
    return {"id": None, "status": STATUS_BYE, "reason": reason}
