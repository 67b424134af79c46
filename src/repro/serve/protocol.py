"""The client<->daemon socket protocol: newline-delimited JSON.

One request per line, one response per line, over a unix stream socket.
Every request carries an ``op``; every response carries ``ok`` (bool)
and echoes the request's ``op``.  Binary-free and line-framed on
purpose: ``socat - UNIX-CONNECT:/tmp/repro.sock`` is a working client,
and the example transcripts in ``docs/SERVICE.md`` are literal traffic.

Request ops (see :class:`repro.serve.daemon.LikelihoodService`):

==========  ===========================================================
op          fields
==========  ===========================================================
ping        --
submit      spec (dict), tenant?, priority?, timeout?
result      id, wait? (float seconds to block for completion)
cancel      id
stats       --
metrics     -- (response carries Prometheus text exposition)
shutdown    --
==========  ===========================================================

Versioning: ``PROTOCOL_VERSION`` covers this framing and op vocabulary
(the daemon reports it in ``ping``); the *inner* master<->worker command
vocabulary is versioned separately as
:data:`repro.parallel.worker.WIRE_VERSION` — both are documented in
``docs/ARCHITECTURE.md``.
"""
from __future__ import annotations

import json

__all__ = [
    "PROTOCOL_VERSION",
    "decode",
    "encode",
    "error_response",
    "ok_response",
]

PROTOCOL_VERSION = 1


def encode(message: dict) -> bytes:
    """One protocol frame: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes | str) -> dict:
    """Parse one frame; raises ``ValueError`` on malformed input."""
    if isinstance(line, bytes):
        line = line.decode()
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("protocol frame must be a JSON object")
    return obj


def ok_response(op: str, **fields) -> dict:
    return {"ok": True, "op": op, **fields}


def error_response(op: str, message: str, **fields) -> dict:
    return {"ok": False, "op": op, "error": message, **fields}
