"""Shared torn-tail-tolerant JSONL reading.

Three append-only JSONL artifacts grew the same crash-tolerance
contract independently — sweep checkpoints
(:mod:`repro.resilience.checkpoint`), the benchmark history
(:mod:`repro.obs.bench`), and structured logs
(:mod:`repro.obs.logging`): a writer killed mid-append leaves at most
one partial final line, so a reader silently drops a torn *final*
line but fails loudly on corruption anywhere earlier (an artifact
worth appending to is an artifact worth refusing to misread).  The
evaluation service's result cache (:mod:`repro.serve`) is the fourth
such file, and span traces (:func:`repro.obs.read_trace_jsonl`, also
under every telemetry shard) the fifth.  :func:`read_jsonl_tolerant`
is the one implementation of that contract; the per-artifact readers
supply only their decoding and error flavor.
"""

from __future__ import annotations

import json
import os

from ..errors import SerializationError


def read_jsonl_tolerant(
    path,
    decode=None,
    *,
    error=SerializationError,
    label: str = "record",
) -> tuple:
    """Parse a JSONL file, tolerating a torn final line.

    Each non-blank line is JSON-parsed and passed through ``decode``
    (identity when ``None``).  A line that fails to parse or decode —
    ``decode`` signals a bad record by raising ``ValueError`` /
    ``KeyError`` / ``TypeError`` — is treated two ways:

    - on the **final** line it is a torn tail from an interrupted
      append and is silently dropped;
    - anywhere **earlier** it is corruption, raised as
      ``error(f"{path}:{lineno}: bad {label} (...)")``.

    The file is read as bytes and decoded per line: a write torn
    mid-UTF-8-sequence leaves invalid bytes that must count as a torn
    tail too, not escape as ``UnicodeDecodeError``.  Lines are framed
    on ``\\n`` alone — the writer's terminator — so torn bytes that
    happen to contain ``\\r``/``\\f`` stay one droppable tail instead
    of splitting into a "corrupt" earlier line.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    if lines and not lines[-1]:
        lines.pop()  # the terminator of a complete final line
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            document = json.loads(line.decode("utf-8"))
            records.append(
                document if decode is None else decode(document)
            )
        except (ValueError, KeyError, TypeError) as err:
            if lineno == len(lines):
                break  # torn tail from an interrupted append
            raise error(
                f"{path}:{lineno}: bad {label} ({err})"
            ) from None
    return tuple(records)


def append_jsonl(path, document: dict) -> None:
    """Append one JSON document as a line, flushing eagerly.

    The write is a single ``write`` call of one ``\\n``-terminated
    line, so a concurrent :func:`read_jsonl_tolerant` sees either
    nothing or a parseable record — plus at most the torn tail the
    reader already tolerates.  NaN/Infinity are rejected
    (``allow_nan=False``): an append-only artifact must never poison
    its own future reads.
    """
    line = json.dumps(document, allow_nan=False, sort_keys=True)
    with open(os.fspath(path), "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
