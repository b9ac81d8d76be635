"""JSONL checkpoint/resume for long-running measurement sweeps.

A sweep writes one JSON line per completed sample; on resume the
checkpoint is replayed and already-measured samples are skipped.  The
file format is append-only so a crash mid-write loses at most the last
(partial, and therefore unparseable) line — :func:`load_checkpoint`
tolerates a trailing torn line but rejects corruption anywhere else.

Keys identify a sample by its sweep coordinates, which must be
JSON-stable; :func:`sample_key` canonicalizes them via ``repr`` of
floats so ``65536`` and ``65536.0`` do not alias.
"""

from __future__ import annotations

import json
import os

from ..errors import SerializationError
from ..io.jsonl import read_jsonl_tolerant
from ..obs.metrics import counter as _counter

_CHECKPOINT_HITS = _counter("resilience.checkpoint.hits")
_CHECKPOINT_WRITES = _counter("resilience.checkpoint.writes")

#: Format marker written into every record for forward compatibility.
SCHEMA = 1


def sample_key(**coords) -> str:
    """Canonical string key for a sweep sample's coordinates."""
    parts = []
    for name in sorted(coords):
        value = coords[name]
        if isinstance(value, float):
            value = repr(value)
        parts.append(f"{name}={value}")
    return ";".join(parts)


class SweepCheckpoint:
    """Append-only JSONL store of completed sweep samples.

    ``SweepCheckpoint(path)`` loads any existing records; ``get``
    answers "was this sample already measured?" and ``record`` appends
    a new one, flushing eagerly so progress survives a kill.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._records: dict = {}
        if os.path.exists(self.path):
            self._records = load_checkpoint(self.path)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str):
        """The stored payload for ``key``, or ``None`` if unseen."""
        record = self._records.get(key)
        if record is not None:
            _CHECKPOINT_HITS.inc()
        return record

    def record(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key``, appending to the file."""
        self._records[key] = payload
        _CHECKPOINT_WRITES.inc()
        line = json.dumps(
            {"schema": SCHEMA, "key": key, "payload": payload},
            allow_nan=False,
            sort_keys=True,
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()


def _decode_checkpoint_entry(record) -> tuple:
    """One parsed line -> ``(key, payload)``; reject keyless records."""
    if not isinstance(record, dict):
        raise TypeError("checkpoint record is not an object")
    return str(record["key"]), record.get("payload")


def load_checkpoint(path) -> dict:
    """Parse a checkpoint file into ``{key: payload}``.

    A torn final line (crash mid-append) is silently dropped; malformed
    JSON anywhere earlier, or a record missing its key, raises
    :class:`SerializationError` naming the file and line number (the
    shared :func:`repro.io.read_jsonl_tolerant` contract).
    """
    pairs = read_jsonl_tolerant(
        path,
        _decode_checkpoint_entry,
        error=SerializationError,
        label="checkpoint record",
    )
    return dict(pairs)
