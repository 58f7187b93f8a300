"""Append-only JSONL result store with torn-tail recovery.

One sweep writes one store file:

* line 1 — a header record binding the file to its manifest:
  ``{"kind": "header", "format": 1, "manifest": <sha256>, "name": …,
  "n_cells": N, "seed": …}``;
* then one ``{"kind": "cell", "seq": k, "id": …, "seed": …, "params":
  …, "result": …}`` record per completed cell, in expansion order,
  each flushed and fsync'd before the orchestrator moves on.

Every line is canonical JSON (sorted keys, no whitespace) and contains
no wall-clock fields — the ``result`` payload is
:func:`~repro.machine.export.result_to_dict`, all times simulated — so
an interrupted-and-resumed store converges byte-identically to an
uninterrupted one (tests/sweep/test_resume_battery.py).

Durability contract: a record is *committed* iff its line is terminated
by ``\\n``.  A SIGKILL mid-append leaves at most one unterminated tail;
:func:`load_store` drops it (``torn=True``) and resume physically
truncates the file back to the last committed byte before appending, so
the torn cell is simply re-run.  A *terminated* line that fails to parse
or validate can only come from outside interference and raises
:class:`StoreError`; a header bound to a different manifest raises
:class:`StoreDriftError` instead of silently mixing grids.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..runtime.session import RunRequest
from .manifest import Manifest, canonical_json

__all__ = [
    "FORMAT_VERSION",
    "ResultStore",
    "StoreDriftError",
    "StoreError",
    "StoreState",
    "load_store",
]

FORMAT_VERSION = 1

_HEADER_KEYS = ("kind", "format", "manifest", "name", "n_cells", "seed")
_CELL_KEYS = ("kind", "seq", "id", "seed", "params", "result")


class StoreError(ValueError):
    """The store file is unusable (message is CLI-friendly)."""


class StoreDriftError(StoreError):
    """The store belongs to a different manifest than the one supplied."""


def _encode(record: Mapping[str, Any]) -> bytes:
    return canonical_json(dict(record)).encode("utf-8") + b"\n"


def header_record(manifest: Manifest) -> dict[str, Any]:
    """The binding first line of a store for ``manifest``."""
    return {
        "kind": "header",
        "format": FORMAT_VERSION,
        "manifest": manifest.manifest_hash(),
        "name": manifest.name,
        "n_cells": len(manifest),
        "seed": manifest.seed,
    }


def cell_record(seq: int, cell: RunRequest, result: Mapping[str, Any]) -> dict[str, Any]:
    """One committed cell line (``result`` = ``result_to_dict`` payload)."""
    return {
        "kind": "cell",
        "seq": seq,
        "id": cell.cell_id,
        "seed": cell.seed,
        "params": cell.params(),
        "result": dict(result),
    }


@dataclass
class StoreState:
    """What :func:`load_store` found on disk."""

    #: the parsed header line (validated shape, not yet matched to a manifest)
    header: dict[str, Any]
    #: committed cell records, in file order
    records: list[dict[str, Any]]
    #: bytes up to and including the last committed newline
    valid_bytes: int
    #: True when an unterminated (torn) tail was dropped
    torn: bool


def _parse_header(obj: Any, path: Path) -> dict[str, Any]:
    if not isinstance(obj, dict) or obj.get("kind") != "header":
        raise StoreError(f"store {path} does not start with a header record")
    unknown = sorted(set(obj) - set(_HEADER_KEYS))
    missing = sorted(set(_HEADER_KEYS) - set(obj))
    if unknown or missing:
        raise StoreError(
            f"store {path} header is malformed "
            f"(missing {missing or 'nothing'}, unknown {unknown or 'nothing'})"
        )
    if obj["format"] != FORMAT_VERSION:
        raise StoreError(
            f"store {path} uses format {obj['format']!r}; "
            f"this build reads format {FORMAT_VERSION}"
        )
    return obj


def _parse_cell(obj: Any, index: int, path: Path) -> dict[str, Any]:
    if not isinstance(obj, dict) or obj.get("kind") != "cell":
        raise StoreError(f"store {path} line {index + 2} is not a cell record")
    unknown = sorted(set(obj) - set(_CELL_KEYS))
    missing = sorted(set(_CELL_KEYS) - set(obj))
    if unknown or missing:
        raise StoreError(
            f"store {path} line {index + 2} is malformed "
            f"(missing {missing or 'nothing'}, unknown {unknown or 'nothing'})"
        )
    return obj


def load_store(path: str | Path) -> StoreState:
    """Parse a store file, tolerating (and reporting) a torn final line."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise StoreError(f"result store not found: {path}") from None
    except IsADirectoryError:
        raise StoreError(f"result store path is a directory: {path}") from None

    lines: list[bytes] = []
    offset = 0
    torn = False
    while offset < len(data):
        nl = data.find(b"\n", offset)
        if nl == -1:
            # an append cut short by a crash: drop the uncommitted tail
            torn = True
            break
        lines.append(data[offset:nl])
        offset = nl + 1

    if not lines:
        raise StoreError(
            f"store {path} has no committed records"
            + (" (torn header line)" if torn else "")
        )

    parsed: list[Any] = []
    for i, line in enumerate(lines):
        try:
            parsed.append(json.loads(line))
        except ValueError:
            # a committed (newline-terminated) line must parse; torn
            # writes can only ever damage the unterminated tail
            raise StoreError(
                f"store {path} line {i + 1} is corrupt "
                "(committed record is not valid JSON)"
            ) from None

    header = _parse_header(parsed[0], path)
    records = [_parse_cell(obj, i, path) for i, obj in enumerate(parsed[1:])]
    return StoreState(header=header, records=records, valid_bytes=offset, torn=torn)


def _check_manifest(state: StoreState, manifest: Manifest, path: Path) -> None:
    expected = manifest.manifest_hash()
    found = state.header["manifest"]
    if found != expected:
        raise StoreDriftError(
            f"store {path} was written for manifest {str(found)[:12]}… but "
            f"{manifest.name!r} hashes to {expected[:12]}…; the manifest has "
            "drifted — use a fresh store path (or restore the old manifest)"
        )


def _check_prefix(state: StoreState, cells: tuple[RunRequest, ...], path: Path) -> None:
    if len(state.records) > len(cells):
        raise StoreError(
            f"store {path} holds {len(state.records)} records but the "
            f"manifest expands to {len(cells)} cells"
        )
    for k, record in enumerate(state.records):
        if record["seq"] != k or record["id"] != cells[k].cell_id:
            raise StoreError(
                f"store {path} record {k} is out of order: expected cell "
                f"{cells[k].cell_id} at seq {k}, found {record['id']} "
                f"at seq {record['seq']}"
            )


class ResultStore:
    """The orchestrator's writer handle: append-only, one fsync per record.

    Construct through :meth:`create` (fresh file, writes the header) or
    :meth:`resume` (validates the existing prefix against the manifest,
    truncates any torn tail).  ``append`` commits one cell record; after
    it returns, the record survives SIGKILL.
    """

    def __init__(self, path: Path, manifest: Manifest, completed: int) -> None:
        self.path = path
        self.manifest = manifest
        self.completed = completed
        self._fh: Any = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def create(cls, path: str | Path, manifest: Manifest) -> "ResultStore":
        path = Path(path)
        if path.exists():
            raise StoreError(
                f"result store {path} already exists; pass --resume to "
                "continue it or choose a fresh --store path"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        store = cls(path, manifest, completed=0)
        # buffering=0: each append is a single write of one full line, so
        # a crash can only ever leave an unterminated tail
        store._fh = open(path, "xb", buffering=0)
        store._commit(header_record(manifest))
        return store

    @classmethod
    def resume(
        cls, path: str | Path, manifest: Manifest
    ) -> tuple["ResultStore", list[dict[str, Any]]]:
        """Reattach to an existing store; returns the committed records.

        A missing file degrades to :meth:`create` (first run and resumed
        runs can then share one invocation shape), so the battery's
        "always restart with --resume" loop needs no special casing.
        """
        path = Path(path)
        if not path.exists():
            return cls.create(path, manifest), []
        state = load_store(path)
        _check_manifest(state, manifest, path)
        _check_prefix(state, manifest.expand(), path)
        if state.torn:
            # drop the uncommitted tail so the next append starts a
            # clean line; the torn cell is re-run by the orchestrator
            os.truncate(path, state.valid_bytes)
        store = cls(path, manifest, completed=len(state.records))
        store._fh = open(path, "ab", buffering=0)
        return store, state.records

    # -- writing --------------------------------------------------------
    def _commit(self, record: Mapping[str, Any]) -> None:
        self._fh.write(_encode(record))
        os.fsync(self._fh.fileno())

    def append(self, cell: RunRequest, result: Mapping[str, Any]) -> dict[str, Any]:
        """Commit the next cell record (fsync'd before returning)."""
        if self._fh is None:
            raise StoreError(f"result store {self.path} is closed")
        record = cell_record(self.completed, cell, result)
        self._commit(record)
        self.completed += 1
        return record

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return (
            f"ResultStore(path={str(self.path)!r}, "
            f"completed={self.completed}/{len(self.manifest)})"
        )
