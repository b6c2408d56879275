"""Durability: snapshot files plus a write-ahead log.

Layout of a database directory::

    <dir>/snapshot.json   full image (schema + rows) at some point in time
    <dir>/wal.log         JSON-lines of committed transactions since then

Each committed transaction appends its records followed by a commit
marker; recovery replays only transactions whose marker is present, so a
crash mid-append loses at most the uncommitted tail.

Values are encoded with type tags so DATE/TIME/DATETIME round-trip::

    {"t": "date", "v": "2003-11-15"}
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import time
from typing import Any, Optional

from repro import faults
from repro.db.errors import RecoveryError
from repro.db.schema import Column, ForeignKey, IndexDef, TableDef
from repro.db.storage import Catalog
from repro.db.types import ColumnType
from repro.obs.metrics import OBS, counter as _obs_counter, histogram as _obs_histogram

SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.log"

_WAL_APPENDS = _obs_counter(
    "mcs_db_wal_appends_total", "Committed transactions appended to the WAL"
)
_WAL_RECORDS = _obs_counter(
    "mcs_db_wal_records_total", "Logical records written to the WAL"
)
_WAL_BYTES = _obs_counter("mcs_db_wal_bytes_total", "Bytes written to the WAL")
_WAL_FSYNCS = _obs_counter(
    "mcs_db_wal_fsyncs_total", "fsync calls issued by the WAL (durable_sync mode)"
)
_WAL_APPEND_SECONDS = _obs_histogram(
    "mcs_db_wal_append_seconds", "WAL append latency (write + flush + optional fsync)"
)


def encode_value(value: Any) -> Any:
    if isinstance(value, _dt.datetime):
        return {"t": "datetime", "v": value.strftime("%Y-%m-%d %H:%M:%S.%f")}
    if isinstance(value, _dt.date):
        return {"t": "date", "v": value.isoformat()}
    if isinstance(value, _dt.time):
        return {"t": "time", "v": value.strftime("%H:%M:%S.%f")}
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "t" in value:
        kind, text = value["t"], value["v"]
        if kind == "datetime":
            return _dt.datetime.strptime(text, "%Y-%m-%d %H:%M:%S.%f")
        if kind == "date":
            return _dt.date.fromisoformat(text)
        if kind == "time":
            return _dt.datetime.strptime(text, "%H:%M:%S.%f").time()
        raise RecoveryError(f"unknown value tag {kind!r}")
    return value


def encode_row(row: tuple) -> list:
    return [encode_value(v) for v in row]


def decode_row(row: list) -> tuple:
    return tuple(decode_value(v) for v in row)


# --------------------------------------------------------------------------
# Schema serialization
# --------------------------------------------------------------------------


def table_def_to_dict(definition: TableDef) -> dict:
    return {
        "name": definition.name,
        "columns": [
            {
                "name": c.name,
                "type": c.ctype.value,
                "nullable": c.nullable,
                "default": encode_value(c.default),
                "autoincrement": c.autoincrement,
            }
            for c in definition.columns
        ],
        "primary_key": list(definition.primary_key),
        "unique": [list(u) for u in definition.unique],
        "foreign_keys": [
            {
                "columns": list(fk.columns),
                "ref_table": fk.ref_table,
                "ref_columns": list(fk.ref_columns),
            }
            for fk in definition.foreign_keys
        ],
    }


def table_def_from_dict(data: dict) -> TableDef:
    return TableDef(
        name=data["name"],
        columns=[
            Column(
                name=c["name"],
                ctype=ColumnType(c["type"]),
                nullable=c["nullable"],
                default=decode_value(c["default"]),
                autoincrement=c["autoincrement"],
            )
            for c in data["columns"]
        ],
        primary_key=tuple(data["primary_key"]),
        unique=[tuple(u) for u in data["unique"]],
        foreign_keys=[
            ForeignKey(tuple(f["columns"]), f["ref_table"], tuple(f["ref_columns"]))
            for f in data["foreign_keys"]
        ],
    )


# --------------------------------------------------------------------------
# Snapshot
# --------------------------------------------------------------------------


def write_snapshot(catalog: Catalog, directory: str) -> None:
    """Write a full image atomically (write temp file, rename over)."""
    payload = {"tables": []}
    for name in catalog.table_names():
        table = catalog.table(name)
        payload["tables"].append(
            {
                "def": table_def_to_dict(table.definition),
                "indexes": [
                    {
                        "name": d.name,
                        "columns": list(d.columns),
                        "unique": d.unique,
                    }
                    for d in table.index_defs()
                    if not d.name.startswith("__")
                ],
                "rows": [[rid, encode_row(row)] for rid, row in table.rows.items()],
                # Auto-increment ids are never reused, not even the ids
                # of rows deleted before the snapshot.
                "next_auto": table._next_auto,
            }
        )
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, SNAPSHOT_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, os.path.join(directory, SNAPSHOT_NAME))


def load_snapshot(catalog: Catalog, directory: str) -> bool:
    """Populate *catalog* from a snapshot; returns False when absent."""
    path = os.path.join(directory, SNAPSHOT_NAME)
    if not os.path.exists(path):
        return False
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"unreadable snapshot {path!r}: {exc}") from exc
    for entry in payload.get("tables", []):
        definition = table_def_from_dict(entry["def"])
        table = catalog.create_table(definition)
        for index in entry.get("indexes", []):
            table.create_index(
                IndexDef(
                    name=index["name"],
                    table=definition.name,
                    columns=tuple(index["columns"]),
                    unique=index["unique"],
                )
            )
        for rid, row in entry.get("rows", []):
            table.insert_row_with_id(rid, decode_row(row))
        table._next_auto = max(table._next_auto, entry.get("next_auto", 1))
    return True


# --------------------------------------------------------------------------
# Write-ahead log
# --------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only commit log.  Thread safety is the engine's job."""

    def __init__(self, directory: str, sync: bool = False, last_txn: int = 0) -> None:
        self.directory = directory
        self.sync = sync
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, WAL_NAME)
        self._fh = open(self.path, "a", encoding="utf-8")
        # Continue the numbering of the log being appended to.
        self._txn_counter = last_txn

    def append_commit(self, records: list[dict]) -> None:
        """Durably append one committed transaction.

        Injection site ``db.wal:append`` (see :mod:`repro.faults`): a
        ``latency`` rule emulates a slower commit device, and an
        ``error`` rule models a write failure before anything reaches
        the log.
        """
        if not records:
            return
        injection = faults.check("db.wal", "append")
        if injection is not None:
            injection.fail()
        start = time.perf_counter() if OBS.enabled else 0.0
        self._txn_counter += 1
        txn_id = self._txn_counter
        lines = [json.dumps({"txn": txn_id, **rec}) for rec in records]
        lines.append(json.dumps({"txn": txn_id, "op": "commit"}))
        payload = "\n".join(lines) + "\n"
        self._fh.write(payload)
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
            _WAL_FSYNCS.inc()
        _WAL_APPENDS.inc()
        _WAL_RECORDS.inc(len(records))
        _WAL_BYTES.inc(len(payload))
        if OBS.enabled:
            _WAL_APPEND_SECONDS.observe(time.perf_counter() - start)

    def close(self) -> None:
        self._fh.close()

    def truncate(self) -> None:
        """Discard the log (after a fresh snapshot subsumes it)."""
        self._fh.close()
        self._fh = open(self.path, "w", encoding="utf-8")


def replay_wal(catalog: Catalog, directory: str) -> int:
    """Apply committed WAL transactions to *catalog*.

    Returns the highest txn id in the log (0 for none), from which the
    next session numbers its commits.
    """
    path = os.path.join(directory, WAL_NAME)
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # One commit is written whole — its records, then its marker — so a
    # txn's records are contiguous.  Apply them at their marker; records
    # not followed by their own marker are a torn commit and are dropped.
    # (Logs written before sessions continued the numbering reuse ids, so
    # an id alone does not name one commit.)
    staged: list[dict] = []
    current: Optional[int] = None
    last = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail write — everything after is discarded
        txn = record.get("txn")
        last = max(last, txn)
        if txn != current:
            staged, current = [], txn
        if record.get("op") == "commit":
            for staged_record in staged:
                _apply_record(catalog, staged_record)
            staged, current = [], None
        else:
            staged.append(record)
    return last


def _apply_record(catalog: Catalog, record: dict) -> None:
    op = record["op"]
    if op == "create_table":
        catalog.create_table(table_def_from_dict(record["def"]))
        return
    if op == "drop_table":
        catalog.drop_table(record["table"])
        return
    if op == "create_index":
        catalog.table(record["table"]).create_index(
            IndexDef(
                name=record["name"],
                table=record["table"],
                columns=tuple(record["columns"]),
                unique=record["unique"],
            )
        )
        return
    if op == "drop_index":
        catalog.table(record["table"]).drop_index(record["name"])
        return
    table = catalog.table(record["table"])
    if op == "insert":
        table.insert_row_with_id(record["rowid"], decode_row(record["row"]))
    elif op == "update":
        from repro.db.txn import _raw_replace

        _raw_replace(table, record["rowid"], decode_row(record["row"]))
    elif op == "delete":
        table.delete(record["rowid"])
    else:
        raise RecoveryError(f"unknown WAL op {op!r}")
