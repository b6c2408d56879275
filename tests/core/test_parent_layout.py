"""Catalog directories across schema versions, and every value type across a reopen.

A directory records the schema version it was written under.  Version 2
stores an attribute value in one untyped ``value`` column; a directory
of another version is refused on open, before any DDL, and left
byte-for-byte as it was (engine DDL commits itself, so a migration
could not be made atomic).  The refusal reads only the recorded version,
so the version-1 directory here is built by hand with just what that
needs, plus rows in both the snapshot and the WAL.

A logical file's name lookups drive the ``(name)`` prefix of the
``(name, version)`` unique tree, so the layout keeps no separate name
index.

The reopen test writes every attribute value type — a float given as an
int and a datetime given as a date among them — half before a
checkpoint (into the snapshot) and half after (into the WAL), and reads
each back with its Python type intact.
"""

import datetime as dt
import os

import pytest

from repro.core import MetadataCatalog, ObjectQuery, ObjectType
from repro.core.errors import SchemaVersionError, StorageError
from repro.core.schema_def import SCHEMA_VERSION
from repro.db import Database
from repro.db.engine import Connection
from repro.db.schema import Column, TableDef
from repro.db.types import ColumnType
from tests.recount import assert_counts_exact


def _directory_bytes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _version_directory(directory: str, version: int) -> None:
    db = Database(directory)
    db.create_table(
        TableDef(
            "mcs_meta",
            [
                Column("meta_key", ColumnType.STRING, nullable=False),
                Column("meta_value", ColumnType.STRING),
            ],
            primary_key=("meta_key",),
        )
    )
    conn = db.connect()
    conn.execute(
        "INSERT INTO mcs_meta (meta_key, meta_value) VALUES ('schema_version', ?)",
        (str(version),),
    )
    db.checkpoint()
    conn.execute("INSERT INTO mcs_meta (meta_key, meta_value) VALUES ('note', 'wal')")
    db.close()


@pytest.mark.parametrize("version", [1, SCHEMA_VERSION + 1])
def test_another_version_is_refused_and_left_unchanged(tmp_path, version):
    directory = str(tmp_path)
    _version_directory(directory, version)
    before = _directory_bytes(directory)
    assert set(before) == {"snapshot.json", "wal.log"}
    db = Database(directory)
    try:
        with pytest.raises(SchemaVersionError) as raised:
            MetadataCatalog(db)
        assert isinstance(raised.value, StorageError)
        message = str(raised.value)
        assert f"version {version}" in message
        assert f"version {SCHEMA_VERSION}" in message
        assert not db.catalog.has_table("attribute_value")
        assert _directory_bytes(directory) == before
    finally:
        db.close()
    assert _directory_bytes(directory) == before


def test_a_fresh_directory_records_the_version_and_reopens(tmp_path):
    cat = MetadataCatalog(Database(str(tmp_path)))
    cat.db.close()
    reopened = MetadataCatalog(Database(str(tmp_path)))
    try:
        stored = reopened.db.connect().execute(
            "SELECT meta_value FROM mcs_meta WHERE meta_key = 'schema_version'"
        ).fetchall()
        assert stored == [(str(SCHEMA_VERSION),)] and SCHEMA_VERSION == 2
        table = reopened.db.catalog.table("attribute_value")
        assert [c.name for c in table.definition.columns] == [
            "attr_id",
            "object_type",
            "object_id",
            "value",
        ]
        assert len(table.index_defs()) == 2
    finally:
        reopened.db.close()


def test_file_name_lookups_drive_the_unique_name_tree(monkeypatch):
    cat = MetadataCatalog()
    cat.create_file("a")
    seen = []
    original = Connection.execute

    def recording(self, sql, params=()):
        seen.append((sql, params))
        return original(self, sql, params)

    monkeypatch.setattr(Connection, "execute", recording)
    cat.get_file("a")  # WHERE name = ?
    cat.list_versions("a")  # WHERE name = ? ORDER BY version
    monkeypatch.undo()
    conn = cat.db.connect()
    assert [conn.execute("EXPLAIN " + sql, params).fetchall()[0] for sql, params in seen] == [
        ("INDEX LOOKUP logical_file AS logical_file USING __uq_logical_file_0 ON ('a',)",)
    ] * 2
    indexes = cat.db.catalog.table("logical_file").index_defs()
    assert sorted(d.columns for d in indexes) == [
        ("collection_id",),
        ("id",),
        ("name", "version"),
    ]


#: attribute -> (declared type, the value given for file i, the value stored).
VALUES = {
    "s": ("string", lambda i: f"s{i}", lambda i: f"s{i}"),
    "n": ("int", lambda i: i * 7, lambda i: i * 7),
    "x": ("float", lambda i: i + 0.25, lambda i: i + 0.25),
    "xi": ("float", lambda i: i, lambda i: float(i)),
    "d": ("date", lambda i: dt.date(2003, 11, i + 1), lambda i: dt.date(2003, 11, i + 1)),
    "t": ("time", lambda i: dt.time(9, i, 30), lambda i: dt.time(9, i, 30)),
    "ts": (
        "datetime",
        lambda i: dt.datetime(2003, 11, 15, 9, i, 1, 250),
        lambda i: dt.datetime(2003, 11, 15, 9, i, 1, 250),
    ),
    "td": (
        "datetime",
        lambda i: dt.date(2004, 1, i + 1),
        lambda i: dt.datetime(2004, 1, i + 1),
    ),
}
FILES = 6


def _write(cat: MetadataCatalog, files: range) -> None:
    for i in files:
        attributes = {a: given(i) for a, (_t, given, _s) in VALUES.items()}
        cat.create_file(f"f{i}", attributes=attributes)


def _typed(attributes: dict) -> dict:
    return {name: (type(value), value) for name, value in attributes.items()}


def _answers(cat: MetadataCatalog, name: str, literal) -> dict:
    """``name = literal`` under each strategy."""
    out = {}
    for strategy in ("index", "scan"):
        cat.mql_strategy = strategy
        out[strategy] = cat.query(ObjectQuery().where(name, "=", literal))
    cat.mql_strategy = None
    return out


def test_every_value_type_survives_a_reopen_from_snapshot_and_wal(tmp_path):
    cat = MetadataCatalog(Database(str(tmp_path)))
    for name, (value_type, _given, _stored) in VALUES.items():
        cat.define_attribute(name, value_type)
    _write(cat, range(FILES // 2))
    cat.db.checkpoint()  # the first half in the snapshot, the second in the WAL
    _write(cat, range(FILES // 2, FILES))
    cat.set_attributes(ObjectType.FILE, "f0", {"xi": 0, "td": dt.date(2004, 1, 1)})
    cat.db.close()

    reopened = MetadataCatalog(Database(str(tmp_path)))
    try:
        for i in range(FILES):
            expected = {a: stored(i) for a, (_t, _g, stored) in VALUES.items()}
            got = reopened.get_attributes(ObjectType.FILE, f"f{i}")
            assert _typed(got) == _typed(expected), i
        for name, (_type, given, stored) in VALUES.items():
            for i in (1, FILES - 1):
                found = _answers(reopened, name, stored(i))
                assert found == {"index": [f"f{i}"], "scan": [f"f{i}"]}, name
                # As given (an int for a float, a date for a datetime):
                # whatever it finds, both strategies find it.
                found = _answers(reopened, name, given(i))
                assert found["index"] == found["scan"], name
        assert_counts_exact(reopened)
    finally:
        reopened.db.close()
