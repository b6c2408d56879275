"""A catalog directory written before attribute rows had a natural key still opens.

The earlier layout gave ``attribute_value`` a surrogate ``id``, a unique
constraint on ``(attr_id, object_type, object_id)`` and an ``av_object``
index over the same columns, and kept planner statistics in an
``attribute_stats`` table.  Such a directory is built here by hand,
closed, and reopened with :class:`MetadataCatalog`: queries under every
strategy, ``get_attributes`` and further writes answer exactly as on a
catalog created with today's layout.  The old structures are left in
place — nothing reads ``attribute_stats`` any more, and the surrogate key
and the extra index cost the old directory memory, not answers.
"""

import pytest

from repro.core import MetadataCatalog, ObjectType
from repro.core.schema_def import install_schema
from repro.db import Database
from repro.db.schema import Column, ForeignKey, IndexDef, TableDef
from repro.db.types import ColumnType
from tests.recount import assert_counts_exact

VALUE_TYPES = ("string", "int", "float", "date", "time", "datetime")
COLUMN_TYPES = {
    "string": ColumnType.STRING,
    "int": ColumnType.INTEGER,
    "float": ColumnType.FLOAT,
    "date": ColumnType.DATE,
    "time": ColumnType.TIME,
    "datetime": ColumnType.DATETIME,
}
STATEMENTS = (
    "files order by name",
    "files where run = 1",
    'files where run = 2 and site = "b"',
    'files where site like "a%" or run between 2 and 3 order by name desc',
    "(files where run != 3) minus (files where valid)",
    "collections where run = 1",
)


def _parent_layout(db: Database) -> None:
    install_schema(db)
    db.connect().execute("DROP TABLE attribute_value")
    db.create_table(
        TableDef(
            "attribute_value",
            [
                Column("id", ColumnType.INTEGER, nullable=False, autoincrement=True),
                Column("attr_id", ColumnType.INTEGER, nullable=False),
                Column("object_type", ColumnType.STRING, nullable=False),
                Column("object_id", ColumnType.INTEGER, nullable=False),
                *(
                    Column(f"value_{name}", ctype)
                    for name, ctype in COLUMN_TYPES.items()
                ),
            ],
            primary_key=("id",),
            unique=[("attr_id", "object_type", "object_id")],
            foreign_keys=[ForeignKey(("attr_id",), "attribute_def", ("id",))],
        )
    )
    db.create_index(
        IndexDef("av_object", "attribute_value", ("object_type", "object_id", "attr_id"))
    )
    for name in VALUE_TYPES:
        db.create_index(
            IndexDef(f"av_{name}", "attribute_value", ("attr_id", f"value_{name}"))
        )
    db.create_table(
        TableDef(
            "attribute_stats",
            [
                Column("id", ColumnType.INTEGER, nullable=False, autoincrement=True),
                Column("attr_id", ColumnType.INTEGER, nullable=False),
                Column("object_type", ColumnType.STRING, nullable=False),
                Column("row_count", ColumnType.INTEGER, nullable=False, default=0),
                Column("distinct_count", ColumnType.INTEGER, nullable=False, default=0),
                Column("min_value", ColumnType.STRING),
                Column("max_value", ColumnType.STRING),
            ],
            primary_key=("id",),
            unique=[("attr_id", "object_type")],
            foreign_keys=[ForeignKey(("attr_id",), "attribute_def", ("id",))],
        )
    )
    db.create_index(IndexDef("as_attr", "attribute_stats", ("attr_id", "object_type")))
    db.create_index(IndexDef("as_object_type", "attribute_stats", ("object_type",)))


def _history(cat: MetadataCatalog, first: bool) -> None:
    """The same writes for the old directory and the oracle, in two halves."""
    if first:
        cat.define_attribute("run", "int")
        cat.define_attribute("site", "string")
        cat.create_collection("c0", attributes={"run": 1})
        for i in range(12):
            cat.create_file(
                f"f{i:02d}",
                collection="c0" if i % 2 else None,
                attributes={"run": i % 4, "site": "ab"[i % 2]},
            )
        return
    cat.bulk_create_files(
        [{"name": f"b{i}", "attributes": {"run": i % 3, "site": "a"}} for i in range(6)]
    )
    cat.set_attributes(ObjectType.FILE, "f03", {"run": 1, "site": "b"})
    cat.remove_attribute(ObjectType.FILE, "f04", "site")
    cat.delete_file("f05")
    cat.invalidate_file("f06")


def _answers(cat: MetadataCatalog) -> dict:
    out = {}
    for strategy in ("index", "scan", None):
        cat.mql_strategy = strategy
        for text in STATEMENTS:
            out[(strategy, text)] = cat.query_mql(text)
    cat.mql_strategy = None
    names = cat.query_mql("files order by name")
    out["attributes"] = [cat.get_attributes(ObjectType.FILE, n) for n in names]
    return out


@pytest.fixture
def parent_directory(tmp_path):
    db = Database(str(tmp_path))
    _parent_layout(db)
    cat = MetadataCatalog(db, install=False)
    _history(cat, first=True)
    conn = db.connect()
    for attr_id, object_type, rows in ((1, "file", 12), (1, "collection", 1), (2, "file", 12)):
        conn.execute(
            "INSERT INTO attribute_stats (attr_id, object_type, row_count, "
            "distinct_count) VALUES (?, ?, ?, ?)",
            (attr_id, object_type, rows, 2),
        )
    db.checkpoint()  # the first half in the snapshot, the second in the WAL
    _history(cat, first=False)
    before = _answers(cat)
    db.close()
    return str(tmp_path), before


def test_a_parent_directory_answers_as_before_and_takes_writes(parent_directory):
    directory, before = parent_directory
    oracle = MetadataCatalog()
    _history(oracle, first=True)
    _history(oracle, first=False)
    reopened = MetadataCatalog(Database(directory))
    try:
        table = reopened.db.catalog.table("attribute_value")
        assert table.definition.primary_key == ("id",)  # left in place
        assert reopened.db.catalog.has_table("attribute_stats")
        assert _answers(reopened) == before == _answers(oracle)
        assert_counts_exact(reopened)

        for cat in (reopened, oracle):
            cat.create_file("new", collection="c0", attributes={"run": 3, "site": "z"})
            cat.set_attributes(ObjectType.FILE, "f00", {"run": 2})
            cat.delete_file("f07")
        assert _answers(reopened) == _answers(oracle)
        assert reopened.get_attributes(ObjectType.FILE, "new") == {"run": 3, "site": "z"}
        assert_counts_exact(reopened)
        stats_rows = reopened.db.connect().execute(
            "SELECT COUNT(*) FROM attribute_stats"
        ).scalar()
        assert stats_rows == 3  # never read, never written
    finally:
        reopened.db.close()
        oracle.db.close()
