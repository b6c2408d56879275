"""The MCS relational schema.

Table layout mirrors the paper's schema categories (§5): logical file
metadata, collection metadata, view metadata, authorization metadata,
user metadata, audit metadata, user-defined attributes, annotations,
transformation history and external catalog pointers.

User-defined attribute values use an entity-attribute-value (EAV) table
with one untyped ``value`` column — the attribute definition fixes a
value's type, and the catalog coerces to it before the row is written —
indexed on ``(attr_id, value)`` for attribute-match queries and keyed on
``(object_type, object_id, attr_id)`` for per-object lookups and join
probes: the same physical design choices whose cost behaviour the
paper's §7 measures.  A row lives in those two trees.  A directory of
another ``SCHEMA_VERSION`` is refused before any DDL touches it: engine
DDL commits itself, so a migration could not be atomic.
"""

from __future__ import annotations

from repro.core.errors import SchemaVersionError
from repro.db import Database
from repro.db.schema import Column, ForeignKey, IndexDef, TableDef
from repro.db.types import ColumnType

SCHEMA_VERSION = 2


def _col(name: str, ctype: ColumnType, **kwargs) -> Column:
    return Column(name, ctype, **kwargs)


def install_schema(db: Database) -> None:
    """Create every MCS table and index (idempotent).

    Raises :class:`SchemaVersionError`, before any DDL, when *db* holds
    a catalog of another schema version.
    """
    conn = db.connect()
    stored = None
    if db.catalog.has_table("mcs_meta"):
        stored = conn.execute(
            "SELECT meta_value FROM mcs_meta WHERE meta_key = 'schema_version'"
        ).scalar()
    if stored is not None and stored != str(SCHEMA_VERSION):
        conn.close()
        raise SchemaVersionError(
            f"catalog directory has schema version {stored}; this build "
            f"reads version {SCHEMA_VERSION} only and does not migrate"
        )
    tables = [
        TableDef(
            "mcs_meta",
            [
                _col("meta_key", ColumnType.STRING, nullable=False),
                _col("meta_value", ColumnType.STRING),
            ],
            primary_key=("meta_key",),
        ),
        TableDef(
            "logical_collection",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("name", ColumnType.STRING, nullable=False),
                _col("description", ColumnType.STRING),
                _col("parent_id", ColumnType.INTEGER),
                _col("creator", ColumnType.STRING),
                _col("created", ColumnType.DATETIME),
                _col("last_modifier", ColumnType.STRING),
                _col("modified", ColumnType.DATETIME),
                _col("audit_enabled", ColumnType.BOOLEAN, default=False),
            ],
            primary_key=("id",),
            unique=[("name",)],
            foreign_keys=[ForeignKey(("parent_id",), "logical_collection", ("id",))],
        ),
        TableDef(
            "logical_file",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("name", ColumnType.STRING, nullable=False),
                _col("version", ColumnType.INTEGER, nullable=False, default=1),
                _col("data_type", ColumnType.STRING),
                _col("valid", ColumnType.BOOLEAN, default=True),
                _col("collection_id", ColumnType.INTEGER),
                _col("container_id", ColumnType.STRING),
                _col("container_service", ColumnType.STRING),
                _col("master_copy", ColumnType.STRING),
                _col("creator", ColumnType.STRING),
                _col("created", ColumnType.DATETIME),
                _col("last_modifier", ColumnType.STRING),
                _col("modified", ColumnType.DATETIME),
                _col("audit_enabled", ColumnType.BOOLEAN, default=False),
            ],
            primary_key=("id",),
            unique=[("name", "version")],
            foreign_keys=[
                ForeignKey(("collection_id",), "logical_collection", ("id",))
            ],
        ),
        TableDef(
            "logical_view",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("name", ColumnType.STRING, nullable=False),
                _col("description", ColumnType.STRING),
                _col("creator", ColumnType.STRING),
                _col("created", ColumnType.DATETIME),
                _col("last_modifier", ColumnType.STRING),
                _col("modified", ColumnType.DATETIME),
                _col("audit_enabled", ColumnType.BOOLEAN, default=False),
            ],
            primary_key=("id",),
            unique=[("name",)],
        ),
        TableDef(
            "view_member",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("view_id", ColumnType.INTEGER, nullable=False),
                _col("member_type", ColumnType.STRING, nullable=False),
                _col("member_id", ColumnType.INTEGER, nullable=False),
            ],
            primary_key=("id",),
            unique=[("view_id", "member_type", "member_id")],
            foreign_keys=[ForeignKey(("view_id",), "logical_view", ("id",))],
        ),
        TableDef(
            "attribute_def",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("name", ColumnType.STRING, nullable=False),
                _col("value_type", ColumnType.STRING, nullable=False),
                _col("object_types", ColumnType.STRING, nullable=False),
                _col("description", ColumnType.STRING),
                _col("creator", ColumnType.STRING),
                _col("created", ColumnType.DATETIME),
            ],
            primary_key=("id",),
            unique=[("name",)],
        ),
        TableDef(
            # One row per (object, attribute): that triple is the key, so
            # the row needs no surrogate id and one unique index serves
            # both the per-object probe and the uniqueness check.  The
            # value is stored as the attribute definition coerced it.
            "attribute_value",
            [
                _col("attr_id", ColumnType.INTEGER, nullable=False),
                _col("object_type", ColumnType.STRING, nullable=False),
                _col("object_id", ColumnType.INTEGER, nullable=False),
                _col("value", ColumnType.ANY),
            ],
            primary_key=("object_type", "object_id", "attr_id"),
            foreign_keys=[ForeignKey(("attr_id",), "attribute_def", ("id",))],
        ),
        TableDef(
            "annotation",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("object_type", ColumnType.STRING, nullable=False),
                _col("object_id", ColumnType.INTEGER, nullable=False),
                _col("annotation", ColumnType.STRING, nullable=False),
                _col("creator", ColumnType.STRING, nullable=False),
                _col("created", ColumnType.DATETIME, nullable=False),
            ],
            primary_key=("id",),
        ),
        TableDef(
            "audit_record",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("object_type", ColumnType.STRING, nullable=False),
                _col("object_id", ColumnType.INTEGER, nullable=False),
                _col("action", ColumnType.STRING, nullable=False),
                _col("detail", ColumnType.STRING),
                _col("actor", ColumnType.STRING, nullable=False),
                _col("created", ColumnType.DATETIME, nullable=False),
            ],
            primary_key=("id",),
        ),
        TableDef(
            "transformation",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("file_id", ColumnType.INTEGER, nullable=False),
                _col("description", ColumnType.STRING, nullable=False),
                _col("created", ColumnType.DATETIME, nullable=False),
            ],
            primary_key=("id",),
            foreign_keys=[ForeignKey(("file_id",), "logical_file", ("id",))],
        ),
        TableDef(
            "user_info",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("dn", ColumnType.STRING, nullable=False),
                _col("description", ColumnType.STRING),
                _col("institution", ColumnType.STRING),
                _col("email", ColumnType.STRING),
                _col("phone", ColumnType.STRING),
            ],
            primary_key=("id",),
            unique=[("dn",)],
        ),
        TableDef(
            "external_catalog",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("name", ColumnType.STRING, nullable=False),
                _col("catalog_type", ColumnType.STRING, nullable=False),
                _col("host", ColumnType.STRING, nullable=False),
                _col("port", ColumnType.INTEGER, nullable=False),
                _col("description", ColumnType.STRING),
            ],
            primary_key=("id",),
            unique=[("name",)],
        ),
        TableDef(
            "acl_entry",
            [
                _col("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                _col("object_type", ColumnType.STRING, nullable=False),
                _col("object_id", ColumnType.INTEGER, nullable=False),
                _col("principal", ColumnType.STRING, nullable=False),
                _col("permissions", ColumnType.INTEGER, nullable=False),
            ],
            primary_key=("id",),
            unique=[("object_type", "object_id", "principal")],
        ),
    ]
    for definition in tables:
        db.create_table(definition, if_not_exists=True)

    indexes = [
        # The paper indexes logical file/collection/view names, the
        # database-assigned ids and (name, id) pairs: the primary keys and
        # the unique name trees serve those paths (a file's name lookup
        # drives the (name) prefix of its (name, version) tree).
        IndexDef("lf_collection", "logical_file", ("collection_id",)),
        IndexDef("lc_parent", "logical_collection", ("parent_id",)),
        IndexDef("vm_view", "view_member", ("view_id",)),
        IndexDef("vm_member", "view_member", ("member_type", "member_id")),
        # The EAV access path per (attr, value); the per-object probe is
        # the primary key.  The planner reads its statistics off both.
        IndexDef("av_value", "attribute_value", ("attr_id", "value")),
        IndexDef("ann_object", "annotation", ("object_type", "object_id")),
        IndexDef("audit_object", "audit_record", ("object_type", "object_id")),
        IndexDef("tr_file", "transformation", ("file_id",)),
        IndexDef("acl_object", "acl_entry", ("object_type", "object_id")),
    ]
    for index_def in indexes:
        db.create_index(index_def, if_not_exists=True)

    if stored is None:
        conn.execute(
            "INSERT INTO mcs_meta (meta_key, meta_value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
    conn.close()
