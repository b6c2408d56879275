"""Embedded relational database engine.

This package is the reproduction's stand-in for the MySQL 4.1 backend used
by the paper's Metadata Catalog Service.  It provides:

* a typed relational schema (:mod:`repro.db.schema`),
* B+tree secondary indexes (:mod:`repro.db.btree`),
* a SQL subset with lexer, parser and AST (:mod:`repro.db.sql`): the
  statements the catalog issues, and no DDL,
* a planner with three access paths (index equality, sequential scan,
  empty) and inner index nested-loop joins, and an iterator-model
  executor (:mod:`repro.db.planner`, :mod:`repro.db.executor`),
* transactions with rollback and table-level read/write locking
  (:mod:`repro.db.txn`),
* optional durability via snapshot + write-ahead log (:mod:`repro.db.wal`).

The public entry point is :class:`repro.db.engine.Database`; tables and
indexes are made through it, statements run on a connection::

    from repro.db import Column, ColumnType, Database, TableDef

    db = Database()
    db.create_table(TableDef(
        "t",
        [Column("id", ColumnType.INTEGER), Column("name", ColumnType.STRING)],
        primary_key=("id",),
    ))
    conn = db.connect()
    conn.execute("INSERT INTO t (id, name) VALUES (?, ?)", (1, "x"))
    rows = conn.execute("SELECT name FROM t WHERE id = ?", (1,)).fetchall()
"""

from repro.db.engine import Database, Connection, ResultSet
from repro.db.errors import (
    DatabaseError,
    IntegrityError,
    LockTimeoutError,
    ProgrammingError,
    SchemaError,
    SQLSyntaxError,
    TypeMismatchError,
)
from repro.db.schema import Column, IndexDef, TableDef
from repro.db.types import ColumnType

__all__ = [
    "Database",
    "Connection",
    "ResultSet",
    "DatabaseError",
    "IntegrityError",
    "LockTimeoutError",
    "ProgrammingError",
    "SchemaError",
    "SQLSyntaxError",
    "TypeMismatchError",
    "Column",
    "IndexDef",
    "TableDef",
    "ColumnType",
]
