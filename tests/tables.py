"""Make engine tables in tests.

The engine takes no DDL in SQL: a table is a :class:`TableDef` handed to
``Database.create_table`` and an index an :class:`IndexDef` handed to
``Database.create_index``.  :func:`make_table` spells the common case in
one line::

    make_table(db, "t", "id INTEGER, a STRING", primary_key=("id",),
               indexes={"t_a": ("a",)})
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.db import Column, ColumnType, Connection, Database, IndexDef, TableDef


def _database(target: Union[Database, Connection]) -> Database:
    return target if isinstance(target, Database) else target._db


def make_table(
    target: Union[Database, Connection],
    name: str,
    columns: str,
    *,
    primary_key: Sequence[str] = (),
    unique: Iterable[Sequence[str]] = (),
    autoincrement: Optional[str] = None,
    not_null: Sequence[str] = (),
    defaults: Optional[Mapping[str, Any]] = None,
    indexes: Optional[Mapping[str, Sequence[str]]] = None,
    if_not_exists: bool = False,
) -> None:
    """Create table *name* on *target*'s database from ``"col TYPE, col
    TYPE"`` plus its constraints, then each named index."""
    db = _database(target)
    defaults = defaults or {}
    cols = []
    for spec in columns.split(","):
        column, type_name = spec.split()
        cols.append(
            Column(
                column,
                ColumnType.from_name(type_name),
                nullable=column not in not_null and column not in primary_key,
                default=defaults.get(column),
                autoincrement=column == autoincrement,
            )
        )
    db.create_table(TableDef(name, cols, primary_key, unique), if_not_exists)
    for index_name, index_columns in (indexes or {}).items():
        make_index(db, index_name, name, index_columns)


def make_index(
    target: Union[Database, Connection], name: str, table: str, columns: Sequence[str]
) -> None:
    _database(target).create_index(IndexDef(name, table, tuple(columns)))
