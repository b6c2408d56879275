"""Row storage: a heap of rows per table plus maintained indexes.

:class:`Table` is the runtime object pairing a :class:`~repro.db.schema.TableDef`
with its rows and B+tree indexes.  All mutation goes through
``insert`` / ``update`` / ``delete`` so constraints and indexes stay
consistent; each mutator returns undo information consumed by
:mod:`repro.db.txn` for rollback.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.db.btree import BPlusTree
from repro.db.errors import IntegrityError, SchemaError
from repro.db.schema import IndexDef, TableDef
from repro.db.types import sort_key


class Table:
    """Runtime table: rows keyed by rowid, plus secondary indexes."""

    def __init__(self, definition: TableDef) -> None:
        self.definition = definition
        self.rows: dict[int, tuple] = {}
        self._next_rowid = 1
        self._next_auto = 1
        self.indexes: dict[str, BPlusTree] = {}
        self._index_defs: dict[str, IndexDef] = {}
        self._index_cols: dict[str, tuple[int, ...]] = {}
        # Implicit unique indexes for the primary key and unique constraints.
        if definition.primary_key:
            self._create_index(
                IndexDef(
                    name=f"__pk_{definition.name}",
                    table=definition.name,
                    columns=definition.primary_key,
                    unique=True,
                )
            )
        for pos, constraint in enumerate(definition.unique):
            self._create_index(
                IndexDef(
                    name=f"__uq_{definition.name}_{pos}",
                    table=definition.name,
                    columns=tuple(constraint),
                    unique=True,
                )
            )

    # -- schema-level operations ------------------------------------------------

    @property
    def name(self) -> str:
        return self.definition.name

    def __len__(self) -> int:
        return len(self.rows)

    def create_index(self, index_def: IndexDef) -> None:
        """Create and populate a user index."""
        if index_def.name in self._index_defs:
            raise SchemaError(f"index {index_def.name!r} already exists")
        self._create_index(index_def)

    def _create_index(self, index_def: IndexDef) -> None:
        for col in index_def.columns:
            if not self.definition.has_column(col):
                raise SchemaError(
                    f"index {index_def.name!r}: no column {col!r} in {self.name!r}"
                )
        cols = tuple(self.definition.column_index(c) for c in index_def.columns)
        # Uniqueness is enforced by _check_unique (SQL semantics: NULLs never
        # collide), so the tree itself is always non-unique.
        tree = BPlusTree(unique=False, name=index_def.name)
        for rowid, row in self.rows.items():
            key = tuple(row[i] for i in cols)
            if index_def.unique and not any(v is None for v in key) and tree.get(key):
                raise IntegrityError(
                    f"cannot create unique index {index_def.name!r}: "
                    f"duplicate key {key!r} in existing data"
                )
            tree.insert(key, rowid)
        self._index_defs[index_def.name] = index_def
        self._index_cols[index_def.name] = cols
        self.indexes[index_def.name] = tree

    def drop_index(self, name: str) -> None:
        if name not in self._index_defs:
            raise SchemaError(f"no index {name!r} on table {self.name!r}")
        if name.startswith("__"):
            raise SchemaError(f"cannot drop implicit constraint index {name!r}")
        del self._index_defs[name]
        del self._index_cols[name]
        del self.indexes[name]

    def index_defs(self) -> list[IndexDef]:
        return list(self._index_defs.values())

    def find_index_on(self, columns: tuple[str, ...]) -> Optional[str]:
        """Name of an index whose leading columns equal *columns*, if any."""
        for name, index_def in self._index_defs.items():
            if index_def.columns[: len(columns)] == columns:
                return name
        return None

    # -- row operations -----------------------------------------------------------

    def insert(self, values: dict[str, Any]) -> tuple[int, tuple]:
        """Insert a row from a column->value dict.

        Returns ``(rowid, stored_row)``.  Autoincrement columns are filled
        when NULL.  Unique violations raise before any index is touched.
        """
        row = self.definition.coerce_row(values)
        auto_col = self.definition.auto_column
        if auto_col is not None:
            auto_idx = self.definition.column_index(auto_col)
            if row[auto_idx] is None:
                row[auto_idx] = self._next_auto
                self._next_auto += 1
            else:
                self._next_auto = max(self._next_auto, int(row[auto_idx]) + 1)
        stored = tuple(row)
        self._check_unique(stored, exclude_rowid=None)
        rowid = self._next_rowid
        self._next_rowid += 1
        self.rows[rowid] = stored
        self._index_row(stored, rowid)
        return rowid, stored

    def insert_row_with_id(self, rowid: int, row: tuple) -> None:
        """Low-level insert used by rollback and recovery (no coercion)."""
        if rowid in self.rows:
            raise IntegrityError(f"rowid {rowid} already present in {self.name!r}")
        self.rows[rowid] = row
        self._next_rowid = max(self._next_rowid, rowid + 1)
        auto_col = self.definition.auto_column
        if auto_col is not None:
            val = row[self.definition.column_index(auto_col)]
            if isinstance(val, int):
                self._next_auto = max(self._next_auto, val + 1)
        self._index_row(row, rowid)

    def _index_row(self, row: tuple, rowid: int) -> None:
        # One sort key per column, shared by every index key of the row:
        # a column in several indexes (attribute_value.attr_id is in
        # both of its trees) is held once per row, not once per index.
        keys = tuple(map(sort_key, row))
        for name, cols in self._index_cols.items():
            self.indexes[name].insert_key(tuple(keys[i] for i in cols), rowid)

    def update(self, rowid: int, changes: dict[str, Any]) -> tuple[tuple, tuple]:
        """Apply *changes* to the row; returns ``(old_row, new_row)``."""
        if rowid not in self.rows:
            raise IntegrityError(f"no row {rowid} in table {self.name!r}")
        old = self.rows[rowid]
        new_list = list(old)
        for col_name, value in changes.items():
            col = self.definition.column(col_name)
            coerced = self.definition.coerce_value(col_name, value)
            if coerced is None and not col.nullable:
                raise IntegrityError(
                    f"column {self.name}.{col_name} is NOT NULL but got NULL"
                )
            new_list[self.definition.column_index(col_name)] = coerced
        new = tuple(new_list)
        if new == old:
            return old, new
        self._check_unique(new, exclude_rowid=rowid)
        for name, cols in self._index_cols.items():
            old_key = tuple(old[i] for i in cols)
            new_key = tuple(new[i] for i in cols)
            if old_key != new_key:
                tree = self.indexes[name]
                tree.delete(old_key, rowid)
                tree.insert(new_key, rowid)
        self.rows[rowid] = new
        return old, new

    def delete(self, rowid: int) -> tuple:
        """Delete by rowid; returns the removed row."""
        if rowid not in self.rows:
            raise IntegrityError(f"no row {rowid} in table {self.name!r}")
        row = self.rows.pop(rowid)
        for name, cols in self._index_cols.items():
            self.indexes[name].delete(tuple(row[i] for i in cols), rowid)
        return row

    def _check_unique(self, row: tuple, exclude_rowid: Optional[int]) -> None:
        for name, index_def in self._index_defs.items():
            if not index_def.unique:
                continue
            cols = self._index_cols[name]
            key = tuple(row[i] for i in cols)
            if any(v is None for v in key):
                continue  # NULLs never collide (SQL semantics)
            hits = self.indexes[name].get(key)
            for hit in hits:
                if hit != exclude_rowid:
                    raise IntegrityError(
                        f"unique constraint {name} on {self.name}{index_def.columns} "
                        f"violated by {key!r}"
                    )


class Catalog:
    """The set of tables in one database."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}

    def create_table(self, definition: TableDef) -> Table:
        if definition.name in self.tables:
            raise SchemaError(f"table {definition.name!r} already exists")
        for fk in definition.foreign_keys:
            if fk.ref_table != definition.name and fk.ref_table not in self.tables:
                raise SchemaError(
                    f"foreign key references unknown table {fk.ref_table!r}"
                )
        table = Table(definition)
        self.tables[definition.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise SchemaError(f"no table {name!r}")
        for other in self.tables.values():
            if other.name == name:
                continue
            for fk in other.definition.foreign_keys:
                if fk.ref_table == name:
                    raise SchemaError(
                        f"cannot drop {name!r}: referenced by {other.name!r}"
                    )
        del self.tables[name]

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def table_names(self) -> list[str]:
        return sorted(self.tables)


class ForeignKeyEnforcer:
    """Checks FK constraints across tables.

    Kept separate from :class:`Table` because enforcement needs visibility
    into the whole catalog.  The engine calls :meth:`check_insert` /
    :meth:`check_delete` inside its table locks.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def check_insert(self, table: Table, row: tuple) -> None:
        for fk in table.definition.foreign_keys:
            values = tuple(
                row[table.definition.column_index(c)] for c in fk.columns
            )
            if any(v is None for v in values):
                continue
            parent = self._catalog.table(fk.ref_table)
            if not self._parent_has(parent, fk.ref_columns, values):
                raise IntegrityError(
                    f"foreign key {table.name}{fk.columns} -> "
                    f"{fk.ref_table}{fk.ref_columns}: no parent row {values!r}"
                )

    def check_delete(self, table: Table, row: tuple) -> None:
        for other in self._catalog.tables.values():
            for fk in other.definition.foreign_keys:
                if fk.ref_table != table.name:
                    continue
                parent_values = tuple(
                    row[table.definition.column_index(c)] for c in fk.ref_columns
                )
                if any(v is None for v in parent_values):
                    continue
                if self._child_references(other, fk.columns, parent_values, table, row):
                    raise IntegrityError(
                        f"cannot delete from {table.name}: row {parent_values!r} "
                        f"referenced by {other.name}{fk.columns}"
                    )

    @staticmethod
    def _parent_has(parent: Table, columns: tuple[str, ...], values: tuple) -> bool:
        index_name = parent.find_index_on(columns)
        if index_name is not None and len(parent._index_cols[index_name]) == len(columns):
            return bool(parent.indexes[index_name].get(values))
        idxs = tuple(parent.definition.column_index(c) for c in columns)
        for row in parent.rows.values():
            if tuple(row[i] for i in idxs) == values:
                return True
        return False

    @staticmethod
    def _child_references(
        child: Table,
        columns: tuple[str, ...],
        values: tuple,
        parent: Table,
        parent_row: tuple,
    ) -> bool:
        index_name = child.find_index_on(columns)
        if index_name is not None and len(child._index_cols[index_name]) == len(columns):
            hits = child.indexes[index_name].get(values)
            if child is parent:
                # Self-referencing FK: ignore the row being deleted.
                parent_ids = [rid for rid, r in child.rows.items() if r == parent_row]
                hits = [h for h in hits if h not in parent_ids]
            return bool(hits)
        idxs = tuple(child.definition.column_index(c) for c in columns)
        for rid, row in child.rows.items():
            if child is parent and row == parent_row:
                continue
            if tuple(row[i] for i in idxs) == values:
                return True
        return False
