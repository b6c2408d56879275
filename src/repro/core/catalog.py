"""MetadataCatalog: storage-level MCS operations.

All operations the paper's client API lists (§5) are implemented here
against the embedded relational engine; :class:`repro.core.service.MCSService`
layers authentication, authorization and auditing on top.

Thread model: one MetadataCatalog per server, safe for concurrent use —
each public method uses a connection from a per-thread pool, and the
underlying engine provides table-level locking.
"""

from __future__ import annotations

import datetime as _dt
import threading
from contextlib import contextmanager
from typing import Any, Iterable, Optional, Sequence

from repro.cache import CatalogCache
from repro.core.errors import (
    CycleError,
    DuplicateObjectError,
    InvalidAttributeError,
    ObjectInUseError,
    ObjectNotFoundError,
)
from repro.core.model import (
    Annotation,
    AttributeDef,
    AttributeType,
    AuditRecord,
    ExternalCatalog,
    LogicalCollection,
    LogicalFile,
    LogicalView,
    ObjectType,
    TransformationRecord,
    UserInfo,
    ViewMember,
)
from repro.core.query import ObjectQuery
from repro.core.schema_def import install_schema
from repro.db import Database, IntegrityError
from repro.db.engine import Connection
from repro.mql import compiler as mql_compiler
from repro.mql import executor as mql_executor
from repro.mql import planner as mql_planner
from repro.mql.compiler import CompiledStatement, Leaf
from repro.mql.planner import StatementPlan
from repro.obs.metrics import counter as _obs_counter
from repro.security.acl import EMPTY_ACL, AccessControlList, FrozenACL, Permission

_MQL_QUERIES = _obs_counter(
    "mcs_mql_queries_total",
    "MQL statements processed, by operation (query / explain)",
    labels=("op",),
)


def _now() -> _dt.datetime:
    return _dt.datetime.now()


_FILE_COLUMNS = (
    "id, name, version, data_type, valid, collection_id, container_id, "
    "container_service, master_copy, creator, created, last_modifier, "
    "modified, audit_enabled"
)


class MetadataCatalog:
    """The MCS storage layer over an embedded relational database."""

    def __init__(
        self,
        db: Optional[Database] = None,
        install: bool = True,
        cache: bool = True,
    ) -> None:
        self.db = db if db is not None else Database()
        if install:
            install_schema(self.db)
        self._local = threading.local()
        # Strict-consistency read caches (attribute defs, object ids,
        # query results), invalidated by the engine's commit-time
        # generation bumps.  ``cache=False`` (or flipping
        # ``self.cache.enabled``) disables lookups.
        self.cache = CatalogCache(self.db, enabled=cache)
        # Query pipeline: optional strategy override (None = "index",
        # or "index" / "scan" — the equivalence lane's axis),
        # the compiled templates of recent MQL statement shapes
        # (compilation is purely syntactic, so nothing invalidates them;
        # the shard router compiles through shard 0's).
        self.mql_strategy: Optional[str] = None
        self._mql_shapes = mql_compiler.ShapeCache(128)

    # -- connection pooling ------------------------------------------------

    @property
    def _conn(self) -> Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self.db.connect()
            self._local.conn = conn
        return conn

    @contextmanager
    def _atomic(self, conn: Connection, read=(), write=()):
        """One engine transaction around a multi-statement write path.

        Passthrough when the caller already holds a transaction (the
        bulk operations begin their own with wider lock sets); otherwise
        begin / lock / commit, rolling back completely on any failure so
        a refused WAL commit can never leave a torn write — the object
        row and its EAV rows land together or not at all.
        """
        if conn.in_transaction:
            yield
            return
        conn.begin()
        try:
            conn.lock_tables(read=read, write=write)
            yield
            conn.commit()
        except Exception:
            conn.rollback()
            raise

    # ======================================================================
    # Logical files
    # ======================================================================

    def create_file(
        self,
        name: str,
        version: int = 1,
        data_type: Optional[str] = None,
        collection: Optional[str] = None,
        container_id: Optional[str] = None,
        container_service: Optional[str] = None,
        master_copy: Optional[str] = None,
        creator: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        """Create a logical file; returns its database id.

        ``attributes`` maps user-defined attribute names (which must be
        defined first via :meth:`define_attribute`) to values.
        """
        conn = self._conn
        with self._atomic(
            conn,
            read=("logical_collection", "attribute_def"),
            write=("logical_file", "attribute_value"),
        ):
            collection_id = None
            if collection is not None:
                collection_id = self._collection_id(conn, collection)
            now = _now()
            try:
                result = conn.execute(
                    "INSERT INTO logical_file (name, version, data_type, valid, "
                    "collection_id, container_id, container_service, master_copy, "
                    "creator, created, last_modifier, modified, audit_enabled) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        name,
                        version,
                        data_type,
                        True,
                        collection_id,
                        container_id,
                        container_service,
                        master_copy,
                        creator,
                        now,
                        creator,
                        now,
                        audit_enabled,
                    ),
                )
            except IntegrityError as exc:
                raise DuplicateObjectError(
                    f"logical file {name!r} version {version} already exists"
                ) from exc
            file_id = result.lastrowid
            if attributes:
                self._insert_attributes(conn, ObjectType.FILE, [(file_id, attributes)])
        return file_id

    def get_file(self, name: str, version: Optional[int] = None) -> LogicalFile:
        """Static (predefined) attributes of a logical file.

        When multiple versions exist, ``version`` must be supplied (paper
        rule: name + version identify the data item uniquely).
        """
        conn = self._conn
        if version is not None:
            rows = conn.execute(
                f"SELECT {_FILE_COLUMNS} FROM logical_file "
                "WHERE name = ? AND version = ?",
                (name, version),
            ).fetchall()
        else:
            rows = conn.execute(
                f"SELECT {_FILE_COLUMNS} FROM logical_file WHERE name = ?",
                (name,),
            ).fetchall()
            if len(rows) > 1:
                raise InvalidAttributeError(
                    f"logical file {name!r} has {len(rows)} versions; "
                    "specify one explicitly"
                )
        if not rows:
            raise ObjectNotFoundError(f"no logical file {name!r}")
        return _file_from_row(rows[0])

    def file_exists(self, name: str, version: Optional[int] = None) -> bool:
        try:
            self.get_file(name, version)
            return True
        except ObjectNotFoundError:
            return False

    def list_versions(self, name: str) -> list[int]:
        rows = self._conn.execute(
            "SELECT version FROM logical_file WHERE name = ? ORDER BY version",
            (name,),
        ).fetchall()
        return [r[0] for r in rows]

    def update_file(
        self,
        name: str,
        version: Optional[int] = None,
        modifier: Optional[str] = None,
        **changes: Any,
    ) -> None:
        """Modify predefined attributes (data_type, valid, master_copy,
        container_id, container_service, audit_enabled)."""
        allowed = {
            "data_type",
            "valid",
            "master_copy",
            "container_id",
            "container_service",
            "audit_enabled",
        }
        bad = set(changes) - allowed
        if bad:
            raise InvalidAttributeError(f"cannot update fields {sorted(bad)}")
        if not changes:
            return
        conn = self._conn
        file_id = self._object_id(conn, ObjectType.FILE, name, version)
        sets = ", ".join(f"{col} = ?" for col in changes)
        conn.execute(
            f"UPDATE logical_file SET {sets}, last_modifier = ?, modified = ? "
            "WHERE id = ?",
            (*changes.values(), modifier, _now(), file_id),
        )

    def invalidate_file(self, name: str, version: Optional[int] = None,
                        modifier: Optional[str] = None) -> None:
        """Quickly mark a logical file's data as invalid (paper §5)."""
        self.update_file(name, version, modifier=modifier, valid=False)

    def move_file_to_collection(
        self, name: str, collection: Optional[str],
        version: Optional[int] = None, modifier: Optional[str] = None
    ) -> None:
        """Reassign the file's (single) enclosing collection."""
        conn = self._conn
        file_id = self._object_id(conn, ObjectType.FILE, name, version)
        collection_id = (
            None if collection is None else self._collection_id(conn, collection)
        )
        conn.execute(
            "UPDATE logical_file SET collection_id = ?, last_modifier = ?, "
            "modified = ? WHERE id = ?",
            (collection_id, modifier, _now(), file_id),
        )

    def export_file_state(
        self, name: str, version: Optional[int] = None
    ) -> dict[str, Any]:
        """Portable snapshot of a file and its dependent metadata.

        Collections and views are referenced by *name* so the state can
        be re-imported into another engine (a shard, a standby, an
        export/import pipeline) where database ids differ.
        """
        file = self.get_file(name, version)
        conn = self._conn
        collection = None
        if file.collection_id is not None:
            collection = conn.execute(
                "SELECT name FROM logical_collection WHERE id = ?",
                (file.collection_id,),
            ).scalar()
        annotations = conn.execute(
            "SELECT annotation, creator, created FROM annotation "
            "WHERE object_type = 'file' AND object_id = ? ORDER BY id",
            (file.id,),
        ).fetchall()
        transformations = conn.execute(
            "SELECT description, created FROM transformation "
            "WHERE file_id = ? ORDER BY id",
            (file.id,),
        ).fetchall()
        acl = conn.execute(
            "SELECT principal, permissions FROM acl_entry "
            "WHERE object_type = 'file' AND object_id = ?",
            (file.id,),
        ).fetchall()
        views = conn.execute(
            "SELECT v.name FROM view_member m "
            "JOIN logical_view v ON v.id = m.view_id "
            "WHERE m.member_type = 'file' AND m.member_id = ?",
            (file.id,),
        ).fetchall()
        return {
            "file": {
                "name": file.name,
                "version": file.version,
                "data_type": file.data_type,
                "valid": file.valid,
                "collection": collection,
                "container_id": file.container_id,
                "container_service": file.container_service,
                "master_copy": file.master_copy,
                "creator": file.creator,
                "created": file.created,
                "last_modifier": file.last_modifier,
                "audit_enabled": file.audit_enabled,
            },
            "attributes": self.get_attributes(ObjectType.FILE, name, file.version),
            "annotations": [list(row) for row in annotations],
            "transformations": [list(row) for row in transformations],
            "acl": [list(row) for row in acl],
            "views": [row[0] for row in views],
        }

    def import_file_state(
        self, state: dict[str, Any], modifier: Optional[str] = None
    ) -> int:
        """Recreate a file exported by :meth:`export_file_state`.

        Creation metadata is preserved; the file gets a fresh database
        id, ``modified`` is stamped now and ``last_modifier`` becomes
        ``modifier`` (imports are modifications, e.g. cross-shard moves).
        """
        meta = state["file"]
        conn = self._conn
        collection_id = None
        if meta.get("collection") is not None:
            collection_id = self._collection_id(conn, meta["collection"])
        try:
            result = conn.execute(
                "INSERT INTO logical_file (name, version, data_type, valid, "
                "collection_id, container_id, container_service, master_copy, "
                "creator, created, last_modifier, modified, audit_enabled) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    meta["name"],
                    meta["version"],
                    meta.get("data_type"),
                    meta.get("valid", True),
                    collection_id,
                    meta.get("container_id"),
                    meta.get("container_service"),
                    meta.get("master_copy"),
                    meta.get("creator"),
                    meta.get("created"),
                    modifier if modifier is not None else meta.get("last_modifier"),
                    _now(),
                    bool(meta.get("audit_enabled", False)),
                ),
            )
        except IntegrityError as exc:
            raise DuplicateObjectError(
                f"logical file {meta['name']!r} version {meta['version']} "
                "already exists"
            ) from exc
        file_id = result.lastrowid
        if state.get("attributes"):
            self._insert_attributes(
                conn, ObjectType.FILE, [(file_id, state["attributes"])]
            )
        for text, creator, created in state.get("annotations", ()):
            conn.execute(
                "INSERT INTO annotation (object_type, object_id, annotation, "
                "creator, created) VALUES ('file', ?, ?, ?, ?)",
                (file_id, text, creator, created),
            )
        for description, created in state.get("transformations", ()):
            conn.execute(
                "INSERT INTO transformation (file_id, description, created) "
                "VALUES (?, ?, ?)",
                (file_id, description, created),
            )
        for principal, bits in state.get("acl", ()):
            conn.execute(
                "INSERT INTO acl_entry (object_type, object_id, principal, "
                "permissions) VALUES ('file', ?, ?, ?)",
                (file_id, principal, bits),
            )
        for view_name in state.get("views", ()):
            view_id = conn.execute(
                "SELECT id FROM logical_view WHERE name = ?", (view_name,)
            ).scalar()
            if view_id is not None:
                self._add_view_member(conn, view_id, ObjectType.FILE, file_id)
        return file_id

    def delete_file(self, name: str, version: Optional[int] = None) -> None:
        """Delete a logical file and its dependent metadata."""
        conn = self._conn
        with self._atomic(
            conn,
            read=("attribute_def",),
            write=(
                "logical_file",
                "attribute_value",
                "annotation",
                "transformation",
                "view_member",
                "acl_entry",
            ),
        ):
            file_id = self._object_id(conn, ObjectType.FILE, name, version)
            conn.execute(
                "DELETE FROM attribute_value WHERE object_type = 'file' "
                "AND object_id = ?",
                (file_id,),
            )
            conn.execute(
                "DELETE FROM annotation WHERE object_type = 'file' AND object_id = ?",
                (file_id,),
            )
            conn.execute("DELETE FROM transformation WHERE file_id = ?", (file_id,))
            conn.execute(
                "DELETE FROM view_member WHERE member_type = 'file' "
                "AND member_id = ?",
                (file_id,),
            )
            conn.execute(
                "DELETE FROM acl_entry WHERE object_type = 'file' AND object_id = ?",
                (file_id,),
            )
            conn.execute("DELETE FROM logical_file WHERE id = ?", (file_id,))

    # ======================================================================
    # Logical collections
    # ======================================================================

    def create_collection(
        self,
        name: str,
        parent: Optional[str] = None,
        description: Optional[str] = None,
        creator: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        conn = self._conn
        with self._atomic(
            conn,
            read=("attribute_def",),
            write=("logical_collection", "attribute_value"),
        ):
            parent_id = None if parent is None else self._collection_id(conn, parent)
            now = _now()
            try:
                result = conn.execute(
                    "INSERT INTO logical_collection (name, description, parent_id, "
                    "creator, created, last_modifier, modified, audit_enabled) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (name, description, parent_id, creator, now, creator, now, audit_enabled),
                )
            except IntegrityError as exc:
                raise DuplicateObjectError(f"collection {name!r} already exists") from exc
            collection_id = result.lastrowid
            if attributes:
                self._insert_attributes(
                    conn, ObjectType.COLLECTION, [(collection_id, attributes)]
                )
        return collection_id

    def get_collection(self, name: str) -> LogicalCollection:
        row = self._conn.execute(
            "SELECT id, name, description, parent_id, creator, created, "
            "last_modifier, modified, audit_enabled "
            "FROM logical_collection WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise ObjectNotFoundError(f"no logical collection {name!r}")
        return LogicalCollection(*row)

    def set_collection_parent(self, name: str, parent: Optional[str]) -> None:
        """Re-parent a collection, preserving acyclicity."""
        conn = self._conn
        # The walk and the UPDATE share one write-locked transaction, so
        # two concurrent re-parentings cannot both pass the walk.
        with self._atomic(conn, write=("logical_collection",)):
            collection = self.get_collection(name)
            parent_id = None if parent is None else self.get_collection(parent).id
            # Walk up from the proposed parent; hitting `collection` is a cycle.
            cursor: Optional[int] = parent_id
            while cursor is not None:
                if cursor == collection.id:
                    raise CycleError(
                        f"making {parent!r} the parent of {name!r} creates a cycle"
                    )
                cursor = self._collection_parent(conn, cursor)
            conn.execute(
                "UPDATE logical_collection SET parent_id = ? WHERE id = ?",
                (parent_id, collection.id),
            )

    def delete_collection(self, name: str) -> None:
        collection = self.get_collection(name)
        conn = self._conn
        n_files = conn.execute(
            "SELECT COUNT(*) FROM logical_file WHERE collection_id = ?",
            (collection.id,),
        ).scalar()
        n_children = conn.execute(
            "SELECT COUNT(*) FROM logical_collection WHERE parent_id = ?",
            (collection.id,),
        ).scalar()
        if n_files or n_children:
            raise ObjectInUseError(
                f"collection {name!r} still has {n_files} files and "
                f"{n_children} subcollections"
            )
        for table in ("attribute_value", "annotation", "acl_entry"):
            conn.execute(
                f"DELETE FROM {table} WHERE object_type = 'collection' AND object_id = ?",
                (collection.id,),
            )
        conn.execute(
            "DELETE FROM view_member WHERE member_type = 'collection' AND member_id = ?",
            (collection.id,),
        )
        conn.execute("DELETE FROM logical_collection WHERE id = ?", (collection.id,))

    def list_collection(self, name: str) -> list[str]:
        """Logical file names directly inside a collection."""
        collection = self.get_collection(name)
        rows = self._conn.execute(
            "SELECT name FROM logical_file WHERE collection_id = ? ORDER BY name",
            (collection.id,),
        ).fetchall()
        return [r[0] for r in rows]

    def list_subcollections(self, name: str) -> list[str]:
        collection = self.get_collection(name)
        rows = self._conn.execute(
            "SELECT name FROM logical_collection WHERE parent_id = ? ORDER BY name",
            (collection.id,),
        ).fetchall()
        return [r[0] for r in rows]

    def collection_chain(self, name: str) -> list[str]:
        """The collection and its ancestors, nearest first."""
        conn = self._conn
        chain: list[str] = []
        current: Optional[str] = name
        while current is not None:
            collection = self.get_collection(current)
            chain.append(collection.name)
            if collection.parent_id is None:
                break
            current = conn.execute(
                "SELECT name FROM logical_collection WHERE id = ?",
                (collection.parent_id,),
            ).scalar()
        return chain

    def file_collection_chain(self, name: str, version: Optional[int] = None) -> list[str]:
        """Enclosing collection chain of a file (may be empty)."""
        file = self.get_file(name, version)
        if file.collection_id is None:
            return []
        coll_name = self._conn.execute(
            "SELECT name FROM logical_collection WHERE id = ?",
            (file.collection_id,),
        ).scalar()
        return self.collection_chain(coll_name)

    # ======================================================================
    # Logical views
    # ======================================================================

    def create_view(
        self,
        name: str,
        description: Optional[str] = None,
        creator: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        conn = self._conn
        with self._atomic(
            conn,
            read=("attribute_def",),
            write=("logical_view", "attribute_value"),
        ):
            now = _now()
            try:
                result = conn.execute(
                    "INSERT INTO logical_view (name, description, creator, created, "
                    "last_modifier, modified, audit_enabled) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (name, description, creator, now, creator, now, audit_enabled),
                )
            except IntegrityError as exc:
                raise DuplicateObjectError(f"view {name!r} already exists") from exc
            view_id = result.lastrowid
            if attributes:
                self._insert_attributes(conn, ObjectType.VIEW, [(view_id, attributes)])
        return view_id

    def get_view(self, name: str) -> LogicalView:
        row = self._conn.execute(
            "SELECT id, name, description, creator, created, last_modifier, "
            "modified, audit_enabled FROM logical_view WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise ObjectNotFoundError(f"no logical view {name!r}")
        return LogicalView(*row)

    def add_to_view(
        self,
        view: str,
        files: Iterable[str] = (),
        collections: Iterable[str] = (),
        views: Iterable[str] = (),
    ) -> None:
        """Add members to a view.  View membership must stay acyclic."""
        conn = self._conn
        view_obj = self.get_view(view)
        for member_view in views:
            member = self.get_view(member_view)
            if self._view_reaches(conn, member.id, view_obj.id):
                raise CycleError(
                    f"adding view {member_view!r} to {view!r} creates a cycle"
                )
        for file_name in files:
            file = self.get_file(file_name)
            self._add_view_member(conn, view_obj.id, ObjectType.FILE, file.id)
        for coll_name in collections:
            collection = self.get_collection(coll_name)
            self._add_view_member(conn, view_obj.id, ObjectType.COLLECTION, collection.id)
        for view_name in views:
            member = self.get_view(view_name)
            self._add_view_member(conn, view_obj.id, ObjectType.VIEW, member.id)

    @staticmethod
    def _add_view_member(conn: Connection, view_id: int, mtype: ObjectType, mid: int) -> None:
        try:
            conn.execute(
                "INSERT INTO view_member (view_id, member_type, member_id) "
                "VALUES (?, ?, ?)",
                (view_id, mtype.value, mid),
            )
        except IntegrityError:
            pass  # membership is a set; re-adding is a no-op

    def _view_reaches(self, conn: Connection, start_view: int, target_view: int) -> bool:
        """True when `target_view` is reachable from `start_view` via
        view-in-view membership (or they are the same)."""
        if start_view == target_view:
            return True
        stack = [start_view]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            rows = conn.execute(
                "SELECT member_id FROM view_member "
                "WHERE view_id = ? AND member_type = 'view'",
                (current,),
            ).fetchall()
            for (member_id,) in rows:
                if member_id == target_view:
                    return True
                stack.append(member_id)
        return False

    def remove_from_view(
        self,
        view: str,
        files: Iterable[str] = (),
        collections: Iterable[str] = (),
        views: Iterable[str] = (),
    ) -> None:
        conn = self._conn
        view_obj = self.get_view(view)
        for file_name in files:
            file = self.get_file(file_name)
            conn.execute(
                "DELETE FROM view_member WHERE view_id = ? AND member_type = 'file' "
                "AND member_id = ?",
                (view_obj.id, file.id),
            )
        for coll_name in collections:
            collection = self.get_collection(coll_name)
            conn.execute(
                "DELETE FROM view_member WHERE view_id = ? AND "
                "member_type = 'collection' AND member_id = ?",
                (view_obj.id, collection.id),
            )
        for view_name in views:
            member = self.get_view(view_name)
            conn.execute(
                "DELETE FROM view_member WHERE view_id = ? AND member_type = 'view' "
                "AND member_id = ?",
                (view_obj.id, member.id),
            )

    def list_view(self, name: str) -> list[ViewMember]:
        """Direct members of a view, with resolved names."""
        conn = self._conn
        view_obj = self.get_view(name)
        rows = conn.execute(
            "SELECT member_type, member_id FROM view_member WHERE view_id = ?",
            (view_obj.id,),
        ).fetchall()
        members: list[ViewMember] = []
        for mtype_text, mid in rows:
            mtype = ObjectType(mtype_text)
            table = {
                ObjectType.FILE: "logical_file",
                ObjectType.COLLECTION: "logical_collection",
                ObjectType.VIEW: "logical_view",
            }[mtype]
            member_name = conn.execute(
                f"SELECT name FROM {table} WHERE id = ?", (mid,)
            ).scalar()
            members.append(ViewMember(mtype, mid, member_name or ""))
        return sorted(members, key=lambda m: (m.member_type.value, m.name))

    def delete_view(self, name: str) -> None:
        view_obj = self.get_view(name)
        conn = self._conn
        referencing = conn.execute(
            "SELECT COUNT(*) FROM view_member WHERE member_type = 'view' "
            "AND member_id = ?",
            (view_obj.id,),
        ).scalar()
        if referencing:
            raise ObjectInUseError(
                f"view {name!r} is a member of {referencing} other view(s)"
            )
        conn.execute("DELETE FROM view_member WHERE view_id = ?", (view_obj.id,))
        for table in ("attribute_value", "annotation", "acl_entry"):
            conn.execute(
                f"DELETE FROM {table} WHERE object_type = 'view' AND object_id = ?",
                (view_obj.id,),
            )
        conn.execute("DELETE FROM logical_view WHERE id = ?", (view_obj.id,))

    # ======================================================================
    # User-defined attributes
    # ======================================================================

    def define_attribute(
        self,
        name: str,
        value_type: AttributeType | str,
        object_types: Iterable[ObjectType] = (
            ObjectType.FILE,
            ObjectType.COLLECTION,
            ObjectType.VIEW,
        ),
        description: Optional[str] = None,
        creator: Optional[str] = None,
    ) -> int:
        """Register a new user-defined attribute (schema extensibility)."""
        if isinstance(value_type, str):
            value_type = AttributeType.parse(value_type)
        types_text = ",".join(sorted(t.value for t in object_types))
        conn = self._conn
        try:
            result = conn.execute(
                "INSERT INTO attribute_def (name, value_type, object_types, "
                "description, creator, created) VALUES (?, ?, ?, ?, ?, ?)",
                (name, value_type.value, types_text, description, creator, _now()),
            )
        except IntegrityError as exc:
            raise DuplicateObjectError(f"attribute {name!r} already defined") from exc
        return result.lastrowid

    def get_attribute_def(self, name: str) -> AttributeDef:
        conn = self._conn
        token = self.cache.lookup_attr_def(conn, name)
        if token.hit:
            return token.value
        row = conn.execute(
            "SELECT id, name, value_type, object_types, description, creator, "
            "created FROM attribute_def WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise InvalidAttributeError(f"attribute {name!r} is not defined")
        definition = AttributeDef(
            id=row[0],
            name=row[1],
            value_type=AttributeType(row[2]),
            object_types=frozenset(ObjectType(t) for t in row[3].split(",") if t),
            description=row[4],
            creator=row[5],
            created=row[6],
        )
        token.store(definition)
        return definition

    def list_attribute_defs(self) -> list[AttributeDef]:
        rows = self._conn.execute(
            "SELECT name FROM attribute_def ORDER BY name"
        ).fetchall()
        return [self.get_attribute_def(r[0]) for r in rows]

    def set_attributes(
        self,
        object_type: ObjectType,
        name: str,
        attributes: dict[str, Any],
        version: Optional[int] = None,
    ) -> None:
        """Set (insert or replace) user-defined attribute values."""
        conn = self._conn
        with self._atomic(
            conn,
            read=(
                "logical_file",
                "logical_collection",
                "logical_view",
                "attribute_def",
            ),
            write=("attribute_value",),
        ):
            object_id = self._object_id(conn, object_type, name, version)
            self._set_attributes(conn, object_type, object_id, attributes)

    def _set_attributes(
        self,
        conn: Connection,
        object_type: ObjectType,
        object_id: int,
        attributes: dict[str, Any],
    ) -> None:
        """Replace the values the object has; insert the others in one pass."""
        missing = {}
        for definition, value in self._resolve_values(object_type, attributes):
            if not conn.execute(
                "UPDATE attribute_value SET value = ? WHERE object_type = ? "
                "AND object_id = ? AND attr_id = ?",
                (value, object_type.value, object_id, definition.id),
            ).rowcount:
                missing[definition.name] = value
        if missing:
            self._insert_attributes(conn, object_type, [(object_id, missing)])

    def _insert_attributes(
        self,
        conn: Connection,
        object_type: ObjectType,
        objects: Iterable[tuple[int, dict[str, Any]]],
    ) -> None:
        """Attribute rows of objects that have none yet: one multi-row
        ``executemany`` INSERT, however many objects and value types."""
        params = [
            (definition.id, object_type.value, object_id, value)
            for object_id, attributes in objects
            for definition, value in self._resolve_values(object_type, attributes)
        ]
        if params:
            conn.executemany(
                "INSERT INTO attribute_value (attr_id, object_type, object_id, "
                "value) VALUES (?, ?, ?, ?)",
                params,
            )

    def _resolve_values(
        self, object_type: ObjectType, attributes: dict[str, Any]
    ) -> list[tuple[AttributeDef, Any]]:
        """Each named attribute's definition and its coerced value."""
        resolved = []
        for attr_name, value in attributes.items():
            definition = self.get_attribute_def(attr_name)
            if object_type not in definition.object_types:
                raise InvalidAttributeError(
                    f"attribute {attr_name!r} does not apply to {object_type.value}s"
                )
            resolved.append((definition, _coerce_attr_value(definition, value)))
        return resolved

    def get_attributes(
        self,
        object_type: ObjectType,
        name: str,
        version: Optional[int] = None,
    ) -> dict[str, Any]:
        """All user-defined attribute values on an object."""
        conn = self._conn
        object_id = self._object_id(conn, object_type, name, version)
        rows = conn.execute(
            "SELECT d.name, v.value "
            "FROM attribute_value v JOIN attribute_def d ON v.attr_id = d.id "
            "WHERE v.object_type = ? AND v.object_id = ?",
            (object_type.value, object_id),
        ).fetchall()
        return dict(rows)

    def remove_attribute(
        self,
        object_type: ObjectType,
        name: str,
        attr_name: str,
        version: Optional[int] = None,
    ) -> None:
        conn = self._conn
        with self._atomic(
            conn,
            read=(
                "logical_file",
                "logical_collection",
                "logical_view",
                "attribute_def",
            ),
            write=("attribute_value",),
        ):
            object_id = self._object_id(conn, object_type, name, version)
            definition = self.get_attribute_def(attr_name)
            conn.execute(
                "DELETE FROM attribute_value WHERE object_type = ? AND "
                "object_id = ? AND attr_id = ?",
                (object_type.value, object_id, definition.id),
            )

    # ======================================================================
    # Attribute-based query (discovery): ObjectQuery and MQL
    # ======================================================================

    # Two front ends, one pipeline: an ObjectQuery is wrapped in a single
    # leaf, MQL text compiles to an algebra of leaves; the planner picks a
    # strategy per leaf against current statistics, the executor answers
    # each leaf through the result cache and finishes with one
    # dedup / sort / slice (see docs/INTERNALS.md, "The query pipeline").

    def query(self, query: ObjectQuery) -> list[str]:
        """Names of logical objects matching the query conditions.

        Each name once, in ``order_by`` order (ascending name if none),
        ``offset``/``limit`` applied to that list.
        """
        return self._run_plan(self._plan_object_query(query))

    def explain_query(self, query: ObjectQuery) -> list[str]:
        """Physical plan of an attribute query, as :meth:`explain_mql` prints it."""
        return self._explain_plan(self._plan_object_query(query))

    def query_mql(self, text: str) -> list[str]:
        """Run one MQL statement; returns the ordered name list.

        Parsing and compilation are cached per statement shape (the
        text with its literals left out); every run plans
        each conjunctive leaf against the current statistics and routes
        it through the chosen strategy (see :mod:`repro.mql.executor`).
        """
        return self.query_compiled(self._mql_shapes.compile(text))

    def query_compiled(self, compiled: CompiledStatement) -> list[str]:
        """:meth:`query_mql` for a statement compiled already (the shard
        router compiles once for the whole fleet)."""
        _MQL_QUERIES.labels("query").inc()
        return self._run_plan(self._plan_compiled(compiled))

    def explain_mql(self, text: str) -> list[str]:
        """Physical plan of an MQL statement, one line per plan element.

        Index-strategy leaves also list what they read (indented): the
        driving index and key, the per-candidate probes and the object
        fetch, so the whole path down to the B-trees shows in one call.
        """
        return self.explain_compiled(self._mql_shapes.compile(text))

    def explain_compiled(self, compiled: CompiledStatement) -> list[str]:
        """:meth:`explain_mql` for a statement compiled already."""
        _MQL_QUERIES.labels("explain").inc()
        return self._explain_plan(self._plan_compiled(compiled))

    def mql_leaf_rows(
        self, leaf: Leaf, strategy: Optional[str] = None
    ) -> mql_executor.LeafRows:
        """``(sort key, name)`` pairs for one compiled leaf.

        The scatter/gather router calls this per shard; with no forced
        strategy each shard plans the leaf against its *own* statistics
        (strategies are answer-equivalent, so heterogeneous choices
        across shards cannot skew the merged result).
        """
        chosen = strategy if strategy is not None else self.mql_strategy
        return mql_executor.run_leaf(
            self, leaf, mql_planner.plan_leaf(self, leaf, chosen)
        )

    def _plan_object_query(self, query: ObjectQuery) -> StatementPlan:
        compiled = mql_compiler.compile_object_query(query)
        leaf_plan = mql_planner.plan_leaf(self, compiled.leaves[0], self.mql_strategy)
        return mql_planner.StatementPlan(compiled, [leaf_plan])

    def _plan_mql(self, text: str) -> StatementPlan:
        return self._plan_compiled(self._mql_shapes.compile(text))

    def _plan_compiled(self, compiled: CompiledStatement) -> StatementPlan:
        return mql_planner.plan_statement(
            self, compiled, strategy=self.mql_strategy
        )

    def _run_plan(self, plan: StatementPlan) -> list[str]:
        return mql_executor.execute_compiled(
            plan.compiled,
            lambda leaf: mql_executor.run_leaf(self, leaf, plan.plan_for(leaf)),
        )

    def _explain_plan(self, plan: StatementPlan) -> list[str]:
        return mql_planner.explain_lines(
            plan,
            lambda leaf, leaf_plan: mql_executor.index_plan_lines(self, leaf, leaf_plan),
        )

    # ======================================================================
    # Bulk operations
    # ======================================================================
    #
    # Batch handlers run inside ONE explicit transaction.  ``atomic=True``
    # is all-or-nothing (any failure rolls the whole batch back and
    # raises); ``atomic=False`` isolates each item behind an engine
    # savepoint — failed items are reverted and reported, survivors
    # commit together.  Either way readers never observe a torn batch:
    # write locks are held until commit.
    #
    # Every bulk transaction pre-acquires its full lock set via
    # ``lock_tables`` (one sorted acquisition) right after BEGIN, so
    # concurrent batches can neither deadlock on acquisition order nor
    # on a read→write upgrade mid-transaction.

    def bulk_create_files(
        self,
        entries: Sequence[dict[str, Any]],
        creator: Optional[str] = None,
        atomic: bool = True,
    ) -> list[tuple[bool, Any]]:
        """Create many logical files in one transaction.

        Each entry is a dict with the :meth:`create_file` keyword
        arguments (``name`` required).  Returns one ``(ok, value)`` pair
        per entry — ``value`` is the new file id, or the exception for a
        failed item in non-atomic mode.
        """
        if not entries:
            return []
        conn = self._conn
        conn.begin()
        try:
            conn.lock_tables(
                read=("logical_collection", "attribute_def"),
                write=("logical_file", "attribute_value"),
            )
            if atomic:
                results = self._bulk_create_files_atomic(conn, entries, creator)
            else:
                results = []
                for entry in entries:
                    token = conn.savepoint()
                    try:
                        file_id = self.create_file(
                            creator=creator, **self._file_entry_kwargs(entry)
                        )
                        results.append((True, file_id))
                    except Exception as exc:  # noqa: BLE001 - per-item boundary
                        conn.rollback_to_savepoint(token)
                        results.append((False, exc))
            conn.commit()
            return results
        except Exception:
            conn.rollback()
            raise

    def _bulk_create_files_atomic(
        self,
        conn: Connection,
        entries: Sequence[dict[str, Any]],
        creator: Optional[str],
    ) -> list[tuple[bool, Any]]:
        """Fast path: one multi-row executemany INSERT per table."""
        now = _now()
        collection_ids: dict[str, int] = {}
        params: list[tuple] = []
        for entry in entries:
            kwargs = self._file_entry_kwargs(entry)
            collection = kwargs["collection"]
            collection_id = None
            if collection is not None:
                collection_id = collection_ids.get(collection)
                if collection_id is None:
                    collection_id = self._collection_id(conn, collection)
                    collection_ids[collection] = collection_id
            params.append(
                (
                    kwargs["name"],
                    kwargs["version"],
                    kwargs["data_type"],
                    True,
                    collection_id,
                    kwargs["container_id"],
                    kwargs["container_service"],
                    kwargs["master_copy"],
                    creator,
                    now,
                    creator,
                    now,
                    kwargs["audit_enabled"],
                )
            )
        try:
            result = conn.executemany(
                "INSERT INTO logical_file (name, version, data_type, valid, "
                "collection_id, container_id, container_service, master_copy, "
                "creator, created, last_modifier, modified, audit_enabled) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                params,
            )
        except IntegrityError as exc:
            raise DuplicateObjectError(
                f"duplicate logical file in bulk batch: {exc}"
            ) from exc
        file_ids = result.lastrowids
        self._insert_attributes(
            conn,
            ObjectType.FILE,
            [
                (file_id, entry.get("attributes") or {})
                for file_id, entry in zip(file_ids, entries)
            ],
        )
        return [(True, file_id) for file_id in file_ids]

    @staticmethod
    def _file_entry_kwargs(entry: dict[str, Any]) -> dict[str, Any]:
        if "name" not in entry:
            raise InvalidAttributeError("bulk file entry missing 'name'")
        unknown = set(entry) - {
            "name",
            "version",
            "data_type",
            "collection",
            "container_id",
            "container_service",
            "master_copy",
            "audit_enabled",
            "attributes",
        }
        if unknown:
            raise InvalidAttributeError(
                f"unknown bulk file entry fields {sorted(unknown)}"
            )
        return {
            "name": entry["name"],
            "version": entry.get("version", 1),
            "data_type": entry.get("data_type"),
            "collection": entry.get("collection"),
            "container_id": entry.get("container_id"),
            "container_service": entry.get("container_service"),
            "master_copy": entry.get("master_copy"),
            "audit_enabled": bool(entry.get("audit_enabled", False)),
            "attributes": entry.get("attributes"),
        }

    def bulk_set_attributes(
        self,
        items: Sequence[dict[str, Any]],
        atomic: bool = True,
    ) -> list[tuple[bool, Any]]:
        """Set user-defined attributes on many objects in one transaction.

        Each item: ``{"object_type": "file", "name": ..., "version": ...,
        "attributes": {...}}`` (object_type defaults to file).
        """
        if not items:
            return []
        conn = self._conn
        conn.begin()
        try:
            conn.lock_tables(
                read=(
                    "logical_collection",
                    "logical_file",
                    "logical_view",
                    "attribute_def",
                ),
                write=("attribute_value",),
            )
            results: list[tuple[bool, Any]] = []
            for item in items:
                token = None if atomic else conn.savepoint()
                try:
                    raw_type = item.get("object_type", ObjectType.FILE)
                    otype = (
                        raw_type
                        if isinstance(raw_type, ObjectType)
                        else ObjectType(raw_type)
                    )
                    if "name" not in item:
                        raise InvalidAttributeError(
                            "bulk attribute item missing 'name'"
                        )
                    object_id = self._object_id(
                        conn, otype, item["name"], item.get("version")
                    )
                    self._set_attributes(
                        conn, otype, object_id, item.get("attributes") or {}
                    )
                    results.append((True, True))
                except Exception as exc:  # noqa: BLE001 - per-item boundary
                    if atomic:
                        raise
                    conn.rollback_to_savepoint(token)
                    results.append((False, exc))
            conn.commit()
            return results
        except Exception:
            conn.rollback()
            raise

    def bulk_query(
        self, queries: Sequence[ObjectQuery]
    ) -> list[tuple[bool, Any]]:
        """Run many discovery queries; per-query fault capture, no txn."""
        results: list[tuple[bool, Any]] = []
        for query in queries:
            try:
                results.append((True, self.query(query)))
            except Exception as exc:  # noqa: BLE001 - per-item boundary
                results.append((False, exc))
        return results

    # ======================================================================
    # Annotations
    # ======================================================================

    def annotate(
        self,
        object_type: ObjectType,
        name: str,
        text: str,
        creator: str,
        version: Optional[int] = None,
    ) -> None:
        conn = self._conn
        object_id = self._object_id(conn, object_type, name, version)
        conn.execute(
            "INSERT INTO annotation (object_type, object_id, annotation, creator, "
            "created) VALUES (?, ?, ?, ?, ?)",
            (object_type.value, object_id, text, creator, _now()),
        )

    def annotations(
        self,
        object_type: ObjectType,
        name: str,
        version: Optional[int] = None,
    ) -> list[Annotation]:
        conn = self._conn
        object_id = self._object_id(conn, object_type, name, version)
        rows = conn.execute(
            "SELECT annotation, creator, created FROM annotation "
            "WHERE object_type = ? AND object_id = ? ORDER BY id",
            (object_type.value, object_id),
        ).fetchall()
        return [
            Annotation(object_type, name, text, creator, created)
            for text, creator, created in rows
        ]

    # ======================================================================
    # Provenance (creation & transformation history)
    # ======================================================================

    def add_transformation(
        self, file_name: str, description: str, version: Optional[int] = None
    ) -> None:
        file = self.get_file(file_name, version)
        self._conn.execute(
            "INSERT INTO transformation (file_id, description, created) "
            "VALUES (?, ?, ?)",
            (file.id, description, _now()),
        )

    def transformations(
        self, file_name: str, version: Optional[int] = None
    ) -> list[TransformationRecord]:
        file = self.get_file(file_name, version)
        rows = self._conn.execute(
            "SELECT description, created FROM transformation WHERE file_id = ? "
            "ORDER BY id",
            (file.id,),
        ).fetchall()
        return [TransformationRecord(file_name, d, c) for d, c in rows]

    # ======================================================================
    # Audit
    # ======================================================================

    def record_audit(
        self,
        object_type: ObjectType,
        object_id: int,
        action: str,
        detail: str,
        actor: str,
        name: Optional[str] = None,
        version: Optional[int] = None,
    ) -> None:
        # ``name``/``version`` identify the object independently of its
        # database id so routing layers (repro.shard) can place the
        # record on the owning backend; a single engine ignores them.
        del name, version
        self._conn.execute(
            "INSERT INTO audit_record (object_type, object_id, action, detail, "
            "actor, created) VALUES (?, ?, ?, ?, ?, ?)",
            (object_type.value, object_id, action, detail, actor, _now()),
        )

    def audit_log(
        self,
        object_type: ObjectType,
        name: str,
        version: Optional[int] = None,
    ) -> list[AuditRecord]:
        conn = self._conn
        object_id = self._object_id(conn, object_type, name, version)
        rows = conn.execute(
            "SELECT action, detail, actor, created FROM audit_record "
            "WHERE object_type = ? AND object_id = ? ORDER BY id",
            (object_type.value, object_id),
        ).fetchall()
        return [
            AuditRecord(object_type, object_id, action, detail, actor, created)
            for action, detail, actor, created in rows
        ]

    # ======================================================================
    # Users, external catalogs
    # ======================================================================

    def register_user(self, user: UserInfo) -> None:
        try:
            self._conn.execute(
                "INSERT INTO user_info (dn, description, institution, email, phone) "
                "VALUES (?, ?, ?, ?, ?)",
                (user.dn, user.description, user.institution, user.email, user.phone),
            )
        except IntegrityError as exc:
            raise DuplicateObjectError(f"user {user.dn!r} already registered") from exc

    def get_user(self, dn: str) -> UserInfo:
        row = self._conn.execute(
            "SELECT dn, description, institution, email, phone FROM user_info "
            "WHERE dn = ?",
            (dn,),
        ).fetchone()
        if row is None:
            raise ObjectNotFoundError(f"no registered user {dn!r}")
        return UserInfo(*row)

    def register_external_catalog(self, catalog: ExternalCatalog) -> None:
        try:
            self._conn.execute(
                "INSERT INTO external_catalog (name, catalog_type, host, port, "
                "description) VALUES (?, ?, ?, ?, ?)",
                (
                    catalog.name,
                    catalog.catalog_type,
                    catalog.host,
                    catalog.port,
                    catalog.description,
                ),
            )
        except IntegrityError as exc:
            raise DuplicateObjectError(
                f"external catalog {catalog.name!r} already registered"
            ) from exc

    def list_external_catalogs(self) -> list[ExternalCatalog]:
        rows = self._conn.execute(
            "SELECT name, catalog_type, host, port, description "
            "FROM external_catalog ORDER BY name"
        ).fetchall()
        return [ExternalCatalog(*row) for row in rows]

    # ======================================================================
    # Authorization storage
    # ======================================================================

    def set_permissions(
        self,
        object_type: ObjectType,
        name: Optional[str],
        principal: str,
        permissions: Permission,
        version: Optional[int] = None,
    ) -> None:
        """Store (replace) a principal's permission bits on an object.

        ``object_type=SERVICE`` with ``name=None`` sets service-level
        permissions (e.g. who may create files at all).
        """
        conn = self._conn
        object_id = (
            0
            if object_type is ObjectType.SERVICE
            else self._object_id(conn, object_type, name or "", version)
        )
        updated = conn.execute(
            "UPDATE acl_entry SET permissions = ? WHERE object_type = ? "
            "AND object_id = ? AND principal = ?",
            (permissions.value, object_type.value, object_id, principal),
        ).rowcount
        if updated == 0:
            conn.execute(
                "INSERT INTO acl_entry (object_type, object_id, principal, "
                "permissions) VALUES (?, ?, ?, ?)",
                (object_type.value, object_id, principal, permissions.value),
            )

    def get_acl(
        self,
        object_type: ObjectType,
        name: Optional[str],
        version: Optional[int] = None,
    ) -> AccessControlList:
        conn = self._conn
        object_id = (
            0
            if object_type is ObjectType.SERVICE
            else self._object_id(conn, object_type, name or "", version)
        )
        return self._acl(conn, object_type, object_id).thaw()

    def acl_chain(
        self,
        object_type: ObjectType,
        name: Optional[str],
        version: Optional[int] = None,
    ) -> tuple[FrozenACL, ...]:
        """The object's ACL, then each enclosing collection's, nearest first.

        Everything one authorization decision reads (§5: the union up the
        collection hierarchy), walked by id: a file's ``(id, collection
        id)``, each collection's parent and each ACL is a generation-stamped
        cache entry, so a warm walk issues no statement and a committed
        grant, revoke, move or re-parent misses on the next.  The service's
        own ACL is ``acl_chain(ObjectType.SERVICE, None)``.
        """
        conn = self._conn
        parent: Optional[int] = None
        if object_type is ObjectType.SERVICE:
            object_id = 0
        elif object_type is ObjectType.FILE:
            object_id, parent = self._file_ids(conn, name or "", version)
        else:
            object_id = self._object_id(conn, object_type, name or "", version)
            if object_type is ObjectType.COLLECTION:
                parent = self._collection_parent(conn, object_id)
        chain = [self._acl(conn, object_type, object_id)]
        # A cycle cannot be committed, but entries stamped on either side
        # of a concurrent re-parent could still close one.
        walked: set[int] = set()
        while parent is not None and parent not in walked:
            walked.add(parent)
            chain.append(self._acl(conn, ObjectType.COLLECTION, parent))
            parent = self._collection_parent(conn, parent)
        return tuple(chain)

    # ======================================================================
    # Statistics
    # ======================================================================

    def stats(self) -> dict[str, int]:
        conn = self._conn
        return {
            "files": conn.execute("SELECT COUNT(*) FROM logical_file").scalar(),
            "collections": conn.execute(
                "SELECT COUNT(*) FROM logical_collection"
            ).scalar(),
            "views": conn.execute("SELECT COUNT(*) FROM logical_view").scalar(),
            "attributes": conn.execute(
                "SELECT COUNT(*) FROM attribute_def"
            ).scalar(),
            "attribute_values": conn.execute(
                "SELECT COUNT(*) FROM attribute_value"
            ).scalar(),
        }

    # -- internals -------------------------------------------------------------

    def _collection_id(self, conn: Connection, name: str) -> int:
        token = self.cache.lookup_object_id(conn, "logical_collection", name, None)
        if token.hit:
            return token.value
        collection_id = conn.execute(
            "SELECT id FROM logical_collection WHERE name = ?", (name,)
        ).scalar()
        if collection_id is None:
            raise ObjectNotFoundError(f"no logical collection {name!r}")
        token.store(collection_id)
        return collection_id

    def _object_id(
        self,
        conn: Connection,
        object_type: ObjectType,
        name: str,
        version: Optional[int] = None,
    ) -> int:
        if object_type is ObjectType.COLLECTION:
            return self._collection_id(conn, name)
        if object_type is ObjectType.FILE:
            return self._file_ids(conn, name, version)[0]
        if object_type is not ObjectType.VIEW:
            raise InvalidAttributeError(f"no object id for {object_type}")
        token = self.cache.lookup_object_id(conn, "logical_view", name, version)
        if token.hit:
            return token.value
        object_id = self.get_view(name).id
        token.store(object_id)
        return object_id

    def _file_ids(
        self, conn: Connection, name: str, version: Optional[int]
    ) -> tuple[int, Optional[int]]:
        """A file's ``(id, collection id)``: one object-cache entry serves
        both the operation body and its authorization walk."""
        token = self.cache.lookup_object_id(conn, "logical_file", name, version)
        if token.hit:
            return token.value
        file = self.get_file(name, version)
        ids = (file.id, file.collection_id)
        token.store(ids)
        return ids

    def _collection_parent(self, conn: Connection, collection_id: int) -> Optional[int]:
        token = self.cache.lookup_collection_parent(conn, collection_id)
        if token.hit:
            return token.value
        parent_id = conn.execute(
            "SELECT parent_id FROM logical_collection WHERE id = ?", (collection_id,)
        ).scalar()
        token.store(parent_id)
        return parent_id

    def _acl(self, conn: Connection, object_type: ObjectType, object_id: int) -> FrozenACL:
        token = self.cache.lookup_acl(conn, object_type.value, object_id)
        if token.hit:
            return token.value
        rows = conn.execute(
            "SELECT principal, permissions FROM acl_entry WHERE object_type = ? "
            "AND object_id = ?",
            (object_type.value, object_id),
        ).fetchall()
        acl = FrozenACL(rows) if rows else EMPTY_ACL
        token.store(acl)
        return acl


def _file_from_row(row: tuple) -> LogicalFile:
    return LogicalFile(
        id=row[0],
        name=row[1],
        version=row[2],
        data_type=row[3],
        valid=row[4],
        collection_id=row[5],
        container_id=row[6],
        container_service=row[7],
        master_copy=row[8],
        creator=row[9],
        created=row[10],
        last_modifier=row[11],
        modified=row[12],
        audit_enabled=row[13],
    )


def _coerce_attr_value(definition: AttributeDef, value: Any) -> Any:
    """Validate/coerce a user-attribute value against its declared type.

    The only place a stored value's type is decided: ``attribute_value``
    keeps whatever this returns.  A float attribute stores an int (or a
    bool) as a float, a datetime attribute a date as its midnight.
    """
    if value is None:
        return None
    vt = definition.value_type
    if vt is AttributeType.INT and isinstance(value, bool):
        raise InvalidAttributeError(
            f"attribute {definition.name!r} expects int, got bool"
        )
    if vt is AttributeType.FLOAT and isinstance(value, int):
        return float(value)
    if vt is AttributeType.DATETIME and isinstance(value, _dt.date) and not isinstance(
        value, _dt.datetime
    ):
        return _dt.datetime(value.year, value.month, value.day)
    if vt is AttributeType.DATE and isinstance(value, _dt.datetime):
        raise InvalidAttributeError(
            f"attribute {definition.name!r} expects a date, got datetime"
        )
    if not isinstance(value, vt.python_type()):
        raise InvalidAttributeError(
            f"attribute {definition.name!r} expects {vt.value}, "
            f"got {type(value).__name__}"
        )
    return value
