"""The wire operations, declared once.

One :class:`Operation` row per SOAP method states the paper's §5
policies for it: which permission the caller needs and on what object
(authorization is per object, with the union up the collection
hierarchy applied by the service), whether touching the object leaves an
audit record, and whether the call is an idempotent read.
:class:`repro.core.service.MCSService` turns a row into its checks and
audit calls — no ``op_*`` body states a rule of its own — and
:mod:`repro.core.client` takes its retry classification from ``read``.
``docs/API.md`` prints the table; a test keeps the two the same.

The module imports nothing of the service, the catalog or the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.model import ObjectType
from repro.security.acl import Permission

#: ``Operation.on`` value for "whatever kind the request's ``object_type``
#: argument names" (the string is that argument's name).
BY_ARGUMENT = "object_type"

_FILE, _COLLECTION, _VIEW = ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW
_READ, _WRITE, _DELETE = Permission.READ, Permission.WRITE, Permission.DELETE


@dataclass(frozen=True)
class Operation:
    """One wire operation's authorization, audit and retry policy."""

    name: str
    #: Needed on the object named below; ``None`` for the two operations
    #: anyone may call (``ping``, ``stats``).
    permission: Optional[Permission]
    #: Kind of object the permission is checked on: a fixed kind, or
    #: :data:`BY_ARGUMENT`.  ``SERVICE`` means the service's own ACL.
    on: Union[ObjectType, str] = ObjectType.SERVICE
    #: Argument naming that object (its version is always ``version``).
    name_arg: str = "name"
    #: Argument naming a collection the object is put under; under object
    #: granularity the caller also needs WRITE there.
    destination: Optional[str] = None
    #: ``(action, kind of object audited)`` recorded on audited objects.
    audit: Optional[tuple[str, ObjectType]] = None
    #: Idempotent read: clients retry it freely.
    read: bool = False
    #: The permission is evaluated on each existing version of the name
    #: and the answer keeps the versions that pass.
    per_version: bool = False
    #: Bulk writers: ``(list argument, single-item operation)`` — that
    #: operation's rule applies to each distinct target among the items.
    each: Optional[tuple[str, str]] = None


OPERATIONS: tuple[Operation, ...] = (
    # -- logical files ----------------------------------------------------
    Operation("create_logical_file", _WRITE, destination="collection",
              audit=("create", _FILE)),
    Operation("get_logical_file", _READ, _FILE, audit=("read", _FILE), read=True),
    Operation("modify_logical_file", _WRITE, _FILE, audit=("modify", _FILE)),
    Operation("delete_logical_file", _DELETE, _FILE, audit=("delete", _FILE)),
    Operation("move_file_to_collection", _WRITE, _FILE, destination="collection"),
    Operation("list_versions", _READ, _FILE, read=True, per_version=True),
    # -- user-defined attributes ------------------------------------------
    Operation("define_attribute", _WRITE),
    Operation("list_attribute_defs", _READ, read=True),
    Operation("set_attributes", _WRITE, BY_ARGUMENT),
    Operation("get_attributes", _READ, BY_ARGUMENT, read=True),
    Operation("remove_attribute", _WRITE, BY_ARGUMENT),
    # -- queries ----------------------------------------------------------
    Operation("query", _READ, read=True),
    Operation("explain_query", _READ, read=True),
    Operation("query_mql", _READ, read=True),
    Operation("explain_mql", _READ, read=True),
    # -- bulk -------------------------------------------------------------
    Operation("bulk_create_files", _WRITE, audit=("create", _FILE),
              each=("entries", "create_logical_file")),
    Operation("bulk_set_attributes", _WRITE, each=("items", "set_attributes")),
    Operation("bulk_query", _READ, read=True),
    # -- collections ------------------------------------------------------
    Operation("create_collection", _WRITE, destination="parent",
              audit=("create", _COLLECTION)),
    Operation("delete_collection", _DELETE, _COLLECTION),
    Operation("list_collection", _READ, _COLLECTION, read=True),
    Operation("list_subcollections", _READ, _COLLECTION, read=True),
    Operation("set_collection_parent", _WRITE, _COLLECTION, destination="parent"),
    # -- views ------------------------------------------------------------
    Operation("create_view", _WRITE, audit=("create", _VIEW)),
    Operation("delete_view", _DELETE, _VIEW),
    Operation("add_to_view", _WRITE, _VIEW, name_arg="view"),
    Operation("remove_from_view", _WRITE, _VIEW, name_arg="view"),
    Operation("list_view", _READ, _VIEW, read=True),
    # -- annotations, provenance, audit -----------------------------------
    Operation("annotate", Permission.ANNOTATE, BY_ARGUMENT),
    Operation("get_annotations", _READ, BY_ARGUMENT, read=True),
    Operation("add_transformation", _WRITE, _FILE),
    Operation("get_transformations", _READ, _FILE, read=True),
    Operation("audit_log", Permission.ADMIN, BY_ARGUMENT, read=True),
    # -- users, external catalogs, permissions, misc ------------------------
    Operation("register_user", _WRITE),
    Operation("get_user", _READ, read=True),
    Operation("register_external_catalog", _WRITE),
    Operation("list_external_catalogs", _READ, read=True),
    Operation("set_permissions", Permission.ADMIN, BY_ARGUMENT),
    Operation("get_permissions", _READ, read=True),
    Operation("stats", None, read=True),
    Operation("ping", None, read=True),
)

BY_NAME: dict[str, Operation] = {row.name: row for row in OPERATIONS}
if len(BY_NAME) != len(OPERATIONS):
    raise TypeError("an operation is declared twice in OPERATIONS")

