"""The Metadata Catalog Service (MCS) — the paper's contribution.

Layers, bottom-up:

* :mod:`repro.core.schema_def` — the MCS relational schema (§5) on top of
  :mod:`repro.db`.
* :mod:`repro.core.catalog` — :class:`MetadataCatalog`, the storage-level
  operations (files, collections, views, user-defined attributes,
  annotations, provenance, external catalogs, users, ACL rows).
* :mod:`repro.core.query` — attribute-based query model translated to SQL.
* :mod:`repro.core.service` — :class:`MCSService`, the policy-enforcing
  dispatcher (GSI authentication, ACL authorization, auditing) exposed
  over SOAP.
* :mod:`repro.core.client` — the client API of §5 ("MCS Query Mechanisms
  and APIs"), transport-agnostic: every operation is declared once on
  ``ClientOperations``; :class:`MCSClient` is its blocking flavour.
* :mod:`repro.core.aclient` — :class:`AsyncMCSClient`, the asyncio
  flavour of the same declaration; both consume one
  :class:`ClientConfig`.
"""

from repro.core.aclient import AsyncBulkContext, AsyncMCSClient
from repro.core.catalog import MetadataCatalog
from repro.core.client import BulkContext, BulkResult, ClientConfig, MCSClient
from repro.core.errors import (
    CycleError,
    DuplicateObjectError,
    InvalidAttributeError,
    MCSError,
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
)
from repro.core.query import AttributeCondition, ObjectQuery
from repro.core.service import MCSService

__all__ = [
    "MetadataCatalog",
    "MCSService",
    "MCSClient",
    "AsyncMCSClient",
    "AsyncBulkContext",
    "ClientConfig",
    "BulkContext",
    "BulkResult",
    "ObjectQuery",
    "AttributeCondition",
    "ObjectType",
    "AttributeType",
    "LogicalFile",
    "LogicalCollection",
    "LogicalView",
    "AttributeDef",
    "Annotation",
    "AuditRecord",
    "TransformationRecord",
    "ExternalCatalog",
    "UserInfo",
    "MCSError",
    "ObjectNotFoundError",
    "DuplicateObjectError",
    "InvalidAttributeError",
    "CycleError",
    "ObjectInUseError",
]
