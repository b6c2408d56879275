"""Domain objects of the MCS data model (§5, Figure 3).

These are plain value objects; persistence lives in
:mod:`repro.core.catalog`.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class ObjectType(enum.Enum):
    """Kinds of logical objects metadata can attach to."""

    FILE = "file"
    COLLECTION = "collection"
    VIEW = "view"
    SERVICE = "service"  # the MCS itself, for service-level permissions

    @classmethod
    def parse(cls, text: str) -> "ObjectType":
        return cls(text.lower())


class AttributeType(enum.Enum):
    """Value types for user-defined attributes (§5: string, float, int,
    date, time and date/time)."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    DATE = "date"
    TIME = "time"
    DATETIME = "datetime"

    @classmethod
    def parse(cls, text: str) -> "AttributeType":
        aliases = {"integer": "int", "double": "float", "timestamp": "datetime"}
        key = text.lower()
        return cls(aliases.get(key, key))

    def python_type(self) -> tuple[type, ...]:
        return {
            AttributeType.STRING: (str,),
            AttributeType.INT: (int,),
            AttributeType.FLOAT: (int, float),
            AttributeType.DATE: (_dt.date,),
            AttributeType.TIME: (_dt.time,),
            AttributeType.DATETIME: (_dt.datetime,),
        }[self]


@dataclass
class LogicalFile:
    """A logical file: the basic item of the MCS data model.

    Uniquely identified by (logical name, version); most files have the
    default version 1.  ``collection_id`` implements the at-most-one-
    collection rule.
    """

    id: int
    name: str
    version: int = 1
    data_type: Optional[str] = None
    valid: bool = True
    collection_id: Optional[int] = None
    container_id: Optional[str] = None
    container_service: Optional[str] = None
    master_copy: Optional[str] = None
    creator: Optional[str] = None
    created: Optional[_dt.datetime] = None
    last_modifier: Optional[str] = None
    modified: Optional[_dt.datetime] = None
    audit_enabled: bool = False


@dataclass
class LogicalCollection:
    """A user-defined aggregation used for grouping *and authorization*."""

    id: int
    name: str
    description: Optional[str] = None
    parent_id: Optional[int] = None
    creator: Optional[str] = None
    created: Optional[_dt.datetime] = None
    last_modifier: Optional[str] = None
    modified: Optional[_dt.datetime] = None
    audit_enabled: bool = False


@dataclass
class LogicalView:
    """An acyclic aggregation of files/collections/views; no authorization
    effect (like a directory of symbolic links)."""

    id: int
    name: str
    description: Optional[str] = None
    creator: Optional[str] = None
    created: Optional[_dt.datetime] = None
    last_modifier: Optional[str] = None
    modified: Optional[_dt.datetime] = None
    audit_enabled: bool = False


@dataclass(frozen=True)
class ViewMember:
    """One member of a logical view."""

    member_type: ObjectType
    member_id: int
    name: str = ""


@dataclass
class AttributeDef:
    """A user-defined attribute: schema extensibility (§5)."""

    id: int
    name: str
    value_type: AttributeType
    object_types: frozenset[ObjectType] = frozenset(
        {ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW}
    )
    description: Optional[str] = None
    creator: Optional[str] = None
    created: Optional[_dt.datetime] = None

    def to_dict(self) -> dict:
        """Wire/JSON form; :meth:`from_dict` round-trips it exactly.

        Enums flatten to their string values and ``object_types`` to a
        sorted list, so the dict is stable and codec-friendly.
        """
        return {
            "id": self.id,
            "name": self.name,
            "value_type": self.value_type.value,
            "object_types": sorted(t.value for t in self.object_types),
            "description": self.description,
            "creator": self.creator,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttributeDef":
        """Rebuild from :meth:`to_dict` output (ISO strings accepted)."""
        created = data.get("created")
        if isinstance(created, str):
            created = _dt.datetime.fromisoformat(created)
        return cls(
            id=int(data.get("id", 0)),
            name=data["name"],
            value_type=AttributeType(data["value_type"]),
            object_types=frozenset(
                ObjectType(t) for t in data.get("object_types") or ()
            ),
            description=data.get("description"),
            creator=data.get("creator"),
            created=created,
        )


@dataclass(frozen=True)
class Annotation:
    """A free-text annotation attached to a logical object."""

    object_type: ObjectType
    object_name: str
    text: str
    creator: str
    created: _dt.datetime


@dataclass(frozen=True)
class AuditRecord:
    """One audited action (§5, Audit metadata)."""

    object_type: ObjectType
    object_id: int
    action: str
    detail: str
    actor: str
    created: _dt.datetime


@dataclass(frozen=True)
class TransformationRecord:
    """Creation/transformation history entry (provenance)."""

    file_name: str
    description: str
    created: _dt.datetime


@dataclass(frozen=True)
class ExternalCatalog:
    """Pointer to an external metadata catalog (§5)."""

    name: str
    catalog_type: str
    host: str
    port: int
    description: str = ""


@dataclass(frozen=True)
class UserInfo:
    """Contact metadata for writers of metadata (§5, User metadata)."""

    dn: str
    description: str = ""
    institution: str = ""
    email: str = ""
    phone: str = ""
