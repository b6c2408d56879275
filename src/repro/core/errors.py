"""MCS error hierarchy and the fault-code mapping table.

Every error carries a stable ``fault_code`` so the SOAP layer can map it
across the wire and the client can re-raise the same type.  The mapping
lives here — and only here — in :func:`fault_code_for` (server side) and
:func:`exception_from_fault` (client side); the service dispatcher, the
bulk executor, the SOAP server fallback and the client transports all
consult the same table, so the translation can never drift between call
sites.
"""

from __future__ import annotations

from typing import Optional

from repro.db.errors import DatabaseError, LockTimeoutError, ProgrammingError
from repro.security.errors import SecurityError


class MCSError(Exception):
    """Base class for Metadata Catalog Service errors."""

    fault_code = "MCS.Error"


class ObjectNotFoundError(MCSError):
    """The named logical file/collection/view does not exist."""

    fault_code = "MCS.NotFound"


class DuplicateObjectError(MCSError):
    """An object with this name (and version) already exists."""

    fault_code = "MCS.Duplicate"


class InvalidAttributeError(MCSError):
    """Unknown attribute, wrong value type, or bad attribute definition."""

    fault_code = "MCS.InvalidAttribute"


class CycleError(MCSError):
    """The requested membership would create a collection/view cycle."""

    fault_code = "MCS.Cycle"


class ObjectInUseError(MCSError):
    """The object cannot be deleted while it has members or references."""

    fault_code = "MCS.InUse"


class QueryError(MCSError):
    """Malformed attribute query."""

    fault_code = "MCS.Query"


class PermissionDeniedError(MCSError):
    """Authorization failed at the service policy layer."""

    fault_code = "MCS.PermissionDenied"


class NotAuthenticatedError(MCSError):
    """The request carried no (or an invalid) credential."""

    fault_code = "MCS.NotAuthenticated"


class NoSuchMethodError(MCSError):
    """The request named an operation the service does not dispatch."""

    fault_code = "MCS.NoSuchMethod"


class BadRequestError(MCSError):
    """The request's arguments do not fit the operation's signature."""

    fault_code = "MCS.BadRequest"


class ServiceBusyError(MCSError):
    """The server could not take a required lock in time; retry later.

    Wire face of :class:`repro.db.errors.LockTimeoutError` — contention
    is an operational condition the client can back off from, not an
    internal failure.
    """

    fault_code = "MCS.Busy"


class StorageError(MCSError):
    """The backend database failed while serving the request.

    Wire face of the remaining :class:`repro.db.errors.DatabaseError`
    family (schema, integrity, transaction, recovery): the request was
    understood but the storage layer could not complete it.
    """

    fault_code = "MCS.Storage"


class SchemaVersionError(StorageError):
    """The catalog directory has another schema version; it is not migrated."""


FAULT_CODE_TO_ERROR = {
    cls.fault_code: cls
    for cls in (
        MCSError,
        ObjectNotFoundError,
        DuplicateObjectError,
        InvalidAttributeError,
        CycleError,
        ObjectInUseError,
        QueryError,
        PermissionDeniedError,
        NotAuthenticatedError,
        NoSuchMethodError,
        BadRequestError,
        ServiceBusyError,
        StorageError,
    )
}


#: Prefix that marks a wire fault as carrying a typed MCS error.
MCS_FAULT_PREFIX = "MCS."


def fault_code_for(exc: BaseException) -> Optional[str]:
    """Wire fault code for ``exc``, or ``None`` when it has no MCS mapping.

    ``None`` tells the caller to fall through to its own generic handling
    (an opaque ``Server`` fault, or re-raising).  Security failures of any
    kind deliberately collapse to ``MCS.PermissionDenied`` so the wire
    never leaks which security check rejected the caller.
    """
    if isinstance(exc, MCSError):
        return exc.fault_code
    if isinstance(exc, SecurityError):
        return PermissionDeniedError.fault_code
    # Database failures map by operational meaning, most specific first:
    # lock contention is retryable (Busy), bad SQL reached the engine
    # (Query), anything else is a storage-layer failure (Storage).  The
    # whole-program pass (MCS014) parses these isinstance arms to learn
    # which exception families the table covers.
    if isinstance(exc, LockTimeoutError):
        return ServiceBusyError.fault_code
    if isinstance(exc, ProgrammingError):
        return QueryError.fault_code
    if isinstance(exc, DatabaseError):
        return StorageError.fault_code
    return None


def exception_from_fault(code: str, message: str) -> Optional[MCSError]:
    """Typed MCS error for a wire fault, or ``None`` for foreign faults.

    Client-side half of the table: faults outside the ``MCS.`` namespace
    belong to the transport/SOAP layer and are left for the caller to
    raise as-is.
    """
    if not code.startswith(MCS_FAULT_PREFIX):
        return None
    cls = FAULT_CODE_TO_ERROR.get(code, MCSError)
    return cls(message)


def error_from_fault(code: str, message: str) -> Exception:
    """Rebuild a typed MCS error from a SOAP fault code."""
    cls = FAULT_CODE_TO_ERROR.get(code, MCSError)
    return cls(message)
