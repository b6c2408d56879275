"""The MCS client API (§5), declared once for both client flavours.

:class:`ClientOperations` declares every operation — name, signature,
docstring, argument adapters, read-vs-write — on one method each.
:class:`MCSClient` (here) and :class:`~repro.core.aclient.AsyncMCSClient`
add only how a call is carried out: a blocking ``_call`` over any
:class:`repro.soap.transport.Transport`, or a coroutine one.  Either
runs in-process (DirectTransport — the paper's "without web service"
baseline) or over SOAP/HTTP (the full MCS configuration).

Every operation the paper's API section lists is exposed:

* querying the catalog for logical objects based on object attributes,
* querying static attributes of a logical object,
* querying user-defined attributes of a logical object,
* querying the contents of a logical view or collection,
* creating a logical file, collection or view,
* modifying the attributes of a logical object,
* deleting a logical file, view or collection,
* annotating a logical object,
* adding logical objects to a view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Callable, Optional, Sequence

from repro.core.errors import exception_from_fault
from repro.core.model import AttributeDef
from repro.core.operations import OPERATIONS
from repro.core.query import ObjectQuery
from repro.obs.trace import span as _span
from repro.resilience.transport import ResilientTransport
from repro.soap.envelope import BulkItem, SoapFault
from repro.soap.transport import DirectTransport, HttpTransport, Transport


@dataclass(frozen=True)
class ClientConfig:
    """Everything about how a client talks to a catalog, in one value.

    Both client flavors consume the same config —
    ``MCSClient.connect(host, port, ClientConfig(...))`` and
    ``AsyncMCSClient.connect(host, port, ClientConfig(...))`` — so a
    deployment describes its retry/deadline/breaker posture once and
    hands it to whichever client a call site needs.  Configuring any of
    the resilience trio — ``retry_policy`` (a
    :class:`repro.resilience.RetryPolicy`), ``deadline_s`` (a per-call
    time budget, propagated to the server via the SOAP ``Deadline``
    header) or ``breaker`` (a shared
    :class:`repro.resilience.CircuitBreaker`) — wraps the transport in a
    resilient layer where reads retry freely and writes retry under a
    server-deduplicated idempotency token.

    ``pool_size`` sizes the async transport's keep-alive connection
    pool; the sync transport holds a single pooled connection and
    ignores it.  Instances are frozen — derive variants with
    :meth:`with_options`.
    """

    caller: Optional[str] = None
    retry_policy: Optional[object] = None
    deadline_s: Optional[float] = None
    breaker: Optional[object] = None
    pool_size: int = 2
    timeout_s: float = 30.0

    def with_options(self, **changes: Any) -> "ClientConfig":
        """A copy with the given fields replaced."""
        return _dc_replace(self, **changes)

    @property
    def resilient(self) -> bool:
        trio = (self.retry_policy, self.deadline_s, self.breaker)
        return any(option is not None for option in trio)


def _typed(fault: SoapFault) -> Exception:
    """The typed exception a wire fault stands for (the fault itself if none)."""
    return exception_from_fault(fault.code, fault.message) or fault


class BulkResult:
    """Deferred outcome of one operation queued on :meth:`MCSClient.bulk`.

    Resolves when the pipeline flushes; until then every accessor raises.
    """

    __slots__ = ("method", "_resolved", "_result", "_error")

    def __init__(self, method: str) -> None:
        self.method = method
        self._resolved = False
        self._result: Any = None
        self._error: Optional[Exception] = None

    def _resolve(self, item: BulkItem) -> None:
        self._resolved = True
        if item.ok:
            self._result = item.result
        else:
            assert item.fault is not None
            self._error = _typed(item.fault)

    def _require_resolved(self) -> None:
        if not self._resolved:
            raise RuntimeError(
                f"bulk operation {self.method!r} not flushed yet; "
                "exit the bulk() context or call flush()"
            )

    @property
    def ok(self) -> bool:
        self._require_resolved()
        return self._error is None

    @property
    def error(self) -> Optional[Exception]:
        self._require_resolved()
        return self._error

    @property
    def result(self) -> Any:
        return self.unwrap()

    def unwrap(self) -> Any:
        """The operation's return value; raises its error if it failed."""
        self._require_resolved()
        if self._error is not None:
            raise self._error
        return self._result


class BulkQueue:
    """The queue behind ``client.bulk()``; the flavours add ``flush``.

    Queueing is synchronous in both flavours (it only builds the
    operation list); the one round trip happens in ``flush`` / at
    context exit.
    """

    def __init__(self, client: "ClientOperations") -> None:
        self._client = client
        self._ops: list[tuple[str, dict[str, Any]]] = []
        self._pending: list[BulkResult] = []

    def call(self, method: str, **args: Any) -> BulkResult:
        """Queue one operation; returns a handle resolved at flush."""
        handle = BulkResult(method)
        self._ops.append((method, self._client._stamp(method, args)))
        self._pending.append(handle)
        return handle

    def __len__(self) -> int:
        return len(self._ops)

    def _drain(self) -> tuple[list[tuple[str, dict[str, Any]]], list[BulkResult]]:
        """Take everything queued so far, leaving the queue empty."""
        ops, handles = self._ops, self._pending
        self._ops, self._pending = [], []
        return ops, handles

    @staticmethod
    def _settle(handles: list[BulkResult], items: list[BulkItem]) -> list[BulkResult]:
        for handle, item in zip(handles, items):
            handle._resolve(item)
        return handles


class BulkContext(BulkQueue):
    """Pipelines queued operations into one ``<BulkRequest>`` round trip.

    Usage::

        with client.bulk() as batch:
            handles = [batch.call("create_logical_file", name=n)
                       for n in names]
        ids = [h.result["id"] for h in handles]

    Queued operations run server-side in order with per-item fault
    isolation (one bad item does not poison the rest); atomicity across
    items is the explicit ``bulk_*`` APIs' job, not this pipeline's.
    """

    def flush(self) -> list[BulkResult]:
        """Send queued operations in one round trip; resolve handles."""
        ops, handles = self._drain()
        if not ops:
            return []
        with _span("client.call_bulk", n=str(len(ops))):
            items = self._client._transport.call_bulk(ops)
        return self._settle(handles, items)

    def __enter__(self) -> "BulkContext":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            self.flush()


def _attribute_defs(wire: list[dict]) -> list[AttributeDef]:
    return [AttributeDef.from_dict(d) for d in wire]


class ClientOperations:
    """Every client operation, declared once for both flavours.

    A flavour supplies ``_call(method, **args)`` (the result, or an
    awaitable of it), ``_then(outcome, fn)`` (apply *fn* to what
    ``_call`` produced), its transports and its bulk context.  Return
    annotations name the resolved value; on
    :class:`~repro.core.aclient.AsyncMCSClient` each operation returns
    an awaitable of it.  Which operations are idempotent reads, retried
    freely, is the ``read`` column of :data:`repro.core.operations.OPERATIONS`.
    """

    _direct_transport: Callable[..., Any]
    _resilient_transport: Callable[..., Any]
    _bulk_context: Callable[..., Any]
    _http_transport: Callable[..., Any]
    _call: Callable[..., Any]
    _then: Callable[..., Any]

    def __init__(
        self,
        transport: Any,
        caller: Optional[str] = None,
        gsi_context: Optional[Any] = None,
        cas_assertion: Optional[dict] = None,
    ) -> None:
        self._transport = transport
        self.caller = caller
        self._gsi = gsi_context
        self._cas = cas_assertion

    # -- constructors ----------------------------------------------------------

    @classmethod
    def in_process(
        cls,
        service: Any,
        config: Optional[ClientConfig] = None,
        *,
        caller: Optional[str] = None,
    ) -> Any:
        """Bind directly to an MCSService — no SOAP, no socket.

        The config's resilience options apply as for :meth:`connect`;
        useful under fault injection, where even in-process calls can
        fail.  The async flavour runs the synchronous handler on the
        loop's default executor with the calling task's context, so
        deadlines and traces behave as they do over the wire.
        """
        cfg = config if config is not None else ClientConfig()
        return cls._over(cls._direct_transport(service.handle), "inproc", cfg, caller)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        config: Optional[ClientConfig] = None,
        *,
        caller: Optional[str] = None,
    ) -> Any:
        """Connect over SOAP/HTTP.

        All construction options travel in one :class:`ClientConfig`;
        ``caller=`` is shorthand for ``ClientConfig(caller=...)``.  The
        async flavour shares ``config.pool_size`` keep-alive connections
        among all concurrent tasks using the client.
        """
        cfg = config if config is not None else ClientConfig()
        transport = cls._http_transport(host, port, cfg)
        return cls._over(transport, f"{host}:{port}", cfg, caller)

    @classmethod
    def _over(
        cls, transport: Any, endpoint: str, cfg: ClientConfig, caller: Optional[str]
    ) -> Any:
        """A client on *transport*, wrapped resilient if *cfg* asks for it."""
        if cfg.resilient:
            transport = cls._resilient_transport(
                transport,
                policy=cfg.retry_policy,
                breaker=cfg.breaker,
                endpoint=endpoint,
                is_idempotent=is_read_method,
                deadline_s=cfg.deadline_s,
            )
        return cls(transport, caller=cfg.caller if caller is None else caller)

    # -- call plumbing -----------------------------------------------------------

    def _stamp(self, method: str, args: dict[str, Any]) -> dict[str, Any]:
        """Attach caller identity / CAS / GSI credentials to a request."""
        if self.caller is not None:
            args.setdefault("caller", self.caller)
        if self._cas is not None:
            args.setdefault("cas", self._cas)
        if self._gsi is not None:
            from repro.core.service import canonical_payload, token_to_dict

            token = self._gsi.sign_request(canonical_payload(method, args))
            args["auth"] = token_to_dict(token)
        return args

    def bulk(self) -> Any:
        """Open a pipelined batch: queue calls, flush in one round trip."""
        return self._bulk_context(self)

    # -- Files ---------------------------------------------------------------------

    def create_logical_file(
        self,
        name: str,
        version: int = 1,
        data_type: Optional[str] = None,
        collection: Optional[str] = None,
        container_id: Optional[str] = None,
        container_service: Optional[str] = None,
        master_copy: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> dict:
        """Create a logical file, optionally with user-defined attributes."""
        return self._call(
            "create_logical_file",
            name=name,
            version=version,
            data_type=data_type,
            collection=collection,
            container_id=container_id,
            container_service=container_service,
            master_copy=master_copy,
            audit_enabled=audit_enabled,
            attributes=attributes,
        )

    def get_logical_file(self, name: str, version: Optional[int] = None) -> dict:
        """Static (predefined) attributes of a logical file."""
        return self._call("get_logical_file", name=name, version=version)

    def modify_logical_file(
        self, name: str, version: Optional[int] = None, **changes: Any
    ) -> bool:
        """Change static attributes of a logical file (``field=value``)."""
        return self._call(
            "modify_logical_file", name=name, version=version, changes=changes
        )

    def delete_logical_file(self, name: str, version: Optional[int] = None) -> bool:
        """Delete a logical file (one version, or the only one)."""
        return self._call("delete_logical_file", name=name, version=version)

    def invalidate_logical_file(self, name: str, version: Optional[int] = None) -> bool:
        """Mark a file invalid: ``modify_logical_file(..., valid=False)``."""
        return self.modify_logical_file(name, version, valid=False)

    def move_file_to_collection(
        self, name: str, collection: Optional[str], version: Optional[int] = None
    ) -> bool:
        """Move a file into *collection* (``None`` detaches it)."""
        return self._call(
            "move_file_to_collection", name=name, collection=collection, version=version
        )

    def list_versions(self, name: str) -> list[int]:
        """The version numbers registered under a logical name."""
        return self._call("list_versions", name=name)

    # -- Bulk operations (single transaction server-side) --------------------------

    def bulk_create_files(
        self, entries: Sequence[dict[str, Any]], atomic: bool = True
    ) -> dict:
        """Create many files in one call and one server transaction.

        Each entry holds :meth:`create_logical_file` keyword arguments.
        Returns ``{"items": [...], "ok": n}`` with one wire item per
        entry; with ``atomic=True`` any failure raises instead (nothing
        committed).
        """
        return self._call("bulk_create_files", entries=list(entries), atomic=atomic)

    def bulk_set_attributes(
        self, items: Sequence[dict[str, Any]], atomic: bool = True
    ) -> dict:
        """Set attributes on many objects in one call and transaction."""
        return self._call("bulk_set_attributes", items=list(items), atomic=atomic)

    def bulk_query(self, queries: Sequence[ObjectQuery | dict]) -> dict:
        """Run many discovery queries in one round trip."""
        wire = [
            _query_to_dict(q) if isinstance(q, ObjectQuery) else q
            for q in queries
        ]
        return self._call("bulk_query", queries=wire)

    # -- User-defined attributes ---------------------------------------------------

    def define_attribute(
        self,
        name: str,
        value_type: str,
        object_types: Optional[Sequence[str]] = None,
        description: Optional[str] = None,
    ) -> int:
        """Define a user attribute (``object_types=None``: any); returns its id."""
        return self._call(
            "define_attribute",
            name=name,
            value_type=value_type,
            object_types=list(object_types) if object_types else None,
            description=description,
        )

    def list_attribute_defs(self) -> list[AttributeDef]:
        """All user-defined attributes, as typed :class:`AttributeDef` records.

        The wire carries :meth:`AttributeDef.to_dict` dicts; this rebuilds
        the dataclasses so callers see the same shape the catalog returns.
        """
        return self._then(self._call("list_attribute_defs"), _attribute_defs)

    def set_attributes(
        self,
        object_type: str,
        name: str,
        attributes: dict[str, Any],
        version: Optional[int] = None,
    ) -> bool:
        """Set user-defined attribute values on a file, collection or view."""
        return self._call(
            "set_attributes",
            object_type=object_type,
            name=name,
            attributes=attributes,
            version=version,
        )

    def get_attributes(
        self, object_type: str, name: str, version: Optional[int] = None
    ) -> dict[str, Any]:
        """Return the object's user-defined attributes as ``{name: value}``.

        Values are typed per the attribute definitions (the SOAP codec
        round-trips dates/times), so the direct and HTTP transports
        return the same shapes.
        """
        return self._call(
            "get_attributes", object_type=object_type, name=name, version=version
        )

    def remove_attribute(
        self, object_type: str, name: str, attribute: str, version: Optional[int] = None
    ) -> bool:
        """Remove one user-defined attribute value from an object."""
        return self._call(
            "remove_attribute",
            object_type=object_type,
            name=name,
            attribute=attribute,
            version=version,
        )

    # -- Queries -------------------------------------------------------------------

    def query(self, query: ObjectQuery) -> list[str]:
        """Attribute-based discovery: returns matching logical names."""
        return self._call("query", query=_query_to_dict(query))

    def explain_query(self, query: ObjectQuery) -> list[str]:
        """The physical plan the query would execute (one line per step)."""
        return self._call("explain_query", query=_query_to_dict(query))

    def query_mql(self, text: str) -> list[str]:
        """Run one MQL statement, e.g. ``files where run = 7 limit 10``.

        The full language (dataset algebra included) is documented in
        INTERNALS.md; syntax errors raise :class:`repro.core.errors.QueryError`
        subclasses carrying line/column and a caret snippet.
        """
        return self._call("query_mql", text=text)

    def explain_mql(self, text: str) -> list[str]:
        """Strategy choice, cost model and algebra for an MQL statement."""
        return self._call("explain_mql", text=text)

    # -- Collections ---------------------------------------------------------------

    def create_collection(
        self,
        name: str,
        parent: Optional[str] = None,
        description: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        """Create a logical collection (under *parent*); returns its id."""
        return self._call(
            "create_collection",
            name=name,
            parent=parent,
            description=description,
            audit_enabled=audit_enabled,
            attributes=attributes,
        )

    def delete_collection(self, name: str) -> bool:
        """Delete an empty logical collection."""
        return self._call("delete_collection", name=name)

    def list_collection(self, name: str) -> list[str]:
        """Names of the logical files in a collection."""
        return self._call("list_collection", name=name)

    def list_subcollections(self, name: str) -> list[str]:
        """Names of a collection's direct child collections."""
        return self._call("list_subcollections", name=name)

    def set_collection_parent(self, name: str, parent: Optional[str]) -> bool:
        """Re-parent a collection (``None`` makes it top-level)."""
        return self._call("set_collection_parent", name=name, parent=parent)

    # -- Views ---------------------------------------------------------------------

    def create_view(
        self,
        name: str,
        description: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        """Create a logical view; returns its id."""
        return self._call(
            "create_view",
            name=name,
            description=description,
            audit_enabled=audit_enabled,
            attributes=attributes,
        )

    def delete_view(self, name: str) -> bool:
        """Delete a logical view (its members are untouched)."""
        return self._call("delete_view", name=name)

    def add_to_view(
        self,
        view: str,
        files: Sequence[str] = (),
        collections: Sequence[str] = (),
        views: Sequence[str] = (),
    ) -> bool:
        """Add logical files, collections and/or views to a view."""
        return self._call(
            "add_to_view",
            view=view,
            files=list(files),
            collections=list(collections),
            views=list(views),
        )

    def remove_from_view(
        self,
        view: str,
        files: Sequence[str] = (),
        collections: Sequence[str] = (),
        views: Sequence[str] = (),
    ) -> bool:
        """Remove logical files, collections and/or views from a view."""
        return self._call(
            "remove_from_view",
            view=view,
            files=list(files),
            collections=list(collections),
            views=list(views),
        )

    def list_view(self, name: str) -> list[dict]:
        """A view's members as ``{"type", "id", "name"}`` dicts."""
        return self._call("list_view", name=name)

    # -- Annotations, provenance, audit --------------------------------------------

    def annotate(
        self, object_type: str, name: str, text: str, version: Optional[int] = None
    ) -> bool:
        """Attach a free-text annotation to a logical object."""
        return self._call(
            "annotate", object_type=object_type, name=name, text=text, version=version
        )

    def get_annotations(
        self, object_type: str, name: str, version: Optional[int] = None
    ) -> list[dict]:
        """A logical object's annotations, oldest first."""
        return self._call(
            "get_annotations", object_type=object_type, name=name, version=version
        )

    def add_transformation(
        self, name: str, description: str, version: Optional[int] = None
    ) -> bool:
        """Record a provenance step (a transformation) on a logical file."""
        return self._call(
            "add_transformation", name=name, description=description, version=version
        )

    def get_transformations(
        self, name: str, version: Optional[int] = None
    ) -> list[dict]:
        """A logical file's recorded transformation history."""
        return self._call("get_transformations", name=name, version=version)

    def audit_log(
        self, object_type: str, name: str, version: Optional[int] = None
    ) -> list[dict]:
        """The audit trail of a logical object (needs ADMIN on it)."""
        return self._call(
            "audit_log", object_type=object_type, name=name, version=version
        )

    # -- Users, catalogs, permissions, misc ----------------------------------------

    def register_user(
        self,
        dn: str,
        description: str = "",
        institution: str = "",
        email: str = "",
        phone: str = "",
    ) -> bool:
        """Register (or update) a user by distinguished name."""
        return self._call(
            "register_user",
            dn=dn,
            description=description,
            institution=institution,
            email=email,
            phone=phone,
        )

    def get_user(self, dn: str) -> dict:
        """The registered contact details of a user."""
        return self._call("get_user", dn=dn)

    def register_external_catalog(
        self, name: str, catalog_type: str, host: str, port: int, description: str = ""
    ) -> bool:
        """Record where an external catalog (e.g. a replica service) lives."""
        return self._call(
            "register_external_catalog",
            name=name,
            catalog_type=catalog_type,
            host=host,
            port=port,
            description=description,
        )

    def list_external_catalogs(self) -> list[dict]:
        """Every registered external catalog."""
        return self._call("list_external_catalogs")

    def set_permissions(
        self,
        object_type: str,
        name: Optional[str],
        principal: str,
        permissions: Sequence[str],
    ) -> bool:
        """Grant *principal* exactly *permissions* on an object.

        ``name=None`` addresses the service-level ACL; principal ``"*"``
        is everyone.
        """
        return self._call(
            "set_permissions",
            object_type=object_type,
            name=name,
            principal=principal,
            permissions=list(permissions),
        )

    def get_permissions(self, object_type: str, name: Optional[str] = None) -> dict:
        """An object's ACL as ``{principal: [permission names]}``."""
        return self._call("get_permissions", object_type=object_type, name=name)

    def stats(self) -> dict:
        """Catalog row counts plus cache and metrics snapshots."""
        return self._call("stats")

    def ping(self) -> str:
        """Liveness check; answers ``"pong"``."""
        return self._call("ping")


#: Wire methods that are idempotent reads.  The resilience layer retries
#: these freely; anything not listed is treated as a write and only
#: retried under a server-deduplicated idempotency token.
READ_METHODS = frozenset(row.name for row in OPERATIONS if row.read)


def is_read_method(method: str) -> bool:
    """True for idempotent (freely retryable) wire methods."""
    return method in READ_METHODS


class MCSClient(ClientOperations):
    """Synchronous MCS client over a pluggable transport."""

    _direct_transport = DirectTransport
    _resilient_transport = ResilientTransport
    _bulk_context = BulkContext

    @staticmethod
    def _http_transport(host: str, port: int, config: ClientConfig) -> Transport:
        return HttpTransport(host, port, timeout=config.timeout_s)

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "MCSClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _call(self, method: str, **args: Any) -> Any:
        args = self._stamp(method, args)
        # Root span: mints the request id that rides the SOAP header so
        # server-side spans and logs correlate with this call.
        with _span("client.call", method=method):
            try:
                return self._transport.call(method, args)
            except SoapFault as fault:
                raise _typed(fault) from None

    @staticmethod
    def _then(outcome: Any, fn: Callable[[Any], Any]) -> Any:
        return fn(outcome)


def _wire_conditions(conditions: Sequence[Any]) -> list[dict]:
    return [
        {
            "attribute": c.attribute,
            "op": c.op,
            "value": list(c.value) if isinstance(c.value, tuple) else c.value,
        }
        for c in conditions
    ]


def _query_to_dict(query: ObjectQuery) -> dict:
    return {
        "object_type": query.object_type.value,
        "conditions": _wire_conditions(query.conditions),
        "predefined": _wire_conditions(query.predefined),
        "collection": query.collection,
        "valid_only": query.valid_only,
        "limit": query.max_results,
        "offset": query.skip_results,
        "order_by": list(query.order) if query.order is not None else None,
    }
