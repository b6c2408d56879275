"""MCSService: the policy-enforcing request dispatcher.

This is the "MCS Server" box of the paper's Figure 4: it receives decoded
SOAP calls (``method`` + ``args`` dict), establishes the caller's
identity (GSI token, CAS assertion, or plain caller string in open mode),
checks authorization, performs the catalog operation, and records audit
metadata.

Authorization granularity is a policy knob (§3: "ranging from providing
access to the entire contents of the service to restricting access on
individual mappings"):

* ``granularity="none"``   — open service (the configuration benchmarked
  in §7, where all requests are trusted);
* ``granularity="service"``— one ACL for the whole catalog;
* ``granularity="object"`` — per-object ACLs with the paper's union rule
  up the collection hierarchy.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import inspect
import json
import threading
import time
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from repro.core.catalog import MetadataCatalog
from repro.core.errors import (
    BadRequestError,
    MCSError,
    NoSuchMethodError,
    NotAuthenticatedError,
    PermissionDeniedError,
    QueryError,
    fault_code_for,
)
from repro.core.model import ExternalCatalog, ObjectType, UserInfo
from repro.core.operations import BY_NAME, Operation
from repro.core.query import ObjectQuery
from repro.db.errors import DatabaseError
from repro.security.acl import Permission, effective_permissions
from repro.security.cas import CapabilityAssertion, PolicyRule, verify_assertion
from repro.security.errors import (
    AuthenticationError,
    CertificateError,
    SecurityError,
)
from repro.security.gsi import AuthToken, Certificate, GSIContext
from repro.security import rsa
from repro.security.identity import DistinguishedName
from repro.obs import trace as _trace
from repro.obs.metrics import (
    OBS,
    counter as _obs_counter,
    get_registry,
    histogram as _obs_histogram,
)
from repro.soap.envelope import SoapFault
from repro.soap.wsdl import ServiceDescription

ANONYMOUS = "anonymous"

_CATALOG_CALLS = _obs_counter(
    "mcs_catalog_calls_total",
    "Catalog API calls dispatched, per operation and outcome",
    labels=("operation", "status"),
)
_CATALOG_OP_SECONDS = _obs_histogram(
    "mcs_catalog_op_seconds",
    "Catalog API call latency (authn + authz + operation), per operation",
    labels=("operation",),
)
_AUTHZ_SECONDS = _obs_histogram(
    "mcs_catalog_authz_seconds",
    "Authorization-check time (granularity != 'none' only)",
)
_BULK_BATCH_SIZE = _obs_histogram(
    "mcs_catalog_bulk_batch_size",
    "Items per explicit bulk_* service call",
    labels=("operation",),
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)
_BULK_ITEMS = _obs_counter(
    "mcs_catalog_bulk_items_total",
    "Per-item outcomes of explicit bulk_* service calls",
    labels=("operation", "status"),
)
_BULK_ITEM_SECONDS = _obs_histogram(
    "mcs_catalog_bulk_item_seconds",
    "Batch latency divided by item count — compare against the "
    "per-operation mcs_catalog_op_seconds to see the batching win",
    labels=("operation",),
)

# Per-operation metric children + span name, resolved once per method name
# (the dispatch path is the service's hot path).  Hits stay lock-free;
# only the one-time insert per method takes the guard (MCS015).
_OP_METRICS: dict[str, tuple] = {}
_OP_METRICS_GUARD = threading.Lock()


def _op_metrics(method: str) -> tuple:
    entry = _OP_METRICS.get(method)
    if entry is None:
        with _OP_METRICS_GUARD:
            entry = _OP_METRICS.get(method)
            if entry is None:
                entry = (
                    f"catalog.{method}",
                    _CATALOG_OP_SECONDS.labels(method),
                    _CATALOG_CALLS.labels(method, "ok"),
                    _CATALOG_CALLS.labels(method, "fault"),
                )
                _OP_METRICS[method] = entry
    return entry


def canonical_payload(method: str, args: dict[str, Any]) -> bytes:
    """Stable byte encoding of a request, used for GSI token signing."""

    def default(value: Any) -> str:
        if isinstance(value, (_dt.date, _dt.time, _dt.datetime)):
            return value.isoformat()
        return str(value)

    filtered = {k: v for k, v in args.items() if k not in ("auth", "cas")}
    return json.dumps([method, filtered], sort_keys=True, default=default).encode()


# --------------------------------------------------------------------------
# Credential (de)serialization for transport through SOAP structs
# --------------------------------------------------------------------------


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "subject": str(cert.subject),
        "issuer": str(cert.issuer),
        "public_key": cert.public_key.to_text(),
        "serial": cert.serial,
        "not_before": cert.not_before,
        "not_after": cert.not_after,
        "is_ca": cert.is_ca,
        "is_proxy": cert.is_proxy,
        "signature": hex(cert.signature),
    }


def certificate_from_dict(data: dict) -> Certificate:
    return Certificate(
        subject=DistinguishedName.parse(data["subject"]),
        issuer=DistinguishedName.parse(data["issuer"]),
        public_key=rsa.PublicKey.from_text(data["public_key"]),
        serial=int(data["serial"]),
        not_before=float(data["not_before"]),
        not_after=float(data["not_after"]),
        is_ca=bool(data["is_ca"]),
        is_proxy=bool(data["is_proxy"]),
        signature=int(data["signature"], 16),
    )


def token_to_dict(token: AuthToken) -> dict:
    return {
        "chain": [certificate_to_dict(c) for c in token.chain],
        "timestamp": token.timestamp,
        "digest": token.payload_digest,
        "signature": hex(token.signature),
    }


def token_from_dict(data: dict) -> AuthToken:
    return AuthToken(
        chain=tuple(certificate_from_dict(c) for c in data["chain"]),
        timestamp=float(data["timestamp"]),
        payload_digest=data["digest"],
        signature=int(data["signature"], 16),
    )


def assertion_to_dict(assertion: CapabilityAssertion) -> dict:
    return {
        "community": assertion.community,
        "user": str(assertion.user),
        "rules": [
            {
                "pattern": rule.object_pattern,
                "permissions": [p.name for p in Permission if p in rule.permissions and p.name],
            }
            for rule in assertion.rules
        ],
        "issued": assertion.issued,
        "expires": assertion.expires,
        "signature": hex(assertion.signature),
    }


def assertion_from_dict(data: dict) -> CapabilityAssertion:
    rules = tuple(
        PolicyRule(
            rule["pattern"],
            frozenset(Permission[p] for p in rule["permissions"]),
        )
        for rule in data["rules"]
    )
    return CapabilityAssertion(
        community=data["community"],
        user=DistinguishedName.parse(data["user"]),
        rules=rules,
        issued=float(data["issued"]),
        expires=float(data["expires"]),
        signature=int(data["signature"], 16),
    )


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------


class Touched(NamedTuple):
    """An object an audited operation acted on: such a body returns
    ``(wire result, [Touched, ...])`` and the dispatcher records the row's
    action on each.  ``name`` and ``version`` are required because they are
    what lets a sharded catalog put the record on the owning backend."""

    object_id: int
    audit_enabled: bool
    name: str
    version: Optional[int]
    detail: str = ""


class MCSService:
    """Dispatches decoded requests against a :class:`MetadataCatalog`."""

    def __init__(
        self,
        catalog: Optional[MetadataCatalog] = None,
        granularity: str = "none",
        gsi_context: Optional[GSIContext] = None,
        trusted_cas: tuple[Certificate, ...] = (),
        audit_default: bool = False,
    ) -> None:
        if granularity not in ("none", "service", "object"):
            raise ValueError(f"unknown granularity {granularity!r}")
        self.catalog = catalog if catalog is not None else MetadataCatalog()
        self.granularity = granularity
        self.gsi = gsi_context
        self.trusted_cas = trusted_cas
        self.audit_default = audit_default
        self._methods = self._paired_methods()

    # -- SOAP integration -----------------------------------------------------

    def handle(self, method: str, args: dict[str, Any]) -> Any:
        """Entry point for transports: authn → authz → operate → audit."""
        span_name, op_seconds, ok_calls, fault_calls = _op_metrics(method)
        if not OBS.enabled:
            try:
                result = self._dispatch(method, args)
            except Exception:
                fault_calls.inc()
                raise
            ok_calls.inc()
            return result
        active = _trace.current_span()
        if active is not None and active.name != "soap.server":
            # In-process caller (direct/loopback): its client.call span
            # already traces this request — a nested span would double the
            # hot-path cost for no extra information.  Keep the histogram.
            # The server's own soap.server dispatch span does NOT suppress
            # the catalog span: there the nesting is the point — it is what
            # separates catalog time from codec/queue time in a waterfall.
            start = time.perf_counter()
            try:
                result = self._dispatch(method, args)
            except Exception:
                fault_calls.inc()
                op_seconds.observe(time.perf_counter() - start)
                raise
            ok_calls.inc()
            op_seconds.observe(time.perf_counter() - start)
            return result
        # When tracing is toggled off the span records nothing and its
        # duration stays None — keep the histogram fed either way.
        s = _trace.span(span_name)
        start = time.perf_counter()
        try:
            with s:
                result = self._dispatch(method, args)
        except Exception:
            fault_calls.inc()
            op_seconds.observe(
                s.duration
                if s.duration is not None
                else time.perf_counter() - start
            )
            raise
        ok_calls.inc()
        op_seconds.observe(
            s.duration if s.duration is not None else time.perf_counter() - start
        )
        return result

    def _dispatch(self, method: str, args: dict[str, Any]) -> Any:
        """The one place an :class:`Operation` row becomes checks and audits."""
        entry = self._methods.get(method)
        if entry is None:
            raise SoapFault(
                NoSuchMethodError.fault_code, f"unknown method {method!r}"
            )
        row, body = entry
        try:
            caller, assertion = self._authenticate(method, args)
        except (MCSError, SecurityError, DatabaseError) as exc:
            raise SoapFault(fault_code_for(exc), str(exc)) from exc
        call_args = {k: v for k, v in args.items() if k not in ("auth", "cas", "caller")}
        try:
            if row.permission is None or self.granularity == "none":
                result = body(caller=caller, **call_args)
            elif row.per_version and self.granularity == "object":
                result = self._permitted_versions(
                    row, body, caller, assertion, call_args
                )
            else:
                seen: set[tuple] = set()
                self._check(row, caller, assertion, (call_args,), seen)
                if row.each is not None and self.granularity == "object":
                    # Below object granularity every item's target is the
                    # service ACL, which the row's own check just passed.
                    items_arg, item_operation = row.each
                    self._check(
                        BY_NAME[item_operation], caller, assertion,
                        call_args.get(items_arg) or (), seen,
                    )
                result = body(caller=caller, **call_args)
            if row.audit is not None:
                result, touched = result
                action, object_type = row.audit
                for obj in touched:
                    if obj.audit_enabled or self.audit_default:
                        self.catalog.record_audit(
                            object_type, obj.object_id, action, obj.detail,
                            caller, name=obj.name, version=obj.version,
                        )
            return result
        except (MCSError, SecurityError, DatabaseError) as exc:
            # DatabaseError rides the same central table: LockTimeout →
            # MCS.Busy, ProgrammingError → MCS.Query, rest → MCS.Storage
            raise SoapFault(fault_code_for(exc), str(exc)) from exc
        except TypeError as exc:
            raise SoapFault(BadRequestError.fault_code, str(exc)) from exc

    def fault_mapper(self, exc: Exception) -> Optional[SoapFault]:
        """Shared fault translation (the table in :mod:`repro.core.errors`)."""
        code = fault_code_for(exc)
        return SoapFault(code, str(exc)) if code is not None else None

    def description(self) -> ServiceDescription:
        """The WSDL-level description: each ``op_*`` with its wire parameters."""
        desc = ServiceDescription("MetadataCatalogService")
        for name in sorted(self._methods):
            signature = inspect.signature(self._methods[name][1])
            desc.add(name, tuple(p for p in signature.parameters if p != "caller"))
        return desc

    # -- authentication ---------------------------------------------------------

    def _authenticate(
        self, method: str, args: dict[str, Any]
    ) -> tuple[str, Optional[CapabilityAssertion]]:
        assertion: Optional[CapabilityAssertion] = None
        if "cas" in args and args["cas"] is not None:
            assertion = assertion_from_dict(args["cas"])
            verify_assertion(assertion, self.trusted_cas)
        if self.gsi is not None:
            token_data = args.get("auth")
            if token_data is None:
                if self.granularity == "none":
                    return str(args.get("caller") or ANONYMOUS), assertion
                raise NotAuthenticatedError(f"method {method!r} requires GSI credentials")
            token = token_from_dict(token_data)
            try:
                identity = self.gsi.authenticate(
                    token, canonical_payload(method, args)
                )
            except (AuthenticationError, CertificateError) as exc:
                raise NotAuthenticatedError(str(exc)) from exc
            if assertion is not None and str(assertion.user) != str(identity):
                raise NotAuthenticatedError(
                    "CAS assertion subject does not match authenticated identity"
                )
            return str(identity), assertion
        return str(args.get("caller") or ANONYMOUS), assertion

    # -- authorization ------------------------------------------------------------

    def _targets(self, row: Operation, args: dict[str, Any]) -> Iterator[tuple]:
        """The ``(permission, kind, name, version)`` checks *row* asks of
        one request's — or one bulk item's — arguments."""
        if isinstance(row.on, ObjectType):
            kind = row.on
        else:
            kind = ObjectType(args.get(row.on, ObjectType.FILE))
        if kind is ObjectType.SERVICE:
            yield row.permission, kind, None, None
        else:
            yield row.permission, kind, args.get(row.name_arg), args.get("version")
        if row.destination is not None and self.granularity == "object":
            destination = args.get(row.destination)
            if destination is not None:
                yield Permission.WRITE, ObjectType.COLLECTION, destination, None

    def _check(
        self,
        row: Operation,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        argument_sets: Iterable[dict[str, Any]],
        seen: set[tuple],
    ) -> None:
        """Apply *row*'s rule to each argument set, each distinct target once."""
        for args in argument_sets:
            for target in self._targets(row, args):
                if target in seen:
                    continue
                seen.add(target)
                start = time.perf_counter() if OBS.enabled else 0.0
                try:
                    self._check_inner(caller, *target, assertion)
                finally:
                    if OBS.enabled:
                        _AUTHZ_SECONDS.observe(time.perf_counter() - start)

    def _permitted_versions(
        self,
        row: Operation,
        body: Callable[..., list[int]],
        caller: str,
        assertion: Optional[CapabilityAssertion],
        args: dict[str, Any],
    ) -> list[int]:
        """A ``per_version`` row under object granularity: the body's
        versions that pass the row's check, denied only if none does.  With
        fewer than two there is nothing to choose between and the name is
        checked as it stands (an unknown name faults as it does elsewhere)."""
        versions = body(caller=caller, **args)
        if len(versions) < 2:
            self._check(row, caller, assertion, (args,), set())
            return versions
        permitted: list[int] = []
        for version in versions:
            try:
                self._check(
                    row, caller, assertion, ({**args, "version": version},), set()
                )
            except PermissionDeniedError as exc:
                denied = exc
            else:
                permitted.append(version)
        if not permitted:
            raise denied
        return permitted

    def _check_inner(
        self,
        caller: str,
        permission: Permission,
        object_type: ObjectType,
        name: Optional[str],
        version: Optional[int],
        assertion: Optional[CapabilityAssertion],
    ) -> None:
        (service_acl,) = self.catalog.acl_chain(ObjectType.SERVICE, None)
        granted = service_acl.permissions_for(caller)
        if self.granularity == "object" and object_type is not ObjectType.SERVICE and name:
            own_acl, *enclosing = self.catalog.acl_chain(object_type, name, version)
            granted |= effective_permissions(caller, own_acl, enclosing)
        if assertion is not None and name:
            for perm in (p for p in Permission if p.name and p.value):
                if assertion.grants(name, perm):
                    granted |= perm
        if permission not in granted:
            raise PermissionDeniedError(
                f"{caller} lacks {permission} on "
                f"{object_type.value}{'' if not name else ' ' + name}"
            )

    # -- method registration ---------------------------------------------------------

    def _paired_methods(self) -> dict[str, tuple[Operation, Callable[..., Any]]]:
        """Every :data:`OPERATIONS` row with its ``op_*`` body."""
        prefix = "op_"
        bodies = {
            attr[len(prefix):]: getattr(self, attr)
            for attr in dir(self)
            if attr.startswith(prefix)
        }
        if bodies.keys() != BY_NAME.keys():
            raise TypeError(
                "OPERATIONS rows and op_* bodies disagree on "
                f"{sorted(bodies.keys() ^ BY_NAME.keys())}"
            )
        return {name: (row, bodies[name]) for name, row in BY_NAME.items()}

    # ======================================================================
    # Logical file operations
    # ======================================================================
    #
    # A body adapts wire arguments, calls the catalog and encodes the
    # answer.  Its authorization and audit rules are its OPERATIONS row.

    def op_create_logical_file(
        self,
        caller: str,
        name: str,
        version: int = 1,
        data_type: Optional[str] = None,
        collection: Optional[str] = None,
        container_id: Optional[str] = None,
        container_service: Optional[str] = None,
        master_copy: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> tuple[dict, list[Touched]]:
        file_id = self.catalog.create_file(
            name,
            version=version,
            data_type=data_type,
            collection=collection,
            container_id=container_id,
            container_service=container_service,
            master_copy=master_copy,
            creator=caller,
            audit_enabled=audit_enabled,
            attributes=attributes,
        )
        touched = Touched(file_id, audit_enabled, name, version, f"name={name}")
        return {"id": file_id, "name": name, "version": version}, [touched]

    def op_get_logical_file(
        self, caller: str, name: str, version: Optional[int] = None
    ) -> tuple[dict, list[Touched]]:
        file = self.catalog.get_file(name, version)
        touched = Touched(file.id, file.audit_enabled, file.name, file.version)
        return dataclasses.asdict(file), [touched]

    def op_modify_logical_file(
        self,
        caller: str,
        name: str,
        version: Optional[int] = None,
        changes: Optional[dict[str, Any]] = None,
    ) -> tuple[bool, list[Touched]]:
        self.catalog.update_file(name, version, modifier=caller, **(changes or {}))
        file = self.catalog.get_file(name, version)
        detail = json.dumps(changes or {}, default=str)
        touched = Touched(file.id, file.audit_enabled, file.name, file.version, detail)
        return True, [touched]

    def op_delete_logical_file(
        self, caller: str, name: str, version: Optional[int] = None
    ) -> tuple[bool, list[Touched]]:
        file = self.catalog.get_file(name, version)
        self.catalog.delete_file(name, version)
        return True, [Touched(file.id, file.audit_enabled, file.name, file.version)]

    def op_move_file_to_collection(
        self,
        caller: str,
        name: str,
        collection: Optional[str] = None,
        version: Optional[int] = None,
    ) -> bool:
        self.catalog.move_file_to_collection(name, collection, version, caller)
        return True

    def op_list_versions(self, caller: str, name: str) -> list[int]:
        return self.catalog.list_versions(name)

    # ======================================================================
    # User-defined attributes
    # ======================================================================

    def op_define_attribute(
        self,
        caller: str,
        name: str,
        value_type: str,
        object_types: Optional[list[str]] = None,
        description: Optional[str] = None,
    ) -> int:
        types = (
            tuple(ObjectType(t) for t in object_types)
            if object_types
            else (ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW)
        )
        return self.catalog.define_attribute(
            name, value_type, types, description, creator=caller
        )

    def op_list_attribute_defs(self, caller: str) -> list[dict]:
        return [d.to_dict() for d in self.catalog.list_attribute_defs()]

    def op_set_attributes(
        self,
        caller: str,
        object_type: str,
        name: str,
        attributes: dict[str, Any],
        version: Optional[int] = None,
    ) -> bool:
        self.catalog.set_attributes(ObjectType(object_type), name, attributes, version)
        return True

    def op_get_attributes(
        self, caller: str, object_type: str, name: str, version: Optional[int] = None
    ) -> dict[str, Any]:
        return self.catalog.get_attributes(ObjectType(object_type), name, version)

    def op_remove_attribute(
        self,
        caller: str,
        object_type: str,
        name: str,
        attribute: str,
        version: Optional[int] = None,
    ) -> bool:
        self.catalog.remove_attribute(ObjectType(object_type), name, attribute, version)
        return True

    # ======================================================================
    # Queries
    # ======================================================================

    def op_query(self, caller: str, query: dict[str, Any]) -> list[str]:
        return self.catalog.query(_query_from_dict(query))

    def op_explain_query(self, caller: str, query: dict[str, Any]) -> list[str]:
        """Physical plan of an attribute query — for operators/tuning."""
        return self.catalog.explain_query(_query_from_dict(query))

    def op_query_mql(self, caller: str, text: str) -> list[str]:
        """Run one MQL statement; syntax errors fault as MCS.Query."""
        return self.catalog.query_mql(text)

    def op_explain_mql(self, caller: str, text: str) -> list[str]:
        """Per-leaf strategy, condition order and estimates for one MQL statement."""
        return self.catalog.explain_mql(text)

    # ======================================================================
    # Bulk operations
    # ======================================================================
    #
    # Explicit batch handlers: authorization runs once per distinct
    # object (the row's ``each``), the catalog executes the batch in one
    # transaction, and every item's outcome comes back as a wire dict —
    # ``{"ok": True, "result": ...}`` or ``{"ok": False, "code": ...,
    # "message": ...}``.  With ``atomic=True`` a failing item raises a
    # single batch-level fault instead (nothing was committed).

    @staticmethod
    def _bulk_item_error(exc: Exception) -> dict:
        code = fault_code_for(exc)
        if code is not None:
            return {"ok": False, "code": code, "message": str(exc)}
        return {
            "ok": False,
            "code": "Server",
            "message": f"{type(exc).__name__}: {exc}",
        }

    def _bulk_reply(
        self, operation: str, outcomes: list[tuple[bool, Any]], start: float
    ) -> dict:
        """Per-item outcomes in wire form, the batch metrics observed."""
        items = [
            {"ok": True, "result": value} if ok else self._bulk_item_error(value)
            for ok, value in outcomes
        ]
        ok = sum(1 for item in items if item["ok"])
        if OBS.enabled and items:
            elapsed = time.perf_counter() - start
            _BULK_BATCH_SIZE.labels(operation).observe(len(items))
            _BULK_ITEM_SECONDS.labels(operation).observe(elapsed / len(items))
            if ok:
                _BULK_ITEMS.labels(operation, "ok").inc(ok)
            if len(items) - ok:
                _BULK_ITEMS.labels(operation, "fault").inc(len(items) - ok)
        return {"items": items, "ok": ok}

    def op_bulk_create_files(
        self, caller: str, entries: list[dict[str, Any]], atomic: bool = True
    ) -> tuple[dict, list[Touched]]:
        start = time.perf_counter() if OBS.enabled else 0.0
        outcomes = self.catalog.bulk_create_files(
            entries, creator=caller, atomic=atomic
        )
        touched = [
            Touched(
                file_id,
                bool(entry.get("audit_enabled", False)),
                entry["name"],
                int(entry.get("version", 1)),
                f"name={entry['name']} (bulk)",
            )
            for (ok, file_id), entry in zip(outcomes, entries)
            if ok
        ]
        outcomes = [(ok, {"id": value} if ok else value) for ok, value in outcomes]
        return self._bulk_reply("bulk_create_files", outcomes, start), touched

    def op_bulk_set_attributes(
        self, caller: str, items: list[dict[str, Any]], atomic: bool = True
    ) -> dict:
        start = time.perf_counter() if OBS.enabled else 0.0
        outcomes = self.catalog.bulk_set_attributes(items, atomic=atomic)
        return self._bulk_reply("bulk_set_attributes", outcomes, start)

    def op_bulk_query(self, caller: str, queries: list[dict[str, Any]]) -> dict:
        start = time.perf_counter() if OBS.enabled else 0.0
        outcomes: list[tuple[bool, Any]] = []
        for data in queries:
            try:
                parsed = _query_from_dict(data)
            except Exception as exc:  # noqa: BLE001 - per-item boundary
                outcomes.append((False, exc))
                continue
            outcomes.extend(self.catalog.bulk_query([parsed]))
        return self._bulk_reply("bulk_query", outcomes, start)

    # ======================================================================
    # Collections
    # ======================================================================

    def op_create_collection(
        self,
        caller: str,
        name: str,
        parent: Optional[str] = None,
        description: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> tuple[int, list[Touched]]:
        collection_id = self.catalog.create_collection(
            name, parent, description, creator=caller,
            audit_enabled=audit_enabled, attributes=attributes,
        )
        touched = Touched(collection_id, audit_enabled, name, None, f"name={name}")
        return collection_id, [touched]

    def op_delete_collection(self, caller: str, name: str) -> bool:
        self.catalog.delete_collection(name)
        return True

    def op_list_collection(self, caller: str, name: str) -> list[str]:
        return self.catalog.list_collection(name)

    def op_list_subcollections(self, caller: str, name: str) -> list[str]:
        return self.catalog.list_subcollections(name)

    def op_set_collection_parent(
        self, caller: str, name: str, parent: Optional[str] = None
    ) -> bool:
        self.catalog.set_collection_parent(name, parent)
        return True

    # ======================================================================
    # Views
    # ======================================================================

    def op_create_view(
        self,
        caller: str,
        name: str,
        description: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> tuple[int, list[Touched]]:
        view_id = self.catalog.create_view(
            name, description, creator=caller,
            audit_enabled=audit_enabled, attributes=attributes,
        )
        return view_id, [Touched(view_id, audit_enabled, name, None, f"name={name}")]

    def op_delete_view(self, caller: str, name: str) -> bool:
        self.catalog.delete_view(name)
        return True

    def op_add_to_view(
        self,
        caller: str,
        view: str,
        files: Optional[list[str]] = None,
        collections: Optional[list[str]] = None,
        views: Optional[list[str]] = None,
    ) -> bool:
        self.catalog.add_to_view(
            view, files or (), collections or (), views or ()
        )
        return True

    def op_remove_from_view(
        self,
        caller: str,
        view: str,
        files: Optional[list[str]] = None,
        collections: Optional[list[str]] = None,
        views: Optional[list[str]] = None,
    ) -> bool:
        self.catalog.remove_from_view(
            view, files or (), collections or (), views or ()
        )
        return True

    def op_list_view(self, caller: str, name: str) -> list[dict]:
        return [
            {"type": m.member_type.value, "id": m.member_id, "name": m.name}
            for m in self.catalog.list_view(name)
        ]

    # ======================================================================
    # Annotations, provenance, audit
    # ======================================================================

    def op_annotate(
        self,
        caller: str,
        object_type: str,
        name: str,
        text: str,
        version: Optional[int] = None,
    ) -> bool:
        self.catalog.annotate(ObjectType(object_type), name, text, caller, version)
        return True

    def op_get_annotations(
        self, caller: str, object_type: str, name: str, version: Optional[int] = None
    ) -> list[dict]:
        return [
            {"text": a.text, "creator": a.creator, "created": a.created}
            for a in self.catalog.annotations(ObjectType(object_type), name, version)
        ]

    def op_add_transformation(
        self, caller: str, name: str, description: str, version: Optional[int] = None
    ) -> bool:
        self.catalog.add_transformation(name, description, version)
        return True

    def op_get_transformations(
        self, caller: str, name: str, version: Optional[int] = None
    ) -> list[dict]:
        return [
            {"description": t.description, "created": t.created}
            for t in self.catalog.transformations(name, version)
        ]

    def op_audit_log(
        self, caller: str, object_type: str, name: str, version: Optional[int] = None
    ) -> list[dict]:
        return [
            {
                "action": r.action,
                "detail": r.detail,
                "actor": r.actor,
                "created": r.created,
            }
            for r in self.catalog.audit_log(ObjectType(object_type), name, version)
        ]

    # ======================================================================
    # Users, external catalogs, permissions, misc
    # ======================================================================

    def op_register_user(
        self,
        caller: str,
        dn: str,
        description: str = "",
        institution: str = "",
        email: str = "",
        phone: str = "",
    ) -> bool:
        self.catalog.register_user(UserInfo(dn, description, institution, email, phone))
        return True

    def op_get_user(self, caller: str, dn: str) -> dict:
        return dataclasses.asdict(self.catalog.get_user(dn))

    def op_register_external_catalog(
        self,
        caller: str,
        name: str,
        catalog_type: str,
        host: str,
        port: int,
        description: str = "",
    ) -> bool:
        self.catalog.register_external_catalog(
            ExternalCatalog(name, catalog_type, host, port, description)
        )
        return True

    def op_list_external_catalogs(self, caller: str) -> list[dict]:
        return [dataclasses.asdict(c) for c in self.catalog.list_external_catalogs()]

    def op_set_permissions(
        self,
        caller: str,
        object_type: str,
        name: Optional[str],
        principal: str,
        permissions: list[str],
    ) -> bool:
        bits = Permission.NONE
        for p in permissions:
            bits |= Permission[p.upper()]
        self.catalog.set_permissions(ObjectType(object_type), name, principal, bits)
        return True

    def op_get_permissions(
        self, caller: str, object_type: str, name: Optional[str] = None
    ) -> dict[str, list[str]]:
        acl = self.catalog.get_acl(ObjectType(object_type), name)
        out = {
            principal: [p.name for p in Permission if p.name and p in bits]
            for principal, bits in acl.entries.items()
        }
        if acl.public is not Permission.NONE:
            out["*"] = [p.name for p in Permission if p.name and p in acl.public]
        return out

    def op_stats(self, caller: str) -> dict:
        stats = self.catalog.stats()
        stats["cache"] = self.catalog.cache.stats()
        stats["metrics"] = get_registry().snapshot()
        return stats

    def op_ping(self, caller: str) -> str:
        return "pong"


def _query_from_dict(data: dict[str, Any]) -> ObjectQuery:
    try:
        query = ObjectQuery(
            object_type=ObjectType(data.get("object_type", "file")),
            collection=data.get("collection"),
            valid_only=bool(data.get("valid_only", False)),
        )
        if data.get("limit") is not None:
            query.limit(data["limit"])
        if data.get("offset") is not None:
            query.offset(data["offset"])
        order = data.get("order_by")
        if order:
            fieldname, descending = order
            query.order_by(fieldname, bool(descending))
        for cond in data.get("conditions", []):
            query.where(cond["attribute"], cond["op"], cond["value"])
        for cond in data.get("predefined", []):
            query.where_field(cond["attribute"], cond["op"], cond["value"])
        return query
    except (KeyError, ValueError) as exc:
        raise QueryError(f"malformed query: {exc}") from exc
