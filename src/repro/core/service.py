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

import datetime as _dt
import inspect
import json
import threading
import time
from typing import Any, Callable, Optional

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
from repro.core.model import (
    AttributeType,
    ExternalCatalog,
    ObjectType,
    UserInfo,
)
from repro.core.query import AttributeCondition, ObjectQuery
from repro.db.errors import DatabaseError
from repro.security.acl import AccessControlList, Permission, effective_permissions
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
        self._methods: dict[str, Callable[..., Any]] = {}
        self._register_methods()

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
        handler = self._methods.get(method)
        if handler is None:
            raise SoapFault(
                NoSuchMethodError.fault_code, f"unknown method {method!r}"
            )
        try:
            caller, assertion = self._authenticate(method, args)
        except (MCSError, SecurityError, DatabaseError) as exc:
            raise SoapFault(fault_code_for(exc), str(exc)) from exc
        call_args = {k: v for k, v in args.items() if k not in ("auth", "cas", "caller")}
        try:
            return handler(caller=caller, assertion=assertion, **call_args)
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
            signature = inspect.signature(self._methods[name])
            desc.add(
                name,
                tuple(p for p in signature.parameters if p not in ("caller", "assertion")),
            )
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

    def _check(
        self,
        caller: str,
        permission: Permission,
        object_type: ObjectType = ObjectType.SERVICE,
        name: Optional[str] = None,
        version: Optional[int] = None,
        assertion: Optional[CapabilityAssertion] = None,
    ) -> None:
        if self.granularity == "none":
            return
        start = time.perf_counter() if OBS.enabled else 0.0
        try:
            self._check_inner(
                caller, permission, object_type, name, version, assertion
            )
        finally:
            if OBS.enabled:
                _AUTHZ_SECONDS.observe(time.perf_counter() - start)

    def _check_inner(
        self,
        caller: str,
        permission: Permission,
        object_type: ObjectType,
        name: Optional[str],
        version: Optional[int],
        assertion: Optional[CapabilityAssertion],
    ) -> None:
        granted = Permission.NONE
        service_acl = self.catalog.get_acl(ObjectType.SERVICE, None)
        granted |= service_acl.permissions_for(caller)
        if self.granularity == "object" and object_type is not ObjectType.SERVICE and name:
            own_acl = self.catalog.get_acl(object_type, name, version)
            chain_acls: list[AccessControlList] = []
            if object_type is ObjectType.FILE:
                for coll in self.catalog.file_collection_chain(name, version):
                    chain_acls.append(self.catalog.get_acl(ObjectType.COLLECTION, coll))
            elif object_type is ObjectType.COLLECTION:
                chain = self.catalog.collection_chain(name)
                for coll in chain:
                    chain_acls.append(self.catalog.get_acl(ObjectType.COLLECTION, coll))
            granted |= effective_permissions(caller, own_acl, chain_acls)
        if assertion is not None and name:
            for perm in (p for p in Permission if p.name and p.value):
                if assertion.grants(name, perm):
                    granted |= perm
        if permission not in granted:
            raise PermissionDeniedError(
                f"{caller} lacks {permission} on "
                f"{object_type.value}{'' if not name else ' ' + name}"
            )

    def _audit(
        self,
        object_type: ObjectType,
        object_id: int,
        enabled: bool,
        action: str,
        detail: str,
        caller: str,
        name: Optional[str] = None,
        version: Optional[int] = None,
    ) -> None:
        if enabled or self.audit_default:
            # name/version let a sharded catalog place the record on the
            # object's owning backend; a single engine ignores them.
            self.catalog.record_audit(
                object_type, object_id, action, detail, caller,
                name=name, version=version,
            )

    # -- method registration ---------------------------------------------------------

    def _register_methods(self) -> None:
        prefix = "op_"
        for attr_name in dir(self):
            if attr_name.startswith(prefix):
                self._methods[attr_name[len(prefix):]] = getattr(self, attr_name)

    # ======================================================================
    # Logical file operations
    # ======================================================================

    def op_create_logical_file(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
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
        self._check(caller, Permission.WRITE, assertion=assertion)
        if collection is not None and self.granularity == "object":
            self._check(
                caller,
                Permission.WRITE,
                ObjectType.COLLECTION,
                collection,
                assertion=assertion,
            )
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
        self._audit(
            ObjectType.FILE, file_id, audit_enabled, "create", f"name={name}",
            caller, name=name, version=version,
        )
        return {"id": file_id, "name": name, "version": version}

    def op_get_logical_file(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        version: Optional[int] = None,
    ) -> dict:
        self._check(
            caller, Permission.READ, ObjectType.FILE, name, version, assertion
        )
        file = self.catalog.get_file(name, version)
        self._audit(
            ObjectType.FILE, file.id, file.audit_enabled, "read", "", caller,
            name=name, version=file.version,
        )
        return {
            "id": file.id,
            "name": file.name,
            "version": file.version,
            "data_type": file.data_type,
            "valid": file.valid,
            "collection_id": file.collection_id,
            "container_id": file.container_id,
            "container_service": file.container_service,
            "master_copy": file.master_copy,
            "creator": file.creator,
            "created": file.created,
            "last_modifier": file.last_modifier,
            "modified": file.modified,
            "audit_enabled": file.audit_enabled,
        }

    def op_modify_logical_file(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        version: Optional[int] = None,
        changes: Optional[dict[str, Any]] = None,
    ) -> bool:
        self._check(
            caller, Permission.WRITE, ObjectType.FILE, name, version, assertion
        )
        self.catalog.update_file(name, version, modifier=caller, **(changes or {}))
        file = self.catalog.get_file(name, version)
        self._audit(
            ObjectType.FILE,
            file.id,
            file.audit_enabled,
            "modify",
            json.dumps(changes or {}, default=str),
            caller,
        )
        return True

    def op_delete_logical_file(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        version: Optional[int] = None,
    ) -> bool:
        self._check(
            caller, Permission.DELETE, ObjectType.FILE, name, version, assertion
        )
        file = self.catalog.get_file(name, version)
        self.catalog.delete_file(name, version)
        self._audit(
            ObjectType.FILE, file.id, file.audit_enabled, "delete", "", caller,
            name=name,
        )
        return True

    def op_move_file_to_collection(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        collection: Optional[str] = None,
        version: Optional[int] = None,
    ) -> bool:
        self._check(
            caller, Permission.WRITE, ObjectType.FILE, name, version, assertion
        )
        if collection is not None and self.granularity == "object":
            self._check(
                caller, Permission.WRITE, ObjectType.COLLECTION, collection,
                assertion=assertion,
            )
        self.catalog.move_file_to_collection(name, collection, version, caller)
        return True

    def op_list_versions(
        self, caller: str, assertion: Optional[CapabilityAssertion], name: str
    ) -> list[int]:
        self._check(caller, Permission.READ, ObjectType.FILE, name, assertion=assertion)
        return self.catalog.list_versions(name)

    # ======================================================================
    # User-defined attributes
    # ======================================================================

    def op_define_attribute(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        value_type: str,
        object_types: Optional[list[str]] = None,
        description: Optional[str] = None,
    ) -> int:
        self._check(caller, Permission.WRITE, assertion=assertion)
        types = (
            tuple(ObjectType(t) for t in object_types)
            if object_types
            else (ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW)
        )
        return self.catalog.define_attribute(
            name, value_type, types, description, creator=caller
        )

    def op_list_attribute_defs(
        self, caller: str, assertion: Optional[CapabilityAssertion]
    ) -> list[dict]:
        self._check(caller, Permission.READ, assertion=assertion)
        return [d.to_dict() for d in self.catalog.list_attribute_defs()]

    def op_set_attributes(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: str,
        attributes: dict[str, Any],
        version: Optional[int] = None,
    ) -> bool:
        otype = ObjectType(object_type)
        self._check(caller, Permission.WRITE, otype, name, version, assertion)
        self.catalog.set_attributes(otype, name, attributes, version)
        return True

    def op_get_attributes(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: str,
        version: Optional[int] = None,
    ) -> dict[str, Any]:
        otype = ObjectType(object_type)
        self._check(caller, Permission.READ, otype, name, version, assertion)
        return self.catalog.get_attributes(otype, name, version)

    def op_remove_attribute(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: str,
        attribute: str,
        version: Optional[int] = None,
    ) -> bool:
        otype = ObjectType(object_type)
        self._check(caller, Permission.WRITE, otype, name, version, assertion)
        self.catalog.remove_attribute(otype, name, attribute, version)
        return True

    # ======================================================================
    # Queries
    # ======================================================================

    def op_query(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        query: dict[str, Any],
    ) -> list[str]:
        self._check(caller, Permission.READ, assertion=assertion)
        return self.catalog.query(_query_from_dict(query))

    def op_explain_query(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        query: dict[str, Any],
    ) -> list[str]:
        """Physical plan of an attribute query — for operators/tuning."""
        self._check(caller, Permission.READ, assertion=assertion)
        return self.catalog.explain_query(_query_from_dict(query))

    def op_query_mql(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        text: str,
    ) -> list[str]:
        """Run one MQL statement; syntax errors fault as MCS.Query."""
        self._check(caller, Permission.READ, assertion=assertion)
        return self.catalog.query_mql(text)

    def op_explain_mql(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        text: str,
    ) -> list[str]:
        """Per-leaf strategy choice + costs for one MQL statement."""
        self._check(caller, Permission.READ, assertion=assertion)
        return self.catalog.explain_mql(text)

    def op_analyze_attributes(
        self, caller: str, assertion: Optional[CapabilityAssertion]
    ) -> int:
        """Exact recompute of the MQL planner statistics (ANALYZE)."""
        self._check(caller, Permission.WRITE, assertion=assertion)
        return self.catalog.analyze_attributes()

    # ======================================================================
    # Bulk operations
    # ======================================================================
    #
    # Explicit batch handlers: authorization runs once per distinct
    # object (single-pass), the catalog executes the batch in one
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

    @staticmethod
    def _bulk_wire_items(outcomes: list[tuple[bool, Any]]) -> list[dict]:
        return [
            {"ok": True, "result": value}
            if ok
            else MCSService._bulk_item_error(value)
            for ok, value in outcomes
        ]

    def _bulk_observe(
        self, operation: str, n_items: int, items: list[dict], start: float
    ) -> None:
        if not OBS.enabled or not n_items:
            return
        elapsed = time.perf_counter() - start
        _BULK_BATCH_SIZE.labels(operation).observe(n_items)
        _BULK_ITEM_SECONDS.labels(operation).observe(elapsed / n_items)
        ok = sum(1 for item in items if item.get("ok"))
        if ok:
            _BULK_ITEMS.labels(operation, "ok").inc(ok)
        if n_items - ok:
            _BULK_ITEMS.labels(operation, "fault").inc(n_items - ok)

    def op_bulk_create_files(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        entries: list[dict[str, Any]],
        atomic: bool = True,
    ) -> dict:
        start = time.perf_counter() if OBS.enabled else 0.0
        self._check(caller, Permission.WRITE, assertion=assertion)
        if self.granularity == "object":
            # Single-pass authz: each distinct target collection once,
            # not once per file.
            seen: set[str] = set()
            for entry in entries:
                collection = entry.get("collection")
                if collection is not None and collection not in seen:
                    seen.add(collection)
                    self._check(
                        caller,
                        Permission.WRITE,
                        ObjectType.COLLECTION,
                        collection,
                        assertion=assertion,
                    )
        outcomes = self.catalog.bulk_create_files(
            entries, creator=caller, atomic=atomic
        )
        for (ok, value), entry in zip(outcomes, entries):
            if ok:
                self._audit(
                    ObjectType.FILE,
                    value,
                    bool(entry.get("audit_enabled", False)),
                    "create",
                    f"name={entry.get('name')} (bulk)",
                    caller,
                )
        items = self._bulk_wire_items(outcomes)
        for item, (ok, value) in zip(items, outcomes):
            if ok:
                item["result"] = {"id": value}
        self._bulk_observe("bulk_create_files", len(entries), items, start)
        return {"items": items, "ok": sum(1 for i in items if i["ok"])}

    def op_bulk_set_attributes(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        items: list[dict[str, Any]],
        atomic: bool = True,
    ) -> dict:
        start = time.perf_counter() if OBS.enabled else 0.0
        self._check(caller, Permission.WRITE, assertion=assertion)
        if self.granularity == "object":
            seen: set[tuple] = set()
            for item in items:
                key = (
                    item.get("object_type", "file"),
                    item.get("name"),
                    item.get("version"),
                )
                if key[1] is not None and key not in seen:
                    seen.add(key)
                    self._check(
                        caller,
                        Permission.WRITE,
                        ObjectType(key[0]),
                        key[1],
                        key[2],
                        assertion,
                    )
        outcomes = self.catalog.bulk_set_attributes(items, atomic=atomic)
        wire = self._bulk_wire_items(outcomes)
        self._bulk_observe("bulk_set_attributes", len(items), wire, start)
        return {"items": wire, "ok": sum(1 for i in wire if i["ok"])}

    def op_bulk_query(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        queries: list[dict[str, Any]],
    ) -> dict:
        start = time.perf_counter() if OBS.enabled else 0.0
        self._check(caller, Permission.READ, assertion=assertion)
        outcomes: list[tuple[bool, Any]] = []
        for data in queries:
            try:
                parsed = _query_from_dict(data)
            except Exception as exc:  # noqa: BLE001 - per-item boundary
                outcomes.append((False, exc))
                continue
            outcomes.extend(self.catalog.bulk_query([parsed]))
        wire = self._bulk_wire_items(outcomes)
        self._bulk_observe("bulk_query", len(queries), wire, start)
        return {"items": wire, "ok": sum(1 for i in wire if i["ok"])}

    # ======================================================================
    # Collections
    # ======================================================================

    def op_create_collection(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        parent: Optional[str] = None,
        description: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        self._check(caller, Permission.WRITE, assertion=assertion)
        if parent is not None and self.granularity == "object":
            self._check(
                caller, Permission.WRITE, ObjectType.COLLECTION, parent,
                assertion=assertion,
            )
        collection_id = self.catalog.create_collection(
            name, parent, description, creator=caller,
            audit_enabled=audit_enabled, attributes=attributes,
        )
        self._audit(
            ObjectType.COLLECTION, collection_id, audit_enabled, "create",
            f"name={name}", caller, name=name,
        )
        return collection_id

    def op_delete_collection(
        self, caller: str, assertion: Optional[CapabilityAssertion], name: str
    ) -> bool:
        self._check(
            caller, Permission.DELETE, ObjectType.COLLECTION, name, assertion=assertion
        )
        self.catalog.delete_collection(name)
        return True

    def op_list_collection(
        self, caller: str, assertion: Optional[CapabilityAssertion], name: str
    ) -> list[str]:
        self._check(
            caller, Permission.READ, ObjectType.COLLECTION, name, assertion=assertion
        )
        return self.catalog.list_collection(name)

    def op_list_subcollections(
        self, caller: str, assertion: Optional[CapabilityAssertion], name: str
    ) -> list[str]:
        self._check(
            caller, Permission.READ, ObjectType.COLLECTION, name, assertion=assertion
        )
        return self.catalog.list_subcollections(name)

    def op_set_collection_parent(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        parent: Optional[str] = None,
    ) -> bool:
        self._check(
            caller, Permission.WRITE, ObjectType.COLLECTION, name, assertion=assertion
        )
        self.catalog.set_collection_parent(name, parent)
        return True

    # ======================================================================
    # Views
    # ======================================================================

    def op_create_view(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        description: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        self._check(caller, Permission.WRITE, assertion=assertion)
        view_id = self.catalog.create_view(
            name, description, creator=caller,
            audit_enabled=audit_enabled, attributes=attributes,
        )
        self._audit(
            ObjectType.VIEW, view_id, audit_enabled, "create", f"name={name}",
            caller, name=name,
        )
        return view_id

    def op_delete_view(
        self, caller: str, assertion: Optional[CapabilityAssertion], name: str
    ) -> bool:
        self._check(
            caller, Permission.DELETE, ObjectType.VIEW, name, assertion=assertion
        )
        self.catalog.delete_view(name)
        return True

    def op_add_to_view(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        view: str,
        files: Optional[list[str]] = None,
        collections: Optional[list[str]] = None,
        views: Optional[list[str]] = None,
    ) -> bool:
        self._check(
            caller, Permission.WRITE, ObjectType.VIEW, view, assertion=assertion
        )
        self.catalog.add_to_view(
            view, files or (), collections or (), views or ()
        )
        return True

    def op_remove_from_view(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        view: str,
        files: Optional[list[str]] = None,
        collections: Optional[list[str]] = None,
        views: Optional[list[str]] = None,
    ) -> bool:
        self._check(
            caller, Permission.WRITE, ObjectType.VIEW, view, assertion=assertion
        )
        self.catalog.remove_from_view(
            view, files or (), collections or (), views or ()
        )
        return True

    def op_list_view(
        self, caller: str, assertion: Optional[CapabilityAssertion], name: str
    ) -> list[dict]:
        self._check(
            caller, Permission.READ, ObjectType.VIEW, name, assertion=assertion
        )
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
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: str,
        text: str,
        version: Optional[int] = None,
    ) -> bool:
        otype = ObjectType(object_type)
        self._check(caller, Permission.ANNOTATE, otype, name, version, assertion)
        self.catalog.annotate(otype, name, text, caller, version)
        return True

    def op_get_annotations(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: str,
        version: Optional[int] = None,
    ) -> list[dict]:
        otype = ObjectType(object_type)
        self._check(caller, Permission.READ, otype, name, version, assertion)
        return [
            {"text": a.text, "creator": a.creator, "created": a.created}
            for a in self.catalog.annotations(otype, name, version)
        ]

    def op_add_transformation(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        description: str,
        version: Optional[int] = None,
    ) -> bool:
        self._check(
            caller, Permission.WRITE, ObjectType.FILE, name, version, assertion
        )
        self.catalog.add_transformation(name, description, version)
        return True

    def op_get_transformations(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        version: Optional[int] = None,
    ) -> list[dict]:
        self._check(
            caller, Permission.READ, ObjectType.FILE, name, version, assertion
        )
        return [
            {"description": t.description, "created": t.created}
            for t in self.catalog.transformations(name, version)
        ]

    def op_audit_log(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: str,
        version: Optional[int] = None,
    ) -> list[dict]:
        otype = ObjectType(object_type)
        self._check(caller, Permission.ADMIN, otype, name, version, assertion)
        return [
            {
                "action": r.action,
                "detail": r.detail,
                "actor": r.actor,
                "created": r.created,
            }
            for r in self.catalog.audit_log(otype, name, version)
        ]

    # ======================================================================
    # Users, external catalogs, permissions, misc
    # ======================================================================

    def op_register_user(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        dn: str,
        description: str = "",
        institution: str = "",
        email: str = "",
        phone: str = "",
    ) -> bool:
        self._check(caller, Permission.WRITE, assertion=assertion)
        self.catalog.register_user(UserInfo(dn, description, institution, email, phone))
        return True

    def op_get_user(
        self, caller: str, assertion: Optional[CapabilityAssertion], dn: str
    ) -> dict:
        self._check(caller, Permission.READ, assertion=assertion)
        user = self.catalog.get_user(dn)
        return {
            "dn": user.dn,
            "description": user.description,
            "institution": user.institution,
            "email": user.email,
            "phone": user.phone,
        }

    def op_register_external_catalog(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        name: str,
        catalog_type: str,
        host: str,
        port: int,
        description: str = "",
    ) -> bool:
        self._check(caller, Permission.WRITE, assertion=assertion)
        self.catalog.register_external_catalog(
            ExternalCatalog(name, catalog_type, host, port, description)
        )
        return True

    def op_list_external_catalogs(
        self, caller: str, assertion: Optional[CapabilityAssertion]
    ) -> list[dict]:
        self._check(caller, Permission.READ, assertion=assertion)
        return [
            {
                "name": c.name,
                "catalog_type": c.catalog_type,
                "host": c.host,
                "port": c.port,
                "description": c.description,
            }
            for c in self.catalog.list_external_catalogs()
        ]

    def op_set_permissions(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: Optional[str],
        principal: str,
        permissions: list[str],
    ) -> bool:
        otype = ObjectType(object_type)
        if otype is not ObjectType.SERVICE:
            self._check(caller, Permission.ADMIN, otype, name, assertion=assertion)
        bits = Permission.NONE
        for p in permissions:
            bits |= Permission[p.upper()]
        self.catalog.set_permissions(otype, name, principal, bits)
        return True

    def op_get_permissions(
        self,
        caller: str,
        assertion: Optional[CapabilityAssertion],
        object_type: str,
        name: Optional[str] = None,
    ) -> dict[str, list[str]]:
        otype = ObjectType(object_type)
        self._check(caller, Permission.READ, assertion=assertion)
        acl = self.catalog.get_acl(otype, name)
        out = {
            principal: [p.name for p in Permission if p.name and p in bits]
            for principal, bits in acl.entries.items()
        }
        if acl.public is not Permission.NONE:
            out["*"] = [p.name for p in Permission if p.name and p in acl.public]
        return out

    def op_stats(self, caller: str, assertion: Optional[CapabilityAssertion]) -> dict:
        stats = self.catalog.stats()
        stats["cache"] = self.catalog.cache.stats()
        stats["metrics"] = get_registry().snapshot()
        return stats

    def op_ping(self, caller: str, assertion: Optional[CapabilityAssertion]) -> str:
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
