"""The authorization policy, checked cell by cell against its table.

For every :data:`~repro.core.operations.OPERATIONS` row × granularity ×
kind of grant the caller holds, whether the request is allowed is
*computed from the row* (:func:`expected`) and asserted through
``MCSService.handle``.  A new operation is covered by adding its row and
one line of valid arguments to :data:`ARGUMENTS`.

The cells that differ from the release before the table existed, and are
meant to: service-level ``set_permissions`` needs ADMIN like any other;
``set_collection_parent`` checks its new parent like ``create_collection``
and ``move_file_to_collection`` do; ``list_versions`` answers with the
versions the caller may read.  Those have tests of their own below.
"""

from __future__ import annotations

import pytest

from repro.core import MCSService, ObjectType
from repro.core.errors import PermissionDeniedError
from repro.core.model import UserInfo
from repro.core.operations import BY_ARGUMENT, OPERATIONS, Operation
from repro.security import Permission
from repro.soap.envelope import SoapFault

CALLER = "/O=Grid/CN=Caller"
QUERY = {"object_type": "file", "conditions": []}

#: The object of each kind that requests name; ``mid`` and ``dest`` (and
#: so file ``f``) sit under the ancestor collection ``top``.
OBJECTS = {
    ObjectType.FILE: "f",
    ObjectType.COLLECTION: "mid",
    ObjectType.VIEW: "v",
    ObjectType.SERVICE: None,
}
ANCESTOR = "top"

#: Valid arguments per operation; ``KIND``/``NAME`` stand for the object
#: type under test on rows checked :data:`BY_ARGUMENT`.
KIND, NAME = object(), object()
ARGUMENTS: dict[str, dict] = {
    "create_logical_file": {"name": "new", "collection": "dest"},
    "get_logical_file": {"name": "f"},
    "modify_logical_file": {"name": "f", "changes": {"data_type": "x"}},
    "delete_logical_file": {"name": "f"},
    "move_file_to_collection": {"name": "f", "collection": "dest"},
    "list_versions": {"name": "f"},
    "define_attribute": {"name": "b", "value_type": "int"},
    "list_attribute_defs": {},
    "set_attributes": {"object_type": KIND, "name": NAME, "attributes": {"a": "y"}},
    "get_attributes": {"object_type": KIND, "name": NAME},
    "remove_attribute": {"object_type": KIND, "name": NAME, "attribute": "a"},
    "query": {"query": QUERY},
    "explain_query": {"query": QUERY},
    "query_mql": {"text": "files order by name"},
    "explain_mql": {"text": "files order by name"},
    "bulk_create_files": {"entries": [{"name": "b1", "collection": "dest"}, {"name": "b2"}]},
    "bulk_set_attributes": {
        "items": [{"object_type": "file", "name": "f", "attributes": {"a": "y"}}]
    },
    "bulk_query": {"queries": [QUERY]},
    "create_collection": {"name": "newc", "parent": "dest"},
    "delete_collection": {"name": "empty"},
    "list_collection": {"name": "mid"},
    "list_subcollections": {"name": "mid"},
    "set_collection_parent": {"name": "mid", "parent": "dest"},
    "create_view": {"name": "newv"},
    "delete_view": {"name": "v"},
    "add_to_view": {"view": "v", "files": ["f"]},
    "remove_from_view": {"view": "v", "files": ["g"]},
    "list_view": {"name": "v"},
    "annotate": {"object_type": KIND, "name": NAME, "text": "t"},
    "get_annotations": {"object_type": KIND, "name": NAME},
    "add_transformation": {"name": "f", "description": "d"},
    "get_transformations": {"name": "f"},
    "audit_log": {"object_type": KIND, "name": NAME},
    "register_user": {"dn": "/O=Grid/CN=New"},
    "get_user": {"dn": "/O=Grid/CN=Known"},
    "register_external_catalog": {
        "name": "rls", "catalog_type": "replica", "host": "h", "port": 1,
    },
    "list_external_catalogs": {},
    "set_permissions": {
        "object_type": KIND, "name": NAME, "principal": "/O=Grid/CN=P",
        "permissions": ["READ"],
    },
    "get_permissions": {"object_type": "file", "name": "f"},
    "stats": {},
    "ping": {},
}

#: What the caller holds.  ``service_other`` is every permission *but*
#: the row's on the service (the permission column matters);
#: ``object_only`` is the grant on the object without the one on the
#: destination (the destination column matters).
HOLDERS = ("nothing", "service", "service_other", "object", "object_only", "ancestor")


def test_every_row_has_arguments_and_nothing_else_does():
    assert set(ARGUMENTS) == {row.name for row in OPERATIONS}


def kinds_of(row: Operation) -> list[ObjectType]:
    if row.on != BY_ARGUMENT:
        return [row.on]
    kinds = [ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW]
    # The service's own ACL is an object of set_permissions too.
    return kinds + [ObjectType.SERVICE] if row.name == "set_permissions" else kinds


def arguments(row: Operation, kind: ObjectType) -> dict:
    return {
        key: kind.value if value is KIND else OBJECTS[kind] if value is NAME else value
        for key, value in ARGUMENTS[row.name].items()
    }


def expected(row: Operation, kind: ObjectType, granularity: str, holder: str) -> bool:
    """Allowed or denied, read off the row."""
    if row.permission is None or granularity == "none":
        return True
    if holder in ("nothing", "service_other"):
        return False
    if holder == "service":
        return True
    # Grants on objects count under object granularity only, and only
    # for a rule that is checked on an object.
    if granularity != "object" or kind is ObjectType.SERVICE:
        return False
    if holder == "ancestor":  # the union up the collection hierarchy
        return kind in (ObjectType.FILE, ObjectType.COLLECTION)
    if holder == "object_only":
        return row.destination is None
    return True


def build(granularity: str) -> MCSService:
    service = MCSService(granularity=granularity)
    catalog = service.catalog
    catalog.define_attribute("a", "string")
    for name, parent in (("top", None), ("mid", "top"), ("dest", "top"), ("empty", "top")):
        catalog.create_collection(name, parent, attributes={"a": "x"})
    catalog.create_file("f", collection="mid", attributes={"a": "x"})
    catalog.create_file("g")
    catalog.create_view("v", attributes={"a": "x"})
    catalog.add_to_view("v", files=["g"])
    catalog.register_user(UserInfo("/O=Grid/CN=Known"))
    return service


def grant(service: MCSService, row: Operation, kind: ObjectType, args: dict, holder: str):
    catalog, needed = service.catalog, row.permission
    if holder == "service":
        catalog.set_permissions(ObjectType.SERVICE, None, CALLER, needed)
    elif holder == "service_other":
        catalog.set_permissions(ObjectType.SERVICE, None, CALLER, Permission.all() & ~needed)
    elif holder == "ancestor":
        catalog.set_permissions(ObjectType.COLLECTION, ANCESTOR, CALLER, needed)
    elif holder in ("object", "object_only") and kind is not ObjectType.SERVICE:
        catalog.set_permissions(kind, args[row.name_arg], CALLER, needed)
        if holder == "object" and row.destination:
            catalog.set_permissions(
                ObjectType.COLLECTION, args[row.destination], CALLER, Permission.WRITE
            )


CELLS = [
    pytest.param(row, kind, granularity, holder,
                 id=f"{row.name}-{kind.value}-{granularity}-{holder}")
    for row in OPERATIONS
    for kind in kinds_of(row)
    for granularity in ("none", "service", "object")
    # With authorization off one caller says it all.
    for holder in (HOLDERS if granularity != "none" else ("nothing",))
    if row.permission is not None or holder == "nothing"
]


@pytest.mark.parametrize("row, kind, granularity, holder", CELLS)
def test_cell(row: Operation, kind: ObjectType, granularity: str, holder: str):
    service = build(granularity)
    args = arguments(row, kind)
    grant(service, row, kind, args, holder)
    request = {"caller": CALLER, **args}
    if expected(row, kind, granularity, holder):
        service.handle(row.name, request)  # allowed: the operation itself succeeds
    else:
        with pytest.raises(SoapFault) as fault:
            service.handle(row.name, request)
        assert fault.value.code == PermissionDeniedError.fault_code


# -- the cells that changed on purpose ---------------------------------------


@pytest.mark.parametrize("granularity", ["service", "object"])
def test_an_unprivileged_caller_cannot_grant_itself_the_service(granularity):
    service = build(granularity)
    everything = [p.name for p in Permission if p.name and p.value]
    request = {"caller": CALLER, "object_type": "service", "name": None,
               "principal": CALLER, "permissions": everything}
    with pytest.raises(SoapFault) as fault:
        service.handle("set_permissions", request)
    assert fault.value.code == PermissionDeniedError.fault_code
    with pytest.raises(SoapFault):
        service.handle("create_logical_file", {"caller": CALLER, "name": "mine"})


def test_service_level_set_permissions_stays_open_without_authorization():
    service = build("none")
    request = {"caller": CALLER, "object_type": "service", "name": None,
               "principal": CALLER, "permissions": ["READ"]}
    assert service.handle("set_permissions", request) is True


def test_reparenting_needs_write_on_the_new_parent():
    service = build("object")
    service.catalog.set_permissions(ObjectType.COLLECTION, "mid", CALLER, Permission.WRITE)
    request = {"caller": CALLER, "name": "mid", "parent": "dest"}
    with pytest.raises(SoapFault) as fault:
        service.handle("set_collection_parent", request)
    assert fault.value.code == PermissionDeniedError.fault_code
    service.catalog.set_permissions(ObjectType.COLLECTION, "dest", CALLER, Permission.WRITE)
    assert service.handle("set_collection_parent", request) is True


class TestListVersionsUnderObjectGranularity:
    @pytest.fixture
    def service(self):
        service = build("object")
        service.catalog.create_file("multi", version=1)
        service.catalog.create_file("multi", version=2)
        return service

    def request(self, name="multi"):
        return {"caller": CALLER, "name": name}

    def test_lists_the_versions_the_caller_may_read(self, service):
        service.catalog.set_permissions(
            ObjectType.FILE, "multi", CALLER, Permission.READ, version=2
        )
        assert service.handle("list_versions", self.request()) == [2]

    def test_a_service_reader_sees_every_version(self, service):
        service.catalog.set_permissions(ObjectType.SERVICE, None, CALLER, Permission.READ)
        assert service.handle("list_versions", self.request()) == [1, 2]

    def test_denied_only_when_no_version_is_readable(self, service):
        with pytest.raises(SoapFault) as fault:
            service.handle("list_versions", self.request())
        assert fault.value.code == PermissionDeniedError.fault_code

    def test_an_unknown_name_still_faults_as_not_found(self, service):
        with pytest.raises(SoapFault) as fault:
            service.handle("list_versions", self.request("nope"))
        assert fault.value.code == "MCS.NotFound"
