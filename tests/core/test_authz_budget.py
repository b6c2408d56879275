"""Statement budgets of authorization.

``MCSService(granularity="object")`` decides every request from the
service ACL, the object's own ACL and the ACLs up its collection chain
(§5).  Each of those steps is a generation-stamped cache entry reached by
id, so a warm decision issues no statement.  Counted at the engine
(``execute`` + ``executemany``) on a 3-deep collection tree whose root
holds the caller's only collection grant, as ``perf/`` deploys it.
"""

import pytest

from repro.core import MCSService, MetadataCatalog, ObjectType
from repro.db.engine import Connection
from repro.security import Permission

CALLER = "/O=Grid/CN=Budget"


@pytest.fixture
def service():
    catalog = MetadataCatalog()
    catalog.define_attribute("a", "int")
    catalog.create_collection("root")
    catalog.create_collection("mid", "root")
    catalog.create_collection("leaf", "mid")
    catalog.set_permissions(
        ObjectType.SERVICE, None, CALLER, Permission.READ | Permission.WRITE
    )
    catalog.set_permissions(
        ObjectType.COLLECTION, "root", CALLER,
        Permission.READ | Permission.WRITE | Permission.DELETE,
    )
    for i in range(4):
        catalog.create_file(f"w{i}", collection="leaf", attributes={"a": i})
    return MCSService(catalog, granularity="object")


@pytest.fixture
def statements(monkeypatch):
    seen = []
    for method in ("execute", "executemany"):
        original = getattr(Connection, method)

        def counting(self, sql, *args, _original=original, **kwargs):
            seen.append(sql)
            return _original(self, sql, *args, **kwargs)

        monkeypatch.setattr(Connection, method, counting)
    return seen


def _spent(statements, call):
    del statements[:]
    call()
    return len(statements)


def _ask(service, method, **args):
    return service.handle(method, {"caller": CALLER, **args})


def _entries(prefix, n=16):
    return [
        {"name": f"{prefix}{i}", "collection": "leaf", "attributes": {"a": i}}
        for i in range(n)
    ]


def test_get_attributes_costs_its_one_body_statement(service, statements):
    _ask(service, "get_attributes", object_type="file", name="w0")
    spent = _spent(
        statements, lambda: _ask(service, "get_attributes", object_type="file", name="w0")
    )
    assert spent == 1, statements


def test_a_name_query_costs_at_most_one(service, statements):
    query = {"object_type": "file",
             "predefined": [{"attribute": "name", "op": "=", "value": "w1"}]}
    _ask(service, "query", query=query)
    spent = _spent(statements, lambda: _ask(service, "query", query=query))
    assert spent <= 1, statements


def test_create_into_a_leaf_costs_the_catalogs_count(service, statements):
    catalog = service.catalog
    _ask(service, "create_logical_file", name="warm", collection="leaf")
    own = _spent(
        statements,
        lambda: catalog.create_file("c0", collection="leaf", attributes={"a": 1}),
    )
    spent = _spent(
        statements,
        lambda: _ask(service, "create_logical_file", name="c1", collection="leaf",
                     attributes={"a": 1}),
    )
    assert spent == own, statements


def test_a_bulk_of_sixteen_costs_the_catalogs_count(service, statements):
    catalog = service.catalog
    _ask(service, "bulk_create_files", entries=_entries("warm", 1))
    own = _spent(statements, lambda: catalog.bulk_create_files(_entries("b")))
    spent = _spent(
        statements, lambda: _ask(service, "bulk_create_files", entries=_entries("s"))
    )
    assert spent == own, statements


@pytest.mark.parametrize(
    "method, args",
    [
        ("set_attributes", lambda name: {"object_type": "file", "name": name,
                                         "attributes": {"a": 9}}),
        ("delete_logical_file", lambda name: {"name": name}),
    ],
)
def test_a_write_to_a_file_costs_at_most_one_authorization_statement(
    service, statements, method, args
):
    """The file's own ACL is one cached read; its id and collection come
    from the entry the body reads anyway.  Compared against the same
    request with authorization off, on a file in the same state."""
    _ask(service, method, **args("w0"))
    service.granularity = "none"
    unchecked = _spent(statements, lambda: _ask(service, method, **args("w1")))
    service.granularity = "object"
    checked = _spent(statements, lambda: _ask(service, method, **args("w2")))
    assert checked <= unchecked + 1, statements
