"""One operation sequence through ``MCSService``: plain catalog vs shards.

The catalog-level machine (``test_sharded_equivalence``) never drives the
service, so it never sees what the service adds on top of a catalog call:
the authorization reads (``acl_chain``: the object's ACL and its
collection chain's, walked by id) and the audit records, whose placement
depends on shard-local ids.  Here the same requests go through
``MCSService.handle`` over a plain catalog and over 1-, 2- and 4-shard
catalogs, with auditing on, and every answer
and every object's audit trail, annotations, transformations, ACL,
attributes and view listing must come out the same.  Ids and timestamps
are shard-local and are not compared.

The sequence has at least one step per routing class × object type.
"""

from __future__ import annotations

import pytest

from repro.core import MCSService, MetadataCatalog, ObjectType
from repro.security import Permission
from repro.shard import build_sharded_catalog
from repro.soap.envelope import SoapFault

pytestmark = pytest.mark.shard

ADMIN = "/O=Grid/CN=Admin"
READER = "/O=Grid/CN=Reader"
GUEST = "/O=Grid/CN=Guest"
LOCAL = {"id", "created", "modified", "collection_id"}
KINDS = {"file": "f0", "collection": "c1", "view": "v0"}


def scrub(value):
    """Drop what is shard-local: database ids and timestamps."""
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in value.items() if k not in LOCAL}
    if isinstance(value, list):
        return [scrub(v) for v in value]
    return value


def service_over(catalog) -> MCSService:
    service = MCSService(catalog, granularity="object")
    catalog.set_permissions(ObjectType.SERVICE, None, ADMIN, Permission.all())
    return service


def steps() -> list[tuple[str, dict]]:
    """The script, as ``(method, arguments)``; ``ADMIN`` sends all of it."""
    script: list[tuple[str, dict]] = [
        # replicated state without a home: written everywhere, read anywhere
        ("define_attribute", {"name": "a", "value_type": "string"}),
        ("list_attribute_defs", {}),
        ("register_user", {"dn": READER, "institution": "ISI"}),
        ("get_user", {"dn": READER}),
        ("register_external_catalog",
         {"name": "rls", "catalog_type": "replica", "host": "h", "port": 1}),
        ("list_external_catalogs", {}),
        ("set_permissions", {"object_type": "service", "name": None,
                             "principal": READER, "permissions": ["READ"]}),
        ("get_permissions", {"object_type": "service"}),
    ]
    # collections: written everywhere, the files' shard first
    for name, parent in (("c0", None), ("c1", "c0"), ("c2", None), ("c3", None)):
        script.append(("create_collection",
                       {"name": name, "parent": parent, "audit_enabled": True}))
    script += [
        ("set_collection_parent", {"name": "c2", "parent": "c0"}),
        ("list_subcollections", {"name": "c0"}),
        ("create_view", {"name": "v0", "audit_enabled": True}),
        ("create_view", {"name": "v1"}),
    ]
    # files: one owning shard each, by collection affinity or by name
    for i in range(8):
        collection = ("c1", "c2", None)[i % 3]
        script.append(("create_logical_file",
                       {"name": f"f{i}", "collection": collection, "audit_enabled": True}))
    script += [
        ("bulk_create_files", {"entries": [
            {"name": f"b{i}", "collection": ("c1", None)[i % 2], "audit_enabled": True}
            for i in range(4)
        ]}),
        ("create_logical_file", {"name": "f0", "version": 2, "audit_enabled": True}),
        # Unaudited, because they will move: a cross-shard move gives the
        # file a new id and leaves its trail behind (a known divergence).
        ("create_logical_file", {"name": "m0", "collection": "c2"}),
        ("create_logical_file", {"name": "m1", "collection": "c1"}),
        ("list_versions", {"name": "f0"}),
        ("modify_logical_file", {"name": "f1", "changes": {"data_type": "hdf"}}),
        ("get_logical_file", {"name": "f1"}),
        ("get_logical_file", {"name": "f0", "version": 1}),
        ("list_collection", {"name": "c1"}),
        ("add_transformation", {"name": "f1", "description": "calibrated"}),
        ("get_transformations", {"name": "f1"}),
        ("add_to_view", {"view": "v0", "files": ["f2", "f3"],
                         "collections": ["c1"], "views": ["v1"]}),
        ("remove_from_view", {"view": "v0", "files": ["f3"]}),
        ("list_view", {"name": "v0"}),
    ]
    # a collection grant revoked between two identical requests: f1 lives
    # in c2, re-parented under c0 above, and the second request is denied
    guest_reads_f1 = ("get_attributes", {"caller": GUEST, "object_type": "file", "name": "f1"})
    script += [
        ("set_permissions", {"object_type": "collection", "name": "c0",
                             "principal": GUEST, "permissions": ["READ"]}),
        guest_reads_f1,
        ("set_permissions", {"object_type": "collection", "name": "c0",
                             "principal": GUEST, "permissions": []}),
        guest_reads_f1,
    ]
    # chosen by object_type: a file's rows on its shard, the others' replicated
    for kind, name in KINDS.items():
        version = {"version": 1} if kind == "file" else {}
        target = {"object_type": kind, "name": name, **version}
        # f0 has two versions and ACLs are per version: f4 stands in.
        acl_of = {"object_type": kind, "name": "f4" if kind == "file" else name}
        script += [
            ("set_attributes", {**target, "attributes": {"a": kind}}),
            ("get_attributes", target),
            ("annotate", {**target, "text": f"note on {kind}"}),
            ("get_annotations", target),
            ("set_permissions", {**acl_of, "principal": READER,
                                 "permissions": ["READ", "ANNOTATE"]}),
            ("get_permissions", acl_of),
            ("audit_log", target),
        ]
    script += [
        ("bulk_set_attributes", {"items": [
            {"object_type": "file", "name": "f5", "attributes": {"a": "five"}},
            {"object_type": "collection", "name": "c3", "attributes": {"a": "three"}},
        ]}),
        ("remove_attribute", {"object_type": "file", "name": "f5", "attribute": "a"}),
        ("remove_attribute", {"object_type": "collection", "name": "c3", "attribute": "a"}),
        ("remove_attribute", {"object_type": "view", "name": "v0", "attribute": "a"}),
        # a move may cross shards, a delete leaves only the audit trail behind
        ("move_file_to_collection", {"name": "m0", "collection": "c3"}),
        ("move_file_to_collection", {"name": "m1", "collection": None}),
        ("delete_logical_file", {"name": "f3"}),
        ("delete_logical_file", {"name": "b0"}),
        ("delete_collection", {"name": "c3"}),  # refused: m0 lives there
        ("delete_view", {"name": "v1"}),
        ("query", {"query": {"object_type": "file", "conditions": [],
                             "order_by": ["name", False]}}),
    ]
    return script


def observe(service: MCSService) -> dict:
    """Everything a client can see of every object, ids and times aside."""

    def ask(method: str, **args):
        return scrub(service.handle(method, {"caller": ADMIN, **args}))

    seen: dict = {}
    files = ask("query", query={"object_type": "file", "conditions": [],
                                "order_by": ["name", False]})
    objects = [("file", name, version)
               for name in dict.fromkeys(files)
               for version in ask("list_versions", name=name)]
    objects += [("collection", name, None) for name in ("c0", "c1", "c2", "c3")]
    objects += [("view", "v0", None)]
    for kind, name, version in objects:
        target = {"object_type": kind, "name": name}
        if version is not None:
            target["version"] = version
        seen[kind, name, version] = {
            "audit": [(r["action"], r["detail"], r["actor"]) for r in ask("audit_log", **target)],
            "annotations": ask("get_annotations", **target),
            "attributes": ask("get_attributes", **target),
        }
        if kind == "file":
            seen[kind, name, version]["record"] = ask("get_logical_file", name=name, version=version)
            seen[kind, name, version]["transformations"] = ask(
                "get_transformations", name=name, version=version)
    for kind, name in (("service", None), ("collection", "c1"), ("view", "v0"), ("file", "f4")):
        seen["acl", kind, name] = ask("get_permissions", object_type=kind, name=name)
    seen["view v0"] = ask("list_view", name="v0")
    for name in ("c0", "c1", "c2", "c3"):
        seen["members", name] = ask("list_collection", name=name)
    return seen


def run(catalog) -> tuple[list, dict]:
    service = service_over(catalog)
    answers = []
    for method, args in steps():
        try:
            answers.append((method, scrub(service.handle(method, {"caller": ADMIN, **args}))))
        except SoapFault as fault:
            answers.append((method, ("fault", fault.code)))
    return answers, observe(service)


@pytest.fixture(scope="module")
def reference():
    return run(MetadataCatalog())


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_the_service_behaves_the_same_over_shards(reference, n_shards):
    answers, seen = run(build_sharded_catalog(n_shards))
    expected_answers, expected_seen = reference
    for got, want in zip(answers, expected_answers):
        assert got == want
    assert seen.keys() == expected_seen.keys()
    for key in expected_seen:
        assert seen[key] == expected_seen[key], key


def test_a_revoked_collection_grant_denies_the_very_next_request(reference):
    """The shapes above answer as the plain catalog does; this is what the
    plain catalog answers."""
    answers, _seen = reference
    guest = [
        answer for (_method, args), answer in zip(steps(), answers)
        if args.get("caller") == GUEST
    ]
    assert guest == [
        ("get_attributes", {}),
        ("get_attributes", ("fault", "MCS.PermissionDenied")),
    ]


def test_the_script_reaches_every_routing_class_and_object_type(monkeypatch):
    from repro.shard.router import _FORWARDED, ShardedCatalog

    reached: set[tuple[str, object]] = set()
    for route in {route for route, _write in _FORWARDED.values()}:
        def spy(self, call, _route=route):
            reached.add((_route.__name__, call.kind))
            return _route(self, call)

        monkeypatch.setattr(ShardedCatalog, route.__name__, spy)
    # The table holds the functions themselves: rebuild the forwarders on
    # the spies for the length of this test.
    from repro.shard.router import _forwarder

    for method, (route, write) in _FORWARDED.items():
        spied = getattr(ShardedCatalog, route.__name__)
        monkeypatch.setattr(ShardedCatalog, method, _forwarder(method, spied, write))
    run(build_sharded_catalog(2))
    classes = {name for name, _kind in reached}
    assert classes == {route.__name__ for route, _write in _FORWARDED.values()}
    by_type = {kind for name, kind in reached if name == "_route_by_object_type"}
    assert by_type == set(ObjectType)


def test_an_audit_record_lands_on_the_owning_shard_only():
    """Shard-local ids collide across shards; a record keyed by a bare id
    and broadcast shows up in some other file's trail."""
    service = service_over(build_sharded_catalog(2))

    def ask(method, **args):
        return service.handle(method, {"caller": ADMIN, **args})

    names = [f"f{i}" for i in range(8)]
    for name in names:
        ask("create_logical_file", name=name, audit_enabled=True)
    ask("bulk_create_files", entries=[{"name": "extra", "audit_enabled": True}])
    ask("modify_logical_file", name="f0", changes={"data_type": "x"})
    ask("delete_logical_file", name="f7")
    trails = {
        name: [r["action"] for r in ask("audit_log", object_type="file", name=name)]
        for name in [*names[:7], "extra"]
    }
    assert trails.pop("f0") == ["create", "modify"]
    assert all(trail == ["create"] for trail in trails.values()), trails


def test_a_delete_is_audited_where_the_file_lived():
    """A file placed by its collection does not live where its name hashes
    to; the post-delete record must not land there, on some other file's id."""
    catalog = build_sharded_catalog(2)
    service = service_over(catalog)

    def ask(method, **args):
        return service.handle(method, {"caller": ADMIN, **args})

    collection = next(c for c in "abcdefgh" if catalog.map.shard_for_collection(c) == 0)
    elsewhere = [n for n in (f"n{i}" for i in range(40)) if catalog.map.shard_for_name(n) == 1]
    victim, bystanders = elsewhere[0], elsewhere[1:6]
    ask("create_collection", name=collection)
    ask("create_logical_file", name=victim, collection=collection, audit_enabled=True)
    for name in bystanders:
        ask("create_logical_file", name=name, audit_enabled=True)
    ask("delete_logical_file", name=victim)
    for name in bystanders:
        trail = ask("audit_log", object_type="file", name=name)
        assert [r["action"] for r in trail] == ["create"], name
