"""Every catalog method reaches the shards exactly one way.

A public ``MetadataCatalog`` method is either a row of the router's
``_FORWARDED`` table (generated: nothing but a destination) or written
out on ``ShardedCatalog`` (logic of its own), never both and never
neither, and either way it keeps the catalog's signature — the service
calls the two interchangeably.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from repro.core import MetadataCatalog, ObjectType
from repro.security import Permission
from repro.shard import router
from repro.shard.router import _FORWARDED, ShardedCatalog

pytestmark = pytest.mark.shard

#: Run on a shard by the router itself; no caller sends them to the fleet.
SHARD_INTERNAL = {
    "explain_compiled",
    "export_file_state",
    "import_file_state",
    "mql_leaf_rows",
    "query_compiled",
}

CATALOG_METHODS = {
    name
    for name, member in vars(MetadataCatalog).items()
    if callable(member) and not name.startswith("_")
} - SHARD_INTERNAL


def hand_written() -> set[str]:
    tree = ast.parse(Path(router.__file__).read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ShardedCatalog"]
    return {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}


def test_each_method_is_forwarded_or_hand_written_never_both():
    written = hand_written() & CATALOG_METHODS
    forwarded = set(_FORWARDED)
    assert not written & forwarded
    assert written | forwarded == CATALOG_METHODS
    assert not SHARD_INTERNAL & (forwarded | hand_written())


@pytest.mark.parametrize("name", sorted(CATALOG_METHODS))
def test_signature_and_docstring_are_the_catalogs(name):
    ours, theirs = getattr(ShardedCatalog, name), getattr(MetadataCatalog, name)
    assert inspect.signature(ours) == inspect.signature(theirs)
    if name in _FORWARDED:
        assert inspect.getdoc(ours) == inspect.getdoc(theirs)
        assert ours.__qualname__ == f"ShardedCatalog.{name}"


def test_a_forwarder_finds_its_deciding_arguments_by_position_or_keyword():
    catalog = router.build_sharded_catalog(2)
    catalog.create_collection("c")
    catalog.create_file("f", version=3, collection="c")
    assert catalog.get_attributes(ObjectType.FILE, "f", 3) == {}
    assert catalog.get_attributes(name="f", object_type=ObjectType.FILE, version=3) == {}
    assert catalog.transformations(file_name="f") == []
    assert catalog.get_attributes(ObjectType.COLLECTION, name="c") == {}


def test_the_acl_chain_is_forwarded_by_object_type():
    """A file's chain is read on its owning shard, a collection's and the
    service's on any replica; each answers as one engine does."""
    plain, sharded = MetadataCatalog(), router.build_sharded_catalog(2)
    for catalog in (plain, sharded):
        catalog.create_collection("top")
        catalog.create_collection("sub", "top")
        catalog.create_file("f", collection="sub")
        catalog.set_permissions(ObjectType.COLLECTION, "top", "u", Permission.READ)
        catalog.set_permissions(ObjectType.FILE, "f", "u", Permission.WRITE)
        catalog.set_permissions(ObjectType.SERVICE, None, "u", Permission.ANNOTATE)

    def bits(chain):
        return [acl.permissions_for("u") for acl in chain]

    assert bits(plain.acl_chain(ObjectType.FILE, "f")) == [
        Permission.WRITE, Permission.NONE, Permission.READ,
    ]
    for kind, name in (
        (ObjectType.FILE, "f"), (ObjectType.COLLECTION, "sub"), (ObjectType.SERVICE, None),
    ):
        assert bits(sharded.acl_chain(kind, name)) == bits(plain.acl_chain(kind, name))


def test_a_one_shot_iterable_reaches_every_replica():
    catalog = router.build_sharded_catalog(2)
    catalog.define_attribute("a", "int", iter([ObjectType.FILE]))
    for shard in catalog.shards:
        assert shard.get_attribute_def("a").object_types == frozenset({ObjectType.FILE})
