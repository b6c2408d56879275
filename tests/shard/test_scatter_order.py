"""Scatter/gather ordering: a sharded catalog against the single engine.

The router gathers every shard's ``(sort key, name)`` pairs and finishes
with the single engine's own dedup / sort / slice, so ordered, paged
``ObjectQuery`` answers must be *identical* to the single engine's —
duplicated sort keys, NULL keys and offsets that span shard boundaries
included.
"""

import pytest

from repro.core import MetadataCatalog
from repro.core.query import ObjectQuery
from repro.shard import build_sharded_catalog

pytestmark = pytest.mark.shard


def _populate(catalog, total=23):
    catalog.create_collection("c0")
    catalog.create_collection("c1")
    for i in range(total):
        catalog.create_file(
            f"f{i:03d}",
            collection=("c0", "c1", None)[i % 3],
            # Duplicated keys plus NULLs: every third file has no
            # data_type, the rest cycle through three values.
            data_type=None if i % 3 == 0 else f"type-{i % 4}",
        )


@pytest.fixture(scope="module")
def catalogs():
    single = MetadataCatalog()
    _populate(single)
    sharded = []
    for n in (1, 2, 4):
        catalog = build_sharded_catalog(n)
        _populate(catalog)
        sharded.append((n, catalog))
    yield single, sharded
    for _n, catalog in sharded:
        catalog.close()


@pytest.mark.parametrize("descending", (False, True))
@pytest.mark.parametrize(
    ("limit", "offset"),
    ((None, None), (5, None), (None, 7), (4, 6), (100, 20), (3, 22)),
)
def test_paged_name_order_matches_single(catalogs, descending, limit, offset):
    single, sharded = catalogs
    query = (
        ObjectQuery().order_by("name", descending=descending)
        .limit(limit).offset(offset)
    )
    expected = single.query(query)
    for n, catalog in sharded:
        assert catalog.query(query) == expected, f"{n} shards diverge"


@pytest.mark.parametrize("descending", (False, True))
@pytest.mark.parametrize(("limit", "offset"), ((None, None), (6, 5)))
def test_duplicate_keys_and_nulls_match_single(catalogs, descending, limit, offset):
    single, sharded = catalogs
    query = (
        ObjectQuery().order_by("data_type", descending=descending)
        .limit(limit).offset(offset)
    )
    expected = single.query(query)
    keys = [single.get_file(name).data_type for name in expected]
    # NULLs first ascending, last descending; equal keys by name.
    assert keys == sorted(
        keys, key=lambda k: (k is not None, k or ""), reverse=descending
    )
    for n, catalog in sharded:
        assert catalog.query(query) == expected, f"{n} shards diverge"


@pytest.mark.parametrize(
    "text",
    ("files where run = 1", "collections where run = 1", "views where run = 1"),
)
@pytest.mark.parametrize("method", ("query_mql", "explain_mql"))
def test_router_compiles_a_statement_once(monkeypatch, text, method):
    """The router compiles through shard 0's shape cache and hands the
    compiled statement on: no shard compiles the text a second time."""
    from repro.mql.compiler import ShapeCache

    catalog = build_sharded_catalog(2)
    try:
        catalog.define_attribute("run", "int")
        catalog.create_collection("c0", attributes={"run": 1})
        catalog.create_file("f0", collection="c0", attributes={"run": 1})
        calls = []
        real = ShapeCache.compile

        def counting(self, statement):
            calls.append(statement)
            return real(self, statement)

        monkeypatch.setattr(ShapeCache, "compile", counting)
        getattr(catalog, method)(text)
        assert calls == [text]
    finally:
        catalog.close()
