"""Behavioral tests for the generation-stamped catalog read cache.

The contract under test is the paper's strict consistency (§4): a cached
answer must be indistinguishable from re-running the query — across
single writes, bulk transactions, savepoint rollbacks, runtime
enable/disable, and replication apply.
"""

import pytest

from repro.cache import CatalogCache
from repro.core import MetadataCatalog, ObjectQuery, ObjectType
from repro.core.errors import (
    DuplicateObjectError,
    InvalidAttributeError,
    ObjectNotFoundError,
)
from repro.core.replicated import ReplicatedMCS
from tests.tables import make_index

pytestmark = pytest.mark.cache


@pytest.fixture
def cat():
    cat = MetadataCatalog()
    cat.define_attribute("exp", "string")
    cat.define_attribute("run", "int")
    cat.create_file("f1", attributes={"exp": "pulsar", "run": 1})
    cat.create_file("f2", attributes={"exp": "pulsar", "run": 2})
    return cat


def _pulsar_query():
    return ObjectQuery().where("exp", "=", "pulsar")


class TestQueryCache:
    def test_repeat_query_hits(self, cat):
        first = cat.query(_pulsar_query())
        before = cat.cache.stats()["query"]["hits"]
        second = cat.query(_pulsar_query())
        assert second == first == ["f1", "f2"]
        assert cat.cache.stats()["query"]["hits"] == before + 1

    def test_committed_write_invalidates(self, cat):
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        cat.query(_pulsar_query())  # warm: second call is a hit
        cat.create_file("f3", attributes={"exp": "pulsar"})
        assert cat.query(_pulsar_query()) == ["f1", "f2", "f3"]

    def test_delete_invalidates(self, cat):
        cat.query(_pulsar_query())
        cat.query(_pulsar_query())
        cat.delete_file("f1")
        assert cat.query(_pulsar_query()) == ["f2"]

    def test_attribute_change_invalidates(self, cat):
        cat.query(_pulsar_query())
        cat.set_attributes(ObjectType.FILE, "f2", {"exp": "burst"})
        assert cat.query(_pulsar_query()) == ["f1"]

    def test_unrelated_table_write_keeps_entry_valid(self, cat):
        cat.query(_pulsar_query())
        before = cat.cache.stats()["query"]["hits"]
        # Annotations live in their own table; the query result does not
        # depend on it, so the entry must survive.
        cat.annotate(ObjectType.FILE, "f1", "still cached", creator="t")
        cat.query(_pulsar_query())
        assert cat.cache.stats()["query"]["hits"] == before + 1


def _query_hits(cat):
    return cat.cache.stats()["query"]["hits"]


class TestRowKeyedQueryInvalidation:
    """A commit drops only the leaves its changed rows can alter."""

    def test_non_matching_writes_keep_the_entry(self, cat):
        cat.create_file("f-burst", attributes={"exp": "burst", "run": 9})
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        writes = (
            lambda: cat.create_file("f3", attributes={"exp": "burst"}),
            lambda: cat.set_attributes(ObjectType.FILE, "f3", {"exp": "other"}),
            lambda: cat.set_attributes(ObjectType.FILE, "f1", {"run": 5}),
            lambda: cat.delete_file("f-burst"),
            lambda: cat.create_file("f-bare"),
            lambda: cat.annotate(ObjectType.FILE, "f1", "note", creator="t"),
        )
        for write in writes:
            write()
            hits = _query_hits(cat)
            assert cat.query(_pulsar_query()) == ["f1", "f2"]
            assert _query_hits(cat) == hits + 1

    @pytest.mark.parametrize(
        "write, want",
        (
            (lambda c: c.create_file("f3", attributes={"exp": "pulsar"}),
             ["f1", "f2", "f3"]),
            (lambda c: c.set_attributes(ObjectType.FILE, "f2", {"exp": "burst"}),
             ["f1"]),
            (lambda c: c.delete_file("f1"), ["f2"]),
        ),
        ids=("create", "set_attributes", "delete"),
    )
    def test_matching_write_misses_with_the_right_answer(self, cat, write, want):
        cat.query(_pulsar_query())
        write(cat)
        hits = _query_hits(cat)
        rows_before = cat.cache.stats()["query"]["invalidated_by_row"]
        assert cat.query(_pulsar_query()) == want
        assert _query_hits(cat) == hits
        assert cat.cache.stats()["query"]["invalidated_by_row"] == rows_before + 1

    def test_a_non_driving_condition_invalidates(self, cat):
        # Distinct exp values make ``exp = pulsar`` the driving (most
        # selective) condition.  Moving f1's run from 1 to 2 adds f1 to
        # the answer although the changed row never matches exp = pulsar.
        for k in range(4):
            cat.create_file(f"b{k}", attributes={"exp": f"burst-{k}", "run": 2})
        query = ObjectQuery().where("run", "=", 2).where("exp", "=", "pulsar")
        (plan,) = cat._plan_object_query(query).leaf_plans
        assert query.conditions[plan.order[0]].attribute == "exp"
        assert cat.query(query) == ["f2"]
        cat.set_attributes(ObjectType.FILE, "f1", {"run": 2})
        assert cat.query(query) == ["f1", "f2"]

    def test_a_null_value_matches_no_key_and_no_test(self, cat):
        # A NULL satisfies no condition, so a row holding one changes no
        # leaf: neither ``run != 5`` (a test) nor ``run = NULL`` (a key).
        unequal = ObjectQuery().where("run", "!=", 5)
        null = ObjectQuery().where("run", "=", None)
        assert cat.query(unequal) == ["f1", "f2"]
        assert cat.query(null) == []
        cat.create_file("f-null", attributes={"run": None})
        hits = _query_hits(cat)
        assert cat.query(unequal) == ["f1", "f2"]
        assert cat.query(null) == []
        assert _query_hits(cat) == hits + 2

    def test_ranges_and_a_float_attribute_against_an_int_literal(self, cat):
        cat.define_attribute("gain", "float")
        cat.set_attributes(ObjectType.FILE, "f1", {"gain": 1.5})
        between = ObjectQuery().where("gain", "between", [1, 3])
        equal = ObjectQuery().where("gain", "=", 2)
        assert cat.query(between) == ["f1"]
        assert cat.query(equal) == []
        cat.create_file("f-out", attributes={"gain": 7.0})
        hits = _query_hits(cat)
        assert cat.query(between) == ["f1"]
        assert cat.query(equal) == []
        assert _query_hits(cat) == hits + 2
        cat.set_attributes(ObjectType.FILE, "f-out", {"gain": 2.0})  # into both
        assert cat.query(between) == ["f-out", "f1"]
        assert cat.query(equal) == ["f-out"]
        cat.set_attributes(ObjectType.FILE, "f1", {"gain": 3.5})  # out of range
        assert cat.query(between) == ["f-out"]

    def test_object_delete_without_its_attribute_rows_goes_table_level(self, cat):
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        file_id = cat.get_file("f1").id
        cat._conn.execute("DELETE FROM logical_file WHERE id = ?", (file_id,))
        assert cat.query(_pulsar_query()) == ["f2"]

    def test_object_delete_leaving_some_attribute_rows_goes_table_level(self, cat):
        # The commit deletes f1's run row and f1, but leaves its exp row:
        # the cached exp = pulsar leaf loses f1 without an exp row saying so.
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        file_id = cat.get_file("f1").id
        conn = cat._conn
        conn.begin()
        conn.execute(
            "DELETE FROM attribute_value WHERE object_type = 'file' "
            "AND object_id = ? AND attr_id = ?",
            (file_id, cat.get_attribute_def("run").id),
        )
        conn.execute("DELETE FROM logical_file WHERE id = ?", (file_id,))
        conn.commit()
        assert cat.query(_pulsar_query()) == ["f2"]

    def test_explicit_id_insert_goes_table_level(self, cat):
        file_id = cat.get_file("f1").id
        cat._conn.execute("DELETE FROM logical_file WHERE id = ?", (file_id,))
        assert cat.query(_pulsar_query()) == ["f2"]
        # Re-inserting the id revives the orphaned attribute rows.
        cat._conn.execute(
            "INSERT INTO logical_file (id, name, version, valid, "
            "audit_enabled) VALUES (?, 'f1', 1, TRUE, FALSE)",
            (file_id,),
        )
        assert cat.query(_pulsar_query()) == ["f1", "f2"]

    def test_object_updates_go_table_level(self, cat):
        cat.create_collection("c")
        valid = ObjectQuery(valid_only=True).where("exp", "=", "pulsar")
        in_c = ObjectQuery(collection="c").where("exp", "=", "pulsar")
        assert cat.query(valid) == ["f1", "f2"]
        assert cat.query(in_c) == []
        cat.invalidate_file("f1")
        assert cat.query(valid) == ["f2"]
        cat.move_file_to_collection("f2", "c")
        assert cat.query(in_c) == ["f2"]

    def test_ddl_invalidates_keyed_entries(self, cat):
        cat.query(_pulsar_query())
        tables_before = cat.cache.stats()["query"]["invalidated_by_table"]
        make_index(cat._conn, "av_probe", "attribute_value", ("object_id",))
        hits = _query_hits(cat)
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        assert _query_hits(cat) == hits
        assert cat.cache.stats()["query"]["invalidated_by_table"] == tables_before + 1

    def test_eviction_unregisters_dependencies(self, cat):
        cat.cache = CatalogCache(cat.db, query_capacity=2, object_capacity=2)
        registry = cat.db.generations.keyed
        for run in range(8):
            cat.query(ObjectQuery().where("run", "=", run))
            cat.get_attributes(ObjectType.FILE, ("f1", "f2")[run % 2])
        assert len(registry) <= 4
        cat.cache.clear()
        assert len(registry) == 0


class TestRowKeyedNameResolution:
    def test_a_read_racing_a_commit_is_not_stored_as_valid(self, cat):
        # The miss snapshots its dependency, then a commit changes the
        # row before the (now stale) value is stored: the store is void.
        conn = cat._conn
        token = cat.cache.lookup_object_id(conn, "logical_file", "f1", None)
        assert not token.hit
        stale = (cat.get_file("f1").id, None)
        cat.create_collection("c")
        cat.move_file_to_collection("f1", "c")
        token.store(stale)
        assert not cat.cache.lookup_object_id(conn, "logical_file", "f1", None).hit

    def test_a_read_racing_an_unrelated_commit_is_stored(self, cat):
        conn = cat._conn
        token = cat.cache.lookup_object_id(conn, "logical_file", "f1", None)
        value = (cat.get_file("f1").id, None)
        cat.create_file("f3")
        token.store(value)
        assert cat.cache.lookup_object_id(conn, "logical_file", "f1", None).hit

    def test_other_files_writes_keep_the_name_entry(self, cat):
        cat.get_attributes(ObjectType.FILE, "f1")
        for write in (
            lambda: cat.create_file("f3", attributes={"exp": "x"}),
            lambda: cat.delete_file("f2"),
            lambda: cat.invalidate_file("f3"),
        ):
            write()
            hits = cat.cache.stats()["object"]["hits"]
            cat.get_attributes(ObjectType.FILE, "f1")
            assert cat.cache.stats()["object"]["hits"] == hits + 1

    def test_own_changes_invalidate_the_name_entry(self, cat):
        cat.create_collection("c")
        cat.get_attributes(ObjectType.FILE, "f1")
        cat.move_file_to_collection("f1", "c")
        misses = cat.cache.stats()["object"]["misses"]
        cat.get_attributes(ObjectType.FILE, "f1")
        assert cat.cache.stats()["object"]["misses"] == misses + 1
        # A second version makes the version-less name ambiguous.
        cat.create_file("f1", version=2)
        with pytest.raises(InvalidAttributeError):
            cat.get_attributes(ObjectType.FILE, "f1")
        cat.delete_file("f1", version=2)
        cat.delete_file("f1", version=1)
        with pytest.raises(ObjectNotFoundError):
            cat.get_attributes(ObjectType.FILE, "f1")


class TestAttrDefAndObjectCaches:
    def test_attr_def_cache_hits_and_invalidates(self, cat):
        cat.get_attribute_def("exp")
        before = cat.cache.stats()["attr_def"]["hits"]
        assert cat.get_attribute_def("exp").name == "exp"
        assert cat.cache.stats()["attr_def"]["hits"] == before + 1
        # A schema write bumps attribute_def; next read must re-miss.
        cat.define_attribute("fresh", "float")
        misses = cat.cache.stats()["attr_def"]["misses"]
        assert cat.get_attribute_def("exp").value_type.value == "string"
        assert cat.cache.stats()["attr_def"]["misses"] == misses + 1

    def test_object_cache_survives_delete_recreate(self, cat):
        # Warm the name -> id mapping, then delete and recreate the file;
        # the stale id must not resurface.
        cat.set_attributes(ObjectType.FILE, "f1", {"run": 7})
        cat.delete_file("f1")
        cat.create_file("f1", attributes={"exp": "burst"})
        cat.set_attributes(ObjectType.FILE, "f1", {"run": 9})
        assert cat.get_attributes(ObjectType.FILE, "f1") == {
            "exp": "burst", "run": 9,
        }


class TestEnabledFlag:
    def test_disabled_catalog_never_hits(self):
        cat = MetadataCatalog(cache=False)
        cat.define_attribute("exp", "string")
        cat.create_file("f1", attributes={"exp": "x"})
        q = ObjectQuery().where("exp", "=", "x")
        assert cat.query(q) == ["f1"]
        assert cat.query(q) == ["f1"]
        stats = cat.cache.stats()
        assert stats["enabled"] is False
        assert stats["query"]["hits"] == 0
        assert stats["query"]["bypasses"] >= 2

    def test_runtime_toggle_revalidates(self, cat):
        cat.query(_pulsar_query())
        cat.cache.enabled = False
        cat.create_file("f3", attributes={"exp": "pulsar"})
        assert cat.query(_pulsar_query()) == ["f1", "f2", "f3"]
        cat.cache.enabled = True
        # The pre-toggle entry is stale; generations catch it.
        assert cat.query(_pulsar_query()) == ["f1", "f2", "f3"]


class TestTransactionSemantics:
    def test_mid_transaction_reads_bypass_and_rollback_leaves_no_trace(self, cat):
        baseline = cat.query(_pulsar_query())
        conn = cat._conn
        conn.begin()
        try:
            conn.lock_tables(
                read=("logical_collection", "attribute_def"),
                write=("logical_file", "attribute_value"),
            )
            cat.create_file("txn-file", attributes={"exp": "pulsar"})
            bypasses = cat.cache.stats()["query"]["bypasses"]
            # The transaction sees its own uncommitted write...
            assert cat.query(_pulsar_query()) == ["f1", "f2", "txn-file"]
            # ...via a bypass, never through the shared cache.
            assert cat.cache.stats()["query"]["bypasses"] == bypasses + 1
        finally:
            conn.rollback()
        assert cat.query(_pulsar_query()) == baseline

    def test_atomic_bulk_failure_publishes_nothing(self, cat):
        cat.query(_pulsar_query())
        gen_before = cat.db.generations.get("logical_file")
        hits_before = cat.cache.stats()["query"]["hits"]
        with pytest.raises(DuplicateObjectError):
            cat.bulk_create_files(
                [
                    {"name": "new-a", "attributes": {"exp": "pulsar"}},
                    {"name": "f1"},  # duplicate: poisons the batch
                ],
                atomic=True,
            )
        assert cat.db.generations.get("logical_file") == gen_before
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        assert cat.cache.stats()["query"]["hits"] == hits_before + 1

    def test_savepoint_rollback_publishes_no_invalidations(self, cat):
        cat.query(_pulsar_query())
        gen_before = cat.db.generations.get("logical_file")
        outcomes = cat.bulk_create_files(
            [{"name": "f1"}, {"name": "f2"}],  # every item a duplicate
            atomic=False,
        )
        assert [ok for ok, _ in outcomes] == [False, False]
        # All work was reverted via savepoints; the commit carries no
        # records for logical_file, so no invalidation is published.
        assert cat.db.generations.get("logical_file") == gen_before
        hits_before = cat.cache.stats()["query"]["hits"]
        assert cat.query(_pulsar_query()) == ["f1", "f2"]
        assert cat.cache.stats()["query"]["hits"] == hits_before + 1

    def test_partial_savepoint_rollback_publishes_survivors(self, cat):
        cat.query(_pulsar_query())
        outcomes = cat.bulk_create_files(
            [
                {"name": "f1"},  # duplicate: rolled back
                {"name": "f3", "attributes": {"exp": "pulsar"}},  # survives
            ],
            atomic=False,
        )
        assert [ok for ok, _ in outcomes] == [False, True]
        assert cat.query(_pulsar_query()) == ["f1", "f2", "f3"]


class TestReplicaInvalidation:
    def test_replica_cache_invalidated_on_apply(self):
        cluster = ReplicatedMCS(replicas=1, synchronous=True)
        try:
            writer = cluster.write_client(caller="w")
            reader = cluster.replica_client(0, caller="r")
            writer.define_attribute("k", "int")
            writer.create_logical_file("f1", attributes={"k": 1})
            q = ObjectQuery().where("k", "=", 1)
            assert reader.query(q) == ["f1"]
            assert reader.query(q) == ["f1"]  # warm the replica cache
            writer.create_logical_file("f2", attributes={"k": 1})
            # Synchronous apply bumped the replica's generations.
            assert reader.query(q) == ["f1", "f2"]
        finally:
            cluster.close()


class TestStatsSurfaces:
    def test_cache_stats_shape(self, cat):
        cat.query(_pulsar_query())
        stats = cat.cache.stats()
        assert stats["enabled"] is True
        for name in ("attr_def", "object", "query"):
            section = stats[name]
            assert set(section) == {
                "hits", "misses", "bypasses", "hit_ratio", "entries",
                "evictions", "invalidated_by_row", "invalidated_by_table",
            }
        assert stats["query"]["entries"] >= 1

    def test_op_stats_exposes_cache_section(self, cat):
        from repro.core.service import MCSService

        service = MCSService(cat)
        stats = service.handle("stats", {"caller": "t"})
        assert stats["cache"]["enabled"] is True
        assert "query" in stats["cache"]

    def test_metrics_families_registered(self, cat):
        from repro.obs.metrics import get_registry

        cat.query(_pulsar_query())
        cat.query(_pulsar_query())
        snapshot = get_registry().snapshot()
        assert "mcs_cache_requests_total" in snapshot
        assert "mcs_cache_hit_ratio" in snapshot
        assert "mcs_cache_invalidations_total" in snapshot
