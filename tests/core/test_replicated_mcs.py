"""Tests for the replicated MCS deployment (§9)."""

import pytest

from repro.core import ObjectQuery
from repro.core.replicated import ReplicatedMCS


class TestSynchronousCluster:
    @pytest.fixture
    def cluster(self):
        cluster = ReplicatedMCS(replicas=2, synchronous=True)
        yield cluster
        cluster.close()

    def test_writes_visible_on_every_replica(self, cluster):
        writer = cluster.write_client(caller="w")
        writer.define_attribute("k", "int")
        writer.create_logical_file("f1", attributes={"k": 1})
        for index in range(cluster.replica_count):
            reader = cluster.replica_client(index, caller="r")
            assert reader.get_logical_file("f1")["name"] == "f1"
            assert reader.query(ObjectQuery().where("k", "=", 1)) == ["f1"]

    def test_strict_consistency_no_lag(self, cluster):
        writer = cluster.write_client()
        writer.define_attribute("k", "int")
        for i in range(10):
            writer.create_logical_file(f"f{i}", attributes={"k": i})
        assert cluster.lag() == [0, 0]

    def test_read_clients_round_robin(self, cluster):
        a = cluster.read_client()
        b = cluster.read_client()
        c = cluster.read_client()
        # With 2 replicas, the 1st and 3rd read client share a service.
        assert a._transport._handler.__self__ is c._transport._handler.__self__
        assert a._transport._handler.__self__ is not b._transport._handler.__self__

    def test_deletes_replicate(self, cluster):
        writer = cluster.write_client()
        writer.create_logical_file("gone")
        writer.delete_logical_file("gone")
        reader = cluster.read_client()
        from repro.core.errors import ObjectNotFoundError

        with pytest.raises(ObjectNotFoundError):
            reader.get_logical_file("gone")

    def test_full_catalog_surface_replicates(self, cluster):
        writer = cluster.write_client(caller="alice")
        writer.define_attribute("x", "string")
        writer.create_collection("c1")
        writer.create_logical_file("f1", collection="c1", attributes={"x": "v"})
        writer.create_view("v1")
        writer.add_to_view("v1", files=["f1"])
        writer.annotate("file", "f1", "note")
        writer.add_transformation("f1", "step 1")
        reader = cluster.read_client(caller="bob")
        assert reader.list_collection("c1") == ["f1"]
        assert [m["name"] for m in reader.list_view("v1")] == ["f1"]
        assert reader.get_annotations("file", "f1")[0]["text"] == "note"
        assert reader.get_transformations("f1")[0]["description"] == "step 1"


class TestAsynchronousCluster:
    def test_eventual_consistency(self):
        cluster = ReplicatedMCS(replicas=1, synchronous=False)
        try:
            writer = cluster.write_client()
            writer.define_attribute("k", "int")
            for i in range(20):
                writer.create_logical_file(f"f{i}", attributes={"k": i})
            cluster.flush()
            reader = cluster.read_client()
            assert reader.stats()["files"] == 20
        finally:
            cluster.close()


class TestFailover:
    def test_promote_replica(self):
        cluster = ReplicatedMCS(replicas=2, synchronous=True)
        try:
            writer = cluster.write_client()
            writer.define_attribute("k", "int")
            writer.create_logical_file("f1", attributes={"k": 1})
            promoted = cluster.promote(0)
            assert cluster.replica_count == 1
            # Promoted copy holds the data and accepts writes.
            new_writer = promoted.write_client()
            assert new_writer.get_logical_file("f1")["name"] == "f1"
            new_writer.create_logical_file("f2", attributes={"k": 2})
            assert new_writer.query(ObjectQuery().where("k", "=", 2)) == ["f2"]
            # Old cluster unaffected by writes to the promoted copy.
            reader = cluster.read_client()
            from repro.core.errors import ObjectNotFoundError

            with pytest.raises(ObjectNotFoundError):
                reader.get_logical_file("f2")
        finally:
            cluster.close()

    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError):
            ReplicatedMCS(replicas=0)
