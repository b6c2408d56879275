"""Client/service bulk operation surface across transports.

The stateful equivalence machinery lives in test_bulk_stateful.py; these
are the direct unit tests for the bulk API surface: pipelined
``client.bulk()`` contexts, the explicit ``bulk_*`` methods with their
atomicity contract, and parity between the in-process and HTTP paths.
"""

import pytest

from repro.core import MCSClient, MCSService, ObjectQuery
from repro.core.errors import DuplicateObjectError, ObjectNotFoundError
from repro.core.query import AttributeCondition
from repro.soap import SoapServer


@pytest.fixture()
def service() -> MCSService:
    svc = MCSService()
    svc.catalog.define_attribute("kind", "string")
    return svc


@pytest.fixture()
def client(service):
    c = MCSClient.in_process(service, caller="tester")
    yield c
    c.close()


class TestPipelinedBulk:
    def test_mixed_batch_isolates_faults(self, service, client):
        client.create_logical_file("dup")
        with client.bulk() as batch:
            ok1 = batch.call("create_logical_file", name="f1")
            bad = batch.call("create_logical_file", name="dup")
            ok2 = batch.call("create_logical_file", name="f2")
        assert ok1.ok and ok2.ok
        assert not bad.ok
        assert isinstance(bad.error, DuplicateObjectError)
        with pytest.raises(DuplicateObjectError):
            bad.unwrap()
        # Items after the faulted one still ran.
        assert service.catalog.stats()["files"] == 3

    def test_handles_raise_before_flush(self, client):
        batch = client.bulk()
        handle = batch.call("create_logical_file", name="pending")
        with pytest.raises(RuntimeError):
            handle.ok  # noqa: B018 - the property access is the test
        batch.flush()
        assert handle.ok

    def test_empty_flush_is_noop(self, client):
        assert client.bulk().flush() == []

    def test_exception_in_context_skips_flush(self, service, client):
        with pytest.raises(ValueError):
            with client.bulk() as batch:
                batch.call("create_logical_file", name="never-sent")
                raise ValueError("abort")
        assert service.catalog.stats()["files"] == 0

    def test_results_arrive_in_order(self, client):
        for name in ("a", "b"):
            client.create_logical_file(name)
        with client.bulk() as batch:
            handles = [
                batch.call("get_logical_file", name=name)
                for name in ("a", "b")
            ]
        assert [h.result["name"] for h in handles] == ["a", "b"]


class TestExplicitBulkMethods:
    def test_bulk_create_reports_ids(self, service, client):
        response = client.bulk_create_files(
            [{"name": f"f{i}", "attributes": {"kind": "x"}} for i in range(4)]
        )
        assert response["ok"] == 4
        ids = [item["result"]["id"] for item in response["items"]]
        assert len(set(ids)) == 4
        assert sorted(client.query(ObjectQuery().where("kind", "=", "x"))) == [
            f"f{i}" for i in range(4)
        ]

    def test_atomic_failure_applies_nothing(self, service, client):
        client.create_logical_file("dup")
        with pytest.raises(DuplicateObjectError):
            client.bulk_create_files(
                [{"name": "fresh"}, {"name": "dup"}], atomic=True
            )
        assert service.catalog.stats()["files"] == 1  # only "dup" itself

    def test_non_atomic_keeps_survivors(self, service, client):
        client.create_logical_file("dup")
        response = client.bulk_create_files(
            [{"name": "fresh-1"}, {"name": "dup"}, {"name": "fresh-2"}],
            atomic=False,
        )
        assert [item["ok"] for item in response["items"]] == [
            True,
            False,
            True,
        ]
        assert response["ok"] == 2
        assert service.catalog.stats()["files"] == 3

    def test_bulk_set_attributes_non_atomic(self, service, client):
        client.create_logical_file("f1")
        client.create_logical_file("f2")
        response = client.bulk_set_attributes(
            [
                {"name": "f1", "attributes": {"kind": "a"}},
                {"name": "ghost", "attributes": {"kind": "a"}},
                {"name": "f2", "attributes": {"kind": "a"}},
            ],
            atomic=False,
        )
        assert [item["ok"] for item in response["items"]] == [
            True,
            False,
            True,
        ]
        assert sorted(client.query(ObjectQuery().where("kind", "=", "a"))) == [
            "f1",
            "f2",
        ]

    def test_bulk_set_attributes_atomic_failure(self, service, client):
        client.create_logical_file("f1")
        with pytest.raises(ObjectNotFoundError):
            client.bulk_set_attributes(
                [
                    {"name": "f1", "attributes": {"kind": "a"}},
                    {"name": "ghost", "attributes": {"kind": "a"}},
                ],
                atomic=True,
            )
        assert client.query(ObjectQuery().where("kind", "=", "a")) == []

    def test_bulk_query_mixes_results_and_faults(self, service, client):
        client.create_logical_file("f1", attributes={"kind": "q"})
        good = ObjectQuery(conditions=[AttributeCondition("kind", "=", "q")])
        response = client.bulk_query(
            [good, {"object_type": "no-such-type"}]
        )
        items = response["items"]
        assert response["ok"] == 1
        assert items[0]["ok"] and items[0]["result"] == ["f1"]
        assert not items[1]["ok"]


class TestHttpParity:
    def test_bulk_surface_over_http(self, service):
        server = SoapServer(
            service.handle, fault_mapper=service.fault_mapper
        ).start()
        client = MCSClient.connect(*server.endpoint, caller="tester")
        try:
            response = client.bulk_create_files(
                [{"name": f"h{i}", "attributes": {"kind": "h"}}
                 for i in range(3)]
            )
            assert response["ok"] == 3
            with client.bulk() as batch:
                hit = batch.call("get_logical_file", name="h0")
                miss = batch.call("get_logical_file", name="nope")
            assert hit.result["name"] == "h0"
            assert isinstance(miss.error, ObjectNotFoundError)
            assert sorted(
                client.query(ObjectQuery().where("kind", "=", "h"))
            ) == ["h0", "h1", "h2"]
        finally:
            client.close()
            server.stop()
