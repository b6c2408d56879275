"""Client behaviour across transports (direct, loopback codec, HTTP)."""

import datetime as dt

import pytest

from repro.core import MCSClient, MCSService, ObjectQuery
from repro.core.errors import DuplicateObjectError, ObjectNotFoundError
from repro.soap import SoapServer
from repro.soap.transport import LoopbackCodecTransport


@pytest.fixture(scope="module")
def http_setup():
    service = MCSService()
    server = SoapServer(service.handle, fault_mapper=service.fault_mapper).start()
    yield service, server
    server.stop()


def make_clients(http_setup):
    service, server = http_setup
    return {
        "direct": MCSClient.in_process(service, caller="t"),
        "codec": MCSClient(LoopbackCodecTransport(service.handle), caller="t"),
        "http": MCSClient.connect(*server.endpoint, caller="t"),
    }


class TestTransportParity:
    """The same operations must behave identically over every transport."""

    def test_full_lifecycle_per_transport(self, http_setup):
        for label, client in make_clients(http_setup).items():
            fname = f"file-{label}"
            aname = f"attr_{label}"
            client.define_attribute(aname, "int")
            client.create_logical_file(fname, attributes={aname: 7})
            got = client.get_logical_file(fname)
            assert got["name"] == fname
            assert client.get_attributes("file", fname) == {aname: 7}
            assert client.query(ObjectQuery().where(aname, "=", 7)) == [fname]
            assert client.query(ObjectQuery().where(aname, "=", 8)) == []
            client.delete_logical_file(fname)
            with pytest.raises(ObjectNotFoundError):
                client.get_logical_file(fname)

    def test_datetime_values_cross_http(self, http_setup):
        service, server = http_setup
        client = MCSClient.connect(*server.endpoint, caller="t")
        client.define_attribute("when", "datetime")
        stamp = dt.datetime(2003, 11, 15, 12, 0, 0)
        client.create_logical_file("dated", attributes={"when": stamp})
        assert client.get_attributes("file", "dated")["when"] == stamp
        created = client.get_logical_file("dated")["created"]
        assert isinstance(created, dt.datetime)
        client.close()

    def test_carriage_returns_cross_every_transport(self, http_setup):
        """A string attribute set over SOAP reads back as it would in
        process: ``\\r`` and ``\\r\\n`` are not normalized to ``\\n``."""
        for label, client in make_clients(http_setup).items():
            aname = f"note_{label}"
            fname = f"cr-{label}"
            client.define_attribute(aname, "string")
            client.create_logical_file(fname)
            client.set_attributes("file", fname, {aname: "a\rb"})
            assert client.get_attributes("file", fname) == {aname: "a\rb"}, label
            client.set_attributes("file", fname, {aname: "a\r\nb"})
            assert client.get_attributes("file", fname) == {aname: "a\r\nb"}, label
            client.close()

    def test_typed_errors_cross_http(self, http_setup):
        service, server = http_setup
        client = MCSClient.connect(*server.endpoint, caller="t")
        client.create_logical_file("dup-test")
        with pytest.raises(DuplicateObjectError):
            client.create_logical_file("dup-test")
        client.close()

    def test_query_object_cross_http(self, http_setup):
        service, server = http_setup
        client = MCSClient.connect(*server.endpoint, caller="t")
        client.define_attribute("band", "float")
        client.create_logical_file("q1", attributes={"band": 10.0})
        client.create_logical_file("q2", attributes={"band": 99.0})
        q = ObjectQuery().where("band", "between", (5.0, 20.0))
        assert client.query(q) == ["q1"]
        client.close()

    def test_ping(self, http_setup):
        for client in make_clients(http_setup).values():
            assert client.ping() == "pong"

    def test_stats_shape(self, http_setup):
        service, server = http_setup
        client = MCSClient.in_process(service, caller="t")
        stats = client.stats()
        assert set(stats) >= {"files", "collections", "views", "attributes"}
