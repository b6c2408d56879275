"""Tests for the unified client query surface and the shared fault table.

Covers the fluent ``ObjectQuery`` builder (``limit``/``offset``/
``order_by``) end to end — catalog SQL, SOAP envelope, client — plus the
deprecated query shims and the typed ``AttributeDef`` wire round-trip.
"""

import datetime as dt

import pytest

from repro.core import (
    MCSClient,
    MCSService,
    MetadataCatalog,
    ObjectQuery,
    ObjectType,
)
from repro.core.errors import (
    DuplicateObjectError,
    ObjectNotFoundError,
    QueryError,
    exception_from_fault,
    fault_code_for,
)
from repro.core.model import AttributeDef, AttributeType
from repro.security.errors import AuthorizationError, CertificateError


@pytest.fixture
def cat():
    cat = MetadataCatalog()
    cat.define_attribute("exp", "string")
    for i in range(6):
        cat.create_file(f"f{i}", data_type="binary" if i % 2 else "xml",
                        attributes={"exp": "pulsar"})
    return cat


@pytest.fixture
def client(cat):
    return MCSClient.in_process(MCSService(cat), caller="t")


class TestFluentQuery:
    def test_order_by_and_pagination_in_catalog(self, cat):
        q = (
            ObjectQuery()
            .where("exp", "=", "pulsar")
            .order_by("name")
            .limit(2)
            .offset(1)
        )
        assert cat.query(q) == ["f1", "f2"]

    def test_order_by_descending(self, cat):
        q = ObjectQuery().where("exp", "=", "pulsar").order_by(
            "name", descending=True
        ).limit(2)
        assert cat.query(q) == ["f5", "f4"]

    def test_offset_without_limit(self, cat):
        q = ObjectQuery().where("exp", "=", "pulsar").order_by("name").offset(4)
        assert cat.query(q) == ["f4", "f5"]

    def test_negative_limit_rejected_eagerly(self):
        with pytest.raises(QueryError):
            ObjectQuery().limit(-1)
        with pytest.raises(QueryError):
            ObjectQuery().offset(-3)

    def test_unknown_order_field_rejected_eagerly(self):
        with pytest.raises(QueryError):
            ObjectQuery().order_by("bogus")

    def test_none_clears_pagination(self, cat):
        q = ObjectQuery().where("exp", "=", "pulsar").limit(2).limit(None)
        assert len(cat.query(q)) == 6

    def test_pagination_round_trips_the_wire(self, client):
        q = (
            ObjectQuery()
            .where("exp", "=", "pulsar")
            .order_by("name", descending=True)
            .limit(3)
            .offset(2)
        )
        assert client.query(q) == ["f3", "f2", "f1"]

    def test_pagination_windows_tile_the_result(self, client):
        base = ObjectQuery().where("exp", "=", "pulsar").order_by("name")
        pages = [
            client.query(
                ObjectQuery()
                .where("exp", "=", "pulsar")
                .order_by("name")
                .limit(2)
                .offset(k)
            )
            for k in (0, 2, 4)
        ]
        assert [n for page in pages for n in page] == client.query(base)


class TestWhereEqual:
    def test_one_equality_condition_per_item(self, client):
        built = ObjectQuery().where_equal({"exp": "pulsar", "run": 3})
        assert [(c.attribute, c.op, c.value) for c in built.conditions] == [
            ("exp", "=", "pulsar"),
            ("run", "=", 3),
        ]
        assert client.query(ObjectQuery().where_equal({"exp": "pulsar"})) == client.query(
            ObjectQuery().where("exp", "=", "pulsar")
        )


class TestTypedAttributeDefs:
    def test_client_returns_dataclasses(self, client):
        defs = client.list_attribute_defs()
        assert all(isinstance(d, AttributeDef) for d in defs)
        by_name = {d.name: d for d in defs}
        assert by_name["exp"].value_type is AttributeType.STRING
        assert ObjectType.FILE in by_name["exp"].object_types

    def test_to_dict_round_trip(self):
        definition = AttributeDef(
            id=7,
            name="taken",
            value_type=AttributeType.DATE,
            object_types=frozenset({ObjectType.FILE}),
            description="acquisition date",
            creator="alice",
            created=dt.datetime(2003, 11, 15, 12, 0, 0),
        )
        assert AttributeDef.from_dict(definition.to_dict()) == definition

    def test_from_dict_accepts_iso_strings(self):
        rebuilt = AttributeDef.from_dict(
            {
                "id": 1,
                "name": "x",
                "value_type": "int",
                "object_types": ["file"],
                "created": "2003-11-15T12:00:00",
            }
        )
        assert rebuilt.created == dt.datetime(2003, 11, 15, 12, 0, 0)


class TestFaultTable:
    def test_fault_code_for_mcs_errors(self):
        assert fault_code_for(ObjectNotFoundError("x")) == "MCS.NotFound"
        assert fault_code_for(DuplicateObjectError("x")) == "MCS.Duplicate"

    def test_security_errors_collapse_to_permission_denied(self):
        assert fault_code_for(AuthorizationError("x")) == "MCS.PermissionDenied"
        assert fault_code_for(CertificateError("x")) == "MCS.PermissionDenied"

    def test_foreign_exceptions_unmapped(self):
        assert fault_code_for(ValueError("x")) is None
        assert fault_code_for(TypeError("x")) is None

    def test_exception_from_fault_round_trip(self):
        exc = exception_from_fault("MCS.NotFound", "gone")
        assert isinstance(exc, ObjectNotFoundError)
        assert str(exc) == "gone"
        assert exception_from_fault("Server", "boom") is None
        # Unknown MCS.* codes degrade to the base error, never to None.
        unknown = exception_from_fault("MCS.Futuristic", "m")
        assert type(unknown).__name__ == "MCSError"

    def test_single_call_raises_typed_error(self, client):
        with pytest.raises(ObjectNotFoundError):
            client.get_logical_file("nope")

    def test_bulk_item_raises_same_typed_error(self, client):
        with client.bulk() as batch:
            handle = batch.call("get_logical_file", name="nope")
        assert isinstance(handle.error, ObjectNotFoundError)
        with pytest.raises(ObjectNotFoundError):
            handle.unwrap()
