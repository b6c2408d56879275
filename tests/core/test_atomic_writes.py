"""Multi-statement catalog writes land whole or not at all.

* a ``create_collection`` / ``create_view`` whose attributes are refused
  leaves no object behind;
* two concurrent re-parentings cannot both pass the cycle walk;
* a new object's attributes are inserted, never "updated, then inserted".
"""

import threading

import pytest

from repro.core import (
    CycleError,
    InvalidAttributeError,
    MetadataCatalog,
    ObjectNotFoundError,
    ObjectType,
)
from repro.db.engine import Connection


@pytest.fixture
def cat():
    cat = MetadataCatalog()
    cat.define_attribute("run", "int")
    return cat


def test_failed_create_collection_leaves_nothing(cat):
    with pytest.raises(InvalidAttributeError):
        cat.create_collection("c", attributes={"run": 1, "undefined": 2})
    with pytest.raises(ObjectNotFoundError):
        cat.get_collection("c")
    cat.create_collection("c", attributes={"run": 1})
    assert cat.get_attributes(ObjectType.COLLECTION, "c") == {"run": 1}


def test_failed_create_view_leaves_nothing(cat):
    with pytest.raises(InvalidAttributeError):
        cat.create_view("v", attributes={"run": 1, "undefined": 2})
    with pytest.raises(ObjectNotFoundError):
        cat.get_view("v")
    cat.create_view("v", attributes={"run": 1})
    assert cat.get_attributes(ObjectType.VIEW, "v") == {"run": 1}


def test_concurrent_reparenting_cannot_create_a_cycle(cat, monkeypatch):
    cat.create_collection("a")
    cat.create_collection("b")
    paused, release = threading.Event(), threading.Event()
    execute = Connection.execute

    def pausing_execute(self, sql, params=()):
        # The first caller stops between its ancestor walk and its UPDATE.
        if threading.current_thread().name == "first" and sql.startswith(
            "UPDATE logical_collection SET parent_id"
        ):
            paused.set()
            release.wait(10)
        return execute(self, sql, params)

    monkeypatch.setattr(Connection, "execute", pausing_execute)
    outcome = {}

    def reparent(child, parent):
        try:
            cat.set_collection_parent(child, parent)
            outcome[threading.current_thread().name] = None
        except Exception as exc:  # noqa: BLE001 - recorded for the asserts
            outcome[threading.current_thread().name] = exc

    first = threading.Thread(target=reparent, args=("a", "b"), name="first")
    first.start()
    assert paused.wait(10)
    second = threading.Thread(target=reparent, args=("b", "a"), name="second")
    second.start()
    # Unlocked, the second walk passes and its UPDATE lands right here;
    # locked, it waits for the first call's transaction.
    second.join(0.5)
    release.set()
    first.join(10)
    second.join(10)
    assert outcome["first"] is None
    assert isinstance(outcome["second"], CycleError)
    assert cat.collection_chain("a") == ["a", "b"]
    assert cat.collection_chain("b") == ["b"]


def test_new_object_attributes_are_inserted_not_updated(cat, monkeypatch):
    cat.define_attribute("site", "string")
    attributes = {"run": 3, "site": "x"}
    statements = []
    execute = Connection.execute

    def counting_execute(self, sql, params=()):
        statements.append(sql)
        return execute(self, sql, params)

    monkeypatch.setattr(Connection, "execute", counting_execute)
    cat.create_file("f", attributes=attributes)
    cat.create_collection("c", attributes=attributes)
    cat.create_view("v", attributes=attributes)
    assert not [s for s in statements if s.startswith("UPDATE attribute_value")]
    for object_type, name in (
        (ObjectType.FILE, "f"),
        (ObjectType.COLLECTION, "c"),
        (ObjectType.VIEW, "v"),
    ):
        assert cat.get_attributes(object_type, name) == attributes
    # An existing object's attributes are still replaced in place.
    cat.set_attributes(ObjectType.FILE, "f", {"run": 4})
    assert cat.get_attributes(ObjectType.FILE, "f") == {"run": 4, "site": "x"}
