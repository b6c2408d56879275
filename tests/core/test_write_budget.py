"""Statement budgets of the catalog's write paths.

``perf-smoke`` checks answers, not counts, so this is what notices the
next write-path regression: each write below is counted at the engine
(``execute`` + ``executemany``, BEGIN and COMMIT included, authorization
not involved) and held to a stated ceiling.  No statement may name the
statistics table earlier layouts kept: planner statistics are counted
by the indexes and cost the write path nothing.
"""

import datetime as dt

import pytest

from repro.core import MetadataCatalog, ObjectType
from repro.db.engine import Connection

#: Ten attributes over five value types.
ATTRIBUTES = {
    f"a{i}": value
    for i, value in enumerate(
        ("s", 1, 0.5, dt.date(2003, 11, 15), dt.datetime(2003, 11, 15, 9)) * 2
    )
}
TYPES = {str: "string", int: "int", float: "float", dt.date: "date", dt.datetime: "datetime"}


@pytest.fixture
def cat():
    cat = MetadataCatalog()
    for name, value in ATTRIBUTES.items():
        cat.define_attribute(name, TYPES[type(value)])
    cat.create_collection("c")
    cat.create_file("warm", collection="c", attributes=ATTRIBUTES)
    return cat


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


def _spent(statements, write):
    del statements[:]
    write()
    assert not [sql for sql in statements if "attribute_stats" in sql]
    return len(statements)


def test_create_file_with_ten_attributes(cat, statements):
    # BEGIN, the file row, one multi-row attribute INSERT, COMMIT.
    spent = _spent(
        statements, lambda: cat.create_file("f", collection="c", attributes=ATTRIBUTES)
    )
    assert spent <= 4, statements
    assert cat.get_attributes(ObjectType.FILE, "f") == ATTRIBUTES


def test_bulk_of_sixteen_files(cat, statements):
    entries = [{"name": f"b{i}", "attributes": ATTRIBUTES} for i in range(16)]
    spent = _spent(statements, lambda: cat.bulk_create_files(entries))
    assert spent <= 4, statements  # the same shape as one create


def test_set_attributes(cat, statements):
    # BEGIN, the object id, one UPDATE per value held, the rest in one
    # INSERT, COMMIT.
    spent = _spent(
        statements,
        lambda: cat.set_attributes(ObjectType.FILE, "warm", {"a0": "t", "a1": 2}),
    )
    assert spent <= 5, statements
    cat.remove_attribute(ObjectType.FILE, "warm", "a0")
    spent = _spent(
        statements,
        lambda: cat.set_attributes(ObjectType.FILE, "warm", {"a0": "u", "a1": 3}),
    )
    assert spent <= 6, statements
    assert cat.get_attributes(ObjectType.FILE, "warm")["a0"] == "u"


def test_delete_file(cat, statements):
    # BEGIN, the file row, one DELETE per dependent table and the file, COMMIT.
    spent = _spent(statements, lambda: cat.delete_file("warm"))
    assert spent <= 9, statements
