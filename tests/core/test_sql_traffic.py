"""The SQL the program issues, pinned by the plans it gets.

Every :data:`~repro.core.operations.OPERATIONS` row is driven once
through ``MCSClient.in_process``, each on a fresh object-granularity
catalog, and the discovery rows once more under the forced ``scan``
strategy (the MQL oracle).  Each ``(sql, params)`` that code under
``src/`` hands the engine is recorded, and its plan read back:

* every plan is ``seq``, ``index_eq``, ``empty`` or an inner index
  nested-loop join — the only shapes the engine has;
* the texts that plan ``seq`` are exactly :data:`SEQ_TEXTS`.  A new
  statement that walks a whole table fails here, not later as an
  unexplained benchmark slow-down.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.core import MCSClient, ObjectType
from repro.core.operations import OPERATIONS
from repro.db.engine import Connection
from repro.db.planner import bind_access, describe_access, plan_mutation
from repro.db.sql.ast import Delete, Select, Update
from repro.security import Permission
from tests.core.test_policy_matrix import CALLER, arguments, build, kinds_of

SRC = os.path.dirname(repro.__file__)
DB = os.path.join(SRC, "db")

#: The statements that read every row of their table, and why each may.
SEQ_TEXTS = {
    # ``stats``: one count per catalog table.
    "SELECT COUNT(*) FROM attribute_def",
    "SELECT COUNT(*) FROM attribute_value",
    "SELECT COUNT(*) FROM logical_collection",
    "SELECT COUNT(*) FROM logical_file",
    "SELECT COUNT(*) FROM logical_view",
    # ``list_attribute_defs`` and ``list_external_catalogs`` list a table.
    "SELECT name FROM attribute_def ORDER BY name",
    "SELECT name, catalog_type, host, port, description FROM external_catalog "
    "ORDER BY name",
    # The MQL scan oracle reads the EAV table and the object table whole.
    "SELECT attr_id, object_type, object_id, value FROM attribute_value",
    "SELECT id, name, name FROM logical_file",
}

LATER_LINES = (
    "INDEX NESTED LOOP JOIN -> INDEX LOOKUP ", "AGGREGATE BY ", "SORT BY ", "PROJECT "
)
DISCOVERY = ("query", "explain_query", "query_mql", "explain_mql", "bulk_query")


@pytest.fixture
def traffic(monkeypatch):
    """Every ``(sql, params)`` a module under ``src/`` (but not the
    engine itself) executes while the block runs."""
    seen: list[tuple[str, tuple]] = []

    def recording(original):
        def method(self, sql, params=()):
            caller = os.path.abspath(sys._getframe(1).f_code.co_filename)
            if caller.startswith(SRC) and not caller.startswith(DB):
                rows = params if original is Connection.executemany else [params]
                seen.extend((sql, tuple(p)) for p in rows)
            return original(self, sql, params)

        return method

    monkeypatch.setattr(Connection, "execute", recording(Connection.execute))
    monkeypatch.setattr(Connection, "executemany", recording(Connection.executemany))
    return seen


def drive(row, strategy=None):
    service = build("object")
    service.catalog.set_permissions(ObjectType.SERVICE, None, CALLER, Permission.all())
    service.catalog.mql_strategy = strategy
    MCSClient.in_process(service, caller=CALLER)._call(
        row.name, **arguments(row, kinds_of(row)[0])
    )
    return service.catalog


def plan_lines(catalog, sql: str, params: tuple) -> list[str]:
    stmt = catalog.db.parse(sql)
    if isinstance(stmt, Select):
        return [line for (line,) in catalog.db.connect().execute("EXPLAIN " + sql, params)]
    if isinstance(stmt, (Update, Delete)):
        access = plan_mutation(catalog.db.catalog, stmt.table, stmt.where)
        return [describe_access(bind_access(access, params))]
    return []  # INSERT and transaction control have no plan


def test_every_statement_the_program_issues_plans_to_a_known_shape(traffic):
    for row in OPERATIONS:
        drive(row)
    for row in OPERATIONS:
        if row.name in DISCOVERY:
            catalog = drive(row, strategy="scan")
    assert traffic, "no statement was recorded"

    seq_texts = set()
    for sql, params in dict.fromkeys(traffic):
        lines = plan_lines(catalog, sql, params)
        if not lines:
            continue
        assert lines[0].startswith(("SEQ SCAN ", "INDEX LOOKUP ", "EMPTY ")), (sql, lines)
        for line in lines[1:]:
            assert line.startswith(LATER_LINES), (sql, line)
        if lines[0].startswith("SEQ SCAN "):
            seq_texts.add(sql)
    assert seq_texts == SEQ_TEXTS
