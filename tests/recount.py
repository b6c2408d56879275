"""The planner's statistics against an exact recount of ``attribute_value``.

The planner reads counts the attribute indexes keep as rows come and go;
these helpers recount the same figures in Python over the plain rows, so
a test can hold the two equal after any sequence of writes without
trusting the engine's own counting.
"""

from __future__ import annotations

from repro.db.types import sort_key
from repro.mql.planner import attribute_counts


def planner_counts(catalog) -> dict:
    """``{attribute: (rows, distinct)}`` as planned."""
    per_attribute = {
        d.name: attribute_counts(catalog, d) for d in catalog.list_attribute_defs()
    }
    return {"attributes": per_attribute}


def recounted(catalog) -> dict:
    """The same figures, recounted over ``SELECT attr_id, value`` rows."""
    conn = catalog.db.connect()
    try:
        rows = conn.execute("SELECT attr_id, value FROM attribute_value").fetchall()
    finally:
        conn.close()
    postings: dict = {}
    for attr_id, value in rows:
        counted = postings.setdefault(attr_id, [0, set()])
        counted[0] += 1
        if value is not None:
            counted[1].add(sort_key(value))
    per_attribute = {}
    for d in catalog.list_attribute_defs():
        count, values = postings.get(d.id, (0, ()))
        per_attribute[d.name] = (float(count), float(len(values)))
    return {"attributes": per_attribute}


def assert_counts_exact(catalog, where: str = "") -> None:
    planned, exact = planner_counts(catalog), recounted(catalog)
    assert planned == exact, f"planner counts drifted{where}: {planned} != {exact}"
