"""The planner's statistics against an exact recount of ``attribute_value``.

The planner reads counts the attribute indexes keep as rows come and go;
these helpers recount the same figures with ``SELECT … GROUP BY`` so a
test can hold the two equal after any sequence of writes.
"""

from __future__ import annotations

from repro.core import ObjectType
from repro.mql.planner import attribute_counts, object_type_rows

OBJECT_TYPES = (ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW)


def planner_counts(catalog) -> dict:
    """``{attribute: (rows, distinct)}`` plus ``{object type: rows}`` as planned."""
    per_attribute = {
        d.name: attribute_counts(catalog, d) for d in catalog.list_attribute_defs()
    }
    per_type = {t.value: object_type_rows(catalog, t) for t in OBJECT_TYPES}
    return {"attributes": per_attribute, "object_types": per_type}


def recounted(catalog) -> dict:
    """The same figures, recounted by SQL over ``attribute_value``."""
    conn = catalog.db.connect()
    try:
        per_attribute = {}
        for d in catalog.list_attribute_defs():
            groups = conn.execute(
                "SELECT value, COUNT(*) FROM attribute_value "
                "WHERE attr_id = ? GROUP BY value",
                (d.id,),
            ).fetchall()
            per_attribute[d.name] = (
                float(sum(n for _value, n in groups)),
                float(sum(1 for value, _n in groups if value is not None)),
            )
        per_type = {
            t.value: float(
                conn.execute(
                    "SELECT COUNT(*) FROM attribute_value WHERE object_type = ?",
                    (t.value,),
                ).scalar()
            )
            for t in OBJECT_TYPES
        }
    finally:
        conn.close()
    return {"attributes": per_attribute, "object_types": per_type}


def assert_counts_exact(catalog, where: str = "") -> None:
    planned, exact = planner_counts(catalog), recounted(catalog)
    assert planned == exact, f"planner counts drifted{where}: {planned} != {exact}"
