"""Per-attribute statistics for the cost-based MQL planner.

One ``attribute_stats`` row per (attribute, object type) tracks:

* ``row_count`` — attribute_value rows carrying this attribute;
* ``distinct_count`` — distinct values observed;
* ``min_value`` / ``max_value`` — value range, as canonical strings
  (``str()`` for numbers, ISO format for temporals).

Statistics are maintained *incrementally* on the write path (see the
``note_*`` hooks called from :class:`repro.core.catalog.MetadataCatalog`)
and live in a normal engine table, so they ride the same WAL, the same
transactions (a rolled-back bulk item rolls its stat deltas back too)
and the same commit-time generation bumps as the data they describe.

Incremental maintenance drifts in two documented ways:

* removals decrement ``row_count`` but never ``distinct_count`` (whether
  the removed value was the last of its kind would need a probe per
  delete);
* updates widen ``min_value``/``max_value`` and may re-count a value
  that was already present.

The planner treats statistics as purely *advisory*: a drifted estimate
can pick a slower strategy, never a wrong answer (the ``-m mql``
equivalence lane holds all strategies to identical results).
:func:`analyze` recomputes everything exactly from ``attribute_value``.
"""

from __future__ import annotations

import datetime as _dt
from typing import TYPE_CHECKING, Any, Optional

from repro.core.model import AttributeDef, AttributeType, ObjectType
from repro.obs.metrics import counter as _obs_counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.generations import GenerationMap
    from repro.db.engine import Connection

#: Per (attribute id, object type): (rows, distinct values); and the
#: advisory total of attribute_value rows per object type.
StatsView = tuple[dict[tuple[int, str], tuple[float, float]], dict[str, float]]

_STATS_UPDATES = _obs_counter(
    "mcs_index_stats_updates_total",
    "attribute_stats maintenance operations by action",
    labels=("action",),
)


def canonical(value: Any) -> Optional[str]:
    """Stable string form for min/max tracking (ISO for temporals)."""
    if value is None:
        return None
    if isinstance(value, (_dt.datetime, _dt.date, _dt.time)):
        return value.isoformat()
    return str(value)


def from_canonical(value_type: AttributeType, text: Optional[str]) -> Any:
    """Invert :func:`canonical` using the attribute's declared type."""
    if text is None:
        return None
    if value_type is AttributeType.INT:
        return int(text)
    if value_type is AttributeType.FLOAT:
        return float(text)
    if value_type is AttributeType.DATE:
        return _dt.date.fromisoformat(text)
    if value_type is AttributeType.TIME:
        return _dt.time.fromisoformat(text)
    if value_type is AttributeType.DATETIME:
        return _dt.datetime.fromisoformat(text)
    return text


class StatsSnapshot:
    """The planner's view of ``attribute_stats``: the whole table in memory.

    Stamped with the table's commit generation, so :meth:`read` issues
    one ``SELECT`` after a committed statistics write and none while the
    catalog is unchanged.  The stamp is taken before the read and
    published together with the rows: a commit that lands in between
    leaves a stamp that no longer matches, and the next call reads again.
    """

    def __init__(self, generations: "GenerationMap") -> None:
        self._generations = generations
        self._state: tuple[Optional[int], StatsView] = (None, ({}, {}))

    def read(self, conn: "Connection") -> StatsView:
        """``({(attr_id, object type): (rows, distinct)}, {object type: rows})``."""
        stamp = self._generations.get("attribute_stats")
        held, view = self._state
        if held == stamp:
            return view
        by_attribute: dict[tuple[int, str], tuple[float, float]] = {}
        totals: dict[str, float] = {}
        for attr_id, type_text, rows, distinct in conn.execute(
            "SELECT attr_id, object_type, row_count, distinct_count "
            "FROM attribute_stats"
        ).fetchall():
            by_attribute[(attr_id, type_text)] = (float(rows or 0), float(distinct or 0))
            totals[type_text] = totals.get(type_text, 0.0) + float(rows or 0)
        view = (by_attribute, totals)
        # A transaction's own uncommitted statistics are not published.
        if "attribute_stats" not in conn.transaction_written_tables:
            self._state = (stamp, view)
        return view


# --------------------------------------------------------------------------
# Incremental maintenance (write-path hooks)
# --------------------------------------------------------------------------


def note_insert(
    conn: "Connection",
    definition: AttributeDef,
    object_type: ObjectType,
    value: Any,
) -> None:
    """A new attribute_value row was inserted with *value*."""
    novel = _value_count(conn, definition, object_type, value) == 1
    _apply(
        conn,
        definition.id,
        object_type,
        row_delta=1,
        distinct_delta=1 if novel else 0,
        value=canonical(value),
        value_type=definition.value_type,
    )
    _STATS_UPDATES.labels("insert").inc()


def note_update(
    conn: "Connection",
    definition: AttributeDef,
    object_type: ObjectType,
    value: Any,
) -> None:
    """An existing attribute_value row was overwritten with *value*.

    Documented drift: the old value's distinct/min/max contribution is
    not retracted, and a value that merely moved between objects can be
    re-counted as novel.
    """
    novel = _value_count(conn, definition, object_type, value) == 1
    _apply(
        conn,
        definition.id,
        object_type,
        row_delta=0,
        distinct_delta=1 if novel else 0,
        value=canonical(value),
        value_type=definition.value_type,
    )
    _STATS_UPDATES.labels("update").inc()


def note_insert_batch(
    conn: "Connection",
    notes: "list[tuple[AttributeDef, ObjectType, Any]]",
) -> None:
    """Batched :func:`note_insert` for bulk writes.

    Per-row maintenance costs three statements per attribute value —
    ruinous for a 32-file bulk insert carrying ten attributes each.
    Aggregating per (attribute, object type) needs one stats read and
    one stats write per attribute plus one novelty probe per *distinct*
    inserted value: a value inserted ``n`` times (with all ``n`` rows
    already in the table) is novel exactly when a ``LIMIT n+1`` probe
    finds only those ``n`` rows.
    """
    if not notes:
        return
    groups: dict[tuple[int, ObjectType], list[tuple[AttributeDef, Any]]] = {}
    for definition, object_type, value in notes:
        groups.setdefault((definition.id, object_type), []).append(
            (definition, value)
        )
    for (attr_id, object_type), pairs in groups.items():
        definition = pairs[0][0]
        value_type = definition.value_type
        counts: dict[Any, int] = {}
        for _d, value in pairs:
            if value is not None:
                counts[value] = counts.get(value, 0) + 1
        distinct_delta = 0
        for value, n in counts.items():
            if _rows_holding(conn, definition, object_type, value, n + 1) == n:
                distinct_delta += 1
        batch_min = batch_max = None
        if counts:
            ordered = sorted(counts)
            batch_min, batch_max = canonical(ordered[0]), canonical(ordered[-1])
        _apply_span(
            conn,
            attr_id,
            object_type,
            row_delta=len(pairs),
            distinct_delta=distinct_delta,
            min_value=batch_min,
            max_value=batch_max,
            value_type=value_type,
        )
    _STATS_UPDATES.labels("insert").inc(len(notes))


def note_remove(
    conn: "Connection", attr_id: int, object_type: ObjectType, count: int
) -> None:
    """*count* attribute_value rows were deleted (distinct not retracted)."""
    if count <= 0:
        return
    conn.execute(
        "UPDATE attribute_stats SET row_count = row_count - ? "
        "WHERE attr_id = ? AND object_type = ?",
        (count, attr_id, object_type.value),
    )
    _STATS_UPDATES.labels("remove").inc()


def note_remove_many(
    conn: "Connection", object_type: ObjectType, counts: dict[int, int]
) -> None:
    """Decrement ``row_count`` for many attributes in few statements.

    Attributes losing the same number of rows share one
    ``UPDATE ... WHERE attr_id IN (...)`` — an object with ten
    single-valued attributes costs one statement, not ten.
    """
    by_delta: dict[int, list[int]] = {}
    for attr_id, count in counts.items():
        if count > 0:
            by_delta.setdefault(count, []).append(attr_id)
    for delta, attr_ids in sorted(by_delta.items()):
        placeholders = ", ".join("?" for _ in attr_ids)
        conn.execute(
            f"UPDATE attribute_stats SET row_count = row_count - ? "
            f"WHERE object_type = ? AND attr_id IN ({placeholders})",
            (delta, object_type.value, *attr_ids),
        )
        _STATS_UPDATES.labels("remove").inc(len(attr_ids))


def note_object_delete(
    conn: "Connection", object_type: ObjectType, object_id: int
) -> None:
    """Call *before* deleting an object's attribute_value rows."""
    rows = conn.execute(
        "SELECT attr_id FROM attribute_value WHERE object_type = ? "
        "AND object_id = ?",
        (object_type.value, object_id),
    ).fetchall()
    counts: dict[int, int] = {}
    for (attr_id,) in rows:
        counts[attr_id] = counts.get(attr_id, 0) + 1
    note_remove_many(conn, object_type, counts)


def analyze(conn: "Connection") -> int:
    """Exact recompute of every statistics row; returns rows written.

    The one non-incremental path: a full pass over ``attribute_value``
    per defined attribute, repairing all accumulated drift.
    """
    defs = conn.execute(
        "SELECT id, value_type, object_types FROM attribute_def"
    ).fetchall()
    written = 0
    for attr_id, value_type_text, types_text in defs:
        value_type = AttributeType(value_type_text)
        column = value_type.value_column
        for type_text in types_text.split(","):
            if not type_text:
                continue
            object_type = ObjectType(type_text)
            groups = conn.execute(
                f"SELECT {column}, COUNT(*) FROM attribute_value "
                "WHERE attr_id = ? AND object_type = ? "
                f"GROUP BY {column}",
                (attr_id, object_type.value),
            ).fetchall()
            count = sum(int(n) for _value, n in groups)
            values = [value for value, _n in groups if value is not None]
            _write_exact(
                conn,
                attr_id,
                object_type,
                count,
                len(values),
                canonical(min(values)) if values else None,
                canonical(max(values)) if values else None,
            )
            written += 1
    _STATS_UPDATES.labels("analyze").inc()
    return written


# -- internals --------------------------------------------------------------


def _value_count(
    conn: "Connection",
    definition: AttributeDef,
    object_type: ObjectType,
    value: Any,
) -> int:
    """Rows already holding *value*, saturated at 2.

    The callers only distinguish "this row is the only one" (count 1)
    from "others exist", so an existence probe with ``LIMIT 2`` suffices
    — a ``COUNT(*)`` would walk every matching row and turn each write
    into O(rows sharing the value).
    """
    if value is None:
        return 2  # NULLs never count as a distinct value
    return _rows_holding(conn, definition, object_type, value, 2)


def _rows_holding(
    conn: "Connection",
    definition: AttributeDef,
    object_type: ObjectType,
    value: Any,
    limit: int,
) -> int:
    """Rows holding *value*, saturated at *limit* (an indexed probe)."""
    column = definition.value_type.value_column
    rows = conn.execute(
        f"SELECT attr_id FROM attribute_value WHERE attr_id = ? "
        f"AND object_type = ? AND {column} = ? LIMIT {int(limit)}",
        (definition.id, object_type.value, value),
    ).fetchall()
    return len(rows)


def _apply(
    conn: "Connection",
    attr_id: int,
    object_type: ObjectType,
    row_delta: int,
    distinct_delta: int,
    value: Optional[str],
    value_type: AttributeType,
) -> None:
    _apply_span(
        conn,
        attr_id,
        object_type,
        row_delta,
        distinct_delta,
        min_value=value,
        max_value=value,
        value_type=value_type,
    )


def _apply_span(
    conn: "Connection",
    attr_id: int,
    object_type: ObjectType,
    row_delta: int,
    distinct_delta: int,
    min_value: Optional[str],
    max_value: Optional[str],
    value_type: AttributeType,
) -> None:
    row = conn.execute(
        "SELECT row_count, distinct_count, min_value, max_value "
        "FROM attribute_stats WHERE attr_id = ? AND object_type = ?",
        (attr_id, object_type.value),
    ).fetchone()
    if row is None:
        conn.execute(
            "INSERT INTO attribute_stats (attr_id, object_type, row_count, "
            "distinct_count, min_value, max_value) VALUES (?, ?, ?, ?, ?, ?)",
            (
                attr_id,
                object_type.value,
                max(row_delta, 0),
                max(distinct_delta, 0),
                min_value,
                max_value,
            ),
        )
        return
    row_count, distinct_count, min_text, max_text = row
    new_min, new_max = min_text, max_text
    if min_value is not None:
        # Widen by comparing in the attribute's value domain, not as
        # text ("9" > "10" lexically but not numerically).
        candidate = from_canonical(value_type, min_value)
        if new_min is None or candidate < from_canonical(value_type, new_min):
            new_min = min_value
    if max_value is not None:
        candidate = from_canonical(value_type, max_value)
        if new_max is None or candidate > from_canonical(value_type, new_max):
            new_max = max_value
    conn.execute(
        "UPDATE attribute_stats SET row_count = ?, distinct_count = ?, "
        "min_value = ?, max_value = ? WHERE attr_id = ? AND object_type = ?",
        (
            (row_count or 0) + row_delta,
            (distinct_count or 0) + distinct_delta,
            new_min,
            new_max,
            attr_id,
            object_type.value,
        ),
    )


def _write_exact(
    conn: "Connection",
    attr_id: int,
    object_type: ObjectType,
    row_count: int,
    distinct_count: int,
    min_value: Optional[str],
    max_value: Optional[str],
) -> None:
    updated = conn.execute(
        "UPDATE attribute_stats SET row_count = ?, distinct_count = ?, "
        "min_value = ?, max_value = ? WHERE attr_id = ? AND object_type = ?",
        (row_count, distinct_count, min_value, max_value, attr_id, object_type.value),
    ).rowcount
    if updated == 0:
        conn.execute(
            "INSERT INTO attribute_stats (attr_id, object_type, row_count, "
            "distinct_count, min_value, max_value) VALUES (?, ?, ?, ?, ?, ?)",
            (attr_id, object_type.value, row_count, distinct_count,
             min_value, max_value),
        )
