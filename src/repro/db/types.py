"""Column types and value coercion.

The MCS paper's user-defined attributes may be ``string``, ``float``,
``integer``, ``date``, ``time`` or ``date/time`` (§5, "User-defined metadata
attributes"); the engine supports those plus BOOLEAN for flags such as the
logical-file ``valid`` attribute.

Values are stored in their canonical Python representation:

===========  =============================
ColumnType   canonical Python type
===========  =============================
INTEGER      int
FLOAT        float
STRING       str
BOOLEAN      bool
DATE         datetime.date
TIME         datetime.time
DATETIME     datetime.datetime
ANY          as given (the writer decides)
===========  =============================

``None`` is the SQL NULL and is accepted by every type (not-null constraints
are enforced at the schema layer, not here).
"""

from __future__ import annotations

import datetime as _dt
import enum
import functools
from typing import Any

from repro.db.errors import TypeMismatchError

_DATE_FMT = "%Y-%m-%d"
_TIME_FMT = "%H:%M:%S"
_DATETIME_FMTS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S")


class ColumnType(enum.Enum):
    """Declared type of a table column."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIME = "TIME"
    DATETIME = "DATETIME"
    ANY = "ANY"

    @classmethod
    def from_name(cls, name: str) -> "ColumnType":
        """Resolve a type name as written in SQL (case-insensitive).

        Accepts a few aliases so schemas read naturally: INT, BIGINT,
        DOUBLE, REAL, TEXT, VARCHAR, CHAR, BOOL, TIMESTAMP.
        """
        upper = name.upper()
        aliases = {
            "INT": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "DOUBLE": cls.FLOAT,
            "REAL": cls.FLOAT,
            "NUMERIC": cls.FLOAT,
            "TEXT": cls.STRING,
            "VARCHAR": cls.STRING,
            "CHAR": cls.STRING,
            "BOOL": cls.BOOLEAN,
            "TIMESTAMP": cls.DATETIME,
        }
        if upper in cls.__members__:
            return cls[upper]
        if upper in aliases:
            return aliases[upper]
        raise TypeMismatchError(f"unknown column type {name!r}")


def coerce(value: Any, ctype: ColumnType) -> Any:
    """Coerce *value* to the canonical representation of *ctype*.

    Raises :class:`TypeMismatchError` when the value cannot be represented
    in the target type without information loss (e.g. ``"abc"`` as INTEGER,
    or ``1.5`` as INTEGER).
    """
    if value is None or ctype is ColumnType.ANY:
        return value
    try:
        if ctype is ColumnType.INTEGER:
            return _coerce_int(value)
        if ctype is ColumnType.FLOAT:
            return _coerce_float(value)
        if ctype is ColumnType.STRING:
            return _coerce_str(value)
        if ctype is ColumnType.BOOLEAN:
            return _coerce_bool(value)
        if ctype is ColumnType.DATE:
            return _coerce_date(value)
        if ctype is ColumnType.TIME:
            return _coerce_time(value)
        if ctype is ColumnType.DATETIME:
            return _coerce_datetime(value)
    except TypeMismatchError:
        raise
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(f"cannot coerce {value!r} to {ctype.value}: {exc}") from exc
    raise TypeMismatchError(f"unhandled column type {ctype!r}")


def _coerce_int(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise TypeMismatchError(f"cannot coerce non-integral float {value!r} to INTEGER")
        return int(value)
    if isinstance(value, str):
        return int(value.strip())
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to INTEGER")


def _coerce_float(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return float(value.strip())
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to FLOAT")


def _coerce_str(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value) if isinstance(value, float) else str(value)
    if isinstance(value, (_dt.date, _dt.time, _dt.datetime)):
        return format_value(value)
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to STRING")


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if value in (0, 1):
            return bool(value)
        raise TypeMismatchError(f"cannot coerce integer {value} to BOOLEAN")
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1", "yes"):
            return True
        if lowered in ("false", "f", "0", "no"):
            return False
        raise TypeMismatchError(f"cannot coerce string {value!r} to BOOLEAN")
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to BOOLEAN")


def _coerce_date(value: Any) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return _dt.datetime.strptime(value.strip(), _DATE_FMT).date()
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to DATE")


def _coerce_time(value: Any) -> _dt.time:
    if isinstance(value, _dt.datetime):
        return value.time()
    if isinstance(value, _dt.time):
        return value
    if isinstance(value, str):
        return _dt.datetime.strptime(value.strip(), _TIME_FMT).time()
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to TIME")


def _coerce_datetime(value: Any) -> _dt.datetime:
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, str):
        text = value.strip()
        for fmt in _DATETIME_FMTS:
            try:
                return _dt.datetime.strptime(text, fmt)
            except ValueError:
                continue
        raise TypeMismatchError(f"cannot parse {value!r} as DATETIME")
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to DATETIME")


def format_value(value: Any) -> str:
    """Render a canonical value as its SQL-literal text (without quotes)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, _dt.datetime):
        return value.strftime(_DATETIME_FMTS[0])
    if isinstance(value, _dt.date):
        return value.strftime(_DATE_FMT)
    if isinstance(value, _dt.time):
        return value.strftime(_TIME_FMT)
    return str(value)


_ORDER_RANK = {
    bool: 0,
    int: 1,
    float: 1,
    str: 2,
    _dt.date: 3,
    _dt.time: 4,
    _dt.datetime: 5,
}


def sort_key(value: Any) -> tuple:
    """Total-order key so heterogeneous columns can still be sorted.

    NULLs sort first (MySQL semantics); bools before numbers before strings
    before temporals.  Within a rank values use natural ordering.

    Recent keys are shared: an index holds one key per row, and repeated
    values (attribute ids, object types, low-cardinality attribute
    values) then cost one tuple instead of one per row.
    """
    try:
        return _shared_sort_key(value)
    except TypeError:  # unhashable: nothing to share
        return _sort_key(value)


def _sort_key(value: Any) -> tuple:
    if value is None:
        return (-1, 0)
    rank = _ORDER_RANK.get(type(value))
    if rank is None:
        # Subclass (e.g. datetime is a subclass of date); resolve by MRO.
        for klass, r in _ORDER_RANK.items():
            if isinstance(value, klass):
                rank = r
                break
        else:
            rank = 99
    if isinstance(value, bool):
        value = int(value)
    return (rank, value)


_shared_sort_key = functools.lru_cache(maxsize=4096, typed=True)(_sort_key)
