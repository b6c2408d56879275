"""MQL: the parsed metadata query language.

The paper exposes attribute discovery through a programmatic API; the
ROADMAP's first open item grows that into a real query language the way
AMGA did for grid metadata catalogs.  ``repro.mql`` is that layer:

* a one-regex lexer (offset tokens; line and column computed only for
  an error) and a recursive-descent parser for statements like
  ``files where run = 7 and (site like "ligo-%" or valid) order by name
  limit 50``, plus dataset algebra (``union`` / ``intersect`` /
  ``minus``) over parenthesized subqueries;
* a shape cache (:class:`repro.mql.compiler.ShapeCache`): a statement
  is parsed and compiled once per shape — its tokens with each literal
  replaced by its kind — and every text of that shape binds its own
  literals into a fresh compiled copy;
* a compiler that lowers the predicate tree (through negation push-down
  and DNF expansion) onto the existing conjunctive
  :class:`repro.core.query.ObjectQuery` leaves;
* a planner that orders each leaf's conditions most selective first,
  from the exact counts the engine's attribute indexes keep (no
  statistics table, no statement);
* an executor that answers a leaf by reading the engine's trees
  (``index``), or, when forced, by a full scan evaluated in Python
  (``scan``): the two are answer-equivalent by construction (one shared
  deterministic ordering/dedup contract), proven by the ``-m mql``
  equivalence lane.

Every syntax error carries a line, a column and a caret snippet
(:class:`MQLSyntaxError`); semantic errors reuse the core
:class:`repro.core.errors.QueryError` family so the SOAP fault table
maps them unchanged.
"""

from repro.mql.ast import (
    And,
    Condition,
    Not,
    Or,
    Query,
    SetOp,
    Statement,
    to_mql,
)
from repro.mql.errors import MQLSyntaxError
from repro.mql.parser import parse

__all__ = [
    "And",
    "Condition",
    "MQLSyntaxError",
    "Not",
    "Or",
    "Query",
    "SetOp",
    "Statement",
    "parse",
    "to_mql",
]
