"""Fuzzing the SQL front end: arbitrary input must fail *cleanly*.

Whatever bytes arrive, the lexer/parser may only raise SQLSyntaxError —
never IndexError, RecursionError, or silent hangs — and valid statements
must round-trip through the statement cache deterministically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.errors import DatabaseError, SQLSyntaxError
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse_statement
from tests.tables import make_table


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_lexer_total(text):
    """tokenize() either succeeds or raises SQLSyntaxError."""
    try:
        tokens = tokenize(text)
    except SQLSyntaxError:
        return
    assert tokens[-1].type.name == "EOF"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_statement(text)
    except SQLSyntaxError:
        pass


_SQL_WORDS = st.sampled_from(
    "SELECT FROM WHERE AND OR NOT INSERT INTO VALUES UPDATE SET DELETE "
    "CREATE TABLE INDEX JOIN LEFT ON GROUP BY ORDER LIMIT ( ) , ; = < > "
    "* ? 'x' 1 2.5 t a b NULL LIKE IN BETWEEN IS AS DISTINCT COUNT".split()
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SQL_WORDS, max_size=25))
def test_parser_total_on_sql_shaped_soup(words):
    """Keyword soup — much better at hitting deep parser states."""
    text = " ".join(words)
    try:
        parse_statement(text)
    except SQLSyntaxError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.lists(_SQL_WORDS, max_size=20))
def test_execute_never_corrupts_engine(words):
    """Even statements that parse but fail to plan/execute must leave the
    database usable and raise only DatabaseError subclasses."""
    db = Database()
    conn = db.connect()
    make_table(conn, "t", "a INTEGER")
    conn.execute("INSERT INTO t (a) VALUES (1)")
    text = " ".join(words)
    try:
        conn.execute(text)
    except DatabaseError:
        pass
    # The engine must still work afterwards.
    assert conn.execute("SELECT COUNT(*) FROM t").scalar() >= 1
