"""Recursive-descent parser for the SQL subset.

Supported statements::

    INSERT INTO t (a, b) VALUES (?, ?), (...)
    UPDATE t SET a = expr [, ...] [WHERE expr]
    DELETE FROM t [WHERE expr]
    SELECT items FROM t [alias] [[INNER] JOIN t2 [alias] ON expr] ...
        [WHERE expr] [ORDER BY expr [ASC|DESC], ...]
    EXPLAIN SELECT ...
    BEGIN / COMMIT / ROLLBACK [TRANSACTION]

A select item is ``*``, ``alias.*``, ``COUNT(*)`` or an expression, each
with an optional alias.  Expressions support AND/OR/NOT, comparisons, IN
lists, BETWEEN, LIKE, IS [NOT] NULL, literals (a ``-`` only before a
number), ``?`` placeholders, column references and parentheses.  Tables
and indexes are made through :meth:`repro.db.engine.Database.create_table`
and :meth:`~repro.db.engine.Database.create_index`, not through SQL.
"""

from __future__ import annotations

from typing import Optional

from repro.db.errors import SQLSyntaxError
from repro.db.expr import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
)
from repro.db.sql.ast import (
    BeginTransaction,
    Explain,
    CommitTransaction,
    Delete,
    Insert,
    Join,
    OrderItem,
    RollbackTransaction,
    Select,
    SelectItem,
    Statement,
    TableRef,
    Update,
)
from repro.db.sql.lexer import Token, TokenType, tokenize


def parse_statement(sql: str) -> Statement:
    """Parse a single SQL statement (trailing ``;`` allowed)."""
    return _Parser(tokenize(sql)).parse()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._param_count = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._peek()
        return SQLSyntaxError(f"{message}, found {token.text or '<eof>'!r}", token.position)

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, *names: str) -> Token:
        token = self._accept_keyword(*names)
        if token is None:
            raise self._error(f"expected {' or '.join(names)}")
        return token

    def _accept_punct(self, text: str) -> Optional[Token]:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.text == text:
            return self._advance()
        return None

    def _expect_punct(self, text: str) -> Token:
        token = self._accept_punct(text)
        if token is None:
            raise self._error(f"expected {text!r}")
        return token

    def _accept_operator(self, *texts: str) -> Optional[Token]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text in texts:
            return self._advance()
        return None

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return token.text
        # Non-reserved use of keywords as identifiers is not supported; keep
        # the error crisp instead.
        raise self._error(f"expected {what}")

    # -- entry -----------------------------------------------------------------

    def parse(self) -> Statement:
        token = self._peek()
        if token.type is not TokenType.KEYWORD:
            raise self._error("expected a SQL statement")
        if token.text in ("CREATE", "DROP"):
            raise self._error("no DDL in SQL: use Database.create_table / create_index")
        handlers = {
            "SELECT": self._parse_select,
            "EXPLAIN": self._parse_explain,
            "INSERT": self._parse_insert,
            "UPDATE": self._parse_update,
            "DELETE": self._parse_delete,
            "BEGIN": self._parse_begin,
            "COMMIT": self._parse_commit,
            "ROLLBACK": self._parse_rollback,
        }
        handler = handlers.get(token.text)
        if handler is None:
            raise self._error("unsupported statement")
        statement = handler()
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing tokens")
        statement.param_count = self._param_count
        return statement

    def _parse_explain(self) -> Statement:
        self._expect_keyword("EXPLAIN")
        return Explain(self._parse_select())

    # -- transactions -------------------------------------------------------------

    def _parse_begin(self) -> Statement:
        self._expect_keyword("BEGIN")
        self._accept_keyword("TRANSACTION")
        return BeginTransaction()

    def _parse_commit(self) -> Statement:
        self._expect_keyword("COMMIT")
        self._accept_keyword("TRANSACTION")
        return CommitTransaction()

    def _parse_rollback(self) -> Statement:
        self._expect_keyword("ROLLBACK")
        self._accept_keyword("TRANSACTION")
        return RollbackTransaction()

    # -- DML ------------------------------------------------------------------------

    def _parse_paren_name_list(self) -> tuple[str, ...]:
        self._expect_punct("(")
        names = [self._expect_identifier("column name")]
        while self._accept_punct(","):
            names.append(self._expect_identifier("column name"))
        self._expect_punct(")")
        return tuple(names)

    def _parse_insert(self) -> Statement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns = self._parse_paren_name_list()
        self._expect_keyword("VALUES")
        rows: list[tuple[Expr, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self._parse_expr()]
            while self._accept_punct(","):
                values.append(self._parse_expr())
            self._expect_punct(")")
            if len(values) != len(columns):
                raise self._error(
                    f"INSERT row has {len(values)} values for {len(columns)} columns"
                )
            rows.append(tuple(values))
            if not self._accept_punct(","):
                break
        return Insert(table=table, columns=columns, rows=rows)

    def _parse_update(self) -> Statement:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier("table name")
        self._expect_keyword("SET")
        assignments: list[tuple[str, Expr]] = []
        while True:
            column = self._expect_identifier("column name")
            if self._accept_operator("=") is None:
                raise self._error("expected '=' in assignment")
            assignments.append((column, self._parse_expr()))
            if not self._accept_punct(","):
                break
        where = self._parse_optional_where()
        return Update(table=table, assignments=assignments, where=where)

    def _parse_delete(self) -> Statement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier("table name")
        where = self._parse_optional_where()
        return Delete(table=table, where=where)

    def _parse_optional_where(self) -> Optional[Expr]:
        if self._accept_keyword("WHERE"):
            return self._parse_expr()
        return None

    # -- SELECT ------------------------------------------------------------------------

    def _parse_select(self) -> Statement:
        self._expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        table: Optional[TableRef] = None
        joins: list[Join] = []
        if self._accept_keyword("FROM"):
            table = self._parse_table_ref()
            while self._accept_keyword("INNER") or self._peek().is_keyword("JOIN"):
                self._expect_keyword("JOIN")
                join_table = self._parse_table_ref()
                self._expect_keyword("ON")
                joins.append(Join(join_table, self._parse_expr()))
        where = self._parse_optional_where()
        order_by: list[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._parse_expr()
                descending = False
                if self._accept_keyword("DESC"):
                    descending = True
                else:
                    self._accept_keyword("ASC")
                order_by.append(OrderItem(expr, descending))
                if not self._accept_punct(","):
                    break
        return Select(
            items=items, table=table, joins=joins, where=where, order_by=order_by
        )

    def _follows(self, *texts: str) -> bool:
        """The tokens after the current one are punctuation/operators *texts*."""
        ahead = self._tokens[self._pos + 1 : self._pos + 1 + len(texts)]
        return [(t.type in (TokenType.PUNCT, TokenType.OPERATOR), t.text) for t in ahead] == [
            (True, text) for text in texts
        ]

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            return SelectItem(star=True)
        if token.type is TokenType.IDENT and self._follows(".", "*"):
            self._pos += 3
            return SelectItem(star=True, star_table=token.text)
        if (
            token.type is TokenType.IDENT
            and token.text.upper() == "COUNT"
            and self._follows("(", "*", ")")
        ):
            self._pos += 4
            return SelectItem(alias=self._parse_opt_alias(), count_star=True)
        expr = self._parse_expr()
        alias = self._parse_opt_alias()
        return SelectItem(expr=expr, alias=alias)

    def _parse_opt_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_identifier("alias")
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return token.text
        return None

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return TableRef(name=name, alias=alias)

    # -- expressions -----------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        parts = [self._parse_and()]
        while self._accept_keyword("OR"):
            parts.append(self._parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _parse_and(self) -> Expr:
        parts = [self._parse_not()]
        while self._accept_keyword("AND"):
            parts.append(self._parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _parse_not(self) -> Expr:
        if self._accept_keyword("NOT"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_primary()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text in ("=", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._parse_primary()
            return Comparison(token.text, left, right)
        if token.is_keyword("IS"):
            self._advance()
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return IsNull(left, negated)
        negated = False
        if token.is_keyword("NOT"):
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("IN", "LIKE", "BETWEEN"):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            options = [self._parse_expr()]
            while self._accept_punct(","):
                options.append(self._parse_expr())
            self._expect_punct(")")
            return InList(left, tuple(options), negated)
        if token.is_keyword("LIKE"):
            self._advance()
            return Like(left, self._parse_primary(), negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_primary()
            self._expect_keyword("AND")
            high = self._parse_primary()
            return Between(left, low, high, negated)
        return left

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.STRING or token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.OPERATOR and token.text == "-":
            # A negative literal; there is no arithmetic.
            self._advance()
            number = self._peek()
            if number.type is not TokenType.NUMBER:
                raise self._error("expected a number after '-'")
            self._advance()
            return Literal(-number.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.type is TokenType.PUNCT and token.text == "?":
            self._advance()
            param = Parameter(self._param_count)
            self._param_count += 1
            return param
        if token.type is TokenType.PUNCT and token.text == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENT:
            name = self._advance().text
            if self._peek().text == "(" and self._peek().type is TokenType.PUNCT:
                raise self._error(f"no function {name}() in this dialect, only COUNT(*)")
            if self._accept_punct("."):
                column = self._expect_identifier("column name")
                return ColumnRef(column, table=name)
            return ColumnRef(name)
        raise self._error("expected expression")
