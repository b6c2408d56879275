"""Recursive-descent parser for the SQL subset.

Supported statements::

    CREATE TABLE [IF NOT EXISTS] t (col TYPE [NOT NULL] [DEFAULT lit]
        [AUTOINCREMENT] [PRIMARY KEY] [UNIQUE] [REFERENCES t2 (c)], ...,
        [PRIMARY KEY (a, b)], [UNIQUE (a, b)],
        [FOREIGN KEY (a) REFERENCES t2 (c)])
    CREATE [UNIQUE] INDEX [IF NOT EXISTS] i ON t (a, b)
    DROP TABLE [IF EXISTS] t      /  DROP INDEX [IF EXISTS] i [ON t]
    INSERT INTO t (a, b) VALUES (?, ?), (...)
    UPDATE t SET a = expr [, ...] [WHERE expr]
    DELETE FROM t [WHERE expr]
    SELECT [DISTINCT] items FROM t [alias]
        [INNER|LEFT [OUTER]|CROSS JOIN t2 [alias] [ON expr]] ...
        [WHERE expr] [GROUP BY exprs [HAVING expr]]
        [ORDER BY expr [ASC|DESC], ...] [LIMIT n [OFFSET m]]
    BEGIN / COMMIT / ROLLBACK [TRANSACTION]

Expressions support AND/OR/NOT, comparisons, arithmetic, IN lists,
BETWEEN, LIKE, IS [NOT] NULL, scalar and aggregate function calls,
``?`` placeholders, and parentheses.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.db.errors import SQLSyntaxError
from repro.db.expr import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
)
from repro.db.functions import is_aggregate
from repro.db.schema import Column, ForeignKey
from repro.db.sql.ast import (
    BeginTransaction,
    Explain,
    CommitTransaction,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
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
from repro.db.types import ColumnType


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
        if token.text == "EXPLAIN":
            self._advance()
            inner_token = self._peek()
            if not inner_token.is_keyword("SELECT"):
                raise self._error("EXPLAIN supports SELECT only")
            statement = Explain(self._parse_select())
            self._accept_punct(";")
            if self._peek().type is not TokenType.EOF:
                raise self._error("unexpected trailing tokens")
            statement.param_count = self._param_count
            return statement
        handlers = {
            "SELECT": self._parse_select,
            "INSERT": self._parse_insert,
            "UPDATE": self._parse_update,
            "DELETE": self._parse_delete,
            "CREATE": self._parse_create,
            "DROP": self._parse_drop,
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

    # -- DDL ----------------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self._expect_keyword("CREATE")
        unique = self._accept_keyword("UNIQUE") is not None
        if self._accept_keyword("INDEX"):
            if_not_exists = self._parse_if_not_exists()
            name = self._expect_identifier("index name")
            self._expect_keyword("ON")
            table = self._expect_identifier("table name")
            columns = self._parse_paren_name_list()
            return CreateIndex(name=name, table=table, columns=columns,
                               unique=unique, if_not_exists=if_not_exists)
        if unique:
            raise self._error("expected INDEX after CREATE UNIQUE")
        self._expect_keyword("TABLE")
        if_not_exists = self._parse_if_not_exists()
        name = self._expect_identifier("table name")
        self._expect_punct("(")
        columns: list[Column] = []
        primary_key: tuple[str, ...] = ()
        uniques: list[tuple[str, ...]] = []
        foreign_keys: list[ForeignKey] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                if primary_key:
                    raise self._error("duplicate PRIMARY KEY clause")
                primary_key = self._parse_paren_name_list()
            elif self._accept_keyword("UNIQUE"):
                uniques.append(self._parse_paren_name_list())
            elif self._accept_keyword("FOREIGN"):
                self._expect_keyword("KEY")
                local = self._parse_paren_name_list()
                self._expect_keyword("REFERENCES")
                ref_table = self._expect_identifier("referenced table")
                ref_columns = self._parse_paren_name_list()
                foreign_keys.append(ForeignKey(local, ref_table, ref_columns))
            else:
                column, col_pk, col_unique, col_fk = self._parse_column_def()
                columns.append(column)
                if col_pk:
                    if primary_key:
                        raise self._error("duplicate PRIMARY KEY")
                    primary_key = (column.name,)
                if col_unique:
                    uniques.append((column.name,))
                if col_fk is not None:
                    foreign_keys.append(col_fk)
            if self._accept_punct(","):
                continue
            self._expect_punct(")")
            break
        return CreateTable(
            name=name,
            columns=columns,
            primary_key=primary_key,
            unique=uniques,
            foreign_keys=foreign_keys,
            if_not_exists=if_not_exists,
        )

    def _parse_if_not_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            return True
        return False

    def _parse_column_def(self) -> tuple[Column, bool, bool, Optional[ForeignKey]]:
        name = self._expect_identifier("column name")
        type_token = self._peek()
        if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self._error("expected column type")
        self._advance()
        ctype = ColumnType.from_name(type_token.text)
        nullable = True
        default: Any = None
        autoincrement = False
        is_pk = False
        is_unique = False
        fk: Optional[ForeignKey] = None
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            elif self._accept_keyword("NULL"):
                nullable = True
            elif self._accept_keyword("DEFAULT"):
                default = self._parse_literal_value()
            elif self._accept_keyword("AUTOINCREMENT"):
                autoincrement = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                is_pk = True
                nullable = False
            elif self._accept_keyword("UNIQUE"):
                is_unique = True
            elif self._accept_keyword("REFERENCES"):
                ref_table = self._expect_identifier("referenced table")
                ref_columns = self._parse_paren_name_list()
                fk = ForeignKey((name,), ref_table, ref_columns)
            else:
                break
        column = Column(name=name, ctype=ctype, nullable=nullable,
                        default=default, autoincrement=autoincrement)
        return column, is_pk, is_unique, fk

    def _parse_literal_value(self) -> Any:
        token = self._peek()
        if token.type in (TokenType.STRING, TokenType.NUMBER):
            self._advance()
            return token.value
        if token.is_keyword("NULL"):
            self._advance()
            return None
        if token.is_keyword("TRUE"):
            self._advance()
            return True
        if token.is_keyword("FALSE"):
            self._advance()
            return False
        if token.type is TokenType.OPERATOR and token.text == "-":
            self._advance()
            num = self._peek()
            if num.type is not TokenType.NUMBER:
                raise self._error("expected number after '-'")
            self._advance()
            return -num.value
        raise self._error("expected literal value")

    def _parse_paren_name_list(self) -> tuple[str, ...]:
        self._expect_punct("(")
        names = [self._expect_identifier("column name")]
        while self._accept_punct(","):
            names.append(self._expect_identifier("column name"))
        self._expect_punct(")")
        return tuple(names)

    def _parse_drop(self) -> Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            if_exists = self._parse_if_exists()
            return DropTable(self._expect_identifier("table name"), if_exists)
        if self._accept_keyword("INDEX"):
            if_exists = self._parse_if_exists()
            name = self._expect_identifier("index name")
            table = None
            if self._accept_keyword("ON"):
                table = self._expect_identifier("table name")
            return DropIndex(name, table, if_exists)
        raise self._error("expected TABLE or INDEX after DROP")

    def _parse_if_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            return True
        return False

    # -- DML ------------------------------------------------------------------------

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
        distinct = self._accept_keyword("DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        table: Optional[TableRef] = None
        joins: list[Join] = []
        if self._accept_keyword("FROM"):
            table = self._parse_table_ref()
            while True:
                join = self._parse_join_opt()
                if join is None:
                    break
                joins.append(join)
        where = self._parse_optional_where()
        group_by: list[Expr] = []
        having: Optional[Expr] = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._accept_punct(","):
                group_by.append(self._parse_expr())
            if self._accept_keyword("HAVING"):
                having = self._parse_expr()
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
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_int_literal("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_int_literal("OFFSET")
        return Select(
            items=items,
            table=table,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_int_literal(self, clause: str) -> int:
        token = self._peek()
        if token.type is TokenType.NUMBER and isinstance(token.value, int):
            self._advance()
            return token.value
        raise self._error(f"expected integer after {clause}")

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            return SelectItem(star=True)
        # alias.* form
        if (
            token.type is TokenType.IDENT
            and self._tokens[self._pos + 1].type is TokenType.PUNCT
            and self._tokens[self._pos + 1].text == "."
            and self._tokens[self._pos + 2].type is TokenType.OPERATOR
            and self._tokens[self._pos + 2].text == "*"
        ):
            self._advance()
            self._advance()
            self._advance()
            return SelectItem(star=True, star_table=token.text)
        # Aggregate function?
        if (
            token.type is TokenType.IDENT
            and is_aggregate(token.text)
            and self._tokens[self._pos + 1].type is TokenType.PUNCT
            and self._tokens[self._pos + 1].text == "("
        ):
            name = token.text.upper()
            self._advance()
            self._expect_punct("(")
            if (
                name == "COUNT"
                and self._peek().type is TokenType.OPERATOR
                and self._peek().text == "*"
            ):
                self._advance()
                self._expect_punct(")")
                alias = self._parse_opt_alias()
                return SelectItem(expr=None, alias=alias, aggregate="COUNT", count_star=True)
            inner = self._parse_expr()
            self._expect_punct(")")
            alias = self._parse_opt_alias()
            return SelectItem(expr=inner, alias=alias, aggregate=name)
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

    def _parse_join_opt(self) -> Optional[Join]:
        if self._accept_punct(","):
            return Join(self._parse_table_ref(), "cross")
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return Join(self._parse_table_ref(), "cross")
        kind = None
        if self._accept_keyword("INNER"):
            kind = "inner"
            self._expect_keyword("JOIN")
        elif self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            kind = "left"
            self._expect_keyword("JOIN")
        elif self._accept_keyword("JOIN"):
            kind = "inner"
        if kind is None:
            return None
        table = self._parse_table_ref()
        condition = None
        if self._accept_keyword("ON"):
            condition = self._parse_expr()
        elif kind != "cross":
            raise self._error("expected ON clause for join")
        return Join(table, kind, condition)

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
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text in ("=", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._parse_additive()
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
            return Like(left, self._parse_additive(), negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._accept_operator("+", "-")
            if token is None:
                return left
            left = Arithmetic(token.text, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._accept_operator("*", "/", "%")
            if token is None:
                return left
            left = Arithmetic(token.text, left, self._parse_unary())

    def _parse_unary(self) -> Expr:
        token = self._accept_operator("-")
        if token is not None:
            inner = self._parse_unary()
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return Arithmetic("-", Literal(0), inner)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.STRING or token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value)
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
            # Function call?
            if self._peek().type is TokenType.PUNCT and self._peek().text == "(":
                self._advance()
                args: list[Expr] = []
                if not (self._peek().type is TokenType.PUNCT and self._peek().text == ")"):
                    args.append(self._parse_expr())
                    while self._accept_punct(","):
                        args.append(self._parse_expr())
                self._expect_punct(")")
                return FunctionCall(name, tuple(args))
            # Qualified column?
            if self._accept_punct("."):
                column = self._expect_identifier("column name")
                return ColumnRef(column, table=name)
            return ColumnRef(name)
        raise self._error("expected expression")
