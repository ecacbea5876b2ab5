"""Parser and lexer unit tests."""

import pytest

from repro.errors import ParseError
from repro.minidb import ast_nodes as A
from repro.minidb.lexer import tokenize
from repro.minidb.parser import parse_expression, parse_statement


class TestLexer:
    def test_keywords_case_insensitive(self):
        toks = tokenize("select SELECT Select")
        assert [t.kind for t in toks[:-1]] == ["KEYWORD"] * 3
        assert all(t.text == "SELECT" for t in toks[:-1])

    def test_string_escaping(self):
        toks = tokenize("'it''s'")
        assert toks[0].value == "it's"

    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 .5")
        assert toks[0].value == 1
        assert toks[1].value == 2.5
        assert toks[2].value == 1000.0
        assert toks[3].value == 0.5

    def test_comments_skipped(self):
        toks = tokenize("SELECT 1 -- the answer\n+ 2")
        texts = [t.text for t in toks if t.kind != "EOF"]
        assert texts == ["SELECT", "1", "+", "2"]

    def test_two_char_operators(self):
        toks = tokenize("<= >= <> != ||")
        assert [t.text for t in toks[:-1]] == ["<=", ">=", "<>", "!=", "||"]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT #")

    def test_quoted_identifier(self):
        toks = tokenize('"weird name"')
        assert toks[0].kind == "IDENT"
        assert toks[0].value == "weird name"

    def test_literal_tokens_record_where_they_start(self):
        sql = "SELECT 'a''b', 42 FROM t WHERE x > 1.5e3"
        toks = tokenize(sql)
        literals = [(t.kind, t.pos) for t in toks if t.value is not None]
        assert ("STRING", 7) in literals
        assert ("INT", 15) in literals
        assert ("FLOAT", 35) in literals
        # Every token starts where its text does.
        for tok in toks[:-1]:
            assert sql.startswith(tok.text, tok.pos), tok


class TestExpressionParsing:
    def test_precedence_or_lower_than_and(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, A.Binary) and expr.op == "OR"
        assert isinstance(expr.right, A.Binary) and expr.right.op == "AND"

    def test_precedence_cmp_lower_than_arith(self):
        expr = parse_expression("1 + 2 > 2")
        assert isinstance(expr, A.Binary) and expr.op == ">"
        assert isinstance(expr.left, A.Binary) and expr.left.op == "+"

    def test_precedence_mul_higher_than_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, A.Binary) and expr.op == "+"
        assert isinstance(expr.right, A.Binary) and expr.right.op == "*"

    def test_not_between(self):
        expr = parse_expression("x NOT BETWEEN 1 AND 2")
        assert isinstance(expr, A.Between) and expr.negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, A.InList)
        assert len(expr.items) == 3

    def test_not_in_subquery(self):
        expr = parse_expression("x NOT IN (SELECT 1)")
        assert isinstance(expr, A.InSubquery) and expr.negated

    def test_case_searched(self):
        expr = parse_expression("CASE WHEN a THEN 1 ELSE 2 END")
        assert isinstance(expr, A.Case)
        assert expr.operand is None
        assert expr.else_ is not None

    def test_case_simple(self):
        expr = parse_expression("CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END")
        assert isinstance(expr, A.Case)
        assert expr.operand is not None
        assert len(expr.whens) == 2
        assert expr.else_ is None

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1)")
        assert isinstance(expr, A.Exists) and not expr.negated

    def test_not_exists(self):
        # NOT EXISTS is a first-class construct (anti-join), not a NOT
        # wrapped around EXISTS.
        expr = parse_expression("NOT EXISTS (SELECT 1)")
        assert isinstance(expr, A.Exists) and expr.negated

    def test_quantified_any(self):
        expr = parse_expression("x = ANY (SELECT 1)")
        assert isinstance(expr, A.Quantified)
        assert expr.quantifier == "ANY"

    def test_quantified_all(self):
        expr = parse_expression("x > ALL (SELECT 1)")
        assert isinstance(expr, A.Quantified)
        assert expr.quantifier == "ALL"

    def test_cast(self):
        expr = parse_expression("CAST(x AS INTEGER)")
        assert isinstance(expr, A.Cast)
        assert expr.type_name == "INTEGER"

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), A.IsNull)
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, A.IsNull) and expr.negated

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT 1)")
        assert isinstance(expr, A.ScalarSubquery)

    def test_function_call(self):
        expr = parse_expression("LENGTH('abc')")
        assert isinstance(expr, A.FuncCall)
        assert expr.name == "LENGTH"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr, A.FuncCall) and expr.star

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert isinstance(expr, A.FuncCall) and expr.distinct

    def test_like(self):
        expr = parse_expression("x LIKE '%a%'")
        assert isinstance(expr, A.Binary) and expr.op == "LIKE"

    def test_not_like(self):
        expr = parse_expression("x NOT LIKE 'a'")
        assert isinstance(expr, A.Binary) and expr.op == "NOT LIKE"

    def test_qualified_column(self):
        expr = parse_expression("t0.c0")
        assert isinstance(expr, A.ColumnRef)
        assert expr.table == "t0" and expr.column == "c0"

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert isinstance(expr, A.Unary) and expr.op == "-"

    def test_double_not(self):
        expr = parse_expression("NOT NOT x")
        assert isinstance(expr, A.Unary)
        assert isinstance(expr.operand, A.Unary)

    def test_concat_operator(self):
        expr = parse_expression("'a' || 'b'")
        assert isinstance(expr, A.Binary) and expr.op == "||"

    def test_neq_spelled_two_ways(self):
        assert parse_expression("a <> b") == parse_expression("a != b")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra junk (")


class TestStatementParsing:
    def test_simple_select(self):
        stmt = parse_statement("SELECT * FROM t0")
        assert isinstance(stmt, A.Select)
        assert isinstance(stmt.from_clause, A.NamedTable)

    def test_select_roundtrip(self):
        sql = (
            "SELECT DISTINCT t0.c0 AS x FROM t0 LEFT JOIN t1 ON (t0.c0 = t1.c0) "
            "WHERE (t0.c0 > 0) GROUP BY t0.c0 HAVING (COUNT(*) > 1) "
            "ORDER BY x ASC LIMIT 5 OFFSET 1"
        )
        stmt = parse_statement(sql)
        again = parse_statement(stmt.to_sql())
        assert again.to_sql() == stmt.to_sql()

    def test_indexed_by(self):
        stmt = parse_statement("SELECT * FROM t0 INDEXED BY i0")
        assert stmt.from_clause.indexed_by == "i0"

    def test_join_kinds(self):
        for sql, kind in [
            ("SELECT * FROM a JOIN b ON 1", "INNER"),
            ("SELECT * FROM a INNER JOIN b ON 1", "INNER"),
            ("SELECT * FROM a LEFT JOIN b ON 1", "LEFT"),
            ("SELECT * FROM a LEFT OUTER JOIN b ON 1", "LEFT"),
            ("SELECT * FROM a RIGHT JOIN b ON 1", "RIGHT"),
            ("SELECT * FROM a FULL OUTER JOIN b ON 1", "FULL"),
            ("SELECT * FROM a CROSS JOIN b", "CROSS"),
        ]:
            stmt = parse_statement(sql)
            assert isinstance(stmt.from_clause, A.Join)
            assert stmt.from_clause.kind == kind

    def test_comma_join_is_cross(self):
        stmt = parse_statement("SELECT * FROM a, b")
        assert isinstance(stmt.from_clause, A.Join)
        assert stmt.from_clause.kind == "CROSS"

    def test_derived_table(self):
        stmt = parse_statement("SELECT * FROM (SELECT 1) AS d")
        assert isinstance(stmt.from_clause, A.DerivedTable)
        assert stmt.from_clause.alias == "d"

    def test_derived_table_requires_alias(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM (SELECT 1)")

    def test_values_table(self):
        stmt = parse_statement("SELECT * FROM (VALUES (1, 2)) AS v(a, b)")
        assert isinstance(stmt.from_clause, A.ValuesTable)
        assert stmt.from_clause.column_aliases == ("a", "b")

    def test_cte(self):
        stmt = parse_statement("WITH x(a) AS (SELECT 1) SELECT * FROM x")
        assert len(stmt.ctes) == 1
        assert stmt.ctes[0].name == "x"

    def test_cte_with_values(self):
        stmt = parse_statement("WITH x(a) AS (VALUES (1), (2)) SELECT * FROM x")
        assert isinstance(stmt.ctes[0].query, A.ValuesSource)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM (SELECT t0.c0 AS rc0 FROM t0 AS src0 LIMIT 3) AS d",
            "SELECT * FROM (SELECT 1) AS d(a) WHERE (d.a > 0)",
            "SELECT * FROM (VALUES (1, 'x'), (NULL, TRUE)) AS v(a, b)",
            "WITH x(a) AS (VALUES (1), (2)) SELECT * FROM x",
            "INSERT INTO t VALUES (1, 2.5), (3, 'it''s')",
        ],
    )
    def test_derived_and_values_tables_render_back(self, sql):
        assert parse_statement(sql).to_sql() == sql

    def test_union_chain(self):
        stmt = parse_statement("SELECT 1 UNION SELECT 2 UNION ALL SELECT 3")
        op1, all1, rhs = stmt.set_op
        assert op1 == "UNION" and not all1
        assert rhs.set_op is not None
        op2, all2, _ = rhs.set_op
        assert op2 == "UNION" and all2

    def test_order_by_attaches_to_compound(self):
        stmt = parse_statement("SELECT 1 UNION SELECT 2 ORDER BY 1")
        assert stmt.set_op is not None
        assert len(stmt.order_by) == 1

    def test_table_star(self):
        stmt = parse_statement("SELECT t0.* FROM t0")
        assert stmt.items[0].table_star == "t0"

    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t0 (c0) VALUES (1), (2)")
        assert isinstance(stmt, A.Insert)
        assert isinstance(stmt.source, A.ValuesSource)
        assert len(stmt.source.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t0 SELECT * FROM t1")
        assert isinstance(stmt.source, A.Select)

    def test_update(self):
        stmt = parse_statement("UPDATE t0 SET c0 = 1, c1 = c1 + 1 WHERE c0 > 0")
        assert isinstance(stmt, A.Update)
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t0 WHERE c0 IS NULL")
        assert isinstance(stmt, A.Delete)

    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t0 (c0 INT NOT NULL, c1 TEXT, c2 BIGINT PRIMARY KEY)"
        )
        assert isinstance(stmt, A.CreateTable)
        assert stmt.columns[0].not_null
        assert stmt.columns[2].primary_key

    def test_create_table_untyped_column(self):
        stmt = parse_statement("CREATE TABLE t0 (c0)")
        assert stmt.columns[0].type_name is None

    def test_create_index_on_expression(self):
        stmt = parse_statement("CREATE INDEX i0 ON t0 (c0 > 0)")
        assert isinstance(stmt, A.CreateIndex)
        assert isinstance(stmt.exprs[0], A.Binary)

    def test_create_unique_partial_index(self):
        stmt = parse_statement("CREATE UNIQUE INDEX i0 ON t0 (c0) WHERE c0 > 0")
        assert stmt.unique and stmt.where is not None

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v0 (c0) AS SELECT 1")
        assert isinstance(stmt, A.CreateView)
        assert stmt.columns == ("c0",)

    def test_drop(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t0")
        assert isinstance(stmt, A.Drop)
        assert stmt.if_exists

    def test_statement_roundtrip_suite(self):
        statements = [
            "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE (SELECT COUNT(*) FROM v0)",
            "SELECT x.ID FROM t0 AS x WHERE (x.score > (SELECT AVG(y.score) FROM t0 AS y WHERE (x.classID = y.classID)))",
            "INSERT INTO ot0 SELECT t0.c0 AS c0 FROM t0 WHERE (VERSION() >= t0.c0)",
            "WITH t2 AS (SELECT NULL AS b) SELECT t1.v FROM t1, t2 WHERE (t1.v NOT BETWEEN t1.v AND (CASE WHEN NULL THEN t2.b ELSE t1.v END))",
            "SELECT c FROM t WHERE (c IN (0, 8628276060272066657))",
        ]
        for sql in statements:
            stmt = parse_statement(sql)
            assert parse_statement(stmt.to_sql()).to_sql() == stmt.to_sql()

    def test_bad_statements_raise(self):
        for sql in [
            "",
            "SELEC 1",
            "SELECT",
            "SELECT 1 FROM",
            "CREATE SOMETHING x",
            "DROP DATABASE x",
            "INSERT INTO",
            "SELECT 1 1 1",
        ]:
            with pytest.raises(ParseError):
                parse_statement(sql)


class TestAstTransform:
    def test_replace_node_by_identity(self):
        target = A.Literal(1)
        root = A.Binary("+", target, A.Literal(2))
        replaced = A.replace_node(root, target, A.Literal(9))
        assert replaced.to_sql() == "(9 + 2)"
        # Original untouched.
        assert root.to_sql() == "(1 + 2)"

    def test_replace_inside_case(self):
        target = A.ColumnRef(None, "x")
        root = A.Case(None, (A.CaseWhen(target, A.Literal(1)),), A.Literal(0))
        replaced = A.replace_node(root, target, A.Literal(True))
        assert "TRUE" in replaced.to_sql()

    def test_column_refs_enters_subqueries(self):
        expr = parse_expression("EXISTS (SELECT t0.c0 FROM t0 WHERE t1.c9 = 1)")
        refs = {r.key for r in A.column_refs(expr)}
        assert "t0.c0" in refs
        assert "t1.c9" in refs

    def test_walk_preorder(self):
        expr = parse_expression("1 + 2 * 3")
        kinds = [type(n).__name__ for n in A.walk(expr)]
        assert kinds[0] == "Binary"
        assert kinds.count("Literal") == 3
