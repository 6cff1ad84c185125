"""Tests for the in-memory SQL engine (lexer, parser, executor)."""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import (
    Database,
    Table,
    SqlExecutionError,
    SqlSyntaxError,
    Token,
    TokenType,
    parse_statement,
    tokenize,
)
from repro.sqlengine.ast_nodes import SelectStatement, UpdateStatement


def sample_database() -> Database:
    database = Database("test")
    database.add_table(Table("nodes", ["id", "address", "type", "capacity"], [
        {"id": "a", "address": "10.0.0.1", "type": "host", "capacity": 10},
        {"id": "b", "address": "10.0.1.2", "type": "router", "capacity": 40},
        {"id": "c", "address": "15.76.0.9", "type": "host", "capacity": 20},
    ]))
    database.add_table(Table("edges", ["source", "target", "bytes"], [
        {"source": "a", "target": "b", "bytes": 100},
        {"source": "b", "target": "a", "bytes": 50},
        {"source": "b", "target": "c", "bytes": 10},
        {"source": "c", "target": "b", "bytes": 30},
    ]))
    return database


class TestLexer:
    def test_tokenizes_keywords_and_identifiers(self):
        tokens = tokenize("SELECT id FROM nodes")
        kinds = [token.type for token in tokens]
        assert kinds[:4] == [TokenType.KEYWORD, TokenType.IDENTIFIER,
                             TokenType.KEYWORD, TokenType.IDENTIFIER]
        assert kinds[-1] is TokenType.END

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_numbers(self):
        tokens = tokenize("SELECT 42, 3.5")
        assert tokens[1].value == 42
        assert tokens[3].value == 3.5

    def test_comment_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing comment\n")
        assert all(token.type is not TokenType.IDENTIFIER for token in tokens)

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT #")

    def test_matches_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.matches_keyword("SELECT", "INSERT")
        assert not token.matches_keyword("UPDATE")


class TestParser:
    def test_select_structure(self):
        statement = parse_statement(
            "SELECT type, COUNT(*) AS n FROM nodes WHERE capacity > 5 "
            "GROUP BY type HAVING COUNT(*) > 0 ORDER BY n DESC LIMIT 3")
        assert isinstance(statement, SelectStatement)
        assert len(statement.items) == 2
        assert statement.where is not None
        assert statement.group_by and statement.having is not None
        assert statement.limit == 3
        assert statement.order_by[0].ascending is False

    def test_join_parsing(self):
        statement = parse_statement(
            "SELECT n.id FROM edges JOIN nodes n ON source = n.id")
        assert len(statement.joins) == 1
        assert statement.joins[0].table.alias == "n"

    def test_update_parsing(self):
        statement = parse_statement("UPDATE nodes SET capacity = 5 WHERE id = 'a'")
        assert isinstance(statement, UpdateStatement)
        assert statement.assignments[0][0] == "capacity"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 GARBAGE TOKENS HERE extra")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT id FROM nodes WHERE (capacity > 5")

    def test_unsupported_statement_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("CREATE TABLE t (x)")


class TestSelectExecution:
    def test_count_star(self):
        assert sample_database().execute("SELECT COUNT(*) FROM nodes").scalar() == 3

    def test_projection_and_where(self):
        result = sample_database().execute(
            "SELECT id FROM nodes WHERE type = 'host' ORDER BY id")
        assert result.column() == ["a", "c"]

    def test_like(self):
        result = sample_database().execute(
            "SELECT id FROM nodes WHERE address LIKE '10.0%' ORDER BY id")
        assert result.column() == ["a", "b"]

    def test_arithmetic_and_alias(self):
        result = sample_database().execute("SELECT capacity * 2 AS doubled FROM nodes ORDER BY doubled")
        assert result.column("doubled") == [20, 40, 80]

    def test_aggregates(self):
        database = sample_database()
        assert database.execute("SELECT SUM(bytes) FROM edges").scalar() == 190
        assert database.execute("SELECT AVG(capacity) FROM nodes").scalar() == pytest.approx(70 / 3)
        assert database.execute("SELECT MAX(bytes) FROM edges").scalar() == 100
        assert database.execute("SELECT MIN(bytes) FROM edges").scalar() == 10

    def test_group_by_with_order_and_having(self):
        result = sample_database().execute(
            "SELECT source, SUM(bytes) AS total FROM edges GROUP BY source "
            "HAVING SUM(bytes) > 20 ORDER BY total DESC")
        assert result.to_records() == [
            {"source": "a", "total": 100},
            {"source": "b", "total": 60},
            {"source": "c", "total": 30},
        ]

    def test_join_with_qualified_columns(self):
        result = sample_database().execute(
            "SELECT n1.address AS src, n2.address AS dst FROM edges "
            "JOIN nodes n1 ON source = n1.id JOIN nodes n2 ON target = n2.id "
            "WHERE bytes > 40 ORDER BY src")
        assert result.to_records() == [
            {"src": "10.0.0.1", "dst": "10.0.1.2"},
            {"src": "10.0.1.2", "dst": "10.0.0.1"},
        ]

    def test_left_join_produces_nulls(self):
        database = sample_database()
        database.add_table(Table("labels", ["id", "label"], [{"id": "a", "label": "prod"}]))
        result = database.execute(
            "SELECT nodes.id AS id, label FROM nodes LEFT JOIN labels ON nodes.id = labels.id "
            "ORDER BY id")
        assert result.to_records()[1]["label"] is None

    def test_distinct_and_in(self):
        result = sample_database().execute(
            "SELECT DISTINCT type FROM nodes WHERE type IN ('host', 'router') ORDER BY type")
        assert result.column() == ["host", "router"]

    def test_between_and_case(self):
        result = sample_database().execute(
            "SELECT id, CASE WHEN capacity BETWEEN 15 AND 45 THEN 'mid' ELSE 'other' END AS bucket "
            "FROM nodes ORDER BY id")
        assert [row["bucket"] for row in result.rows] == ["other", "mid", "mid"]

    def test_between_compares_as_the_comparison_operators_do(self):
        database = Database("nulls")
        database.add_table(Table.from_columns("t", {"id": [1, 2], "x": [5, None]}))
        for sql in ("SELECT id FROM t WHERE x BETWEEN 1 AND 10",
                    "SELECT id FROM t WHERE x >= 1 AND x <= 10"):
            assert database.execute(sql).to_records() == [{"id": 1}], sql
        assert database.execute(
            "SELECT id FROM t WHERE x NOT BETWEEN 1 AND 10").to_records() == []
        with pytest.raises(SqlExecutionError, match="cannot compare 1 and 'a'"):
            database.execute("SELECT id FROM t WHERE 'a' BETWEEN 1 AND 10")

    @pytest.mark.parametrize("where, ids", [
        ("x NOT BETWEEN 1 AND 10", []),
        ("NOT (x >= 1)", []),
        ("NOT (x LIKE '5')", []),
        ("NOT (x >= 1 AND id = 1)", [2]),
        ("NOT (x >= 1 AND id = 2)", [1]),
        ("NOT (x >= 1 OR id = 1)", []),
        ("x >= 1 OR id = 2", [1, 2]),
        ("NOT NOT (x < 10)", [1]),
    ])
    def test_a_null_comparison_is_unknown(self, where, ids):
        """A comparison, BETWEEN or LIKE with a NULL operand is unknown;
        NOT, AND and OR propagate unknown, and WHERE selects and DELETE
        removes only the rows where it is true."""
        database = Database("nulls")
        database.add_table(Table.from_columns("t", {"id": [1, 2], "x": [5, None]}))
        assert database.execute(f"SELECT id FROM t WHERE {where}").column("id") == ids
        database.execute(f"DELETE FROM t WHERE {where}")
        assert database.execute("SELECT id FROM t").column("id") == [
            row for row in (1, 2) if row not in ids]

    def test_arithmetic_with_a_null_operand_is_null(self):
        database = Database("nulls")
        database.add_table(Table.from_columns(
            "t", {"g": ["a", "a", "b"], "x": [1, 3, None]}))
        result = database.execute(
            "SELECT g, AVG(x) + 1 AS v FROM t GROUP BY g ORDER BY g")
        assert result.to_records() == [{"g": "a", "v": 3.0}, {"g": "b", "v": None}]
        assert database.execute("SELECT 1 / NULL, NULL % 0, NULL * 'a'").rows == [
            {"column_0": None, "column_1": None, "column_2": None}]

    def test_unary_minus_and_plus_of_null_are_null(self):
        database = Database("nulls")
        database.add_table(Table.from_columns("t", {"id": [1, 2], "x": [5, None]}))
        assert database.execute("SELECT -x AS m, +x AS p FROM t ORDER BY id").to_records() == [
            {"m": -5, "p": 5}, {"m": None, "p": None}]
        assert database.execute("SELECT -NULL, +NULL").rows == [
            {"column_0": None, "column_1": None}]

    def test_concat_with_a_null_operand_is_null(self):
        database = Database("nulls")
        database.add_table(Table.from_columns("t", {"id": [1, 2], "s": ["x", None]}))
        assert database.execute("SELECT 'a' || NULL, NULL || 'b', 'a' || 'b'").rows == [
            {"column_0": None, "column_1": None, "column_2": "ab"}]
        assert database.execute(
            "SELECT s || '!' AS v FROM t ORDER BY id").column("v") == ["x!", None]

    def test_table_star_in_a_join_returns_that_tables_values(self):
        database = Database("join")
        database.add_table(Table("t", ["id", "name"], [
            {"id": 1, "name": "alpha"}, {"id": 2, "name": "beta"}]))
        database.add_table(Table("u", ["t_id", "id", "name"], [
            {"t_id": 1, "id": 10, "name": "u-one"},
            {"t_id": 2, "id": 20, "name": "u-two"}]))
        sql = "SELECT {} FROM t JOIN u ON t.id = u.t_id ORDER BY t.id"
        assert database.execute(sql.format("t.*")).to_records() == [
            {"id": 1, "name": "alpha"}, {"id": 2, "name": "beta"}]
        result = database.execute(sql.format("u.*"))
        assert result.columns == ["t_id", "id", "name"]
        assert result.to_records() == [
            {"t_id": 1, "id": 10, "name": "u-one"},
            {"t_id": 2, "id": 20, "name": "u-two"}]

    def test_star_keeps_dotted_column_names(self):
        database = Database("dotted")
        database.add_table(Table("a", ["id"], [{"id": 1}]))
        database.add_table(Table("d", ["k", "a.v"], [{"k": "p", "a.v": 3}]))
        sql = "SELECT {} FROM a JOIN d ON a.id = 1"
        assert database.execute(sql.format("*")).to_records() == [
            {"id": 1, "k": "p", "a.v": 3}]
        # a.* is table a's own columns, not d's bare name that starts "a."
        assert database.execute(sql.format("a.*")).to_records() == [{"id": 1}]
        assert database.execute(sql.format("d.*")).columns == ["k", "a.v"]

    def test_any_output_name_keeps_its_values(self):
        database = Database("names")
        database.add_table(Table.from_columns("t", {"id": [1, 2]}))
        result = database.execute("SELECT id AS __source_row__ FROM t")
        assert result.column("__source_row__") == [1, 2]

    def test_select_without_from(self):
        assert sample_database().execute("SELECT 2 + 3 AS v").scalar() == 5

    def test_count_distinct(self):
        assert sample_database().execute("SELECT COUNT(DISTINCT type) FROM nodes").scalar() == 2

    def test_limit_and_order_by_position(self):
        result = sample_database().execute("SELECT id, capacity FROM nodes ORDER BY 2 DESC LIMIT 1")
        assert result.rows[0]["id"] == "b"

    def test_unknown_table(self):
        with pytest.raises(SqlExecutionError):
            sample_database().execute("SELECT * FROM missing")

    def test_unknown_column(self):
        with pytest.raises(SqlExecutionError):
            sample_database().execute("SELECT nonexistent FROM nodes")

    def test_division_by_zero(self):
        with pytest.raises(SqlExecutionError):
            sample_database().execute("SELECT capacity / 0 FROM nodes")

    def test_select_star(self):
        result = sample_database().execute("SELECT * FROM nodes WHERE id = 'a'")
        assert result.rows[0]["address"] == "10.0.0.1"
        assert set(result.columns) == {"id", "address", "type", "capacity"}


class TestMutationStatements:
    def test_insert(self):
        database = sample_database()
        database.execute("INSERT INTO nodes (id, address, type, capacity) "
                         "VALUES ('d', '10.9.9.9', 'switch', 5)")
        assert database.execute("SELECT COUNT(*) FROM nodes").scalar() == 4

    def test_insert_arity_mismatch(self):
        with pytest.raises(SqlExecutionError):
            sample_database().execute("INSERT INTO nodes (id, address) VALUES ('x')")

    def test_update_with_where(self):
        database = sample_database()
        database.execute("UPDATE nodes SET capacity = capacity + 1 WHERE type = 'host'")
        result = database.execute("SELECT capacity FROM nodes WHERE id = 'a'")
        assert result.scalar() == 11

    def test_update_unknown_column(self):
        with pytest.raises(SqlExecutionError):
            sample_database().execute("UPDATE nodes SET nope = 1")

    def test_delete(self):
        database = sample_database()
        database.execute("DELETE FROM edges WHERE bytes < 40")
        assert database.execute("SELECT COUNT(*) FROM edges").scalar() == 2

    def test_delete_all(self):
        database = sample_database()
        database.execute("DELETE FROM edges")
        assert len(database.table("edges")) == 0

    @pytest.mark.parametrize("statement", [
        "INSERT INTO nodes (id) VALUES ('d')",
        "UPDATE nodes SET capacity = 1 WHERE id = 'none'",
        "DELETE FROM edges WHERE bytes < 0",
    ])
    def test_writes_are_recorded_even_when_no_row_changes(self, statement):
        database = sample_database()
        database.execute("SELECT * FROM nodes JOIN edges ON nodes.id = edges.source")
        assert not database.written
        database.execute(statement)
        assert database.written


class TestDatabaseApi:
    def test_duplicate_table_rejected(self):
        database = sample_database()
        with pytest.raises(SqlExecutionError):
            database.add_table(Table("nodes", ["id"]))

    def test_copy_is_independent(self):
        database = sample_database()
        duplicate = database.copy()
        duplicate.execute("DELETE FROM edges")
        assert database.execute("SELECT COUNT(*) FROM edges").scalar() == 4

    def test_insert_rejects_unknown_columns(self):
        with pytest.raises(SqlExecutionError):
            sample_database().table("nodes").insert({"bogus": 1})

    def test_scalar_requires_1x1(self):
        with pytest.raises(SqlExecutionError):
            sample_database().execute("SELECT id FROM nodes").scalar()


# ---------------------------------------------------------------------------
# property-based: WHERE filtering matches a plain-Python filter
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=30),
       st.integers(-100, 100))
def test_where_filter_matches_python(values, threshold):
    database = Database("prop")
    database.add_table(Table("t", ["v"], [{"v": value} for value in values]))
    result = database.execute(f"SELECT v FROM t WHERE v > {threshold}")
    assert sorted(result.column()) == sorted(v for v in values if v > threshold)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
def test_sum_matches_python(values):
    database = Database("prop")
    database.add_table(Table("t", ["v"], [{"v": value} for value in values]))
    assert database.execute("SELECT SUM(v) FROM t").scalar() == sum(values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 50)),
                min_size=1, max_size=30))
def test_group_by_matches_python(pairs):
    database = Database("prop")
    database.add_table(Table("t", ["k", "v"], [{"k": k, "v": v} for k, v in pairs]))
    result = database.execute("SELECT k, SUM(v) AS total FROM t GROUP BY k")
    expected = {}
    for key, value in pairs:
        expected[key] = expected.get(key, 0) + value
    assert {row["k"]: row["total"] for row in result.rows} == expected


# ---------------------------------------------------------------------------
# differential corpus: outcomes recorded from the engine
# ---------------------------------------------------------------------------
def _corpus_module():
    path = Path(__file__).parent / "fixtures" / "sql_corpus.py"
    spec = importlib.util.spec_from_file_location("sql_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_outcomes_are_unchanged():
    """Each recorded SELECT gives the recorded columns and rows (key order
    and value types included) or raises the recorded exception."""
    corpus = _corpus_module()
    recorded = json.loads(corpus.CORPUS_PATH.read_text())
    assert len(recorded) >= 300
    database = corpus.build_database()
    changed = [(entry, outcome) for entry in recorded
               for outcome in [corpus.record(entry["sql"], database)]
               if outcome != entry]
    assert not changed, changed[:5]


def test_a_select_builds_no_row_dicts_and_stops_at_the_first_failing_row():
    database = Database("lazy")
    table = database.add_table(Table.from_columns("t", {"v": list(range(100)),
                                                        "w": [None] * 100}))
    read = []
    row_values = table.row_values
    table.row_values = lambda: (read.append(row) or row for row in row_values())
    for sql, rows_read in (("SELECT v FROM t WHERE nosuch = 1", 1),
                           ("SELECT v FROM t WHERE v = 0 OR v / (v - 5) > 9", 6)):
        read.clear()
        with pytest.raises(SqlExecutionError):
            database.execute(sql)
        assert len(read) == rows_read, sql
    assert database.execute("SELECT COUNT(*) FROM t WHERE w IS NULL").scalar() == 100
    assert table._column_values is not None  # the row dicts were never built
