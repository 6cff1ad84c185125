"""Generate the SQL differential corpus in ``sql_corpus.json``.

The corpus is a fixed-seed set of SELECT statements over four small tables
(NULLs, mixed int/float, bools and strings; one table is empty, one has
dotted column names), each recorded with what the engine returned: the
result's column names and rows, or the exception's type and message.
``tests/test_sqlengine.py`` replays every statement and asserts the same
outcome, value types and key order included.

The recorded file is the reference; regenerate it only to add statements,
or to record a deliberate change of outcome, and check that no other
existing entry changes::

    PYTHONPATH=src python tests/fixtures/sql_corpus.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List

CORPUS_PATH = Path(__file__).with_name("sql_corpus.json")
SEED = 20261019
GENERATED = 360

#: (name, columns, rows, storage); "rows" tables are built row by row,
#: "columns" tables with Table.from_columns
TABLES = [
    ("t", ["id", "name", "grp", "x", "y", "flag"], [
        [1, "alpha", "g1", 10, 2.5, True],
        [2, "beta", "g2", None, 4.0, False],
        [3, None, "g1", 7, None, None],
        [4, "gamma", "g3", 3, 1.5, True],
        [5, "alphabet", "g2", 10, 0.0, False],
        [6, "delta", "g1", -2, 8.25, True],
        [7, "", "g3", 0, 3, None],
    ], "rows"),
    ("u", ["id", "t_id", "name", "v"], [
        [10, 1, "one", 5],
        [11, 1, "uno", 2.5],
        [12, 2, "two", None],
        [13, 9, "nine", 7],
        [14, None, "none", 1],
        [15, 4, "four", 0],
    ], "columns"),
    ("e", ["id", "x"], [], "rows"),
    ("d", ["k", "m.v", "n.v"], [
        ["p", 1, 2],
        ["q", 3, None],
    ], "columns"),
]

_COLUMNS = {name: columns for name, columns, _, _ in TABLES}
_LITERALS = ["1", "0", "10", "2.5", "-3", "'alpha'", "'g1'", "'%a%'", "'b_ta'", "''",
             "NULL", "TRUE", "FALSE"]
_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
_ARITHMETIC = ["+", "-", "*", "/", "%", "||"]
_AGGREGATES = ["COUNT", "SUM", "AVG", "MIN", "MAX"]


class _Generator:
    """Random SELECTs over the corpus tables, from one seeded RNG."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def pick(self, options):
        return self.rng.choice(options)

    def chance(self, probability: float) -> bool:
        return self.rng.random() < probability

    def column(self, scope: List[tuple]) -> str:
        roll = self.rng.random()
        if roll < 0.05:
            return self.pick(["nosuch", "q.id", "t.nosuch", "`m.v`", "v"])
        alias, table = self.pick(scope)
        name = self.pick(_COLUMNS[table])
        if "." in name:
            name = f"`{name}`"
        if roll < 0.35:
            return f"{alias}.{name}"
        return name

    def scalar(self, scope: List[tuple], depth: int = 0) -> str:
        if depth >= 2 or self.chance(0.35):
            return self.column(scope) if self.chance(0.7) else self.pick(_LITERALS)
        kind = self.pick(["cmp", "arith", "bool", "not", "neg", "in", "null",
                          "between", "like", "case"])
        a = self.scalar(scope, depth + 1)
        if kind == "cmp":
            return f"{a} {self.pick(_COMPARISONS)} {self.scalar(scope, depth + 1)}"
        if kind == "arith":
            return f"({a} {self.pick(_ARITHMETIC)} {self.scalar(scope, depth + 1)})"
        if kind == "bool":
            return f"({a} {self.pick(['AND', 'OR'])} {self.scalar(scope, depth + 1)})"
        if kind == "not":
            return f"NOT {a}"
        if kind == "neg":
            return f"-{self.column(scope)}"
        if kind == "in":
            options = ", ".join(self.pick(_LITERALS)
                                for _ in range(self.rng.randint(1, 3)))
            return f"{a} {'NOT ' if self.chance(0.3) else ''}IN ({options})"
        if kind == "null":
            return f"{a} IS {'NOT ' if self.chance(0.5) else ''}NULL"
        if kind == "between":
            return (f"{a} {'NOT ' if self.chance(0.3) else ''}BETWEEN "
                    f"{self.pick(_LITERALS)} AND {self.pick(_LITERALS)}")
        if kind == "like":
            return f"{self.column(scope)} LIKE {self.pick(['%a%', 'a%', '_eta', 'g_', '%'])!r}"
        condition = self.condition(scope, depth + 1)
        default = f" ELSE {self.scalar(scope, depth + 1)}" if self.chance(0.6) else ""
        return f"CASE WHEN {condition} THEN {a}{default} END"

    def condition(self, scope: List[tuple], depth: int = 0) -> str:
        roll = self.rng.random()
        if depth < 2 and roll < 0.3:
            joiner = self.pick(["AND", "OR"])
            return (f"({self.condition(scope, depth + 1)} {joiner} "
                    f"{self.condition(scope, depth + 1)})")
        if roll < 0.4:
            return f"NOT {self.condition(scope, depth + 1)}"
        if roll < 0.75:
            return (f"{self.column(scope)} {self.pick(_COMPARISONS)} "
                    f"{self.pick(_LITERALS + [self.column(scope)])}")
        return self.scalar(scope, depth)

    def aggregate(self, scope: List[tuple]) -> str:
        roll = self.rng.random()
        if roll < 0.15:
            return "COUNT(*)"
        if roll < 0.22:
            return self.pick(["SUM(x, y)", "SUM()", "MEDIAN(x)", "COUNT()", "UPPER(name)",
                              "SUM(*)", "MAX(COUNT(*))"])
        distinct = "DISTINCT " if self.chance(0.2) else ""
        call = f"{self.pick(_AGGREGATES)}({distinct}{self.scalar(scope, 1)})"
        if self.chance(0.15):
            return f"{call} {self.pick(['+', '*', '-'])} {self.pick(['1', '2.5', 'x'])}"
        if self.chance(0.1):
            return f"CASE WHEN {call} > 2 THEN 'many' ELSE 'few' END"
        return call

    def from_clause(self) -> tuple:
        base = self.pick(["t", "t", "u", "e", "d"])
        alias = self.pick([None, None, "a", "b"])
        scope = [(alias or base, base)]
        text = f"FROM {base}" + (f" {alias}" if alias else "")
        if self.chance(0.3):
            other = self.pick(["u", "t", "e"])
            other_alias = self.pick([other, "j", "k"]) if other != base else "j"
            scope.append((other_alias, other))
            kind = self.pick(["JOIN", "INNER JOIN", "LEFT JOIN"])
            on = self.pick([
                f"{scope[0][0]}.id = {other_alias}.{self.pick(_COLUMNS[other])}",
                f"{other_alias}.id > {scope[0][0]}.id",
                self.condition(scope, 1),
            ])
            alias_text = f" {other_alias}" if other_alias != other else ""
            text += f" {kind} {other}{alias_text} ON {on}"
        return text, scope

    def select(self) -> str:
        from_text, scope = self.from_clause()
        grouped = self.chance(0.3)
        if grouped:
            keys = [self.column(scope) for _ in range(self.rng.randint(0, 2))]
            items = keys + [self.aggregate(scope) for _ in range(self.rng.randint(1, 2))]
        else:
            keys = []
            items = []
            for _ in range(self.rng.randint(1, 3)):
                roll = self.rng.random()
                if roll < 0.12:
                    items.append("*")
                elif roll < 0.2:
                    items.append(f"{self.pick(scope)[0]}.*")
                else:
                    items.append(self.scalar(scope))
        items = [f"{item} AS {self.pick(['c', 'total', 'x', 'name'])}"
                 if item != "*" and not item.endswith(".*") and self.chance(0.2)
                 else item for item in items]
        text = f"SELECT {'DISTINCT ' if self.chance(0.15) else ''}{', '.join(items)} {from_text}"
        if self.chance(0.5):
            text += f" WHERE {self.condition(scope)}"
        if grouped and keys:
            text += f" GROUP BY {', '.join(keys)}"
        if grouped and self.chance(0.3):
            text += f" HAVING {self.pick(['COUNT(*) > 1', 'SUM(x) >= 10', self.condition(scope, 1)])}"
        if self.chance(0.4):
            orders = [self.pick([self.column(scope), "1", "2", "c", self.scalar(scope, 1)])
                      + self.pick(["", " ASC", " DESC"])
                      for _ in range(self.rng.randint(1, 2))]
            text += f" ORDER BY {', '.join(orders)}"
        if self.chance(0.2):
            text += f" LIMIT {self.rng.randint(0, 4)}"
        return text


#: hand-written statements for the paths random generation rarely reaches
FIXED = [
    "SELECT 1 + 1",
    "SELECT 1 AS one, 'a' || NULL, NULL IS NULL",
    "SELECT *",
    "SELECT nosuch",
    "SELECT COUNT(*) FROM e",
    "SELECT SUM(x), AVG(x), MIN(x), MAX(x), COUNT(x) FROM e",
    "SELECT MEDIAN(x) FROM e",
    "SELECT MEDIAN(x) FROM t",
    "SELECT MEDIAN(name) FROM t WHERE name IS NULL",
    "SELECT SUM(x, y) FROM t",
    "SELECT SUM(x, y) FROM e",
    "SELECT SUM() FROM t",
    "SELECT COUNT() FROM t",
    "SELECT nosuch FROM e",
    "SELECT * FROM e",
    "SELECT * FROM e WHERE nosuch = 1",
    "SELECT id FROM e ORDER BY nosuch",
    "SELECT id FROM t WHERE nosuch = 1",
    "SELECT id, nosuch FROM t",
    "SELECT id FROM t WHERE x / (id - 3) > 1",
    "SELECT id, x / (id - 3) FROM t WHERE id > 1",
    "SELECT v FROM d",
    "SELECT `m.v`, d.`n.v` FROM d",
    "SELECT k FROM d WHERE v = 1",
    "SELECT * FROM d",
    "SELECT d.* FROM d ORDER BY `n.v` DESC",
    "SELECT t.* FROM t JOIN u ON t.id = u.t_id",
    "SELECT u.*, t.name FROM t JOIN u ON t.id = u.t_id",
    "SELECT * FROM t LEFT JOIN u ON t.id = u.t_id",
    "SELECT name, id FROM t JOIN u ON t.id = u.t_id",
    "SELECT t.name, u.name FROM t LEFT JOIN u ON t.id = u.t_id ORDER BY u.v DESC",
    "SELECT a.id, b.id FROM t a JOIN t b ON a.id < b.id WHERE b.id - a.id = 3",
    "SELECT * FROM t JOIN t ON t.id = t.id",
    "SELECT * FROM t JOIN nosuch ON t.id = nosuch.id",
    "SELECT * FROM t JOIN u ON nosuch = 1 JOIN nosuchtable ON 1 = 1",
    "SELECT * FROM e JOIN u ON nosuch = 1 JOIN nosuchtable ON 1 = 1",
    "SELECT * FROM nosuchtable",
    "SELECT t.id, COUNT(u.id) FROM t LEFT JOIN u ON t.id = u.t_id GROUP BY t.id",
    "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) > 2",
    "SELECT grp, SUM(x) AS s FROM t GROUP BY grp ORDER BY s DESC",
    "SELECT grp FROM t GROUP BY grp HAVING name = 'alpha'",
    "SELECT COUNT(*) FROM e HAVING x > 1",
    "SELECT COUNT(*) FROM e HAVING COUNT(*) = 0",
    "SELECT id FROM t HAVING id > 1",
    "SELECT *, COUNT(*) FROM t",
    "SELECT * FROM t GROUP BY grp",
    "SELECT x IN (1, 2) , COUNT(*) FROM t",
    "SELECT COUNT(*) IN (1, 2) FROM t",
    "SELECT COUNT(*) BETWEEN 1 AND 9 FROM t",
    "SELECT x IS NULL, COUNT(*) FROM t GROUP BY x IS NULL",
    "SELECT COUNT(DISTINCT grp), COUNT(DISTINCT x) FROM t",
    "SELECT SUM(name) FROM t",
    "SELECT AVG(flag), SUM(flag) FROM t",
    "SELECT MIN(name) FROM t",
    "SELECT MAX(name), MIN(x) FROM t WHERE name IS NOT NULL",
    "SELECT id FROM t WHERE x BETWEEN 1 AND 10",
    "SELECT id FROM t WHERE y BETWEEN NULL AND 3",
    "SELECT id FROM t WHERE name LIKE 'a%' OR name LIKE NULL",
    "SELECT id FROM t WHERE flag",
    "SELECT id FROM t WHERE NOT flag",
    "SELECT id FROM t WHERE name < 1",
    "SELECT id FROM t WHERE -name = 1",
    "SELECT id FROM t ORDER BY -name",
    "SELECT id FROM t ORDER BY name < 1",
    "SELECT id FROM t ORDER BY y BETWEEN NULL AND 3",
    "SELECT id FROM t ORDER BY nosuch, id DESC",
    "SELECT id AS i FROM t ORDER BY x, i DESC",
    "SELECT id, id FROM t ORDER BY 2 DESC",
    "SELECT id, name AS id FROM t",
    "SELECT id FROM t ORDER BY 5",
    "SELECT id FROM t ORDER BY TRUE",
    "SELECT id FROM t ORDER BY __source_row__",
    "SELECT x AS `a.x`, y AS `b.x` FROM t ORDER BY x",
    "SELECT DISTINCT grp FROM t ORDER BY x",
    "SELECT DISTINCT x, y FROM t ORDER BY 1 DESC LIMIT 3",
    "SELECT grp, MAX(y) FROM t GROUP BY grp ORDER BY y",
    "SELECT grp, MAX(y) FROM t GROUP BY grp ORDER BY nosuch",
    "SELECT id FROM t LIMIT 0",
    "SELECT CASE WHEN x > 5 THEN 'big' WHEN x > 0 THEN 'small' END FROM t",
    "SELECT CASE WHEN COUNT(*) > 3 THEN SUM(x) ELSE nosuch END FROM t",
    "SELECT CASE WHEN nosuch THEN 1 ELSE 2 END FROM e",
    "SELECT id FROM t WHERE id IN (1, nosuch)",
    "SELECT id FROM t WHERE id = 1 AND nosuch = 1",
    "SELECT id FROM t WHERE id = 99 AND nosuch = 1",
    "SELECT id FROM t WHERE id = 1 OR nosuch = 1",
    "SELECT id FROM u WHERE v / 0 > 1",
    "SELECT id FROM u WHERE v % 0 > 1",
    "SELECT id % 4, COUNT(*) FROM u GROUP BY id % 4 ORDER BY 1",
    "SELECT t_id, AVG(v) FROM u GROUP BY t_id ORDER BY 2 DESC",
    "SELECT name || '-' || id FROM u WHERE t_id IS NULL OR v IS NULL",
    "SELECT COUNT(*) + 1, MAX(v) - MIN(v) FROM u",
    "SELECT NOT COUNT(*), -SUM(v), +MAX(v) FROM u",
    "SELECT -MAX(name) FROM u",
    "SELECT id FROM u WHERE id > 0 ORDER BY v, id LIMIT 2",
    "SELECT target FROM u WHERE source = 'x' AND relationship = 'RK_CONTAINS'",
    "SELECT `__source_row__` FROM t",
]


def _rows_of(result) -> List[List[List[str]]]:
    return [[[key, repr(value)] for key, value in row.items()] for row in result.rows]


def record(sql: str, database) -> Dict[str, Any]:
    """The outcome of *sql* on *database*, in the corpus's recorded form."""
    try:
        result = database.execute(sql)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return {"sql": sql, "error": [type(exc).__name__, str(exc)]}
    return {"sql": sql, "columns": list(result.columns), "rows": _rows_of(result)}


def build_database():
    """The corpus database, built from :data:`TABLES`."""
    from repro.sqlengine import Database, Table

    database = Database("corpus")
    for name, columns, rows, storage in TABLES:
        if storage == "columns":
            database.add_table(Table.from_columns(
                name, {column: [row[i] for row in rows]
                       for i, column in enumerate(columns)}))
        else:
            database.add_table(Table(name, columns,
                                     [dict(zip(columns, row)) for row in rows]))
    return database


def statements() -> List[str]:
    """:data:`FIXED`, then :data:`GENERATED` distinct generated statements
    that parse (the parser's own tests cover the rest)."""
    from repro.sqlengine import SqlSyntaxError, parse_statement

    generator = _Generator(SEED)
    generated: List[str] = []
    while len(generated) < GENERATED:
        sql = generator.select()
        if sql in generated or sql in FIXED:
            continue
        try:
            parse_statement(sql)
        except SqlSyntaxError:
            continue
        generated.append(sql)
    return FIXED + generated


def main() -> None:
    database = build_database()
    corpus = [record(sql, database) for sql in statements()]
    CORPUS_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(entry) for entry in corpus) + "\n]\n")
    errors = sum("error" in entry for entry in corpus)
    print(f"{len(corpus)} statements ({errors} raise) -> {CORPUS_PATH}")


if __name__ == "__main__":
    main()
