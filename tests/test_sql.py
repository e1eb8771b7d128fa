"""Tests for the SQL front end (the Table 3 statement subset)."""

import pytest

from repro.imdb.query import (
    AggregateQuery,
    InsertQuery,
    JoinQuery,
    SelectQuery,
    UpdateQuery,
)
from repro.imdb.sql import SQLError, parse


class TestSelect:
    def test_q1_shape(self):
        q = parse("SELECT f3, f4 FROM Ta WHERE f10 > 7500")
        assert isinstance(q, SelectQuery)
        assert q.table == "Ta"
        assert q.projected == (3, 4)
        conj = q.predicate.conjuncts[0]
        assert conj.field == 10 and conj.op == ">"
        assert conj.selectivity == pytest.approx(0.25)

    def test_select_star(self):
        q = parse("SELECT * FROM Tb WHERE f10 > 9900")
        assert q.projected is None
        assert q.predicate.conjuncts[0].selectivity == pytest.approx(0.01)

    def test_limit(self):
        q = parse("SELECT * FROM Ta LIMIT 1024")
        assert q.limit == 1024 and q.prefers == "row"

    def test_two_conjuncts(self):
        q = parse("SELECT f3, f4 FROM Ta WHERE f1 > 5000 AND f9 < 5000")
        assert len(q.predicate.conjuncts) == 2
        assert q.predicate.conjuncts[1].op == "<"
        assert q.predicate.conjuncts[1].selectivity == pytest.approx(0.5)

    def test_no_predicate(self):
        q = parse("SELECT f1 FROM Ta")
        assert q.predicate is None

    def test_case_insensitive_keywords(self):
        q = parse("select f1 from Ta where f2 > 5000")
        assert isinstance(q, SelectQuery)


class TestAggregate:
    def test_sum(self):
        q = parse("SELECT SUM(f9) FROM Ta WHERE f10 > 7500")
        assert isinstance(q, AggregateQuery)
        assert q.func == "SUM" and q.fields == (9,)

    def test_avg_multi(self):
        q = parse("SELECT AVG(f1), AVG(f2) FROM Ta WHERE f0 < 2500")
        assert q.func == "AVG" and q.fields == (1, 2)

    def test_mixed_functions_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT AVG(f1), SUM(f2) FROM Ta")


class TestUpdateInsert:
    def test_update(self):
        q = parse("UPDATE Tb SET f3 = 7, f4 = 11 WHERE f10 = 100")
        assert isinstance(q, UpdateQuery)
        assert q.assignments == ((3, 7), (4, 11))
        assert q.predicate.conjuncts[0].op == "=="

    def test_update_requires_where(self):
        with pytest.raises(SQLError):
            parse("UPDATE Tb SET f3 = 7")

    def test_bulk_insert_count(self):
        q = parse("INSERT INTO Ta VALUES 512")
        assert isinstance(q, InsertQuery)
        assert q.n_records == 512

    def test_tuple_insert(self):
        q = parse("INSERT INTO Tb VALUES (1, 2, 3), (4, 5, 6)")
        assert q.n_records == 2


class TestJoin:
    def test_q8(self):
        q = parse(
            "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9"
        )
        assert isinstance(q, JoinQuery)
        assert q.key_field == 9
        assert q.build_table == "Tb" and q.probe_table == "Ta"
        assert q.project_probe == 3 and q.project_build == 4

    def test_q7_with_extra_compare(self):
        q = parse(
            "SELECT Ta.f3, Tb.f4 FROM Ta, Tb "
            "WHERE Ta.f1 > Tb.f1 AND Ta.f9 = Tb.f9"
        )
        assert q.key_field == 9 and q.extra_compare_field == 1

    def test_join_needs_key(self):
        with pytest.raises(SQLError):
            parse(
                "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f1 > Tb.f1"
            )


class TestErrors:
    def test_garbage(self):
        with pytest.raises(SQLError):
            parse("DROP TABLE Ta")

    def test_bad_field_name(self):
        with pytest.raises(SQLError):
            parse("SELECT foo FROM Ta")

    def test_trailing_tokens(self):
        with pytest.raises(SQLError):
            parse("SELECT f1 FROM Ta WHERE f2 > 5 GROUP")

    def test_untokenizable(self):
        with pytest.raises(SQLError):
            parse("SELECT f1 FROM Ta WHERE f2 > 'abc'")


class TestErrorPositions:
    """Every rejection names the character offset of the offender."""

    def _error(self, statement: str) -> SQLError:
        with pytest.raises(SQLError) as info:
            parse(statement)
        return info.value

    def test_malformed_token_position(self):
        statement = "SELECT f1 FROM Ta WHERE f2 # 5"
        err = self._error(statement)
        assert err.pos == statement.index("#")
        assert f"at position {err.pos}" in str(err)

    def test_unterminated_string_literal(self):
        statement = "SELECT 'oops FROM Ta"
        err = self._error(statement)
        assert "unterminated string literal" in str(err)
        assert err.pos == statement.index("'")

    def test_string_literal_is_tokenized_but_rejected(self):
        statement = "SELECT f1 FROM Ta WHERE f2 > 'abc'"
        err = self._error(statement)
        assert err.pos == statement.index("'abc'")
        assert "at position" in str(err)

    def test_unknown_leading_keyword(self):
        err = self._error("SELEKT f1 FROM Ta")
        assert "must start with SELECT" in str(err)
        assert err.pos == 0

    def test_trailing_junk_position(self):
        statement = "SELECT f1 FROM Ta WHERE f2 > 5 garbage"
        err = self._error(statement)
        assert "trailing tokens" in str(err)
        assert err.pos == statement.index("garbage")

    def test_truncated_statement_points_at_the_end(self):
        statement = "SELECT f1 FROM Ta LIMIT"
        err = self._error(statement)
        assert err.pos == len(statement)

    def test_update_assignment_value_position(self):
        statement = "UPDATE Ta SET f3 = 'x' WHERE f10 = 1"
        err = self._error(statement)
        assert err.pos == statement.index("'x'")


class TestExplainRoundTrip:
    """parse -> plan -> EXPLAIN works for every statement family."""

    STATEMENTS = {
        "project": "SELECT f3, f4 FROM Ta WHERE f10 > 7500",
        "select-star": "SELECT * FROM Tb WHERE f10 > 9900",
        "aggregate": "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
        "update": "UPDATE Tb SET f3 = 7 WHERE f10 = 100",
        "insert": "INSERT INTO Ta VALUES 64",
        "join": "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9",
    }

    @pytest.mark.parametrize("family", sorted(STATEMENTS))
    def test_family_round_trips(self, family):
        from repro.workloads import make_tables
        from repro.imdb.planner import plan_for

        query = parse(self.STATEMENTS[family], name=f"rt-{family}")
        tables = make_tables(128, 256)
        plan = plan_for("SAM-en", query, tables)
        text = plan.explain()
        assert text.startswith("PhysicalPlan")
        assert f"rt-{family}" in text
        payload = plan.to_dict()
        assert payload["query"] == f"rt-{family}"
        assert payload["mode"] in ("row", "column")


class TestEndToEnd:
    def test_parsed_query_runs(self):
        from repro.workloads import make_tables
        from repro.sim import run_query

        q = parse("SELECT SUM(f9) FROM Ta WHERE f10 > 7500", name="sql-q3")
        result = run_query("SAM-en", q, make_tables(128, 128))
        assert result.query == "sql-q3"
        assert isinstance(result.result, dict)

    def test_parsed_matches_builtin_q3(self):
        from repro.workloads import make_tables
        from repro.imdb import by_name
        from repro.sim import run_query

        sql_q = parse("SELECT SUM(f9) FROM Ta WHERE f10 > 7500")
        builtin = by_name()["Q3"]
        a = run_query("baseline", sql_q, make_tables(128, 128))
        b = run_query("baseline", builtin, make_tables(128, 128))
        assert a.result == b.result
        assert a.cycles == b.cycles


class TestLiteralSemantics:
    def test_comparison_literals_select_what_sql_says(self):
        """Every ``>``/``<``/``>=``/``<=`` literal over the field range
        selects exactly the rows numpy's comparison does (a literal that
        travels as a selectivity must not lose a unit: ``f10 > 71`` once
        also kept the rows holding 71, and ``f10 >= 71`` dropped them)."""
        import numpy as np

        from repro.imdb.plan import selected_mask
        from repro.imdb.schema import PREDICATE_RANGE, TB, Table

        table = Table(TB, PREDICATE_RANGE, seed=1)
        # every field value once, shuffled
        table.values[:, 10] = np.random.default_rng(1).permutation(
            PREDICATE_RANGE)
        column = table.column(10)
        wrong = [
            (op, literal)
            for literal in range(PREDICATE_RANGE + 1)
            for op, expected in ((">", column > literal),
                                 ("<", column < literal),
                                 (">=", column >= literal),
                                 ("<=", column <= literal))
            if not np.array_equal(selected_mask(table, parse(
                f"SELECT f1 FROM Tb WHERE f10 {op} {literal}").predicate),
                expected)
        ]
        assert wrong == []


class TestLimitSemantics:
    """A SELECT's LIMIT caps the rows returned, not the records scanned:
    with a WHERE, the scan runs to the record that holds the LIMIT-th
    match (``SELECT f3 FROM Ta WHERE f10 > 5000 LIMIT 100`` once
    returned only the matches among records 0-99)."""

    N_TA = 2048

    @staticmethod
    def _build(sql, scheme="SAM-en", n_ta=N_TA):
        from repro.core.registry import make_scheme
        from repro.sim.config import SystemConfig
        from repro.sim.runner import allocate_placements
        from repro.workloads import QueryWorkload, make_tables

        scheme = make_scheme(scheme)
        tables = make_tables(n_ta, 64)
        placements = allocate_placements(scheme, tables)
        query = parse(sql, name="limit")
        build = QueryWorkload(query).build(scheme, SystemConfig(), tables,
                                           placements)
        return build, tables["Ta"]

    @staticmethod
    def _scan(plan):
        return next(n for n in plan.root.walk() if n.op == "scan").records

    @pytest.mark.parametrize("sql,fields", (
        ("SELECT f3 FROM Ta WHERE f10 > 5000 LIMIT 100", [3]),
        ("SELECT * FROM Ta WHERE f10 > 5000 LIMIT 100", None),
    ))
    def test_limit_with_where_returns_the_first_matches(self, sql, fields):
        import numpy as np

        build, ta = self._build(sql)
        matches = np.flatnonzero(ta.column(10) > 5000)
        assert len(matches) > 100  # the table holds more rows than asked
        first = matches[:100]
        values = (ta.values[first] if fields is None
                  else ta.values[np.ix_(first, fields)])
        assert build.selected_records == 100
        assert build.result == (100, int(values.sum()))
        # the plan scans up to and including the 100th match
        assert self._scan(build.plan) == first[-1] + 1

    def test_explain_plans_the_same_scan(self):
        """The EXPLAIN path derives its own uncut mask; it must plan the
        scan the run plans from the ground truth's cut one."""
        from repro.imdb.planner import plan_for
        from repro.workloads import make_tables

        for sql in ("SELECT f3 FROM Ta WHERE f10 > 5000 LIMIT 100",
                    "SELECT * FROM Ta WHERE f10 > 5000 LIMIT 100",
                    "SELECT * FROM Ta LIMIT 48"):
            build, _ta = self._build(sql)
            explain = plan_for("SAM-en", parse(sql, name="limit"),
                               make_tables(self.N_TA, 64))
            assert explain.to_dict() == build.plan.to_dict(), sql

    def test_limit_above_the_match_count_returns_every_match(self):
        import numpy as np

        build, ta = self._build("SELECT f3 FROM Ta WHERE f10 > 9900 "
                                "LIMIT 1000")
        matches = np.flatnonzero(ta.column(10) > 9900)
        assert 0 < len(matches) < 1000
        assert build.selected_records == len(matches)
        assert build.result == (len(matches),
                                int(ta.values[matches, 3].sum()))
        assert self._scan(build.plan) == self.N_TA  # the whole table

    @pytest.mark.parametrize("limit", (48, 100, 4096))
    def test_limit_without_where_is_unchanged(self, limit):
        build, ta = self._build(f"SELECT * FROM Ta LIMIT {limit}")
        n = min(self.N_TA, limit)
        assert build.selected_records == n
        assert build.result == (n, int(ta.values[:n].sum()))
        assert self._scan(build.plan) == n
