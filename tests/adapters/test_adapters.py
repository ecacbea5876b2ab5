"""Adapter tests: MiniDB adapter and the real stdlib SQLite adapter."""

import pytest

from repro.adapters import MiniDBAdapter, Sqlite3Adapter
from repro.errors import SqlError
from repro.minidb import Engine
from repro.minidb.values import SqlType


class TestMiniDBAdapter:
    def test_execute_and_schema(self):
        adapter = MiniDBAdapter(Engine())
        adapter.execute("CREATE TABLE t (a INT, b TEXT)")
        adapter.execute("INSERT INTO t VALUES (1, 'x')")
        info = adapter.schema()
        table = info.table("t")
        assert [c.name for c in table.columns] == ["a", "b"]
        assert table.columns[0].sql_type is SqlType.INTEGER

    def test_views_in_schema(self):
        adapter = MiniDBAdapter(Engine())
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.execute("CREATE VIEW v (x) AS SELECT a FROM t")
        info = adapter.schema()
        assert info.table("v").kind == "view"
        assert info.base_tables[0].name == "t"

    def test_reset(self):
        adapter = MiniDBAdapter(Engine())
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.reset()
        assert adapter.schema().tables == []

    def test_fired_faults_surface(self):
        from repro.dialects.catalog import FAULTS_BY_ID
        from repro.dialects.base import get_dialect

        fault = FAULTS_BY_ID["tidb_in_list_where_select"]
        engine = Engine(get_dialect("tidb").engine_profile, faults=[fault])
        adapter = MiniDBAdapter(engine)
        adapter.execute("CREATE TABLE t (c INT)")
        adapter.execute("INSERT INTO t VALUES (1)")
        adapter.execute("SELECT c FROM t WHERE c IN (1)")
        assert fault.fault_id in adapter.fired_fault_ids()


class TestSqlite3Adapter:
    def test_basic_execution(self):
        adapter = Sqlite3Adapter()
        adapter.execute("CREATE TABLE t (a INT, b TEXT)")
        adapter.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        result = adapter.execute("SELECT * FROM t ORDER BY a")
        assert result.rows == [(1, "x"), (2, "y")]
        assert result.columns == ["a", "b"]

    def test_expected_errors_are_sql_errors(self):
        adapter = Sqlite3Adapter()
        with pytest.raises(SqlError):
            adapter.execute("SELECT * FROM missing")
        with pytest.raises(SqlError):
            adapter.execute("NOT EVEN SQL")

    def test_schema_introspection(self):
        adapter = Sqlite3Adapter()
        adapter.execute("CREATE TABLE t (a INT, b TEXT)")
        adapter.execute("CREATE INDEX ix ON t (a)")
        adapter.execute("CREATE VIEW v AS SELECT a FROM t")
        info = adapter.schema()
        assert info.table("t").columns[0].sql_type is SqlType.INTEGER
        assert info.table("v").kind == "view"
        assert "ix" in info.indexes

    def test_plan_fingerprints_for_selects(self):
        adapter = Sqlite3Adapter()
        adapter.execute("CREATE TABLE t (a INT)")
        result = adapter.execute("SELECT * FROM t WHERE a > 5")
        assert result.plan_fingerprint  # EXPLAIN QUERY PLAN digest

    def test_fingerprint_strips_literals(self):
        adapter = Sqlite3Adapter()
        adapter.execute("CREATE TABLE t (a INT)")
        fp1 = adapter.execute("SELECT * FROM t WHERE a > 5").plan_fingerprint
        fp2 = adapter.execute("SELECT * FROM t WHERE a > 7").plan_fingerprint
        assert fp1 == fp2

    def test_reset(self):
        adapter = Sqlite3Adapter()
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.reset()
        assert adapter.schema().tables == []

    def test_paper_listing1_on_real_sqlite(self):
        """Modern SQLite computes Listing 1 consistently (the bug is
        fixed); the metamorphic relation holds."""
        adapter = Sqlite3Adapter()
        for sql in [
            "CREATE TABLE t0 (c0)",
            "INSERT INTO t0 (c0) VALUES (1)",
            "CREATE INDEX i0 ON t0 (c0 > 0)",
            "CREATE VIEW v0 (c0) AS SELECT AVG(t0.c0) FROM t0 GROUP BY 1 > t0.c0",
        ]:
            adapter.execute(sql)
        original = adapter.execute(
            "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE "
            "(SELECT COUNT(*) FROM v0 WHERE v0.c0 BETWEEN 0 AND 0)"
        ).rows
        aux = adapter.execute(
            "SELECT COUNT(*) FROM v0 WHERE v0.c0 BETWEEN 0 AND 0"
        ).rows
        folded = adapter.execute(
            f"SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE {aux[0][0]}"
        ).rows
        assert original == folded


class TestCoddTestOnRealSqlite:
    def test_campaign_runs_clean(self):
        """The oracle drives the real SQLite without false alarms."""
        from repro import CoddTestOracle, run_campaign

        adapter = Sqlite3Adapter()
        stats = run_campaign(
            CoddTestOracle(relation_mode_prob=0.0), adapter, n_tests=60, seed=4
        )
        assert stats.tests == 60
        logic = [r for r in stats.reports if r.kind == "logic"]
        assert logic == [], [r.description for r in logic[:3]]

    def test_norec_on_real_sqlite(self):
        from repro import NoRECOracle, run_campaign

        adapter = Sqlite3Adapter()
        stats = run_campaign(NoRECOracle(), adapter, n_tests=60, seed=4)
        assert stats.reports == []
