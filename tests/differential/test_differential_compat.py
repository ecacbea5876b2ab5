"""Unit tests: capability intersection, statement translation/skip
rules, statement-kind classification, and pair-adapter state-sync
handling."""

from __future__ import annotations

import pytest

from repro.adapters import MiniDBAdapter, Sqlite3Adapter
from repro.adapters.sql_text import (
    KIND_DDL,
    KIND_INDEX,
    KIND_OTHER,
    KIND_SELECT,
    KIND_WRITE,
    is_row_returning,
    statement_kind,
    strip_leading_trivia,
)
from repro.differential import (
    CompatPolicy,
    CompatSkip,
    DifferentialAdapter,
    build_pair_adapter,
    capabilities,
)
from repro.dialects import make_engine
from repro.errors import SqlError, StateDesyncError


class TestStatementKind:
    @pytest.mark.parametrize(
        ("sql", "kind"),
        [
            ("SELECT 1", KIND_SELECT),
            ("  select * from t", KIND_SELECT),
            ("WITH q AS (SELECT 1) SELECT * FROM q", KIND_SELECT),
            ("VALUES (1, 2)", KIND_SELECT),
            ("(SELECT 1)", KIND_SELECT),
            ("-- header comment\nSELECT 1", KIND_SELECT),
            ("/* block */ SELECT 1", KIND_SELECT),
            ("/* a */ -- b\n  (select 2)", KIND_SELECT),
            ("INSERT INTO t VALUES (1)", KIND_WRITE),
            ("update t set a = 1", KIND_WRITE),
            ("DELETE FROM t", KIND_WRITE),
            ("CREATE TABLE t (a INT)", KIND_DDL),
            ("CREATE VIEW v AS SELECT 1", KIND_DDL),
            ("DROP TABLE t", KIND_DDL),
            ("CREATE INDEX ix ON t (a)", KIND_INDEX),
            ("create unique index ix on t (a)", KIND_INDEX),
            ("PRAGMA table_info(t)", KIND_OTHER),
            ("", KIND_OTHER),
        ],
    )
    def test_kinds(self, sql, kind):
        assert statement_kind(sql) == kind

    def test_strip_leading_trivia(self):
        assert strip_leading_trivia("  -- c\n /* x */ ( SELECT 1") == "SELECT 1"

    def test_row_returning(self):
        assert is_row_returning("-- note\n(SELECT 1)")
        assert not is_row_returning("INSERT INTO t VALUES (1)")


class TestSqlite3FingerprintKinds:
    """Satellite fix: plan fingerprints survive leading comments and
    parenthesized selects."""

    def _adapter(self):
        adapter = Sqlite3Adapter()
        adapter.execute("CREATE TABLE t (a INT)")
        adapter.execute("INSERT INTO t VALUES (1), (2)")
        return adapter

    def test_plain_select_has_fingerprint(self):
        result = self._adapter().execute("SELECT * FROM t")
        assert result.plan_fingerprint

    def test_leading_comment_still_fingerprints(self):
        result = self._adapter().execute("-- repro case 42\nSELECT * FROM t")
        assert result.plan_fingerprint

    def test_values_clause_still_fingerprints(self):
        # VALUES is row-returning but starts with neither SELECT nor
        # WITH -- the old prefix check missed it.
        result = self._adapter().execute("VALUES (1), (2)")
        assert result.plan_fingerprint

    def test_lowercase_with_clause(self):
        result = self._adapter().execute(
            "with q as (select a from t) select * from q"
        )
        assert result.plan_fingerprint

    def test_insert_has_no_fingerprint(self):
        result = self._adapter().execute("INSERT INTO t VALUES (3)")
        assert result.plan_fingerprint is None


class TestCapabilities:
    def test_minidb_caps(self):
        caps = capabilities(MiniDBAdapter(make_engine("sqlite")))
        assert caps.simulated
        assert caps.supports_version_fn
        assert not caps.supports_any_all  # the SQLite-like profile

    def test_sqlite3_caps(self):
        caps = capabilities(Sqlite3Adapter())
        assert not caps.simulated
        assert not caps.supports_any_all
        assert not caps.supports_version_fn

    def test_pair_intersects_any_all(self):
        mysql = MiniDBAdapter(make_engine("mysql"))
        assert mysql.supports_any_all
        policy = CompatPolicy.for_pair(mysql, Sqlite3Adapter())
        assert not policy.supports_any_all

    def test_minidb_pair_keeps_any_all(self):
        policy = CompatPolicy.for_pair(
            MiniDBAdapter(make_engine("mysql")),
            MiniDBAdapter(make_engine("tidb")),
        )
        assert policy.supports_any_all
        assert "FULL" in policy.join_kinds


class TestTranslation:
    def _policy(self):
        return CompatPolicy.for_pair(
            MiniDBAdapter(make_engine("sqlite")), Sqlite3Adapter()
        )

    def test_version_rewritten_for_sqlite3(self):
        policy = self._policy()
        out = policy.translate(
            "SELECT * FROM t WHERE VERSION() > c0", policy.secondary
        )
        assert "VERSION" not in out.upper()
        assert "8.0.11-minidb" in out

    def test_version_passthrough_for_minidb(self):
        policy = self._policy()
        sql = "SELECT * FROM t WHERE version() > c0"
        assert policy.translate(sql, policy.primary) == sql

    def test_quantified_skipped_for_sqlite3(self):
        policy = self._policy()
        with pytest.raises(CompatSkip):
            policy.translate(
                "SELECT * FROM t WHERE c0 = ANY (SELECT c0 FROM t)",
                policy.secondary,
            )

    def test_typeof_skipped_for_sqlite3(self):
        policy = self._policy()
        with pytest.raises(CompatSkip):
            policy.translate("SELECT TYPEOF(c0) FROM t", policy.secondary)


class TestPairStateSync:
    def _pair(self):
        return build_pair_adapter(("minidb", "sqlite3"))

    def test_rejected_statement_touches_neither_backend(self):
        pair = self._pair()
        pair.execute("CREATE TABLE t (a INT NOT NULL)")
        with pytest.raises(SqlError):
            pair.execute("INSERT INTO t VALUES (1), (NULL)")
        # Atomic on the primary, never attempted on the secondary.
        result = pair.execute("SELECT COUNT(*) FROM t")
        assert result.rows == [(0,)]

    def test_secondary_data_failure_poisons_until_reset(self):
        pair = self._pair()
        pair.execute("CREATE TABLE t (a INT)")
        # Force a one-sided failure: create an object only the
        # secondary already has, so its CREATE fails there first.
        pair.secondary.execute("CREATE TABLE u (a INT)")
        with pytest.raises(StateDesyncError):
            pair.execute("CREATE TABLE u (a INT)")
        with pytest.raises(StateDesyncError):
            pair.execute("SELECT 1")
        pair.reset()
        assert pair.execute("SELECT 1").rows == [(1,)]

    def test_secondary_query_failure_is_plain_skip(self):
        pair = self._pair()
        pair.execute("CREATE TABLE t (a INT)")
        pair.secondary.execute("DROP TABLE t")
        with pytest.raises(SqlError) as err:
            pair.execute("SELECT * FROM t")
        assert not isinstance(err.value, StateDesyncError)
        # Queries have no side effects: the pair keeps working for
        # statements both sides accept.
        assert pair.execute("SELECT 2").rows == [(2,)]

    def test_divergence_carries_both_fingerprints(self):
        from repro.errors import DifferentialMismatch

        pair = self._pair()
        pair.execute("CREATE TABLE t (a INT)")
        pair.execute("INSERT INTO t VALUES (1)")
        pair.secondary.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(DifferentialMismatch) as err:
            pair.execute("SELECT a FROM t")
        assert len(err.value.fingerprints) == 2
        assert "diverge" in str(err.value)

    def test_reset_clears_both_backends(self):
        pair = self._pair()
        pair.execute("CREATE TABLE t (a INT)")
        pair.reset()
        assert pair.schema().tables == []
        assert pair.secondary.schema().tables == []

    def test_engine_property_exposes_primary(self):
        pair = self._pair()
        assert pair.engine is pair.primary.engine
        primary, secondary = Sqlite3Adapter(), Sqlite3Adapter()
        assert DifferentialAdapter(
            primary, secondary, CompatPolicy.for_pair(primary, secondary)
        ).engine is None
