"""Generated SQL reaches MiniDB with its AST already in the parse memo.

CODDTest, TLP, DQE, the relation folder and the state generator build
every SELECT, INSERT, UPDATE and DELETE as an AST and prime the parse
memo with its parser-normal form, so the only statements MiniDB parses
for them are DDL, which is written as text.  :func:`parser_normal`
walks only the fields that can hold AST parts; a copy of the generic
walk it replaced checks it here.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import pytest

import repro.perf.cache as cache_module
from repro import (
    CoddTestOracle,
    DQEOracle,
    MiniDBAdapter,
    TLPOracle,
    make_engine,
)
from repro.cli import main as cli_main
from repro.minidb import ast_nodes as A
from repro.perf import EvalCache, parser_normal
from repro.runner.campaign import Campaign


@pytest.fixture
def parse_misses(monkeypatch):
    """Leading keyword of every statement the parse memo had to parse."""
    misses: Counter = Counter()
    parse = cache_module.parse_statement

    def counted(sql: str):
        misses[sql.split(None, 1)[0].upper()] += 1
        return parse(sql)

    monkeypatch.setattr(cache_module, "parse_statement", counted)
    return misses


def test_relation_only_campaign_parses_only_ddl(parse_misses):
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    campaign = Campaign(
        CoddTestOracle(relation_mode_prob=1.0),
        adapter,
        seed=4,
        cache=EvalCache(),
    )
    stats = campaign.run(n_tests=200)
    assert stats.tests == 200
    assert parse_misses["CREATE"] > 0
    assert set(parse_misses) <= {"CREATE", "DROP"}, parse_misses


def test_tlp_campaign_parses_only_ddl(parse_misses):
    # TLP's UNION ALL of its three partitions is built as an AST too.
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    campaign = Campaign(TLPOracle(), adapter, seed=5, cache=EvalCache())
    stats = campaign.run(n_tests=300)
    assert stats.tests == 300
    assert parse_misses["CREATE"] > 0
    assert set(parse_misses) <= {"CREATE", "DROP"}, parse_misses


def test_dqe_campaign_parses_only_ddl(parse_misses):
    # DQE's SELECT, INSERT, UPDATE and DELETE are built as ASTs; its work
    # table's CREATE and DROP stay text.
    adapter = MiniDBAdapter(make_engine("sqlite", with_catalog_faults=True))
    campaign = Campaign(DQEOracle(), adapter, seed=5, cache=EvalCache())
    stats = campaign.run(n_tests=300)
    assert stats.tests == 300
    assert parse_misses["CREATE"] > 0
    assert set(parse_misses) <= {"CREATE", "DROP"}, parse_misses


def test_hunt_parses_only_ddl(parse_misses, capsys):
    assert cli_main(["hunt", "--buggy", "--tests", "200", "--seed", "5"]) == 0
    assert "200 tests" in capsys.readouterr().out
    assert parse_misses["CREATE"] > 0
    assert set(parse_misses) <= {"CREATE", "DROP"}, parse_misses


# ---------------------------------------------------------------------------
# The field-plan walk against the generic walk it replaced
# ---------------------------------------------------------------------------

_PARTS = (A.Node, A.CaseWhen, A.SelectItem, A.OrderItem, A.Cte)


def _reference_normal(node):
    """The generic walk: every field of every dataclass, tuples
    element by element."""
    if isinstance(node, A.Literal):
        return _reference_literal(node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        updates = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            normal = _reference_value(value)
            if normal is not value:
                updates[f.name] = normal
        if updates:
            return dataclasses.replace(node, **updates)
    return node


def _reference_value(value):
    if isinstance(value, A.Literal):
        return _reference_literal(value)
    if isinstance(value, tuple):
        items = tuple(_reference_value(v) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
        return value
    if isinstance(value, _PARTS):
        return _reference_normal(value)
    return value


def _reference_literal(lit):
    value = lit.value
    if value is None or isinstance(value, (bool, str)):
        return lit
    if isinstance(value, int):
        return A.Unary("-", A.Literal(-value)) if value < 0 else lit
    if math.isnan(value):
        return A.Binary("/", A.Literal(0.0), A.Literal(0.0))
    if math.isinf(value):
        if value > 0:
            return A.Binary("/", A.Literal(1.0), A.Literal(0.0))
        return A.Binary("/", A.Unary("-", A.Literal(1.0)), A.Literal(0.0))
    if math.copysign(1.0, value) < 0:
        return A.Unary("-", A.Literal(-value))
    return lit


def _assert_same_sharing(new, ref, original) -> None:
    """*new* keeps exactly the parts of *original* that *ref* keeps."""
    assert (new is original) == (ref is original)
    if ref is original or type(ref) is not type(original):
        return
    if isinstance(original, tuple):
        for n, r, o in zip(new, ref, original):
            _assert_same_sharing(n, r, o)
    elif dataclasses.is_dataclass(original):
        for f in dataclasses.fields(original):
            _assert_same_sharing(
                getattr(new, f.name),
                getattr(ref, f.name),
                getattr(original, f.name),
            )


class _Recorder(MiniDBAdapter):
    """Keeps every AST offered to the parse memo."""

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.asts: list = []

    def prime_parse(self, sql: str, ast) -> None:
        self.asts.append(ast)
        super().prime_parse(sql, ast)


def test_field_plan_walk_matches_the_generic_walk():
    adapter = _Recorder(make_engine("sqlite", with_catalog_faults=True))
    campaign = Campaign(
        CoddTestOracle(max_depth=5, relation_mode_prob=0.5),
        adapter,
        seed=6,
        cache=EvalCache(),
    )
    campaign.run(n_tests=200)
    rewritten = 0
    for ast in adapter.asts:
        new, ref = parser_normal(ast), _reference_normal(ast)
        assert new == ref, ast.to_sql()
        _assert_same_sharing(new, ref, ast)
        rewritten += ref is not ast
    # Both branches ran: trees with and without literals to rewrite.
    assert 0 < rewritten < len(adapter.asts)
