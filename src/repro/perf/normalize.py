"""Parser-normal form of generator-built ASTs.

The oracles, the relation folder and the state generator build their
SELECT, INSERT, UPDATE and DELETE statements as ASTs, render them with
``to_sql()``, and execute the text -- which the MiniDB adapter parses
right back.
Priming the parse memo with the AST the caller already holds skips that
round-trip, but only if the primed AST is **exactly** what
``parse_statement(to_sql(ast))`` would return: fault triggers consume
structural features (node counts, depths), so a structurally different
tree could fire different faults and break the cache-on/off
bit-identity contract.

The parser's output is a fixpoint (``parse(to_sql(x)) == x`` for parsed
``x``), but generator output diverges in one family: **literal values
the renderer spells as compound expressions**.  ``Literal(-1)`` renders
as ``-1``, which parses as ``Unary('-', Literal(1))``; NaN/Infinity
render as division expressions (see
:func:`repro.minidb.values.sql_literal`).  :func:`parser_normal`
rewrites exactly those literals, mirroring ``sql_literal`` case by
case, and leaves everything else untouched.

The walk runs once per primed statement, so it visits per AST class
only the fields that can hold AST parts (read once from the dataclass
annotations): operator strings, names and flags are never looked at.

The load-bearing property -- ``parser_normal(ast) ==
parse_statement(ast.to_sql())`` for every AST the oracles render -- is
asserted over full campaign streams in ``tests/perf/`` and re-gated on
every CI run by the perf-smoke signature check.
"""

from __future__ import annotations

import dataclasses
import math
import re

from repro.minidb import ast_nodes as A

#: Everything a statement field can hold besides scalars and tuples:
#: Node subclasses plus the auxiliary dataclasses (CASE arms, select
#: items, ORDER BY items, CTEs) that are not Nodes themselves.
_AST_PARTS = (A.Node, A.CaseWhen, A.SelectItem, A.OrderItem, A.Cte)


def _plan(cls: type) -> tuple[str, ...]:
    """The fields of *cls* whose annotation names an AST part class."""
    names = []
    for f in dataclasses.fields(cls):
        words = re.findall(r"\w+", str(f.type))
        if any(
            isinstance(getattr(A, w, None), type)
            and issubclass(getattr(A, w), _AST_PARTS)
            for w in words
        ):
            names.append(f.name)
    return tuple(names)


#: Per AST class, the names of the fields that can hold AST parts.  Any
#: other class (the strings and flags inside a ``set_op`` tuple) has
#: none.
_PLANS: dict[type, tuple[str, ...]] = {
    cls: _plan(cls)
    for cls in vars(A).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


def parser_normal(node):
    """Return *node* rewritten so it equals its parse round-trip.

    Shares unchanged subtrees with the input (the common case: most
    generated trees contain no negative or non-finite literals).
    """
    cls = node.__class__
    if cls is A.Literal:
        return _normal_literal(node)
    updates = None
    for name in _PLANS.get(cls, ()):
        value = getattr(node, name)
        if value is None:
            continue
        if value.__class__ is tuple:
            normal = _normal_items(value)
        else:
            normal = parser_normal(value)
        if normal is not value:
            if updates is None:
                updates = {}
            updates[name] = normal
    if updates:
        return dataclasses.replace(node, **updates)
    return node


def _normal_items(items: tuple) -> tuple:
    """*items* with each element normalized; *items* itself when no
    element changed."""
    changed = None
    for i, value in enumerate(items):
        if value.__class__ is tuple:
            normal = _normal_items(value)
        else:
            normal = parser_normal(value)
        if normal is not value:
            if changed is None:
                changed = list(items)
            changed[i] = normal
    return items if changed is None else tuple(changed)


def _normal_literal(lit: A.Literal):
    value = lit.value
    # bool before int: True/False render as keywords the parser returns
    # as Literal(True/False) unchanged.
    if value is None or isinstance(value, (bool, str)):
        return lit
    if isinstance(value, int):
        if value < 0:
            return A.Unary("-", A.Literal(-value))
        return lit
    if isinstance(value, float):
        if math.isnan(value):
            # sql_literal: "(0.0 / 0.0)"
            return A.Binary("/", A.Literal(0.0), A.Literal(0.0))
        if math.isinf(value):
            # sql_literal: "(1.0 / 0.0)" / "(-1.0 / 0.0)"
            if value > 0:
                return A.Binary("/", A.Literal(1.0), A.Literal(0.0))
            return A.Binary(
                "/", A.Unary("-", A.Literal(1.0)), A.Literal(0.0)
            )
        if math.copysign(1.0, value) < 0:
            # Covers -0.0, whose repr also carries the sign.
            return A.Unary("-", A.Literal(-value))
    return lit
