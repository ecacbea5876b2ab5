"""Scalar SQL functions for MiniDB.

Only deterministic functions are registered: the paper notes that the
approach "lacks support for expressions with non-deterministic functions"
(Section 5), so even ``VERSION()`` is deterministic here (the TiDB bug of
Listing 6 is reproduced by a fault keyed on the *presence* of VERSION in
an INSERT ... SELECT predicate, not on nondeterminism).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ValueError_
from repro.minidb.values import (
    SqlType,
    SqlValue,
    TypingMode,
    cast,
    compare,
    to_text,
    type_of,
)

#: Shaped like MySQL/TiDB version strings ("5.7.25-TiDB-..."): relaxed
#: text-to-number coercion yields a numeric prefix, so predicates like
#: ``VERSION() >= t0.c0`` (paper Listing 6) retrieve rows.
ENGINE_VERSION = "8.0.11-minidb"

ScalarFn = Callable[[list[SqlValue], TypingMode], SqlValue]


def _fn_length(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    (v,) = args
    if v is None:
        return None
    return len(to_text(v))


def _fn_upper(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    (v,) = args
    if v is None:
        return None
    return to_text(v).upper()


def _fn_lower(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    (v,) = args
    if v is None:
        return None
    return to_text(v).lower()


def _fn_abs(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    (v,) = args
    if v is None:
        return None
    casted = cast(v, SqlType.REAL, mode)
    assert isinstance(casted, float)
    result = abs(casted)
    if isinstance(v, int) and not isinstance(v, bool):
        return abs(v)
    return result


def _fn_coalesce(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    for v in args:
        if v is not None:
            return v
    return None


def _fn_nullif(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    a, b = args
    c = compare(a, b, mode)
    if c == 0:
        return None
    return a


def _fn_ifnull(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    a, b = args
    return a if a is not None else b


def _fn_typeof(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    (v,) = args
    return str(type_of(v))


def _fn_version(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    return ENGINE_VERSION


def _fn_min_scalar(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    return _minmax(args, mode, smallest=True)


def _fn_max_scalar(args: list[SqlValue], mode: TypingMode) -> SqlValue:
    return _minmax(args, mode, smallest=False)


def _minmax(args: list[SqlValue], mode: TypingMode, smallest: bool) -> SqlValue:
    best: SqlValue = None
    for v in args:
        if v is None:
            return None  # SQLite scalar min/max: NULL if any arg NULL
        if best is None:
            best = v
            continue
        c = compare(v, best, mode)
        assert c is not None
        if (c < 0) == smallest and c != 0:
            best = v
    return best


#: name -> (min_args, max_args, implementation)
SCALAR_FUNCTIONS: dict[str, tuple[int, int, ScalarFn]] = {
    "LENGTH": (1, 1, _fn_length),
    "UPPER": (1, 1, _fn_upper),
    "LOWER": (1, 1, _fn_lower),
    "ABS": (1, 1, _fn_abs),
    "COALESCE": (1, 8, _fn_coalesce),
    "NULLIF": (2, 2, _fn_nullif),
    "IFNULL": (2, 2, _fn_ifnull),
    "TYPEOF": (1, 1, _fn_typeof),
    "VERSION": (0, 0, _fn_version),
}

#: Scalar MIN/MAX (two or more args) share names with the aggregates;
#: the evaluator dispatches on argument count and aggregation context.
VARIADIC_MINMAX: dict[str, ScalarFn] = {
    "MIN": _fn_min_scalar,
    "MAX": _fn_max_scalar,
}

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL"})


def call_scalar(name: str, args: list[SqlValue], mode: TypingMode) -> SqlValue:
    """Invoke a scalar function by (upper-case) name."""
    spec = SCALAR_FUNCTIONS.get(name)
    if spec is None:
        raise ValueError_(f"no such function: {name}")
    lo, hi, fn = spec
    if not (lo <= len(args) <= hi):
        raise ValueError_(f"wrong number of arguments to {name}()")
    return fn(args, mode)
