"""Bug-inducing test case reduction.

The paper manually reduced test cases before reporting ("we manually
reduced the bug-inducing test cases [39]", Section 4.1, citing Zeller &
Hildebrandt's delta debugging).  This module automates it:

* :func:`reduce_statements` -- ddmin over the statement list, keeping
  the failure reproducible;
* :func:`replay_witness` -- the "still fails" check the fleet's ddmin
  and triage replay share: does a witness fail again, and how?
"""

from __future__ import annotations

from typing import Callable

from repro.adapters.base import EngineAdapter
from repro.errors import DifferentialMismatch, EngineFailure, SqlError

StatementsCheck = Callable[[list[str]], bool]


def reduce_statements(
    statements: list[str], still_fails: StatementsCheck
) -> list[str]:
    """ddmin: a minimal sublist of *statements* for which *still_fails*
    holds.  *still_fails* must be deterministic and must hold for the
    full list."""
    assert still_fails(statements), "the unreduced case must fail"
    current = list(statements)
    granularity = 2
    while len(current) >= 2:
        chunks = _split(current, granularity)
        reduced = False
        # Try removing each chunk.
        for i in range(len(chunks)):
            candidate = [s for j, c in enumerate(chunks) if j != i for s in c]
            if candidate and still_fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(current):
            break
        granularity = min(granularity * 2, len(current))
    return current


def _split(items: list[str], n: int) -> list[list[str]]:
    size = max(1, len(items) // n)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    return chunks


def replay_witness(
    adapter: EngineAdapter,
    statements: list[str],
    kind: str,
    target: "set[str] | frozenset[str]",
    *,
    pair: bool,
) -> tuple[bool, str]:
    """Run *statements* on the freshly built *adapter*: does the bug of
    report kind *kind* fail again?  Returns ``(reproduced, detail)``.

    A failure kind must raise again as an :class:`EngineFailure` of that
    kind, by faults covering *target*; a logic bug must make a backend
    *pair* diverge again, or fire every fault of *target* on one engine.
    """
    fired: set[str] = set()
    for sql in statements:
        try:
            adapter.execute(sql)
        except DifferentialMismatch:
            if kind == "logic":
                return True, "backends diverge again on replay"
            return False, f"unexpected divergence replaying a {kind} bug"
        except EngineFailure as exc:
            fired |= adapter.fired_fault_ids()
            if exc.kind != kind:
                return False, f"engine failure of a different class: {exc}"
            if target <= fired:
                return True, f"{kind} raised again on replay"
            return False, (
                f"{kind} raised but by faults {sorted(fired)}, "
                f"not {sorted(target)}"
            )
        except SqlError as exc:
            # Includes StateDesyncError and differential skips: the
            # witness is no longer a valid program for these engines.
            return False, f"witness no longer executes: {exc}"
        fired |= adapter.fired_fault_ids()

    if kind != "logic":
        return False, f"no {kind} raised on replay"
    if pair:
        return False, "backends agree on replay"
    if not target:
        return False, "witness ran clean"
    if target <= fired:
        return True, "all recorded faults fired again on replay"
    return False, f"faults {sorted(target - fired)} no longer fire on replay"
