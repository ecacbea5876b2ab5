"""MiniDB: the from-scratch SQL engine used as the DBMS under test.

The paper evaluates CODDTest against five production DBMSs; this package
is the substitute substrate -- a complete (small) relational engine with
a parser, planner, optimizer, executor, dialect profiles, fault
injection, and branch-coverage probes.  :mod:`repro.dialects` maps the
paper's five DBMSs onto it: one profile each, and the fault catalog
modelled on the bugs of paper Table 1.
"""

from repro.minidb.engine import Engine, EngineProfile, QueryResult
from repro.minidb.faults import BugStatus, BugType, Fault, FaultInjector
from repro.minidb.values import SqlType, TypingMode

__all__ = [
    "Engine",
    "EngineProfile",
    "QueryResult",
    "Fault",
    "FaultInjector",
    "BugType",
    "BugStatus",
    "SqlType",
    "TypingMode",
]
