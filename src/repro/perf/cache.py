"""The worker-local evaluation cache.

See :mod:`repro.perf` for its two memo domains, parse and statement,
which job attaches which, and the determinism contract.  The cache is
deliberately dumb storage: the MiniDB adapter decides what is safe to
memoize and how to replay recorded side effects; the cache only bounds
memory (LRU per domain) and counts hits/misses.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields

from repro.minidb import ast_nodes as A
from repro.minidb.parser import parse_statement

#: Entries each LRU memo keeps, parse and statement alike.  Sized from
#: the memos' measured reuse distances (see :mod:`repro.perf`): every
#: statement hit and 96-99.9 % of parse hits fall within it.
MEMO_ENTRIES = 256

#: Token of a freshly reset database state.  Every replay adapter
#: starts its hash chain here, so two candidates replaying the same
#: statement prefix arrive at the same token (sharing within ddmin).
INITIAL_STATE_TOKEN = "init"


def advance_state_token(token: str, sql: str) -> str:
    """Next state token after executing the state-changing *sql*.

    A hash chain over the write-statement history: tokens are equal iff
    the (successful or attempted) write sequences are equal, so keying
    statement results by token can never alias two divergent database
    states -- unlike a plain counter, under which two histories of the
    same *length* would collide.
    """
    digest = hashlib.blake2b(
        f"{token}\x00{sql}".encode(), digest_size=16
    )
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters per memo domain.

    Excluded from :meth:`repro.runner.campaign.CampaignStats.signature`
    by design: signatures assert cache-on/off equivalence, and the
    counters are precisely what differs.
    """

    parse_hits: int = 0
    parse_misses: int = 0
    stmt_hits: int = 0
    stmt_misses: int = 0

    @property
    def hits(self) -> int:
        return self.parse_hits + self.stmt_hits

    @property
    def misses(self) -> int:
        return self.parse_misses + self.stmt_misses

    @property
    def hit_rate(self) -> float:
        """Overall hit fraction in [0, 1] (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CachedStatement:
    """The outcome of one read-only statement, as ddmin observes it.

    Replaying an entry must be indistinguishable from re-executing the
    statement for the still-fails check, so it records the result, the
    fired fault ids (ground-truth bug attribution) and -- for statements
    that raised -- the exception class and message.  Coverage is not
    recorded: nothing reads a replay adapter's coverage.
    """

    columns: tuple[str, ...] = ()
    rows: tuple = ()
    plan_fingerprint: str | None = None
    rows_affected: int = 0
    fired: frozenset = frozenset()
    error_type: type | None = None
    error_message: str = ""

    def raise_error(self) -> None:
        if self.error_type is not None:
            raise self.error_type(self.error_message)


class EvalCache:
    """One worker's evaluation cache (never shared across processes).

    Campaigns and triage replay use only the parse memo
    (:meth:`~repro.adapters.base.EngineAdapter.attach_eval_cache`);
    ddmin's candidate adapters also use the statement memo
    (:meth:`~repro.adapters.minidb_adapter.MiniDBAdapter.attach_replay_memo`).
    :data:`MEMO_ENTRIES` bounds each of the two keyed domains via LRU
    eviction, so its memory does not grow with the campaign; eviction
    order is a pure function of the lookup sequence, so the bounded
    cache stays deterministic.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._parse: OrderedDict[str, A.Statement] = OrderedDict()
        self._stmt: OrderedDict[tuple, CachedStatement] = OrderedDict()

    # -- parse memo ---------------------------------------------------------

    def parse(self, sql: str) -> A.Statement:
        """Parsed AST of *sql*, memoized.  Parse errors propagate and are
        not cached (they are rare and cheap to re-raise)."""
        cached = self._parse.get(sql)
        if cached is not None:
            self.stats.parse_hits += 1
            self._parse.move_to_end(sql)
            return cached
        stmt = parse_statement(sql)
        self.stats.parse_misses += 1
        self._put_parse(sql, stmt)
        return stmt

    def has_parse(self, sql: str) -> bool:
        """Whether *sql* is already in the parse memo (lets callers skip
        building the parser-normal AST for statements seen before)."""
        return sql in self._parse

    def parsed(self, statements: list[str]) -> dict[str, A.Statement]:
        """The ASTs the parse memo holds for *statements*, read without
        counting a lookup or moving an entry in the LRU order.  A fleet
        shard hands them to the fresh cache its ddmin job runs on."""
        memo = self._parse
        return {sql: memo[sql] for sql in statements if sql in memo}

    def prime_parse(self, sql: str, stmt: A.Statement) -> None:
        """Pre-seed the parse memo with an AST known to be parser-normal
        (:func:`repro.perf.normalize.parser_normal`).  First writer wins:
        an already parsed entry is never overwritten."""
        if sql not in self._parse:
            self._put_parse(sql, stmt)

    def _put_parse(self, sql: str, stmt: A.Statement) -> None:
        self._parse[sql] = stmt
        while len(self._parse) > MEMO_ENTRIES:
            self._parse.popitem(last=False)

    # -- statement memo -----------------------------------------------------

    def lookup_statement(self, key: tuple) -> CachedStatement | None:
        entry = self._stmt.get(key)
        if entry is None:
            self.stats.stmt_misses += 1
            return None
        self.stats.stmt_hits += 1
        self._stmt.move_to_end(key)
        return entry

    def store_statement(self, key: tuple, entry: CachedStatement) -> None:
        self._stmt[key] = entry
        while len(self._stmt) > MEMO_ENTRIES:
            self._stmt.popitem(last=False)
