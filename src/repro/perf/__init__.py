"""Worker-local evaluation caching for the oracle hot path.

The paper's testbed sustains throughput by running on 64 cores; this
reproduction additionally avoids *recomputing* work that is provably
identical across the statements of one campaign (ROADMAP,
"Worker-local caching").  Two memo domains live behind one
:class:`EvalCache`:

* **parse** -- SQL text -> parsed statement AST.  Pure, so entries are
  state-independent.  The oracles, the relation folder and the state
  generator build every SELECT, INSERT, UPDATE and DELETE as an AST
  and *prime* this memo with its parser-normal form (see
  :func:`parser_normal`), which removes the ``to_sql() -> parse()``
  round-trip from the hot path: MiniDB parses only the DDL, which is
  written as text.  A 2,000-test
  ``hunt --buggy`` misses the memo 458 times, all on ``CREATE`` and
  ``DROP``; before the relation folder and the state generator primed
  theirs, it missed 1,565 times.
* **statement** -- ``(state token, SQL)`` -> the outcome of a read-only
  statement as ddmin observes it: result rows, plan fingerprint, fired
  fault ids, or the raised error.  The state token is a hash chain over
  every state-changing statement since ``reset()``, so DML/DDL
  invalidates implicitly and two adapters replaying the same program
  prefix share entries.

Each job attaches the memos its traffic uses.  A campaign runs the
auxiliary, original and folded query of a test once each (paper
Algorithm 1), and triage replays each witness once, so both attach the
parse memo alone
(:meth:`~repro.adapters.base.EngineAdapter.attach_eval_cache`).  Only
ddmin re-runs statement prefixes: the fresh adapters it builds for its
candidates attach the statement memo too
(:meth:`~repro.adapters.minidb_adapter.MiniDBAdapter.attach_replay_memo`).
Statement-memo traffic, in-process:

  ==================================================  =======  ====  ========
  run                                                 lookups  hits  furthest
  ==================================================  =======  ====  ========
  ``hunt``, 1,000 tests, seed 13                      0        0     --
  ``diff`` minidb/sqlite3, 1,500 tests, seed 3        0        0     --
  triage replay of that fleet's 75 clusters           0        0     --
  reducing guided 1-worker fleet, 600 tests, seed 5   713      186   11
  the same fleet at seed 13                           882      228   13
  ==================================================  =======  ====  ========

Attached to campaigns, the statement memo got 16 hits in 3,040 lookups
on ``hunt`` and none in 1,502 on ``diff``, at the price of a lookup, a
row copy and an LRU insert per SELECT; ddmin found 29 and 25 of its
hits (seeds 5 and 13) among the campaign's entries.

Both memos are LRU, and one constant,
:data:`~repro.perf.cache.MEMO_ENTRIES` (256), bounds each of them.  It
is sized from the measured *reuse distance*: how many other entries
were touched between a hit and that entry's previous use ("furthest"
above is the largest).  Over ``hunt`` (1,000 tests), ``diff``
minidb/sqlite3 (1,500 tests) and reducing guided 1-worker fleets (600
tests), at seeds 5 and 13, no statement hit came from further back than
13 entries, and 96.0 % (``hunt``), 98.3 % (``diff``) and 99.9 % (fleet)
of parse hits came from within 256.  So the cache's memory stays
bounded instead of growing with the campaign: a larger bound only
keeps entries that almost never come back.

Both sit in the MiniDB adapter, above the engine: MiniDB itself has no
cache-dependent code, so ``--no-cache`` and the shipped configuration
run the same engine.  Real-DBMS adapters do not cache.

Determinism contract: a campaign with a cache attached is
**bit-identical** to the same campaign without one --
``CampaignStats.signature()``, every ``TestReport``, fired-fault
attribution, and branch coverage all match.  Caches are worker-local:
each :class:`~repro.runner.campaign.Campaign` (and each fleet shard)
owns one instance and nothing is shared across processes, so 1-worker
bit-match guarantees are preserved.
"""

from repro.perf.cache import CachedStatement, CacheStats, EvalCache, advance_state_token
from repro.perf.normalize import parser_normal

__all__ = [
    "CacheStats",
    "CachedStatement",
    "EvalCache",
    "advance_state_token",
    "parser_normal",
]
