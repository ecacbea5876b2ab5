"""Exception taxonomy for the CODDTest reproduction.

The paper (Section 4, Table 1) distinguishes four observable failure modes
of a DBMS under test:

* **logic bugs** -- silently wrong results; these are what the oracles
  detect via result comparison and are *not* exceptions,
* **internal errors** -- the engine raises an unexpected error for a valid
  query (:class:`InternalError`),
* **crashes** -- the engine process dies (:class:`EngineCrash` simulates a
  segmentation fault),
* **hangs** -- the engine never returns (:class:`EngineHang` simulates a
  detected timeout).

The last three are :class:`EngineFailure` subclasses carrying their kind.
On top of those, the engine raises :class:`SqlError` subclasses for
*expected* errors: malformed SQL, semantic violations, unsupported features.
The campaign runner counts queries raising expected errors as
"unsuccessful queries" (Table 3) rather than bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by this package."""


class SqlError(ReproError):
    """Base class for *expected* SQL-level errors (not bugs)."""


class ParseError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class CatalogError(SqlError):
    """Unknown/duplicate table, column, index, or view."""


class TypeError_(SqlError):
    """Operation applied to operands of incompatible types.

    Strict-typing profiles (DuckDB/CockroachDB-like, paper Section 3.3)
    raise this where relaxed profiles coerce.
    """


class ValueError_(SqlError):
    """Runtime value error, e.g. CAST failure or subquery returning more
    than one row where a scalar is required (paper Listing 5)."""


class UnsupportedError(SqlError):
    """Feature not supported by the active dialect profile (e.g. ``ANY``
    in the SQLite/DuckDB-like profiles, paper Section 3.3)."""


class StateDesyncError(SqlError):
    """A differential pair's databases can no longer be assumed equal
    (a data-affecting statement succeeded on one backend and failed on
    the other).  The pair refuses further statements until ``reset()``;
    campaigns treat this like any expected error and regenerate the
    state."""


class DifferentialMismatch(ReproError):
    """Two backends returned different result sets for the same query
    -- the differential oracle's bug signal (NoREC-style cross-engine
    testing, Rigger & Su 2020).  Not an :class:`SqlError`: a mismatch
    is a finding, not an expected error."""

    def __init__(
        self,
        message: str,
        fingerprints: "tuple[str | None, str | None]" = (None, None),
    ) -> None:
        super().__init__(message)
        #: ``(primary, secondary)`` plan fingerprints of the diverging
        #: query, attached to bug reports.
        self.fingerprints = fingerprints


class EngineFailure(ReproError):
    """An engine failure that is a bug.  Each subclass sets ``kind``,
    the report kind its bugs are filed and replayed under."""

    kind: str


class InternalError(EngineFailure):
    """Unexpected engine-internal failure -- a bug category in Table 1."""

    kind = "internal error"


class EngineCrash(EngineFailure):
    """Simulated process crash (segfault) -- a bug category in Table 1."""

    kind = "crash"


class EngineHang(EngineFailure):
    """Simulated non-termination detected by a watchdog -- Table 1."""

    kind = "hang"
