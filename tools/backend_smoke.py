"""backend-smoke: the backend-registry CI gate.

Checks the backend registry + capability-probing contract from the
outside, the way the ``backend-smoke`` CI job hits it:

1. **Probe** every registered backend and print one summary line per
   capability vector (the job separately uploads the combined JSON
   from ``coddtest backends probe --out``).
2. **Determinism** -- re-probing the same backend build after clearing
   the in-process memo must yield an identical vector payload.
3. **Derived-policy conformance** -- the probe-derived
   :class:`~repro.differential.compat.CompatPolicy` for the seed pair
   ``(minidb, sqlite3)`` must equal the hand-written intersection on
   every dialect profile.
4. **Faults-off differential campaigns** for every registered pair
   anchored on minidb: zero divergences expected (a divergence means
   either a real semantic drift between engines or a hole in the
   derived compat policy -- both block).

Exit 1 on any violation.  CI runs this as the blocking backend-smoke
job; it is also a useful local one-shot (``PYTHONPATH=src python
tools/backend_smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.backends import (
    backend_names,
    build_backend,
    clear_probe_memo,
    pair_policy,
    probe_backend,
)
from repro.dialects import PROFILES
from repro.differential import CompatPolicy
from repro.fleet import BugCorpus, FleetConfig, run_fleet


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tests",
        type=int,
        default=1000,
        help="faults-off campaign budget for the (minidb, sqlite3) "
        "seed pair (default: 1000)",
    )
    parser.add_argument(
        "--alt-tests",
        type=int,
        default=300,
        dest="alt_tests",
        help="campaign budget for the other pairs (default: 300)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a machine-readable gate summary (JSON)",
    )
    args = parser.parse_args(argv)
    failures: list[str] = []

    names = backend_names()
    print(f"registered backends: {', '.join(names)}")

    # 1 + 2: probe everything, then re-probe and demand byte identity.
    vectors = {}
    for name in names:
        vector = probe_backend(name)
        vectors[name] = vector
        ok = sum(1 for p in vector.probes.values() if p["ok"])
        print(
            f"probe {vector.qualified}: version {vector.version}, "
            f"{ok}/{len(vector.probes)} probes ok"
        )
    clear_probe_memo()
    for name in names:
        again = probe_backend(name)
        if vectors[name].to_payload() != again.to_payload():
            failures.append(f"probe vector for {name!r} is not deterministic")
    print("probe determinism: re-probed vectors are identical")

    # 3: the derived seed-pair policy must reproduce the hand-written
    # intersection on every dialect profile.
    for dialect in sorted(PROFILES):
        derived = pair_policy("minidb", "sqlite3", dialect=dialect)
        hand = CompatPolicy.for_pair(
            build_backend("minidb", dialect=dialect),
            build_backend("sqlite3", dialect=dialect),
        )
        if derived != hand:
            failures.append(
                f"derived (minidb, sqlite3) policy diverges from the "
                f"hand-written intersection on dialect {dialect!r}: "
                f"{derived} != {hand}"
            )
    print(
        "derived policy: (minidb, sqlite3) matches the hand-written "
        f"intersection on all {len(PROFILES)} dialects"
    )

    # 4: faults-off campaigns -- zero divergences per registered pair.
    campaigns = []
    pair_budgets = [("minidb", "sqlite3", args.tests)]
    for secondary in names:
        if secondary in ("minidb", "sqlite3"):
            continue
        pair_budgets.append(("minidb", secondary, args.alt_tests))
    for primary, secondary, budget in pair_budgets:
        config = FleetConfig(
            oracle="differential",
            backend_pair=(primary, secondary),
            n_tests=budget,
            workers=args.workers,
            seed=args.seed,
        )
        stats = run_fleet(config, corpus=BugCorpus()).merged
        divergences = len(stats.reports)
        print(
            f"campaign {primary} vs {secondary}: {stats.tests} tests, "
            f"{stats.skipped} skipped, {divergences} divergence(s)"
        )
        campaigns.append(
            {
                "pair": [primary, secondary],
                "tests": stats.tests,
                "skipped": stats.skipped,
                "divergences": divergences,
            }
        )
        if divergences:
            failures.append(
                f"faults-off campaign {primary} vs {secondary} reported "
                f"{divergences} divergence(s)"
            )

    if args.out:
        payload = {
            "backends": list(names),
            "vectors": {n: vectors[n].to_payload() for n in names},
            "campaigns": campaigns,
            "failures": failures,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"gate summary written to {args.out}")

    if failures:
        print("\nbackend-smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbackend-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
