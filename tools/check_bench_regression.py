#!/usr/bin/env python3
"""Gate a fresh bench run against its committed baseline.

Usage: check_bench_regression.py BASELINE_JSON CANDIDATE_JSON [--tolerance PCT]

The committed baseline (``BENCH_codec.json``, written by
``cargo bench --bench codec_throughput``) is the row contract: it alone
defines which rows exist. The check fails (exit 1), naming each id, when

* a baseline row is missing from the candidate run (a dropped or renamed
  bench);
* the run reports a row the baseline lacks (an unlisted bench, including
  one whose id a loop generates);
* either file repeats an id (two registrations under one name would
  otherwise collapse, and one measurement would never be gated).

Adding or retiring a bench therefore means editing its baseline row in
the same change, which is the review-visible signal we want.

Timing: the check also fails when any row is more than ``--tolerance``
percent slower than the baseline *after normalising for machine speed*:
each row's candidate/baseline ratio is divided by the median ratio across
all rows, clamped at 1.0, so a runner that is uniformly slower than the
machine that produced the baseline cancels out, and only rows that
regressed relative to their peers fail. The trade-off: a change that slows
every row by the same factor is invisible to this gate (pass
``--no-normalize`` for raw cross-machine comparison). The default
tolerance of 30% is deliberately loose: the gate exists to catch lost
fast paths and accidental asymptotic regressions, not single-digit drift.

Rows may carry extra derived fields (e.g. the ``gb_per_s`` the engine
rows record for human consumption); the gate reads only ``id`` and
``ns_per_iter``, so derived fields can never double-count a regression or
mask one.
"""

import argparse
import json
import statistics
import sys


def die(message):
    """One-line diagnostic on stderr, then the CI-visible failure exit."""
    print(f"check_bench_regression: {message}", file=sys.stderr)
    raise SystemExit(1)


def load_rows(path):
    """Maps each row id of the bench JSON at `path` to its ns/iter."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        pairs = [(r["id"], float(r["ns_per_iter"])) for r in doc["results"]]
    except OSError as exc:
        die(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        die(f"{path} is not valid JSON: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        die(f"{path} is not a bench baseline "
            f"(expected {{'results': [{{'id', 'ns_per_iter'}}, ...]}}): {exc!r}")
    rows = {}
    repeated = set()
    for row_id, ns in pairs:
        if row_id in rows:
            repeated.add(row_id)
        rows[row_id] = ns
    if repeated:
        die(f"{path} repeats row id(s): {', '.join(sorted(repeated))}")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=30.0,
                    help="allowed relative slowdown in percent (default: 30)")
    ap.add_argument("--no-normalize", action="store_true",
                    help="compare raw ns/iter instead of median-normalised ratios")
    args = ap.parse_args(argv)

    base = load_rows(args.baseline)
    cand = load_rows(args.candidate)
    limit = 1.0 + args.tolerance / 100.0

    missing = sorted(base.keys() - cand.keys())
    unlisted = sorted(cand.keys() - base.keys())
    if missing or unlisted:
        print(f"row set of {args.candidate} differs from the baseline {args.baseline}:")
        for row_id in missing:
            print(f"  MISSING  {row_id} (baseline row the run did not report)")
        for row_id in unlisted:
            print(f"  UNLISTED {row_id} (run row the baseline does not list)")
        print("a bench was added, dropped or renamed without editing its "
              "baseline row in the same change")
        return 1
    print(f"row set matches the baseline ({len(base)} rows)")

    ratios = {k: cand[k] / base[k] for k in base if base[k] > 0}
    pivot = 1.0
    if ratios and not args.no_normalize:
        # Clamped at 1.0: a slower runner cancels out, but a run where
        # most rows *improved* must never penalise the unchanged rows
        # (a sub-1.0 median would inflate their relative ratios).
        pivot = max(statistics.median(ratios.values()), 1.0)
        print(f"median machine-speed ratio: {pivot:.2f}x (normalising by it)")
        if pivot > 1.5:
            # Normalisation cannot tell a slow runner from a genuine
            # across-the-board regression (e.g. a lost bitstream fast
            # path slows every codec row by the same factor). The gate
            # stays green either way — this banner is the tripwire a
            # human must follow up: rerun on the baseline's machine, or
            # with --no-normalize.
            print(f"WARNING: every row is >= ~{pivot:.1f}x the committed "
                  "baseline. If this machine class matches the one that "
                  "generated the baseline, that is a uniform regression "
                  "the normalised gate cannot flag — investigate before "
                  "trusting this pass.")

    failures = []
    for row_id in sorted(base):
        rel = ratios.get(row_id, 1.0) / pivot
        marker = "FAIL" if rel > limit else "ok"
        print(f"  {marker:4} {row_id:44} {base[row_id]:9.1f} -> {cand[row_id]:9.1f} ns "
              f"({rel:5.2f}x rel)")
        if rel > limit:
            failures.append((row_id, rel))

    if failures:
        print(f"\n{len(failures)} row(s) regressed beyond {args.tolerance:.0f}% "
              "relative to the run median:")
        for row_id, rel in failures:
            print(f"  {row_id}: {rel:.2f}x")
        return 1
    print(f"\nall rows within {args.tolerance:.0f}% (relative)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
