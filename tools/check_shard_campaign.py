#!/usr/bin/env python3
"""CI gate for sharded campaigns (schema v3 result documents).

Usage:
  check_shard_campaign.py compare REFERENCE.json MERGED.json
      Asserts every trial record of the merged document holds the same keys
      and values as the single-process reference, and that the summary
      fields are bit-identical. Provenance, wall-clock timing, cache flags,
      embedded run profiles, and store counters are expected to differ and
      are excluded.

  check_shard_campaign.py cached RERUN.json [--min-ratio 0.9]
      Asserts at least --min-ratio of the re-run's trials were served from
      the result store (summary.store hit counters) and that no trial is
      missing a digest.

Exit code 0 on success, 1 with a diagnostic on the first violation.
"""

import argparse
import json
import sys


def fail(message: str) -> None:
    print(f"check_shard_campaign: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    if doc.get("schema_version") != 3:
        fail(f"{path}: expected schema_version 3, got {doc.get('schema_version')}")
    return doc


def trials_by_index(doc: dict, path: str) -> dict:
    out = {}
    for trial in doc.get("trials", []):
        index = trial.get("trial")
        if index in out:
            fail(f"{path}: duplicate trial index {index}")
        out[index] = trial
    if not out:
        fail(f"{path}: no trial records")
    return out


# Per-trial keys that legitimately differ between a sharded-and-merged run
# and a single-process run; every other key must be present in both records
# with bit-identical values.
NONDETERMINISTIC_TRIAL_KEYS = {"cached", "wall_ms", "run_profile"}


def cmd_compare(args: argparse.Namespace) -> None:
    ref = load(args.reference)
    merged = load(args.merged)
    ref_trials = trials_by_index(ref, args.reference)
    merged_trials = trials_by_index(merged, args.merged)

    if ref_trials.keys() != merged_trials.keys():
        only_ref = sorted(ref_trials.keys() - merged_trials.keys())[:5]
        only_merged = sorted(merged_trials.keys() - ref_trials.keys())[:5]
        fail(f"trial index sets differ (only reference: {only_ref}, "
             f"only merged: {only_merged})")

    for index in sorted(ref_trials):
        r, m = ref_trials[index], merged_trials[index]
        r_keys = r.keys() - NONDETERMINISTIC_TRIAL_KEYS
        m_keys = m.keys() - NONDETERMINISTIC_TRIAL_KEYS
        if r_keys != m_keys:
            fail(f"trial {index}: key sets differ (only reference: "
                 f"{sorted(r_keys - m_keys)}, only merged: "
                 f"{sorted(m_keys - r_keys)})")
        for field in sorted(r_keys):
            if r[field] != m[field]:
                fail(f"trial {index}: field '{field}' differs "
                     f"(reference {r[field]!r}, merged {m[field]!r})")

    # The whole summary must match except the store counters, which depend
    # on cache state rather than on the experiment outcomes.
    ref_summary = dict(ref.get("summary", {}))
    merged_summary = dict(merged.get("summary", {}))
    ref_summary.pop("store", None)
    merged_summary.pop("store", None)
    if ref_summary != merged_summary:
        fail("summary blocks differ beyond the store counters")

    for field in ("base", "grid", "num_seeds", "prepare_mode"):
        if ref.get(field) != merged.get(field):
            fail(f"plan field '{field}' differs")

    print(f"check_shard_campaign: OK: {len(ref_trials)} trials bit-identical "
          f"between {args.reference} and {args.merged}")


def cmd_cached(args: argparse.Namespace) -> None:
    doc = load(args.rerun)
    trials = trials_by_index(doc, args.rerun)
    store = doc.get("summary", {}).get("store", {})
    if not store.get("enabled"):
        fail(f"{args.rerun}: summary.store.enabled is false")
    hits, misses = store.get("hits", 0), store.get("misses", 0)
    total = hits + misses
    if total != len(trials):
        fail(f"{args.rerun}: store counters ({hits}+{misses}) do not cover "
             f"the {len(trials)} trials")
    ratio = hits / total
    if ratio < args.min_ratio:
        fail(f"{args.rerun}: only {hits}/{total} trials cache-served "
             f"({ratio:.1%} < {args.min_ratio:.0%})")
    missing = [i for i, t in trials.items() if "error" not in t and "digest" not in t]
    if missing:
        fail(f"{args.rerun}: trials without digests: {sorted(missing)[:5]}")
    print(f"check_shard_campaign: OK: {hits}/{total} trials cache-served "
          f"({ratio:.1%} >= {args.min_ratio:.0%})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="merged vs reference equality")
    compare.add_argument("reference")
    compare.add_argument("merged")
    compare.set_defaults(func=cmd_compare)

    cached = sub.add_parser("cached", help="cache-served ratio gate")
    cached.add_argument("rerun")
    cached.add_argument("--min-ratio", type=float, default=0.9)
    cached.set_defaults(func=cmd_cached)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
