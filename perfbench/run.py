#!/usr/bin/env python3
"""The wake-up simulator's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
simulator library from src/) into .bench_build/, runs the perfbench binary for
one workload, checks its outputs, prints a readable summary, and prints as
the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. End-to-end times are host-adjusted: each timed sample is
scaled by REF_NOMINAL_MS / the host-speed reference measured right before it
(src/reference.hpp). README.md describes the workloads and the layer map.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The build tree lives in the checkout; CARGO_TARGET_DIR names it when set.
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
RUN_TIMEOUT_S = 170

# A timed sample of t ms next to a reference of r ms is reported as
# t * REF_NOMINAL_MS / r: its time on a host where one reference search
# takes REF_NOMINAL_MS (about this 4-core VM when its neighbours are quiet).
REF_NOMINAL_MS = 0.45

# The three timed rows of each workload, reported as row1_ms..row3_ms, with
# the name each row has in the summary. Every workload reports every
# end-to-end metric, so the per-workload headline numbers share these slots.
ROW_LABELS = {
    "table1_mix": ("trial_ms_geomean", "trial_ms_tail", "fast_wakeup_trial_ms"),
    "sleeping": ("smis_trial_ms", "smis_par_trial_ms", "smatching_trial_ms"),
    "campaign_small": ("trial_ms_geomean", "trial_ms_tail", "resume_trial_ms"),
}
ENGINE_ROWS = {"sleeping": ("smis", "smis_par", "smatching")}
# (serial row, round-parallel row) pairs for the speed-up metrics.
PAR_PAIRS = {"sleeping": ("smis", "smis_par")}
# The campaign workloads' main pass row.
PASS_ROW = {"table1_mix": "campaign", "campaign_small": "pass1"}

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "row1_ms": "ms",
    "row2_ms": "ms",
    "row3_ms": "ms",
    "peak_rss_mb": "MB",
}

ASYNC_FAMILIES = ("ranked_dfs", "fip06", "sqrt", "cen", "spanner3", "cor2",
                  "flooding")
ADVICE_FAMILIES = ("fip06", "sqrt", "cen", "spanner3", "cor2")
ALL_FAMILIES = ("ranked_dfs", "fast_wakeup", "fip06", "sqrt", "cen",
                "spanner3", "cor2", "flooding", "smis", "smatching")

PER_LAYER = {
    "graph.gen_ms": "ms",
    "graph.cache_write_ms": "ms",
    "graph.cache_load_ms": "ms",
    "sim.instance_ms": "ms",
    "sim.cold_trial_ms": "ms",
    "sim.warm_allocs": "count",
    "sim.async.run_ms": "ms",
    **{f"sim.async.run_ms.{f}": "ms" for f in ASYNC_FAMILIES},
    "sim.async.events": "count",
    "sim.async.ns_per_event": "ns",
    **{f"sim.async.bits_per_msg.{f}": "bits" for f in ASYNC_FAMILIES},
    "sim.sync.run_ms": "ms",
    "sim.sync.rounds": "count",
    "sim.sync.messages": "count",
    "sim.sync.ns_per_msg": "ns",
    "sim.sync.par_speedup": "ratio",
    "sim.sync.par_efficiency": "ratio",
    "sim.sync.awake_node_rounds": "count",
    "sim.sync.idle_share": "ratio",
    "sim.sync.sleep_dropped": "count",
    "sim.sync.ns_per_awake_node_round": "ns",
    **{f"advice.oracle_ms.{f}": "ms" for f in ADVICE_FAMILIES},
    "advice.max_bits": "bits",
    "advice.avg_bits": "bits",
    "app.prepare_ms": "ms",
    **{f"app.execute_ms.{f}": "ms" for f in ALL_FAMILIES},
    "app.schedule_ms": "ms",
    "app.execute_self_ms": "ms",
    "runner.dispatch_us": "us",
    "runner.busy_share": "ratio",
    "runner.aggregate_ms": "ms",
    "runner.sink_us": "us",
    "runner.self_ms": "ms",
    "store.append_us": "us",
    "store.open_ms": "ms",
    "store.lookup_us": "us",
    "store.log_bytes": "bytes",
    "store.hit_share": "ratio",
    "check.digest_us": "us",
    "check.digest_fold": "count",
    "obs.trace_overhead": "ratio",
    "host.ref_ms": "ms",
}


def family(name):
    return name.replace(":", "")


def med(values):
    """Median, or 0 for a layer the workload does not exercise."""
    return bl.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def adj(ms, ref_ms):
    """A raw time at nominal host speed (see REF_NOMINAL_MS)."""
    return bl.host_adjusted(ms, ref_ms, REF_NOMINAL_MS)


def build():
    """Configures (first time only) and builds the binary; returns its path
    and whether this run configured a fresh build tree."""
    tree = BUILD / "perfbench"
    fresh = not (tree / "CMakeCache.txt").exists()
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(tree), "-j", jobs]]
    if fresh:
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(tree),
                         "-DCMAKE_BUILD_TYPE=Release"])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                raise SystemExit(f"error: build failed: {' '.join(cmd)}")
    return tree / "perfbench", fresh


def run_binary(binary, args):
    work = BUILD / "work" / args.workload
    raw_path = BUILD / f"raw-{args.workload}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("error: perfbench exceeded its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"error: perfbench exited with {proc.returncode}")
    raw = json.loads(raw_path.read_text())
    raw_path.unlink()
    return raw


def pass_walls(raw, traced):
    """{family: [adjusted wall_ms]} over the trials of a campaign's main
    passes."""
    row = PASS_ROW[raw["header"]["workload"]]
    out = {}
    for p in raw["passes"]:
        if p["traced"] == traced and p["row"] == row:
            for fam, walls in p["walls"].items():
                out.setdefault(fam, []).extend(adj(ms, p["ref_ms"])
                                               for ms in walls)
    return out


def rows_ms(raw, traced):
    """([row1, row2, row3], note on the samples) of one phase, adjusted."""
    w = raw["header"]["workload"]
    if w in ENGINE_ROWS:
        walls = [[adj(t["wall_ms"], t["ref_ms"]) for t in raw["trials"]
                  if t["traced"] == traced and t["row"] == r]
                 for r in ENGINE_ROWS[w]]
        return ([med(v) for v in walls],
                f"medians of {[len(v) for v in walls]} trials")
    by_family = pass_walls(raw, traced)
    walls = [ms for v in by_family.values() for ms in v]
    # The mixes are multimodal (one cluster per family), so their p50 sits
    # on a cluster boundary; the geometric mean of family medians does not.
    geomean = bl.geomean([bl.median(v) for v in by_family.values()])
    tail = bl.tail_percentile(walls)
    p, tail_ms = tail if tail else (100.0, max(walls))
    if w == "table1_mix":
        third = med(by_family.get("fast_wakeup", []))
    else:
        resume = [x for x in raw["passes"]
                  if x["traced"] == traced and x["row"] == "resume"]
        third = ratio(sum(adj(x["wall_ms"], x["ref_ms"]) for x in resume),
                      sum(x["trials"] for x in resume))
    note = f"tail = p{p:g} of {len(walls)} trials"
    return [geomean, tail_ms, third], note


def throughput(raw, traced):
    """Completed trials per adjusted second of the main timed series."""
    w = raw["header"]["workload"]
    if w in ENGINE_ROWS:
        walls = [adj(t["wall_ms"], t["ref_ms"]) for t in raw["trials"]
                 if t["traced"] == traced]
        return 1e3 * ratio(len(walls), sum(walls))
    passes = [p for p in raw["passes"]
              if p["traced"] == traced and p["row"] == PASS_ROW[w]]
    return 1e3 * ratio(sum(p["trials"] for p in passes),
                       sum(adj(p["wall_ms"], p["ref_ms"]) for p in passes))


def ref_times(raw):
    """Every reference time the run measured."""
    w = raw["header"]["workload"]
    if w in ENGINE_ROWS:
        samples = raw["trials"]
    else:
        samples = [p for p in raw["passes"] if p["row"] == PASS_ROW[w]]
    return raw["setup_ref_ms"] + [x["ref_ms"] for x in samples
                                  if "ref_ms" in x]


def end_to_end(raw):
    rows, note = rows_ms(raw, False)
    m = {
        "setup_s": bl.median([adj(s, r) for s, r in
                              zip(raw["setup_s"], raw["setup_ref_ms"])]),
        "trials_per_s": throughput(raw, False),
        "row1_ms": rows[0],
        "row2_ms": rows[1],
        "row3_ms": rows[2],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return m, note


def span_ms(spans, name):
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name]


def per_op(spans, name, scale):
    """Duration per covered operation of the spans named `name`."""
    chosen = [s for s in spans if s["name"] == name]
    return scale * ratio(sum(s["t1"] - s["t0"] for s in chosen),
                         sum(s["count"] for s in chosen))


def per_layer(raw):
    w = raw["header"]["workload"]
    spans = raw["spans"]
    direct = raw["direct"]
    # Traced records carrying obs::Probe timers.
    tt = [t for t in raw["trials"] if t["traced"] and "engine_ms" in t]
    for t in tt:
        if "execute_ms" not in t:
            # Campaign trial: wall time minus its preparation.
            t["execute_ms"] = (t["wall_ms"] - t["graph_ms"] -
                               t["instance_ms"] - t["advice_ms"])
    asyn = [t for t in tt if not t["synchronous"]]
    sync = [t for t in tt if t["synchronous"] and t.get("jobs", 1) == 1]
    # The family's default path: no intra-trial jobs.
    default = [t for t in tt if t["row"] != "smis_par"]
    m = {}
    prep = raw["prepares"] if raw["prepares"] else tt
    m["graph.gen_ms"] = med([t["graph_ms"] for t in prep])
    m["graph.cache_write_ms"] = sum(span_ms(spans, "graph.cache_write"))
    m["graph.cache_load_ms"] = sum(span_ms(spans, "graph.cache_load"))
    m["sim.instance_ms"] = med([t["instance_ms"] for t in prep])
    m["sim.cold_trial_ms"] = raw["cold_trial_ms"]
    if w in ENGINE_ROWS:
        counted = [t["allocs"] for t in raw["trials"] if not t["traced"]]
        m["sim.warm_allocs"] = ratio(sum(counted), len(counted))
    else:
        passes = [p for p in raw["passes"]
                  if not p["traced"] and p["row"] == PASS_ROW[w]]
        m["sim.warm_allocs"] = ratio(sum(p["allocs"] for p in passes),
                                     sum(p["trials"] for p in passes))

    m["sim.async.run_ms"] = med([t["engine_ms"] for t in asyn])
    for f in ASYNC_FAMILIES:
        fam = [t for t in asyn if family(t["family"]) == f]
        m[f"sim.async.run_ms.{f}"] = med([t["engine_ms"] for t in fam])
        m[f"sim.async.bits_per_msg.{f}"] = ratio(
            sum(t["bits"] for t in fam), sum(t["messages"] for t in fam))
    m["sim.async.events"] = ratio(sum(t["events"] for t in asyn), len(asyn))
    m["sim.async.ns_per_event"] = 1e6 * ratio(
        sum(t["engine_ms"] for t in asyn), sum(t["events"] for t in asyn))

    sync_ms = sum(t["engine_ms"] for t in sync)
    awake = sum(t["awake_node_rounds"] for t in sync)
    node_rounds = sum(t["n"] * t["rounds"] for t in sync)
    m["sim.sync.run_ms"] = med([t["engine_ms"] for t in sync])
    m["sim.sync.rounds"] = ratio(sum(t["rounds"] for t in sync), len(sync))
    m["sim.sync.messages"] = ratio(sum(t["messages"] for t in sync),
                                   len(sync))
    m["sim.sync.ns_per_msg"] = 1e6 * ratio(
        sync_ms, sum(t["messages"] for t in sync))
    speedup, jobs = 0.0, 1.0
    if w in PAR_PAIRS:
        serial_row, par_row = PAR_PAIRS[w]
        untraced = [t for t in raw["trials"] if not t["traced"]]
        serial = [adj(t["wall_ms"], t["ref_ms"]) for t in untraced
                  if t["row"] == serial_row]
        par = [t for t in untraced if t["row"] == par_row]
        speedup = ratio(med(serial), med([adj(t["wall_ms"], t["ref_ms"])
                                          for t in par]))
        jobs = par[0]["jobs"] if par else 1.0
    m["sim.sync.par_speedup"] = speedup
    m["sim.sync.par_efficiency"] = speedup / jobs
    m["sim.sync.awake_node_rounds"] = ratio(awake, len(sync))
    m["sim.sync.idle_share"] = 1.0 - awake / node_rounds if node_rounds else 0.0
    m["sim.sync.sleep_dropped"] = ratio(
        sum(t["sleep_dropped"] for t in sync), len(sync))
    m["sim.sync.ns_per_awake_node_round"] = 1e6 * ratio(sync_ms, awake)

    for f in ADVICE_FAMILIES:
        m[f"advice.oracle_ms.{f}"] = med([t["advice_ms"] for t in tt
                                          if family(t["family"]) == f])
    with_advice = [t for t in raw["trials"] if t.get("advice_max_bits", 0)]
    m["advice.max_bits"] = max((t["advice_max_bits"] for t in with_advice),
                               default=0.0)
    m["advice.avg_bits"] = ratio(sum(t["advice_avg_bits"]
                                     for t in with_advice), len(with_advice))

    if raw["prepares"]:
        m["app.prepare_ms"] = med(span_ms(spans, "app.prepare"))
    else:
        m["app.prepare_ms"] = med([t["graph_ms"] + t["instance_ms"] +
                                   t["advice_ms"] for t in tt])
    for f in ALL_FAMILIES:
        m[f"app.execute_ms.{f}"] = med([t["execute_ms"] for t in default
                                        if family(t["family"]) == f])
    m["app.schedule_ms"] = med([t["schedule_ms"] for t in tt])
    m["app.execute_self_ms"] = med([t["execute_ms"] - t["engine_ms"]
                                    for t in tt])

    main = [p for p in raw["passes"]
            if not p["traced"] and p["row"] == PASS_ROW.get(w)]
    capacity = sum(p["wall_ms"] * p["jobs"] for p in main)
    busy = sum(p["busy_ms"] for p in main)
    m["runner.dispatch_us"] = 1e3 * ratio(capacity - busy,
                                          sum(p["trials"] for p in main))
    m["runner.busy_share"] = ratio(busy, capacity)
    m["runner.aggregate_ms"] = med(span_ms(spans, "runner.aggregate"))
    m["runner.sink_us"] = per_op(spans, "runner.sink", 1e3)
    selfs = bl.self_times(spans)
    m["runner.self_ms"] = med([selfs[s["id"]] for s in spans
                               if s["name"] == "runner.run_campaign"])

    m["store.append_us"] = per_op(spans, "store.append", 1e3)
    m["store.open_ms"] = sum(span_ms(spans, "store.open"))
    m["store.lookup_us"] = per_op(spans, "store.lookup", 1e3)
    m["store.log_bytes"] = direct.get("store.log_bytes", 0.0)
    m["store.hit_share"] = direct.get("store.hit_share", 0.0)

    m["check.digest_us"] = 1e3 * ratio(
        sum(t["digest_ms"] for t in tt if "digest_ms" in t),
        sum(1 for t in tt if "digest_ms" in t))
    m["check.digest_fold"] = bl.digest_fold(raw["digests"])
    m["obs.trace_overhead"] = trace_overhead(raw)
    m["host.ref_ms"] = bl.median(ref_times(raw))
    return m


def trace_overhead(raw):
    """Traced ÷ untraced adjusted time of the same timed work."""
    w = raw["header"]["workload"]
    if w in ENGINE_ROWS:
        traced, _ = rows_ms(raw, True)
        untraced, _ = rows_ms(raw, False)
        return ratio(sum(traced), sum(untraced))
    return ratio(throughput(raw, False), throughput(raw, True))


def summary(raw, note, m_e2e, fresh):
    """Readable lines printed before the result line."""
    w = raw["header"]["workload"]
    header = dict(raw["header"], build="fresh" if fresh else "cached")
    lines = ["header: " + json.dumps(header, sort_keys=True)]
    refs = ref_times(raw)
    lines.append(f"host reference: median {bl.median(refs):.3f} ms over "
                 f"{len(refs)} samples, {min(refs):.3f}-{max(refs):.3f} "
                 f"(times below are adjusted to {REF_NOMINAL_MS:g} ms)")
    lines.append(f"setup_s: {m_e2e['setup_s']:.4f} s "
                 f"(median of {len(raw['setup_s'])} set-ups; raw "
                 f"{bl.median(raw['setup_s']):.4f} s)")
    lines.append(f"trials_per_s: {m_e2e['trials_per_s']:.4f} 1/s")
    for i, label in enumerate(ROW_LABELS[w], 1):
        lines.append(f"row{i}_ms = {label}: {m_e2e[f'row{i}_ms']:.4f} ms")
    lines.append(f"  ({note})")
    if w == "campaign_small" and m_e2e["row3_ms"]:
        lines.append(f"resume_trials_per_s: {1e3 / m_e2e['row3_ms']:.1f} 1/s")
    lines.append(f"peak_rss_mb: {m_e2e['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_frac: {ratio(raw['failed'], raw['attempted']):g} "
                 f"({raw['failed']} of {raw['attempted']} trials)")
    for c in raw["checks"]:
        lines.append(f"check {c['name']}: {c['compared'] - c['mismatched']}"
                     f"/{c['compared']} equal")
    lines.append(f"digest_fold: {bl.digest_fold(raw['digests'])} "
                 f"over {len(raw['digests'])} trial digests")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROW_LABELS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit(f"error: simulator sources not found under {ROOT}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")

    binary, fresh = build()
    raw = run_binary(binary, args)
    m_e2e, note = end_to_end(raw)
    for line in summary(raw, note, m_e2e, fresh):
        print(line)
    if args.trace:
        values, units = per_layer(raw), PER_LAYER
    else:
        values, units = m_e2e, END_TO_END
    correct = raw["failed"] == 0 and all(c["mismatched"] == 0
                                         for c in raw["checks"])
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
