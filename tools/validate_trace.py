#!/usr/bin/env python3
"""Schema validator for the repo's telemetry, bench and health JSON artifacts.

Dispatches on content:

  * ``"kind": "health"``       -> health dump (health schema v3)
  * ``traceEvents``            -> Chrome trace-event JSON (telemetry schema v1)
  * ``counters``               -> metrics JSON (telemetry schema v1)
  * ``bench``                  -> BENCH_*.json (bench schema v2)

A health dump is what ``HealthMonitor::dump`` / ``serve_streams
--health-dump`` writes: the watchdog configuration, the per-epoch
HealthSnapshot sequence, every watchdog trip, and the flight recorder's
surviving events, all stamped in modeled array cycles. Beyond shape
checks it enforces the invariants the runtime promises:

  * snapshot epochs and snapshot times (modeled_now_cycles) strictly
    increase;
  * queue completions and dispatches never move backwards across epochs;
  * SLA burn rates are finite and in [0, inf); utilization and cache
    pressure are fractions in [0, 1];
  * an unfinished stream's projected completion lies at or after its
    snapshot's modeled_now_cycles, a finished stream's (the cycle it
    finished) at or before it;
  * anomalies_total equals the number of recorded trips, and every trip
    names a known watchdog;
  * flight-recorder sequence numbers strictly increase, their modeled
    cycles never go backwards nor past the last snapshot, and the
    surviving event count respects the per-ring capacity.

A trace's spans never overlap on one modeled fabric track (pid 1) nor on
one host worker track (pid 3): a fabric and a host worker each run one
job at a time.

Usage:
    python3 tools/validate_trace.py BENCH_*.json TRACE_*.json METRICS_*.json HEALTH_*.json

Exits non-zero if any file is malformed; CI runs this over every artifact
the bench step produced so a schema regression fails the build instead of
silently shipping a trace Perfetto cannot open.
"""

import json
import math
import sys

TELEMETRY_SCHEMA_VERSION = 1
BENCH_SCHEMA_VERSION = 2
HEALTH_SCHEMA_VERSION = 3
SPAN_NAMES = {
    "dispatch",
    "queue_wait",
    "reconfig_full",
    "reconfig_delta",
    "cache_fetch",
    "stage_compute",
}
PID_MODELED_FABRICS = 1
PID_HOST_WORKERS = 3
EVENT_KINDS = {"dispatch", "steal", "reconfig", "shed", "rung_transition",
               "watchdog_trip"}
WATCHDOG_KINDS = {"queue_growth", "starvation", "sla_burn"}
WATCHDOG_CONFIG_KEYS = ("growth_epochs", "growth_min_depth", "starvation_age_bound",
                        "burn_threshold", "burn_warmup")


class Invalid(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Invalid(msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_trace(doc):
    events = doc.get("traceEvents")
    require(isinstance(events, list) and events, "traceEvents must be a non-empty list")
    other = doc.get("otherData")
    require(isinstance(other, dict), "otherData must be an object")
    require(
        other.get("schema_version") == TELEMETRY_SCHEMA_VERSION,
        f"otherData.schema_version must be {TELEMETRY_SCHEMA_VERSION}",
    )
    for key in ("modeled_time_unit", "policy", "mode", "fabrics", "streams",
                "makespan_cycles"):
        require(key in other, f"otherData.{key} missing")

    fabric_tracks = {}
    worker_tracks = {}
    for i, e in enumerate(events):
        require(isinstance(e, dict), f"event {i} is not an object")
        ph = e.get("ph")
        require(ph in ("M", "X"), f"event {i}: unknown ph {ph!r}")
        if ph == "M":
            require(e.get("name") in ("process_name", "thread_name"),
                    f"event {i}: unknown metadata name {e.get('name')!r}")
            require(isinstance(e.get("args"), dict) and "name" in e["args"],
                    f"event {i}: metadata args.name missing")
            continue
        for key in ("pid", "tid", "ts", "dur"):
            require(is_num(e.get(key)), f"event {i}: {key} must be a number")
        require(e.get("name") in SPAN_NAMES,
                f"event {i}: unknown span name {e.get('name')!r}")
        require(e["dur"] >= 0 and e["ts"] >= 0,
                f"event {i}: negative ts/dur")
        if e["pid"] == PID_MODELED_FABRICS:
            fabric_tracks.setdefault(e["tid"], []).append((e["ts"], e["dur"], i))
        elif e["pid"] == PID_HOST_WORKERS:
            worker_tracks.setdefault(e["tid"], []).append((e["ts"], e["dur"], i))

    # The modeled fabric does one thing at a time: spans on one fabric
    # track must not overlap.
    for tid, spans in fabric_tracks.items():
        spans.sort()
        for (a_ts, a_dur, a_i), (b_ts, _, b_i) in zip(spans, spans[1:]):
            require(a_ts + a_dur <= b_ts,
                    f"fabric track {tid}: events {a_i} and {b_i} overlap")
    # A host worker runs one job at a time either. Its spans are wall-time
    # microseconds printed to 10 significant digits, so allow their
    # rounding: 1 ns plus 1e-9 of the timestamp.
    for tid, spans in worker_tracks.items():
        spans.sort()
        for (a_ts, a_dur, a_i), (b_ts, _, b_i) in zip(spans, spans[1:]):
            require(a_ts + a_dur <= b_ts + 1e-3 + 1e-9 * b_ts,
                    f"host worker track {tid}: events {a_i} and {b_i} overlap")


def validate_metrics(doc):
    require(
        doc.get("schema_version") == TELEMETRY_SCHEMA_VERSION,
        f"schema_version must be {TELEMETRY_SCHEMA_VERSION}",
    )
    require(is_num(doc.get("host_wall_seconds")) and doc["host_wall_seconds"] >= 0,
            "host_wall_seconds must be a non-negative number")
    # Timeline-cap accounting: samples truncated by the epoch cap are
    # counted, not silently discarded, so the exporter must carry the
    # count (0 when nothing was dropped).
    dropped = doc.get("epochs_dropped")
    require(isinstance(dropped, int) and not isinstance(dropped, bool) and dropped >= 0,
            "epochs_dropped must be a non-negative int")
    for section in ("counters", "gauges", "histograms", "timelines"):
        require(isinstance(doc.get(section), dict), f"{section} must be an object")
    for name, v in doc["counters"].items():
        require(isinstance(v, int) and v >= 0, f"counter {name} must be a non-negative int")
    for name, v in doc["gauges"].items():
        require(is_num(v), f"gauge {name} must be a number")
    for name, h in doc["histograms"].items():
        require(isinstance(h, dict), f"histogram {name} must be an object")
        for key in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            require(is_num(h.get(key)), f"histogram {name}.{key} must be a number")
        buckets = h.get("buckets")
        require(isinstance(buckets, list), f"histogram {name}.buckets must be a list")
        total = 0
        overflow_bucket = 0
        for b in buckets:
            require(isinstance(b, dict) and isinstance(b.get("count"), int),
                    f"histogram {name}: bucket counts must be ints")
            require(b.get("le") is None or is_num(b["le"]),
                    f"histogram {name}: bucket le must be a number or null (overflow)")
            total += b["count"]
            if b.get("le") is None:
                overflow_bucket += b["count"]
        require(total == h["count"],
                f"histogram {name}: bucket counts sum to {total}, count says {h['count']}")
        overflow = h.get("overflow")
        if overflow is not None:
            require(isinstance(overflow, dict) and
                    isinstance(overflow.get("count"), int) and overflow["count"] >= 0 and
                    is_num(overflow.get("min")),
                    f"histogram {name}.overflow must be {{count: int, min: number}}")
            require(overflow["count"] == overflow_bucket,
                    f"histogram {name}: overflow.count {overflow['count']} disagrees with "
                    f"the null-le bucket count {overflow_bucket}")
        # Overflow-distortion check: when the p99 rank lands in the
        # unbounded top bucket, a percentile interpolated over
        # [last bound, max] understates clustered-high tails. Such an
        # export must carry the overflow accounting, and its p99 must sit
        # inside [overflow.min, max] — the only honest range up there.
        if total > 0 and overflow_bucket > 0:
            rank99 = max(1, -(-99 * total // 100))  # ceil, nearest-rank
            if rank99 > total - overflow_bucket:
                require(overflow is not None,
                        f"histogram {name}: p99 resolves in the overflow bucket but the "
                        f"export carries no overflow accounting — the percentile is "
                        f"distorted by top-bucket saturation")
                require(overflow["min"] <= h["p99"] <= h["max"],
                        f"histogram {name}: p99 {h['p99']} outside the overflow range "
                        f"[{overflow['min']}, {h['max']}] — top-bucket saturation distorts it")
    for name, samples in doc["timelines"].items():
        require(isinstance(samples, list) and all(is_num(s) for s in samples),
                f"timeline {name} must be a list of numbers")


def validate_bench(doc):
    require(isinstance(doc.get("bench"), str) and doc["bench"],
            "bench must be a non-empty string")
    require(
        doc.get("schema_version") == BENCH_SCHEMA_VERSION,
        f"schema_version must be {BENCH_SCHEMA_VERSION}",
    )
    require(is_num(doc.get("host_wall_seconds")) and doc["host_wall_seconds"] >= 0,
            "host_wall_seconds must be a non-negative number")
    # Reproducibility stamp (schema v2, additive): every bench must carry
    # the RNG seed its workload was drawn from and a digest of its
    # configuration, so a perf delta between two CI runs can be told
    # apart from a workload change.
    seed = doc.get("rng_seed")
    require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "rng_seed must be a non-negative int")
    digest = doc.get("config_digest")
    require(isinstance(digest, str) and digest,
            "config_digest must be a non-empty string")
    require(isinstance(doc.get("metrics"), dict), "metrics must be an object")
    for name, v in doc["metrics"].items():
        require(v is None or is_num(v), f"metric {name} must be a number or null")
    bars = doc.get("bars")
    require(isinstance(bars, list), "bars must be a list")
    for i, b in enumerate(bars):
        require(isinstance(b, dict), f"bar {i} is not an object")
        require(isinstance(b.get("name"), str), f"bar {i}: name must be a string")
        require(is_num(b.get("value")) and is_num(b.get("threshold")),
                f"bar {b.get('name', i)}: value/threshold must be numbers")
        require(b.get("op") in (">=", "<=", ">"), f"bar {b.get('name', i)}: unknown op")
        require(isinstance(b.get("pass"), bool), f"bar {b.get('name', i)}: pass must be bool")
    require(isinstance(doc.get("pass"), bool), "pass must be bool")


def validate_queue(q, where):
    require(isinstance(q, dict), f"{where}: queue must be an object")
    for key in ("depth", "oldest_age", "dispatches", "completions", "steals",
                "batches"):
        require(is_count(q.get(key)),
                f"{where}: queue.{key} must be a non-negative int")
    shards = q.get("shards")
    require(isinstance(shards, list), f"{where}: queue.shards must be a list")
    for s in shards:
        require(isinstance(s, dict) and is_count(s.get("depth")) and
                is_count(s.get("oldest_age")) and is_count(s.get("shard")),
                f"{where}: malformed shard entry")


def validate_snapshot(snap, i, fabric_count):
    where = f"snapshot {i}"
    require(isinstance(snap, dict), f"{where} is not an object")
    require(is_count(snap.get("epoch")) and snap["epoch"] >= 1,
            f"{where}: epoch must be an int >= 1")
    require(is_count(snap.get("modeled_now_cycles")),
            f"{where}: modeled_now_cycles must be a non-negative int")
    validate_queue(snap.get("queue"), where)

    fabrics = snap.get("fabrics")
    require(isinstance(fabrics, list) and len(fabrics) == fabric_count,
            f"{where}: fabrics must be a list of {fabric_count} entries")
    for f in fabrics:
        require(isinstance(f, dict), f"{where}: fabric entry is not an object")
        for key in ("utilization", "cache_pressure"):
            v = f.get(key)
            require(is_num(v) and 0.0 <= v <= 1.0,
                    f"{where}: fabric {f.get('fabric')}: {key} must be in [0, 1]")
        for key in ("jobs_done", "cache_hits", "cache_misses", "switches"):
            require(is_count(f.get(key)),
                    f"{where}: fabric {f.get('fabric')}: {key} must be a "
                    f"non-negative int")

    streams = snap.get("streams")
    require(isinstance(streams, list), f"{where}: streams must be a list")
    for s in streams:
        require(isinstance(s, dict), f"{where}: stream entry is not an object")
        sid = s.get("stream")
        require(is_count(sid), f"{where}: stream id must be a non-negative int")
        require(isinstance(s.get("shed"), bool), f"{where}: stream {sid}: shed must be bool")
        burn = s.get("burn_rate")
        require(is_num(burn) and math.isfinite(burn) and burn >= 0.0,
                f"{where}: stream {sid}: burn_rate must be finite and in [0, inf)")
        for key in ("consumed_cycles", "total_cycles", "deadline_cycles",
                    "projected_completion_cycles"):
            require(is_num(s.get(key)) and s[key] >= 0,
                    f"{where}: stream {sid}: {key} must be non-negative")
        require(is_count(s.get("frames_done")) and is_count(s.get("frames_total")),
                f"{where}: stream {sid}: frame counts must be non-negative ints")
        require(s["frames_done"] <= s["frames_total"] or s["frames_total"] == 0,
                f"{where}: stream {sid}: frames_done exceeds frames_total")
        # A projection is a modeled cycle: an unfinished stream's lies
        # ahead of the snapshot, a finished one's (the cycle it finished)
        # at or before it.
        if not s["shed"] and s["deadline_cycles"] > 0 and s["total_cycles"] > 0:
            projected, now = s["projected_completion_cycles"], snap["modeled_now_cycles"]
            if s["frames_done"] < s["frames_total"]:
                require(projected >= now,
                        f"{where}: stream {sid}: unfinished, but projected to complete at "
                        f"{projected}, before the snapshot's {now}")
            else:
                require(projected <= now,
                        f"{where}: stream {sid}: finished, but its projected completion "
                        f"{projected} lies after the snapshot's {now}")


def validate_flight(fr, fabric_count, last_tick):
    require(isinstance(fr, dict), "flight_recorder must be an object")
    capacity = fr.get("capacity_per_ring")
    require(is_count(capacity) and capacity > 0,
            "flight_recorder.capacity_per_ring must be a positive int")
    require(is_count(fr.get("recorded")) and is_count(fr.get("dropped")),
            "flight_recorder.recorded/dropped must be non-negative ints")
    events = fr.get("events")
    require(isinstance(events, list), "flight_recorder.events must be a list")
    # fabric rings + one control ring bound the surviving event count.
    require(len(events) <= capacity * (fabric_count + 1),
            "flight_recorder: more surviving events than ring capacity allows")
    prev_seq = prev_t = 0
    for i, e in enumerate(events):
        require(isinstance(e, dict), f"flight event {i} is not an object")
        require(e.get("kind") in EVENT_KINDS,
                f"flight event {i}: unknown kind {e.get('kind')!r}")
        require(is_count(e.get("seq")) and e["seq"] > prev_seq,
                f"flight event {i}: seq must be strictly increasing")
        prev_seq = e["seq"]
        # The planner records every event at its clock's current instant.
        require(is_count(e.get("t_cycles")) and e["t_cycles"] >= prev_t,
                f"flight event {i}: t_cycles must be a non-negative int that "
                f"never goes backwards")
        prev_t = e["t_cycles"]
        require(last_tick is None or prev_t <= last_tick,
                f"flight event {i}: t_cycles {prev_t} is later than the last "
                f"snapshot ({last_tick})")
        require(is_count(e.get("ring")) and e["ring"] <= fabric_count,
                f"flight event {i}: ring out of range")
        require(isinstance(e.get("stream"), int) and isinstance(e.get("frame"), int),
                f"flight event {i}: stream/frame must be ints")
        require(is_count(e.get("value")), f"flight event {i}: value must be non-negative")


def validate_health(doc):
    require(doc.get("schema_version") == HEALTH_SCHEMA_VERSION,
            f"schema_version must be {HEALTH_SCHEMA_VERSION}")
    require(is_num(doc.get("host_wall_seconds")) and doc["host_wall_seconds"] >= 0,
            "host_wall_seconds must be a non-negative number")
    fabric_count = doc.get("fabrics")
    require(is_count(fabric_count), "fabrics must be a non-negative int")
    require(is_count(doc.get("anomalies_total")),
            "anomalies_total must be a non-negative int")
    require(is_count(doc.get("snapshots_evicted")),
            "snapshots_evicted must be a non-negative int")

    cfg = doc.get("watchdog_config")
    require(isinstance(cfg, dict), "watchdog_config must be an object")
    for key in WATCHDOG_CONFIG_KEYS:
        require(is_num(cfg.get(key)) and cfg[key] >= 0,
                f"watchdog_config.{key} must be a non-negative number")

    snapshots = doc.get("snapshots")
    require(isinstance(snapshots, list), "snapshots must be a list")
    prev_epoch = 0
    prev_now = -1
    prev_completions = prev_dispatches = 0
    for i, snap in enumerate(snapshots):
        validate_snapshot(snap, i, fabric_count)
        require(snap["epoch"] > prev_epoch,
                f"snapshot {i}: epoch {snap['epoch']} not strictly monotone "
                f"after {prev_epoch}")
        prev_epoch = snap["epoch"]
        require(snap["modeled_now_cycles"] > prev_now,
                f"snapshot {i}: modeled_now_cycles {snap['modeled_now_cycles']} "
                f"not strictly monotone after {prev_now}")
        prev_now = snap["modeled_now_cycles"]
        q = snap["queue"]
        require(q["completions"] >= prev_completions,
                f"snapshot {i}: completions moved backwards")
        require(q["dispatches"] >= prev_dispatches,
                f"snapshot {i}: dispatches moved backwards")
        prev_completions, prev_dispatches = q["completions"], q["dispatches"]

    trips = doc.get("trips")
    require(isinstance(trips, list), "trips must be a list")
    require(doc["anomalies_total"] == len(trips),
            f"anomalies_total {doc['anomalies_total']} disagrees with "
            f"{len(trips)} recorded trips")
    for i, t in enumerate(trips):
        require(isinstance(t, dict), f"trip {i} is not an object")
        require(t.get("kind") in WATCHDOG_KINDS,
                f"trip {i}: unknown watchdog kind {t.get('kind')!r}")
        require(is_count(t.get("epoch")) and t["epoch"] >= 1,
                f"trip {i}: epoch must be an int >= 1")
        require(isinstance(t.get("stream"), int), f"trip {i}: stream must be an int")
        require(isinstance(t.get("detail"), str), f"trip {i}: detail must be a string")

    validate_flight(doc.get("flight_recorder"), fabric_count,
                    prev_now if snapshots else None)


def validate_file(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    require(isinstance(doc, dict), "top level must be an object")
    if doc.get("kind") == "health":
        kind = "health"
        validate_health(doc)
    elif "traceEvents" in doc:
        kind = "trace"
        validate_trace(doc)
    elif "counters" in doc:
        kind = "metrics"
        validate_metrics(doc)
    elif "bench" in doc:
        kind = "bench"
        validate_bench(doc)
    else:
        raise Invalid("unrecognized document: no health kind or traceEvents/counters/bench key")
    return kind


def main(argv):
    if len(argv) < 2:
        print("usage: validate_trace.py <artifact.json> [...]", file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            kind = validate_file(path)
        except (Invalid, json.JSONDecodeError, OSError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {path} ({kind})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
