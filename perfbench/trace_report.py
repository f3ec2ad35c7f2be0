#!/usr/bin/env python3
"""Turns the spans of a traced benchmark run into per-layer metrics.

A span's self time is its duration minus the durations of its children
(spans nest strictly on the one client thread). The report checks the
harness gate: the self times of all spans must sum to within 5% of the
traced run's timed wall time, i.e. the spans account for where the time
went. Given the untraced run of the same seed, it also prints the
tracing overhead. run.py calls analyze() for `--trace 1`.
"""

import array
import struct

GATE = 0.05

REQUEST_PATH = ("proxy", "app", "servlet", "sniffer", "db.query.light",
                "db.query.medium", "db.query.heavy")
SYNC_PATH = ("sync", "cycle", "db.poll", "deliver.enqueue", "deliver.drain")

# (metric, unit, span name, statistic, scale from ns). "self" is the
# span's self time, "dur" its whole duration.
SPAN_METRICS = [
    ("proxy.self_us", "us", "proxy", "self", 0.5, 1e-3),
    ("app.miss_us", "us", "app", "dur", 0.5, 1e-3),
    ("app.miss_p99_us", "us", "app", "dur", 0.99, 1e-3),
    ("app.self_us", "us", "app", "self", 0.5, 1e-3),
    ("servlet.self_us", "us", "servlet", "self", 0.5, 1e-3),
    ("sniffer.query_log_us", "us", "sniffer", "self", 0.5, 1e-3),
    ("db.query_us.light", "us", "db.query.light", "dur", 0.5, 1e-3),
    ("db.query_us.medium", "us", "db.query.medium", "dur", 0.5, 1e-3),
    ("db.query_us.heavy", "us", "db.query.heavy", "dur", 0.5, 1e-3),
    ("db.update_us", "us", "db.update", "dur", 0.5, 1e-3),
    ("db.poll_us", "us", "db.poll", "dur", 0.5, 1e-3),
    ("inval.cycle_self_ms", "ms", "cycle", "self", 0.5, 1e-6),
    ("deliver.enqueue_us", "us", "deliver.enqueue", "dur", 0.5, 1e-3),
    ("deliver.drain_ms", "ms", "deliver.drain", "dur", 0.5, 1e-6),
]

# (metric, unit) read from the run's library counters.
COUNTER_METRICS = [
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.evictions", "count"), ("cache.invalidations", "count"),
    ("sniffer.map_rows", "count"), ("db.rows_per_query", "rows"),
    ("db.polls", "count"), ("inval.checks_per_update", "checks"),
    ("inval.instances", "count"), ("inval.polls_issued", "count"),
    ("inval.poll_round_trips", "count"), ("inval.pages_invalidated", "count"),
    ("inval.fast_path_instances", "count"), ("inval.eject_precision", "ratio"),
    ("deliver.ejects", "count"), ("deliver.batch_flushes", "count"),
    ("wire.batch_frames", "count"), ("wire.acks", "count"),
    ("wire.ejects_applied", "count"), ("wire.ejects_per_frame", "ejects"),
]

# Sample count behind a ratio counter, as another counter's name; the
# rest count over requests (cache) or syncs (everything else).
COUNTER_SAMPLES = {
    "db.rows_per_query": "db.page_queries",
    "inval.checks_per_update": "inval.updates",
    "inval.eject_precision": "inval.precision_checked",
}


def load_spans(path):
    """Reads the binary span file written by Tracer::Write."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"CPSPANS1":
        raise ValueError(f"{path}: not a span file")
    (count,) = struct.unpack_from("<Q", data, 8)
    spans = {}
    offset = 16
    for name, code in (("layer", "B"), ("parent", "i"), ("op", "I"),
                       ("start", "q"), ("end", "q")):
        values = array.array(code)
        size = values.itemsize * count
        values.frombytes(data[offset:offset + size])
        if len(values) != count:
            raise ValueError(f"{path}: truncated")
        spans[name] = values
        offset += size
    return spans


def percentile(values, q):
    """Linear-interpolated percentile of a sorted list (0 when empty)."""
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def analyze(spans, result, untraced=None):
    """Returns (metrics, report): metrics maps name -> (value, unit, n);
    report is a list of printable lines. Also returns whether the 5%
    gate held."""
    names = result["layers"]
    layer, parent = spans["layer"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    by_name = {name: {"self": [], "dur": []} for name in names}
    for i, d in enumerate(dur):
        entry = by_name[names[layer[i]]]
        entry["dur"].append(d)
        entry["self"].append(d - child[i])
    for entry in by_name.values():
        entry["self"].sort()
        entry["dur"].sort()

    wall_ns = result["timed_s"] * 1e9
    self_total = {name: sum(e["self"]) for name, e in by_name.items()}
    coverage = sum(self_total.values()) / wall_ns if wall_ns else 0.0
    gate_ok = abs(1.0 - coverage) <= GATE

    metrics = {}
    for metric, unit, span, stat, q, scale in SPAN_METRICS:
        values = by_name[span][stat]
        metrics[metric] = (percentile(values, q) * scale, unit, len(values))
    counters = result["counters"]
    for metric, unit in COUNTER_METRICS:
        n = counters.get(COUNTER_SAMPLES.get(metric), None)
        if n is None:
            n = result["requests"] if metric.startswith("cache.") else \
                result["syncs"]
        metrics[metric] = (counters[metric], unit, int(n))
    metrics["trace.self_coverage"] = (coverage, "ratio", len(dur))
    overhead = None
    if untraced is not None and untraced["timed_s"] > 0:
        traced_rate = result["requests"] / result["timed_s"]
        untraced_rate = untraced["requests"] / untraced["timed_s"]
        overhead = (1.0 - traced_rate / untraced_rate) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%", result["requests"])

    report = [f"{'span':<18}{'count':>9}{'self ms':>12}{'wall %':>9}"
              f"{'self p50 us':>13}{'self p99 us':>13}"]
    for name in names:
        e = by_name[name]
        report.append(
            f"{name:<18}{len(e['self']):>9}{self_total[name] / 1e6:>12.3f}"
            f"{100.0 * self_total[name] / wall_ns:>9.2f}"
            f"{percentile(e['self'], 0.5) / 1e3:>13.3f}"
            f"{percentile(e['self'], 0.99) / 1e3:>13.3f}")
    request_top = max(REQUEST_PATH, key=lambda n: self_total.get(n, 0))
    sync_top = max(SYNC_PATH, key=lambda n: self_total.get(n, 0))
    report.append(f"largest self time: request path {request_top}, "
                  f"sync path {sync_top}")
    report.append(f"span self times cover {100.0 * coverage:.2f}% of the "
                  f"timed wall ({result['timed_s']:.3f} s): gate "
                  f"{'PASS' if gate_ok else 'FAIL'} (within {GATE:.0%})")
    if overhead is not None:
        report.append(f"tracing overhead: {overhead:.2f}% fewer requests/s "
                      f"than the untraced run of the same seed")
    return metrics, report, gate_ok

