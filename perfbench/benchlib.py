"""Helpers shared by perfbench/run.py and its self-tests.

Everything here is pure: percentiles, metric-name grammar, registry
snapshot arithmetic (Obs JSON dumps and Prometheus text), and the result
record checked against BENCHMARK.json.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile, or None when fewer than `min_beyond`
    samples rank above it."""
    n = len(samples)
    if n == 0 or not 0 < q < 1:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def _slices(times, wall, slices):
    """Index of the equal time slice of the window each completion is in."""
    width = wall / slices
    return [min(slices - 1, max(0, int(t / width))) for t in times]


def slice_rate(times, wall, slices=10, min_per_slice=50):
    """Completions per second over a window of `wall` seconds, given each
    completion's offset into it: the median over `slices` equal slices, so
    a short stall of the machine moves it little.  With fewer than
    `min_per_slice` completions per slice it is plain count / wall."""
    n = len(times)
    if wall <= 0 or n == 0:
        return 0.0
    if n < slices * min_per_slice:
        return n / wall
    counts = [0] * slices
    for i in _slices(times, wall, slices):
        counts[i] += 1
    return statistics.median(counts) / (wall / slices)


def slice_p50(times, lats, wall, slices=10):
    """Median latency: the median over `slices` equal time slices of each
    slice's median, for the same reason as `slice_rate`.  When a slice is
    too thin for its median (see `percentile`), the median of all
    samples."""
    groups = [[] for _ in range(slices)]
    if wall > 0:
        for i, x in zip(_slices(times, wall, slices), lats):
            groups[i].append(x)
    meds = [percentile(g, 0.5) for g in groups]
    if any(m is None for m in meds):
        return percentile(lats, 0.5)
    return statistics.median(meds)


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


# ----------------------------- registries -----------------------------


def norm(name):
    """Registry names as the Prometheus exposition spells them."""
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def registry_of_json(doc):
    """An Obs `dump_json` object as {"values": {name: v},
    "hists": {name: {"count", "sum"}}}, names normalised."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    values = {}
    for kind in ("counters", "gauges"):
        for k, v in doc.get(kind, {}).items():
            values[norm(k)] = float(v) if v is not None else 0.0
    hists = {}
    for k, h in doc.get("histograms", {}).items():
        hists[norm(k)] = {"count": int(h.get("count", 0)),
                          "sum": float(h.get("sum", 0.0))}
    return {"values": values, "hists": hists}


def registry_of_prometheus(text):
    """Prometheus text (counters, gauges, summaries) in the same shape as
    `registry_of_json`."""
    flat = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        parts = line.split()
        if len(parts) != 2:
            continue
        try:
            flat[parts[0]] = float(parts[1])
        except ValueError:
            continue
    hists = {}
    for k in list(flat):
        if k.endswith("_count") and k[:-6] + "_sum" in flat:
            base = k[:-6]
            hists[base] = {"count": int(flat[k]), "sum": flat[base + "_sum"]}
    values = {k: v for k, v in flat.items()
              if not any(k == b + s for b in hists
                         for s in ("_count", "_sum", "_max"))}
    return {"values": values, "hists": hists}


def hist_delta(before, after, name):
    """The observations a histogram gained between two snapshots: count
    and sum, each clamped at zero (histograms only grow; a negative delta
    means the source was reset)."""
    empty = {"count": 0, "sum": 0.0}
    a = after["hists"].get(name, empty)
    b = before["hists"].get(name, empty)
    return {"count": max(0, a["count"] - b["count"]),
            "sum": max(0.0, a["sum"] - b["sum"])}


def hist_mean_us(delta):
    return delta["sum"] / delta["count"] * 1e6 if delta["count"] else 0.0


def values_delta(before, after, pattern):
    """Sum of (after - before) over every counter or gauge whose name
    matches the regular expression."""
    rx = re.compile(pattern)
    total = 0.0
    for k, v in after["values"].items():
        if rx.fullmatch(k):
            total += v - before["values"].get(k, 0.0)
    return total


# --------------------------- result record ---------------------------


def check_spec(spec):
    """Raise ValueError unless BENCHMARK.json's metric lists are usable."""
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not valid_name(m["name"]) or m["name"] in seen:
                raise ValueError("bad or repeated metric name %r" % m["name"])
            if not valid_unit(m["unit"]):
                raise ValueError("bad unit %r" % m["unit"])
            if m["better"] not in ("lower", "higher"):
                raise ValueError("bad direction for %r" % m["name"])
            seen.add(m["name"])


def build_result(spec, values, correct, attempted, failed, trace):
    """The final output record: exactly the end-to-end metrics (trace 0)
    or exactly the per-layer metrics (trace 1) of BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            raise ValueError("metric %s has no finite value (%r)"
                             % (m["name"], v))
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def check_result(spec, record, trace):
    """Raise ValueError unless `record` is a well-formed result for
    BENCHMARK.json's metric list."""
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %r" % sorted(record))
    if not isinstance(record["correct"], bool):
        raise ValueError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(record[k], int) or isinstance(record[k], bool):
            raise ValueError("%s must be a whole number" % k)
    if record["attempted"] < 1 or not 0 <= record["failed"] <= record["attempted"]:
        raise ValueError("attempted/failed out of range")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(record["metrics"]) != {m["name"] for m in wanted}:
        raise ValueError("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = record["metrics"][m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise ValueError("metric %s malformed" % m["name"])
        if not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            raise ValueError("metric %s is not a finite number" % m["name"])
