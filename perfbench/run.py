#!/usr/bin/env python3
"""ForkBase benchmark: build the shipped code, run one seeded workload,
check every answer, print the metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The command builds
bin/forkbase_cli.exe and perfbench/fbbench.exe with dune, runs the
load generator (fbbench.exe) in its own process group (it starts `forkbase serve`
children on ephemeral ports), and removes every store it made.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"} with the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1).  Everything before it
is a human-readable report, including the issue-level metrics of each
workload with their sample counts.  The full record of a run is kept in
.perfbench/results/.

Self-tests of the helpers: python3 -m unittest discover -s perfbench/tests
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

WORKLOADS = ("edit-map", "wire-kv", "archive-sync", "cluster-read")
REFUSED_ENV = ("FB_OBS", "FB_NODE_CACHE", "FB_SLOW_MS")
SOURCES = ("BENCHMARK.json", "dune-project", "bin/forkbase_cli.ml", "lib",
           "perfbench/dune-project", "perfbench/fbbench.ml")
LAYERS = ("bench", "core", "postree", "types", "persist", "sync", "net")
STATE_DIR = ".perfbench"
RUN_BUDGET_S = 165  # fbbench's share of the 180 s a run may take

# Where each workload's user-visible latency and throughput come from:
# (phase, operation classes).
LATENCY = {"edit-map": ("mix", ("read", "write")),
           "wire-kv": ("depth1", ("read", "write")),
           "archive-sync": ("versions", ("version",)),
           "cluster-read": ("healthy", ("read",))}
THROUGHPUT = {"edit-map": ("mix", ("read", "write")),
              "wire-kv": ("depth32", ("pipelined",)),
              "archive-sync": ("versions", ("version",)),
              "cluster-read": ("healthy", ("read",))}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code):
    log(msg)
    sys.exit(code)


# ------------------------------ running ------------------------------


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./bin/forkbase_cli.exe", "./perfbench/fbbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 3)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode, 3)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def stop_group(proc):
    """Stop fbbench and every process of its group, and wait for them."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    deadline = time.time() + 10
    while group_alive(proc.pid) and time.time() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)


def cpu_plan():
    """(load CPU, server CPU): with two CPUs the load generator and the
    forkbase servers each get one, so they never compete for a CPU and
    the scheduler cannot place them differently from run to run.  With
    one CPU, or without taskset, nothing is pinned: (None, None)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        return cpus[0], cpus[1]
    return None, None


def run_fbbench(root, args, out, chrome, work, cpus):
    load_cpu, server_cpu = cpus
    cmd = [os.path.join("_build", "default", "perfbench", "fbbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--forkbase", os.path.join("_build", "default", "bin",
                                      "forkbase_cli.exe"),
           "--work", work, "--out", out]
    if args.trace:
        cmd += ["--chrome", chrome]
    pin = None
    if load_cpu is not None:
        cmd += ["--server-cpu", str(server_cpu)]

        def pin():
            os.sched_setaffinity(0, {load_cpu})
    proc = subprocess.Popen(cmd, cwd=root, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True,
                            preexec_fn=pin)
    try:
        rc = proc.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        stop_group(proc)
        shutil.rmtree(os.path.join(root, work), ignore_errors=True)
    if rc is None:
        die("fbbench exceeded %d s" % RUN_BUDGET_S, 4)
    if rc != 0:
        die("fbbench failed (exit %d)" % rc, 4)
    return load_raw(os.path.join(root, out))


def load_raw(path):
    """fbbench's record, with latencies in microseconds and completion
    times in seconds (fbbench writes whole ns and us)."""
    with open(path) as f:
        doc = json.load(f)
    for p in doc["phases"]:
        for key in ("samples", "calls"):
            p[key + "_us"] = {k: [x / 1e3 for x in xs]
                              for k, xs in p.pop(key + "_ns").items()}
        p["lat_us"] = [x / 1e3 for x in p.pop("lat_ns")]
        p["done_at_s"] = [x / 1e6 for x in p.pop("done_at_us")]
    return doc


# ------------------------------ metrics ------------------------------


def phases(doc):
    return {p["name"]: p for p in doc["phases"]}


def measured(doc):
    """Timed phases.  Warm-ups, and windows measured again because the
    hypervisor stole too much CPU time, only count towards
    attempted/failed."""
    return [p for p in doc["phases"]
            if not p["name"].endswith((".warmup", ".stolen"))]


def throughput(phase):
    return bl.slice_rate(phase["done_at_s"], phase["wall_s"])


def samples(phase, classes):
    out = []
    for c in classes:
        out.extend(phase["samples_us"].get(c, []))
    return out


def end_to_end(workload, doc):
    """{name: (value, sample count)} for BENCHMARK.json's end_to_end."""
    ph = phases(doc)
    facts = doc["facts"]
    lp, lc = LATENCY[workload]
    lat = samples(ph[lp], lc)
    p50 = bl.slice_p50(ph[lp]["done_at_s"], ph[lp]["lat_us"], ph[lp]["wall_s"])
    tp, tc = THROUGHPUT[workload]
    done = len(samples(ph[tp], tc))
    rate = throughput(ph[tp])
    return {
        "setup_s": (statistics.median(doc["setup_s"]), len(doc["setup_s"])),
        "peak_rss_mb": (facts["peak_rss_kb"] / 1024.0, 1),
        "latency_p50_us": (p50, len(lat)),
        "ops_per_s": (rate, done),
        "stored_bytes_per_user_byte":
            (facts["stored_bytes"] / facts["user_bytes"], 1),
    }


def issue_metrics(workload, doc):
    """The end-to-end metrics named per workload in the benchmark's
    design, as {name: (value or None, unit, sample count)}."""
    ph = phases(doc)
    facts = doc["facts"]
    attempted = sum(p["ops"] for p in doc["phases"])
    failed = sum(p["failed"] for p in doc["phases"])
    out = {
        "setup_s": (statistics.median(doc["setup_s"]), "s",
                    len(doc["setup_s"])),
        "error_ratio": (failed / attempted if attempted else 0.0, "ratio",
                        attempted),
        "peak_rss_mb": (facts["peak_rss_kb"] / 1024.0, "MiB", 1),
    }

    def lat(prefix, phase, cls):
        xs = samples(ph[phase], (cls,))
        out[prefix + "_p50_us"] = (bl.percentile(xs, 0.5), "us", len(xs))
        out[prefix + "_p99_us"] = (bl.percentile(xs, 0.99), "us", len(xs))

    def ops(phase, classes):
        n = len(samples(ph[phase], classes))
        out["ops_per_s"] = (throughput(ph[phase]), "1/s", n)

    if workload == "edit-map":
        lat("read", "mix", "read")
        lat("write", "mix", "write")
        ops("mix", ("read", "write"))
    elif workload == "wire-kv":
        lat("read", "depth1", "read")
        lat("write", "depth1", "write")
        ops("depth32", ("pipelined",))
    elif workload == "cluster-read":
        lat("read", "healthy", "read")
        ops("healthy", ("read",))
        lat("degraded_read", "degraded", "degraded_read")
    else:
        v = ph["versions"]
        ingest = v["samples_us"].get("ingest", [])
        push = v["samples_us"].get("push", [])
        mb = v["counters"].get("ingest_bytes", 0.0) / 1e6
        out["ingest_mb_per_s"] = (mb / (sum(ingest) / 1e6) if ingest else None,
                                  "MB/s", len(ingest))
        p50 = bl.percentile(push, 0.5)
        out["push_p50_ms"] = (p50 / 1000.0 if p50 is not None else None,
                              "ms", len(push))
        out["stored_bytes_per_user_byte"] = (
            facts["stored_bytes"] / facts["user_bytes"], "ratio",
            int(doc["exact"].get("exact.versions", 0)))
    return out


def host_snapshots(workload, phase):
    """(before, after) registries of the process hosting the engine."""
    if workload == "wire-kv":
        return (bl.registry_of_prometheus(phase["remote_before"]["server"]),
                bl.registry_of_prometheus(phase["remote_after"]["server"]))
    return (bl.registry_of_json(phase["local_before"]),
            bl.registry_of_json(phase["local_after"]))


def server_hist(phase, names):
    """Summed histogram delta over every server the phase talked to."""
    total = {"count": 0, "sum": 0.0}
    for srv, text in phase["remote_after"].items():
        if srv not in phase["remote_before"]:
            continue
        b = bl.registry_of_prometheus(phase["remote_before"][srv])
        a = bl.registry_of_prometheus(text)
        for n in names:
            d = bl.hist_delta(b, a, n)
            total["count"] += d["count"]
            total["sum"] += d["sum"]
    return total


def per_layer(workload, doc):
    """{name: value} for BENCHMARK.json's per_layer list (traced runs)."""
    ph = phases(doc)
    issue = issue_metrics(workload, doc)
    primary = ph[LATENCY[workload][0]]
    calls = {}
    for p in measured(doc):
        if not p["traced"]:
            for k, xs in p["calls_us"].items():
                calls.setdefault(k, []).extend(xs)
    counters = dict(primary["counters"], **doc["exact"])

    def c(name):
        return counters.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_call(name, scale=1.0):
        return bl.mean(calls.get(name, [])) * scale

    before, after = host_snapshots(workload, primary)
    # Store probes are counted per operation of the phase: on edit-map
    # the writes' tree walks read through the same store.
    ops = len(samples(primary, LATENCY[workload][1]))
    writes = len(primary["samples_us"].get(
        "version" if workload == "archive-sync" else "write", []))

    def hd(name):
        return bl.hist_delta(before, after, name)

    hits = bl.values_delta(before, after, r"node_cache_.*_hits")
    misses = bl.values_delta(before, after, r"node_cache_.*_misses")
    v = {
        "postree.update_us": mean_call("postree.update"),
        "postree.find_us": mean_call("postree.find"),
        "postree.chunk_puts_per_edit":
            ratio(c("exact.chunk_puts"), c("exact.edits")),
        "postree.reuse_ratio":
            ratio(c("exact.dedup_hits"), c("exact.chunk_puts")),
        "postree.bytes_hashed_per_edit":
            ratio(c("exact.bytes_hashed"), c("exact.edits")),
        "node_cache.hit_ratio": ratio(hits, hits + misses),
        "store.mem_per_read": ratio(hd("fb_store_mem_seconds")["count"], ops),
        "store.mem_us": bl.hist_mean_us(hd("fb_store_mem_seconds")),
        "store.get_per_read": ratio(hd("fb_store_get_seconds")["count"], ops),
        "store.get_us": bl.hist_mean_us(hd("fb_store_get_seconds")),
        "store.put_us": bl.hist_mean_us(hd("fb_store_put_seconds")),
        "log.appends_per_write":
            ratio(bl.values_delta(before, after, r"log_.*_appends"), writes),
        "log.flushes_per_1k_writes":
            1000 * ratio(bl.values_delta(before, after, r"log_.*_flushes"),
                         writes),
        "persist.save_ms": mean_call("persist.save", 1e-3),
        "core.commit_us": mean_call("core.commit"),
        "core.head_us": mean_call("core.head"),
        "types.table_ingest_ms": mean_call("types.table_ingest", 1e-3),
        "net.server_get_us": 0.0,
        "net.server_put_us": 0.0,
        "net.lock_wait_us": 0.0,
        "net.wire_loop_us": 0.0,
        "net.worker_queue_depth": 0.0,
        "net.peer_sync_verb_us": 0.0,
        "postree.blob_ingest_mb_per_s": 0.0,
        "chunker.bytes_scanned_per_user_byte": 0.0,
        "sync.rounds_per_push": ratio(c("exact.rounds"), c("exact.pushes")),
        "sync.bytes_moved_per_version":
            ratio(c("exact.bytes_moved"), c("exact.versions")),
        "sync.chunks_skipped_per_version":
            ratio(c("exact.chunks_skipped"), c("exact.versions")),
        "sync.bloom_fp": c("exact.bloom_fp"),
        "cluster.failovers_per_read": 0.0,
        "cluster.repairs": 0.0,
    }
    if workload == "wire-kv":
        get = hd("fb_net_get_seconds")
        put = hd("fb_net_put_seconds")
        v["net.server_get_us"] = bl.hist_mean_us(get)
        v["net.server_put_us"] = bl.hist_mean_us(put)
        v["net.lock_wait_us"] = bl.hist_mean_us(hd("fb_rwlock_wait_seconds"))
        rtt = bl.mean(samples(primary, ("read", "write")))
        verb = bl.hist_mean_us({"count": get["count"] + put["count"],
                                "sum": get["sum"] + put["sum"]})
        v["net.wire_loop_us"] = rtt - verb
        d32 = ph["depth32"]["counters"]
        v["net.worker_queue_depth"] = ratio(
            d32.get("net.worker_queue_depth", 0.0),
            d32.get("net.worker_queue_samples", 0.0))
    if workload in ("archive-sync", "cluster-read"):
        v["net.peer_sync_verb_us"] = bl.hist_mean_us(
            server_hist(primary, ("fb_net_other_seconds",
                                  "fb_net_batch_seconds")))
    if workload == "archive-sync":
        ingest_bytes = c("ingest_bytes")
        blob_s = sum(calls.get("postree.blob_ingest", [])) / 1e6
        v["postree.blob_ingest_mb_per_s"] = ratio(ingest_bytes / 2 / 1e6, blob_s)
        v["chunker.bytes_scanned_per_user_byte"] = ratio(
            bl.values_delta(before, after, r"chunker_bytes_scanned"),
            ingest_bytes)
    if workload == "cluster-read":
        deg = ph["degraded"]
        b, a = host_snapshots(workload, deg)
        v["cluster.failovers_per_read"] = ratio(
            bl.values_delta(b, a, r"cluster_.*_node_\d+_failovers"),
            len(deg["samples_us"].get("degraded_read", [])))
        v["cluster.repairs"] = sum(
            bl.values_delta(*host_snapshots(workload, p),
                            r"cluster_.*_node_\d+_repairs")
            for p in measured(doc) if not p["traced"])
    for name in ("read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
                 "degraded_read_p50_us", "degraded_read_p99_us",
                 "ingest_mb_per_s", "push_p50_ms"):
        got = issue.get(name, (None,))[0]
        v[name] = got if got is not None else 0.0
    # Span overhead: the primary phase's rate untraced vs traced.
    traced = ph[primary["name"] + ".traced"]
    classes = LATENCY[workload][1]
    r_untraced = len(samples(primary, classes)) / primary["wall_s"]
    r_traced = len(samples(traced, classes)) / traced["wall_s"]
    v["trace_overhead_pct"] = (ratio(r_untraced, r_traced) - 1) * 100
    # Layer self times over every traced phase, as shares of its wall time.
    wall = sum(p["wall_s"] for p in measured(doc) if p["traced"]) * 1e6
    selfs = {}
    for p in measured(doc):
        if p["traced"]:
            for k, us in p["self_us"].items():
                selfs[k] = selfs.get(k, 0.0) + us
    v["trace.coverage_pct"] = 100 * ratio(sum(selfs.values()), wall)
    v["machine.steal_pct"] = primary["steal_pct"]
    for layer in LAYERS:
        v["self_pct." + layer] = 100 * ratio(selfs.get(layer, 0.0), wall)
    return v


# ------------------------------- report -------------------------------


def fmt(v):
    return "n/a (too few samples)" if v is None else "%.6g" % v


def report(args, doc, spec, e2e, issue, layers, nproc, cpus):
    env = doc["env"]
    print("workload %s  seed %d  seconds %g  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("  nproc %d  ocaml %s  node cache %d entries  %s" %
          (nproc, env["ocaml"], env["node_cache_capacity"],
           env["flush_policy"]))
    print("  cpus: %s" % ("load generator %d, forkbase serve %d" % cpus
                          if cpus[0] is not None else "not pinned"))
    print("  CPU time stolen by the hypervisor per timed phase: %s" %
          "  ".join("%s %.1f%%" % (p["name"], p["steal_pct"])
                    for p in doc["phases"]
                    if not p["name"].endswith(".warmup")))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("  end-to-end (BENCHMARK.json):")
    for m in spec["end_to_end"]:
        value, n = e2e[m["name"]]
        print("    %-28s %-22s %-6s n=%d" % (m["name"], fmt(value), m["unit"], n))
    print("  workload metrics:")
    for name, (value, unit, n) in issue.items():
        print("    %-28s %-22s %-6s n=%d" % (name, fmt(value), unit, n))
    if layers is not None:
        print("  per-layer (BENCHMARK.json):")
        for m in spec["per_layer"]:
            print("    %-34s %-14s %s" % (m["name"], fmt(layers[m["name"]]),
                                         units[m["name"]]))
        print("  layer self time, %% of traced wall time: %s" % "  ".join(
            "%s %.1f" % (l, layers["self_pct." + l]) for l in LAYERS))
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for var in REFUSED_ENV:
        if var in os.environ:
            die("%s is set; the benchmark measures the default environment "
                "— unset %s and run again" % (var, " ".join(REFUSED_ENV)), 2)
    if args.seconds <= 0:
        die("--seconds must be positive", 2)
    root = os.getcwd()
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(root, s))]
    if missing:
        die("run from the root of a ForkBase source checkout (missing: %s)"
            % ", ".join(missing), 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bl.check_spec(spec)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    build(root)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(os.path.join(root, STATE_DIR, "results"), exist_ok=True)
    out = os.path.join(STATE_DIR, "results", tag + ".raw.json")
    chrome = os.path.join(STATE_DIR, "results", tag + ".chrome.json")
    work = os.path.join(STATE_DIR, "work-%d" % os.getpid())
    cpus = cpu_plan()
    doc = run_fbbench(root, args, out, chrome, work, cpus)
    nproc = os.cpu_count() or 0
    e2e = end_to_end(args.workload, doc)
    issue = issue_metrics(args.workload, doc)
    layers = per_layer(args.workload, doc) if args.trace else None
    attempted = sum(p["ops"] for p in doc["phases"])
    failed = sum(p["failed"] for p in doc["phases"])
    values = layers if args.trace else {k: v for k, (v, _) in e2e.items()}
    record = bl.build_result(spec, values, failed == 0, attempted, failed,
                             args.trace)
    bl.check_result(spec, record, args.trace)
    with open(os.path.join(root, STATE_DIR, "results", tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "nproc": nproc, "cpus": cpus, "env": doc["env"],
                   "workload_metrics": issue, "result": record}, f, indent=1)
    report(args, doc, spec, e2e, issue, layers, nproc, cpus)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
