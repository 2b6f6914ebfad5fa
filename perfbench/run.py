#!/usr/bin/env python3
"""Client-path benchmark: builds pb_runner, runs one workload, reports.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library sources and the runner into .bench_build/perfbench
(first run only; later runs find it up to date), then repeats the
workload's scenario in fresh runner processes until S seconds of runs have
elapsed.  Every run is gated (see README.md); the first failing run stops
the benchmark with exit code 1.  The last line of standard output is the
result object; the line before it is a detail record with sample counts,
the environment and the medians of the RunStats counters.

--trace 0 reports the end-to-end metrics, from untraced runs.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics (medians over the traced runs) and the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "pb_runner")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")

WORKLOADS = ("soak-n4-sim", "failover-n4-tcp")
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
# lat_p50_ms: the lower decile of the median latencies of WINDOW_US
# windows with at least WINDOW_OPS ops (end_to_end).
WINDOW_US = 100_000
WINDOW_OPS = 20
# A run is calm when its median latency is at most this multiple of the
# lowest run median (end_to_end).
CALM_FACTOR = 1.5

E2E_UNITS = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "bytes_per_op": "B",
    "msgs_per_op": "count",
    "setup_s": "s",
    "rss_mb": "MB",
}

# Per-layer metrics and their units (README.md explains each).
LAYER_UNITS = {
    "smr.busy_us_per_op": "us",
    "smr.dispatch_us_p50": "us",
    "smr.dispatch_us_p99": "us",
    "smr.calls_per_op": "count",
    "smr.slots_per_op": "count",
    "smr.noop_slot_ratio": "ratio",
    "smr.avg_window": "count",
    "smr.stale_dropped_per_op": "count",
    "smr.future_buffered_per_op": "count",
    "smr.relays_per_op": "count",
    "smr.fetches_per_op": "count",
    "smr.queue_peak": "count",
    "smr.log_peak": "count",
    "smr.admit_us_p50": "us",
    "smr.order_us_p50": "us",
    "smr.order_us_p99": "us",
    "smr.reply_us_p50": "us",
    "ingest.avg_batch": "count",
    "ingest.prologue_jobs_per_op": "count",
    "bft.init_per_op": "count",
    "bft.current_per_op": "count",
    "bft.next_per_op": "count",
    "bft.decide_per_op": "count",
    "bft.bytes_per_op": "B",
    "bft.cert_members_avg": "count",
    "bft.decode_us": "us",
    "bft.encode_us": "us",
    "bft.wf_us": "us",
    "crypto.sha256_us_per_kib": "us/KiB",
    "crypto.verify_us": "us",
    "crypto.verify_hit_us": "us",
    "crypto.cache_hit_rate": "ratio",
    "crypto.verify_misses_per_op": "count",
    "crypto.pool_jobs_per_op": "count",
    "crypto.pool_dispatched_ratio": "ratio",
    "transport.send_us_per_op": "us",
    "transport.dwell_us_p50": "us",
    "transport.dwell_us_p99": "us",
    "transport.to_client_msgs_per_op": "count",
    "tcp.wire_bytes_per_op": "B",
    "tcp.retransmits": "count",
    "tcp.reconnects": "count",
    "client.retries_per_op": "count",
    "client.failovers": "count",
    "client.busy_per_op": "count",
    "client.reply_waste": "ratio",
    "client.failed_ratio": "ratio",
    "client.outage_ms": "ms",
    "fd.suspect_ms": "ms",
    "recovery.state_resps": "count",
    "recovery.state_bytes": "B",
    "recovery.rejoin_ms": "ms",
    "replay.frames": "count",
    "replay.wf_rejected": "count",
    "replay.decode_us_per_op": "us",
    "replay.encode_us_per_op": "us",
    "replay.wf_us_per_op": "us",
    "replay.verify_us_per_op": "us",
    "replay.sha256_us_per_op": "us",
    "trace.ops_traced_ratio": "ratio",
    "trace.ops_tiled_ratio": "ratio",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
    "env.nproc": "count",
    "env.node_threads": "count",
    "env.pool_workers": "count",
    "env.tcp_io_threads": "count",
    "env.tcp_channel_workers": "count",
    "env.threads_peak": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings pb_runner up to date.  False on error."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", BUILD, "--target", "pb_runner",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return os.path.exists(RUNNER)


def run_once(args, trace, spans=None):
    """One scenario in a fresh runner process; returns its JSON record."""
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace else "0"]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.budget_ms:
        cmd += ["--budget-ms", str(args.budget_ms)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("runner printed nothing (exit %d): %s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def pct(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def window_p50s(run):
    """Median latency of the ops each client finished in each WINDOW_US
    window of the run, for windows with at least WINDOW_OPS ops.

    Clients keep one op outstanding and submit the next as soon as one is
    certified, so a client's op i finishes at the sum of its first i+1
    latencies after the run starts.
    """
    windows = {}
    lats = iter(run["latencies_us"])
    for count in run["client_ops"]:
        done = 0
        for _ in range(count):
            lat = next(lats)
            done += lat
            windows.setdefault(done // WINDOW_US, []).append(lat)
    return [pct(v, 0.50) for v in windows.values() if len(v) >= WINDOW_OPS]


def segment_floor(runs, key):
    """Sum over segments of each segment's fastest run (sim only).

    The simulator repeats the same events for the same seed, and the
    runner cuts them into segments of a fixed number of replica calls
    (runner.cpp, SegmentClock), so segment i is the same work in every
    run.  Its fastest run is the one the host disturbed least; summing
    those gives the run's cost with the interference filtered out segment
    by segment, which a whole-run minimum cannot do when no run of a
    second or more is left alone.
    """
    series = [r["segments"][key] for r in runs]
    width = max(len(s) for s in series)
    return sum(min(s[i] for s in series if i < len(s)) for i in range(width))


def end_to_end(runs):
    """End-to-end metrics over a set of untraced runs, and a detail record.

    On a shared 4-vCPU VM, interference from other tenants only ever slows
    a run down, and it comes in episodes of seconds to minutes.  TCP runs
    also settle into one of two modes for their whole length: a calm one,
    and one where every op takes two to three times longer while the
    process burns less CPU (README.md).  So each figure is combined so
    that neither moves it much:

    * lat_p50_ms is the lower decile of the median latencies of the runs'
      100 ms windows (window_p50s): the median latency in the calm moments,
      which short windows find more often than whole runs do;
    * cpu_ms_per_op is the mean over the calm runs, those whose median
      latency is within CALM_FACTOR of the lowest;
    * ops_per_s is all runs' certified ops over all runs' wall time, and
      lat_p99_ms is taken over all runs' pooled latencies: on TCP both are
      set mostly by the failover outage, whose length takes one of a few
      timer-set values per run, so they are pooled to average the mix;
    * on the simulator, whose runs of one seed repeat the same events,
      ops_per_s and cpu_ms_per_op come from segment floors instead (see
      segment_floor);
    * set-up, bytes, messages and memory are medians over all runs.
    """
    cpu = lambda r: r["cpu_s"] * 1e3 / r["certified"]
    lat = [x for r in runs for x in r["latencies_us"]]
    p50 = [pct(r["latencies_us"], 0.50) for r in runs]
    calm = [r for r, m in zip(runs, p50) if m <= CALM_FACTOR * min(p50)]
    windows = [m for r in runs for m in window_p50s(r)] or p50
    med = lambda f: statistics.median(f(r) for r in runs)
    ops_per_s = (sum(r["certified"] for r in runs)
                 / sum(r["wall_us"] for r in runs) * 1e6)
    cpu_ms_per_op = statistics.fmean(cpu(r) for r in calm)
    if "segments" in runs[0]:
        ops = runs[0]["certified"]
        ops_per_s = ops / (segment_floor(runs, "wall_ns") / 1e9)
        cpu_ms_per_op = segment_floor(runs, "cpu_ns") / 1e6 / ops
    return {
        "ops_per_s": ops_per_s,
        "lat_p50_ms": pct(windows, 0.10) / 1e3,
        "lat_p99_ms": pct(lat, 0.99) / 1e3,
        "cpu_ms_per_op": cpu_ms_per_op,
        "bytes_per_op": med(lambda r: r["bytes"] / r["certified"]),
        "msgs_per_op": med(lambda r: r["messages"] / r["certified"]),
        "setup_s": med(lambda r: (r["call_us"] - r["wall_us"]) / 1e6),
        "rss_mb": med(lambda r: r["rss_anon_kb"] / 1024.0),
    }, {"latency_samples": len(lat), "calm_runs": len(calm),
        "latency_windows": len(windows)}


def per_layer(traced, untraced):
    """Per-layer metrics: medians over the traced runs, plus the tracing
    overhead and the environment record."""
    names = sorted(traced[0]["layers"])
    out = {n: statistics.median(r["layers"][n] for r in traced)
           for n in names}
    fast = statistics.median(r["certified"] / r["wall_us"] * 1e6
                             for r in untraced)
    slow = statistics.median(r["certified"] / r["wall_us"] * 1e6
                             for r in traced)
    out["client.outage_ms"] = statistics.fmean(
        max(r["latencies_us"]) / 1e3 for r in untraced)
    out["trace.ops_per_s_untraced"] = fast
    out["trace.ops_per_s_traced"] = slow
    out["trace.overhead_pct"] = (fast / slow - 1.0) * 100.0 if slow else 0.0
    for key, value in traced[-1]["env"].items():
        out["env." + key] = value
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="ops per client (default: the workload's)")
    parser.add_argument("--budget-ms", type=int, default=0,
                        help="wall budget per run (negative control)")
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(TRACES, exist_ok=True)
    spans = os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))

    untraced, traced = [], []
    attempted = failed = 0
    failure = None
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if elapsed >= args.seconds and len(untraced) >= MIN_RUNS and \
                (not args.trace or len(traced) >= MIN_RUNS):
            break
        trace = bool(args.trace) and len(traced) < len(untraced)
        rec = run_once(args, trace, spans if trace else None)
        attempted += rec["scripted"]
        failed += rec["scripted"] - rec["certified"]
        (traced if trace else untraced).append(rec)
        if not rec["ok"]:
            failure = rec
            break

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "runs": len(untraced),
        "traced_runs": len(traced),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "env": (traced or untraced)[-1]["env"],
    }
    if failure is not None:
        detail["violations"] = failure["violations"]
        print(json.dumps(detail))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    # Every numeric RunStats counter, as the median over the untraced runs.
    counters = [r["run_stats"] for r in untraced]
    detail["run_stats"] = {
        key: statistics.median(c[key] for c in counters)
        for key, value in counters[0].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)}
    if args.trace:
        values = per_layer(traced, untraced)
        values["client.failed_ratio"] = detail["failed_ratio"]
        units = LAYER_UNITS
        detail["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        values, sampling = end_to_end(untraced)
        detail.update(sampling)
        units = E2E_UNITS
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
