"""One measured process of the benchmark; bench/run.py starts it.

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Times the workload's set-up from the start of the process, before
char2conf or anything it needs is imported, then repeats the seeded pass
until --seconds have gone by, always ending on a whole pass so that every
request appears equally often.  With --trace 1 the first third of the time
runs untraced and the rest under the tracer, and the traced passes give
the per-layer metrics.

Outputs of the first pass are checked (untimed) and folded into a sha256
digest, compared with the digest recorded for the seed in workloads.json
when there is one; every later pass must reproduce them exactly.  Prints
one JSON object as its last line of standard output.
"""

import time

# setup_s is timed from here: a fresh interpreter that has loaded nothing
# yet, so the standard-library modules char2conf needs are counted too
START = time.perf_counter()

import argparse
import array
import hashlib
import json
import os
import random
import resource
import statistics
import sys

import layers
import workloads
from tracer import Tracer, merge_snapshots, write_spans


# latency_tail_ms is this percentile of request latency; every workload
# completes enough requests in a run to leave at least ten samples beyond it
TAIL_PERCENTILE = 90


def percentile(values, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def digest(outputs):
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Outputs, operation counts and failures across every pass."""

    def __init__(self):
        self.first = []           # outputs of the first pass
        self.ops = []             # operations per request, from the first pass
        self.bad = {}             # request index -> message (first pass)
        self.mismatched_ops = 0   # later passes that differ from the first
        self.mismatches = []
        self.passes = 0

    def record(self, i, out, ops, error):
        if self.passes == 0:
            self.first.append(out)
            self.ops.append(ops or 1)
            if error:
                self.bad[i] = error
        elif i not in self.bad and out != self.first[i]:
            self.mismatched_ops += self.ops[i]
            if len(self.mismatches) < 5:
                self.mismatches.append("pass %d request %d differs from the"
                                       " first pass" % (self.passes + 1, i))

    @property
    def attempted(self):
        return sum(self.ops) * self.passes

    @property
    def failed(self):
        return (sum(self.ops[i] for i in self.bad) * self.passes
                + self.mismatched_ops)


def run_passes(wl, reqs, seconds, ledger, tracer=None):
    """Whole passes until `seconds` have gone by; returns latencies, passes."""
    clock = time.perf_counter
    latencies = array.array("d")
    passes = 0
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = "%d.%d" % (ledger.passes, i)
            t = clock()
            try:
                out, ops = wl.run(req)
                error = None
            except Exception as exc:  # every unexpected raise is a failure
                out, ops = None, None
                error = "%s: %s" % (type(exc).__name__, exc)
            latencies.append(clock() - t)
            ledger.record(i, out, ops, error)
        passes += 1
        ledger.passes += 1
    return latencies, passes


def peak_rss_mb(wl):
    # the cli workload's work happens in its child processes
    who = (resource.RUSAGE_CHILDREN if wl.name == "cli"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    record = workloads.load_records()[args.workload]
    wl = workloads.WORKLOADS[args.workload](record["params"], args.seed)
    wl.setup()  # first import of char2conf happens here
    setup_s = time.perf_counter() - START
    try:
        import char2conf
        if not os.path.abspath(char2conf.__file__).startswith(
                workloads.SRC + os.sep):
            raise SystemExit("char2conf imported from %s, not from %s"
                             % (char2conf.__file__, workloads.SRC))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        doc = measure(wl, args, record)
        doc["setup_s"] = setup_s
        print(json.dumps(doc, sort_keys=True))
        return 0
    finally:
        if hasattr(wl, "close"):
            wl.close()


def measure(wl, args, record):
    reqs = wl.requests(random.Random("%s-%d" % (args.workload, args.seed)))
    ledger = Ledger()
    doc = {}
    if args.trace:
        plain, plain_passes = run_passes(wl, reqs, args.seconds / 3.0, ledger)
        tracer = Tracer(layers.MEASURES, layers.LABELS).install()
        wl.traced = True
        try:
            traced, traced_passes = run_passes(
                wl, reqs, args.seconds * 2.0 / 3.0, ledger, tracer)
        finally:
            tracer.uninstall()
            wl.traced = False
        snapshots = [tracer.snapshot()] + getattr(wl, "snapshots", [])
        merged = merge_snapshots(snapshots)
        doc["layers"] = layers.layer_metrics(merged, traced_passes)
        doc["layers"]["trace.overhead_ratio"] = (
            (sum(traced) / traced_passes) / (sum(plain) / plain_passes))
        doc["spans"] = merged["spans"]
        doc["spans_dropped"] = merged["spans_dropped"]
        out_dir = os.path.join(workloads.ROOT, ".bench-trace")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        records = list(tracer.span_records())
        for snap in getattr(wl, "snapshots", []):
            records.extend(snap["span_records"])
        write_spans(path, records)
        doc["spans_file"] = os.path.relpath(path, workloads.ROOT)
        latencies = plain
    else:
        latencies, _ = run_passes(wl, reqs, args.seconds, ledger)
        doc["peak_rss_mb"] = peak_rss_mb(wl)

    for i, (req, out) in enumerate(zip(reqs, ledger.first)):
        if i not in ledger.bad:
            problem = wl.check(req, out)
            if problem:
                ledger.bad[i] = problem
    doc["digest"] = digest(ledger.first)
    expected = record["digests"].get(str(args.seed))
    doc["expected_digest"] = expected
    digest_ok = expected is None or expected == doc["digest"]
    doc["failures"] = ([ledger.bad[i] for i in sorted(ledger.bad)][:5]
                       + ledger.mismatches
                       + ([] if digest_ok else ["digest mismatch"]))
    doc["attempted"] = ledger.attempted
    # a changed digest means the seed's outputs changed: all of them count
    doc["failed"] = ledger.failed if digest_ok else ledger.attempted
    doc["passes"] = ledger.passes
    doc["requests_per_pass"] = len(reqs)

    lat_ms = [x * 1e3 for x in latencies]
    tail = percentile(lat_ms, TAIL_PERCENTILE)
    n = len(reqs)
    pass_s = [sum(latencies[i:i + n]) for i in range(0, len(latencies), n)]
    doc.update({
        # median pass, so that a burst of load on the machine during one
        # pass does not move the figure
        "throughput_ops_s": sum(ledger.ops) / statistics.median(pass_s),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": tail,
        "tail_percentile": TAIL_PERCENTILE,
        "pass_s": pass_s,
        "latency_samples": len(lat_ms),
        "beyond_tail": sum(1 for x in lat_ms if x > tail),
    })
    return doc


if __name__ == "__main__":
    sys.exit(main())
