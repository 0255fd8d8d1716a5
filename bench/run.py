"""char2conf benchmark: four seeded workloads, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload field|geometry|verify|cli \\
        --seed N --seconds S --trace 0|1

Workloads (parameters and reasons in bench/workloads.json):

* field     seeded batches of GF(2^n) element operations, n in {3, 8, 16}
* geometry  one seeded plane geometry per request, n in {1, 2, 3}, walked
            through confgeo, metric and virtualspace
* verify    oracle.run_suite over fixed (suite, n) pairs
* cli       ``python -m char2conf.cli`` processes, one at a time

Each run is one closed-loop client.  The workload runs in a fresh worker
process (bench/worker.py) against the checkout's own ``src``; set-up is
timed in that process and in a few more that only set up, and the median
is reported.  With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a traced run (see bench/layers.py), and the spans go to .bench-trace/.
The line before it holds details: digest, failures, percentile used for
the tail, sample counts and error rate.

Exit code 0 on a completed run (even with failed operations, which the
result reports), non-zero without a result when the run cannot happen,
for example when there is no ``src/char2conf`` to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads

SETUP_SAMPLES = 7     # fresh processes timed for setup_s, median reported
SPAWN_SAMPLES = 7     # spawns each for cli.interp_s and cli.import_s
WORKER_TIMEOUT = 150  # seconds; a run must end well within 180

END_TO_END_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s",
                    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


def _python(args, timeout):
    return subprocess.run([sys.executable] + args, env=workloads.child_env(),
                          cwd=workloads.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


def _worker(args, timeout):
    proc = _python([os.path.join(workloads.BENCH_DIR, "worker.py")] + args,
                   timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("worker %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spawn_seconds(code):
    t = time.perf_counter()
    proc = _python(["-c", code], 60)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit("spawn of %r failed: %s" % (code, proc.stderr))
    return elapsed


def spawn_costs():
    """Median start-up of a bare interpreter and of one importing the cli."""
    bare, cli = [], []
    for _ in range(SPAWN_SAMPLES):
        bare.append(_spawn_seconds("pass"))
        cli.append(_spawn_seconds("import char2conf.cli"))
    interp = statistics.median(bare)
    return {"cli.interp_s": interp,
            "cli.import_s": statistics.median(cli) - interp}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "char2conf",
                                       "__init__.py")):
        print("no char2conf sources under %s" % workloads.SRC,
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # an untimed set-up first writes the bytecode caches, so that no timed
    # set-up pays for compiling
    _worker(common + ["--setup-only"], 60)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(common + ["--setup-only"], 60)["setup_s"])
    doc = _worker(common + ["--seconds", str(args.seconds),
                            "--trace", str(args.trace)], WORKER_TIMEOUT)
    setups.append(doc["setup_s"])

    if args.trace:
        values = dict(doc["layers"], **spawn_costs())
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values = {name: doc[name] for name in END_TO_END_UNITS
                  if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    details = {k: v for k, v in doc.items() if k != "layers"}
    details.update({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "setup_samples_s": setups,
                    "error_rate": doc["failed"] / doc["attempted"]})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
