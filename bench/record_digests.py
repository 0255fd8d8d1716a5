"""Record the expected output digest of each workload for a range of seeds.

    python3 bench/record_digests.py [--workload NAME] [--seeds 0..49]

Runs one untimed pass per seed, checks every output the way a benchmark
run does, and stores the sha256 digest of the pass in workloads.json.  A
later run with a recorded seed counts every operation as failed when its
digest differs.  Refuses to record a seed whose outputs fail a check.
"""

import argparse
import json
import os
import random
import sys

import workloads
from worker import digest


def one_pass(name, params, seed):
    wl = workloads.WORKLOADS[name](params, seed)
    wl.setup()
    try:
        reqs = wl.requests(random.Random("%s-%d" % (name, seed)))
        outputs = [wl.run(req)[0] for req in reqs]
        for req, out in zip(reqs, outputs):
            problem = wl.check(req, out)
            if problem:
                raise SystemExit("%s seed %d: %s" % (name, seed, problem))
        return digest(outputs)
    finally:
        if hasattr(wl, "close"):
            wl.close()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="0..49", help="lo..hi, inclusive")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    sys.path.insert(0, workloads.SRC)
    records = workloads.load_records()
    for name in args.workload or list(workloads.WORKLOADS):
        digests = records[name]["digests"]
        for seed in range(lo, hi + 1):
            digests[str(seed)] = one_pass(name, records[name]["params"], seed)
            print(name, seed, digests[str(seed)], flush=True)
        records[name]["digests"] = dict(
            sorted(digests.items(), key=lambda kv: int(kv[0])))
    path = os.path.join(workloads.BENCH_DIR, "workloads.json")
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
