"""One traced ``char2conf`` command, for the cli workload's traced run.

    BENCH_TRACE_OUT=trace.json python3 bench/cli_child.py table

Behaves like ``python -m char2conf.cli`` with the same arguments, but runs
the command under the benchmark's tracer and writes the tracer snapshot,
with its span records, to the file named by $BENCH_TRACE_OUT.
$BENCH_REQUEST, when set, tags the spans with the caller's request id.
"""

import json
import os
import sys

import char2conf.cli

import layers
from tracer import Tracer


def main():
    tracer = Tracer(layers.MEASURES, layers.LABELS).install()
    tracer.request = os.environ.get("BENCH_REQUEST")
    try:
        code = char2conf.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["span_records"] = list(tracer.span_records())
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
