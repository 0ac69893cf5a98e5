"""One alphaenergy command under the benchmark's tracer.

Used by traced ``cli`` runs in place of ``python -m alphaenergy.cli``:

    python -X importtime perfbench/cli_child.py <alphaenergy arguments>

It runs ``alphaenergy.cli.main`` with the layer wrappers installed, times
it, and writes one line ``PERFBENCH_TRACE <json>`` to stderr with the
layer self times, the counters and ``cli.main`` time.  An exception still
ends in a traceback and exit code 1, as under ``python -m``.
"""

import json
import sys
import time

import tracer as tracing
from alphaenergy import cli

t = tracing.Tracer()
tracing.install(t)
t0 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    t.self_s["cli.main"] += time.perf_counter() - t0
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(
        {"self_s": t.self_s, "counts": t.counts}) + "\n")
sys.exit(code)
