"""Run one `ringcat` CLI verb with tracing; used by the cli workload's
traced passes.

    python3 perfbench/clichild.py SPANS_FILE VERB_ARGS...

Behaves like `python3 -m ringcat.cli VERB_ARGS...` (same stdout and exit
code), and writes the spans of the import and of every traced library
call to SPANS_FILE as JSON when the verb ends.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import ringcat.cli

    tracer.span("import.ringcat_cli", t0, time.perf_counter())
    tracer.install()
    try:
        return ringcat.cli.main(argv)
    finally:
        with open(spans_file, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
