"""Run one riskchain CLI call under the span tracer.

Usage: python perfbench/clitrace.py SPANS_PATH ARGV...

Stdout and the exit code are the CLI's own.  The spans (an ``import`` span
for loading the CLI module, then one per wrapped call) and the counters are
written to SPANS_PATH as JSON when the call ends.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.begin("import")
    import riskchain.cli
    tracer.end(idx)
    tracer.install()
    try:
        return riskchain.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
