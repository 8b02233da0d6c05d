"""`jkn` as the console script runs it, with the tracer installed.

    python3 benchmarks/cli_shim.py SPANS_FILE REQUEST_ID [jkn arguments...]

Writes the spans to SPANS_FILE when `main` returns or raises, and exits
with `main`'s code, so the exit code and output match an untraced run.
"""

import sys
from pathlib import Path

from tracing import Tracer

if __name__ == "__main__":
    spans_file, request = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    import jkn.cli

    try:
        code = jkn.cli.main(sys.argv[3:])
    finally:
        tracer.dump(Path(spans_file))
    sys.exit(code)
