"""Run ``repro.cli server`` with the benchmark's layer wrappers installed.

Usage: ``python serve_traced.py SPANS_OUT server --store F ...``.  The
spans of this process are written to ``SPANS_OUT`` when the server shuts
down (SIGTERM or SIGINT).  Spans inside pool workers are not recorded.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
