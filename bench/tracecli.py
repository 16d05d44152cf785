"""Run one coverideal command with the layer tracer installed.

Usage: python3 bench/tracecli.py TRACE_JSON COMMAND ARGS...

Behaves like `coverideal COMMAND ARGS...` (same output and exit code, an
uncaught exception included) and writes the tracer's totals to TRACE_JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from coverideal import cli

    try:
        return cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
