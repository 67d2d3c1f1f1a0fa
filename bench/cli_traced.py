"""Run one lusinkit command with the tracing wrappers installed.

Usage: python3 bench/cli_traced.py SPANS_JSON ARGS...

Runs ``lusinkit ARGS...`` in this fresh interpreter, writes the recorded
spans to SPANS_JSON and exits with the command's status.
"""

import json
import sys

import lusinkit.cli
from tracing import Tracer, install


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return lusinkit.cli.main(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
