"""Run the partfact CLI in this process with layer spans recorded.

Usage: ``cli_child.py SPANS_JSON ARGS...`` behaves like
``python -m partfact ARGS...`` and afterwards writes the spans of the
invocation to SPANS_JSON. The traced cli-batch run starts it in place of
``python -m partfact``; ``partfact`` must be importable (PYTHONPATH).
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_out, argv = Path(sys.argv[1]), sys.argv[2:]
    import partfact.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        return partfact.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        spans_out.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
