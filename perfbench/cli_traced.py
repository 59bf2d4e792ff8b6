"""Run one jamgame CLI command with every layer traced.

    python perfbench/cli_traced.py SPANS_JSON -- jamgame-args...

Behaves like ``python -m jamgame jamgame-args...`` (same stdout, files and
exit code) and writes the spans of the invocation to SPANS_JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_JSON -- ARGS...")
    import jamgame.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", jamgame.cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
