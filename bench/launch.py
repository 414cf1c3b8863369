"""Run one haloslopes CLI command with spans around its public functions.

Usage: python3 bench/launch.py SPANS_JSON -- COMMAND [ARGS...]

Times the import of haloslopes.cli, installs the tracer, calls
haloslopes.cli.main(ARGS) and writes the span totals to SPANS_JSON, which
lies outside the command's output tree.  Exits with the command's code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer


def main(argv: list) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON -- COMMAND [ARGS...]")
    start = perf_counter()
    import haloslopes.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps({"import_s": import_s, **tracer.dump()}))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
