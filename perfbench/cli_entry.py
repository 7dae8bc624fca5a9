"""Traced ``framesphere`` command: install the span wrappers, then run the CLI.

Usage: python3 perfbench/cli_entry.py SPANS_FILE OP_INDEX -- <framesphere args>

Writes the spans, the moment the script started and the moment
``framesphere.cli`` finished importing to SPANS_FILE when the command ends,
and exits with the command's exit code.
"""

import time

ENTERED = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402


def main():
    spans_file, op = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    import framesphere.cli

    imported = time.monotonic()
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = op
    try:
        code = tracer.span("cli.main", framesphere.cli.main, argv)
    finally:
        tracer.dump(spans_file, {"entered": ENTERED, "imported": imported})
    return code


if __name__ == "__main__":
    sys.exit(main())
