"""Traced stand-in for ``python -m magiclab.cli`` in the cli workload.

    python perfbench/cli_shim.py SPANS_FILE [magiclab.cli arguments...]

Times ``import magiclab.cli``, wraps the package functions listed in
``tracing.py`` and the CLI subcommands, runs ``magiclab.cli.main`` on the
remaining arguments, writes the spans to SPANS_FILE as JSON and exits with
the CLI's exit code.  Standard output is the CLI's own.
"""

import json
import sys

from tracing import CLI_TARGETS, TARGETS, Tracer, now_ns


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = now_ns()
    import magiclab.cli

    tracer.add_span("cli.import", start, now_ns())
    tracer.install(TARGETS + CLI_TARGETS)
    try:
        code = magiclab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump({"spans": list(tracer.records()), "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
