"""Traced stand-in for ``python -m dutchbook.cli`` in the cli-samples workload.

Usage: python bench/child.py SPANS_OUT CLI_ARG...

Times the import of `dutchbook.cli` and the call of its `main`, with the
same module wrappers as the in-process workloads, then writes the spans to
SPANS_OUT and exits with `main`'s code.  Standard output is untouched, so
the report can be checked exactly as in the untraced run.
"""

import sys

from tracing import Tracer


def run() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import dutchbook.cli
    tracer.install()
    try:
        code = dutchbook.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(run())
