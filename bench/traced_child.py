"""Run one pathcast CLI command with the tracer installed.

    python3 bench/traced_child.py TRACE_OUT ARGV...

Times the import of pathcast.cli, wraps the traced names, calls
``pathcast.cli.main(ARGV)``, copies the command's stdout through unchanged and
writes the spans, totals and stdout byte count to TRACE_OUT as JSON.  The exit
code is the command's.
"""

import importlib
import io
import json
import sys
from contextlib import redirect_stdout

import tracing


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    cli = tracer.span("cli.import", importlib.import_module, "pathcast.cli")
    tracer.install()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = tracer.span("op", cli.main, argv)
    text = buffer.getvalue()
    sys.stdout.write(text)
    sys.stdout.flush()
    dump = tracer.dump()
    dump["stdout_bytes"] = len(text.encode("utf-8"))
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
