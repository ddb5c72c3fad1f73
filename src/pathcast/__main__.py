"""The process entry of ``python -m pathcast`` and the ``pathcast`` script.

The freeze skips CPython's exit-time collections of the module graph, which
the OS frees anyway.  It sits here, not in ``cli.main``: ``main`` is the
in-process API, and a freeze there would stop its callers' collections.
"""

import gc
import os
import sys

from .cli import main


def entry() -> int:
    """Run the command in ``sys.argv``; returns the exit code.  A failed
    stdout write is exit 1, with an ``error:`` line unless the pipe closed."""
    try:
        code = main()
        if sys.stdout is not None:  # None where the process started with it closed
            sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:  # so the exit flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
