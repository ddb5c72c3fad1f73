"""The benchmark's reference work: a fresh interpreter that imports the
stdlib modules pathcast.cli imports, then runs a fixed pure-Python loop of
the kind of work pathcast does per point (float math, a small object, dict
lookups and string formatting).

    python3 bench/reference.py ROUNDS

run.py times the whole process, from spawn to exit, next to every batch of
operations.  Like a pathcast command, it pays interpreter start-up, imports
and compute, so a change of machine speed moves it as it moves the command.
"""

import argparse  # noqa: F401
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import importlib.resources  # noqa: F401
import io  # noqa: F401
import json  # noqa: F401
import math
import sys


class Row:
    __slots__ = ("d", "loss")

    def __init__(self, d, loss):
        self.d, self.loss = d, loss


def loop(rounds):
    coeff = {"a": 46.3, "b": 33.9, "c": 13.82, "d": 44.9, "e": 6.55}
    log10 = math.log10
    rows = []
    for i in range(1, rounds + 1):
        d = i * 0.37
        loss = (coeff["a"] + coeff["b"] * log10(1800.0) - coeff["c"] * log10(30.0)
                + (coeff["d"] - coeff["e"] * log10(30.0)) * log10(d))
        rows.append(Row(d, loss))
    return "\n".join(f"{r.d:.1f},{r.loss:.2f}" for r in rows)


if __name__ == "__main__":
    loop(int(sys.argv[1]))
