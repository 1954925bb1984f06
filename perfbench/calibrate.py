"""A fixed amount of pure-Python work that gauges the host's current speed.

Usage: python3 perfbench/calibrate.py

It imports what kgraph_lab imports and then does the kinds of work the
program does (frozen dataclasses hashed into dicts, tuple keys, Fraction
arithmetic, sorting), written here so that no change to the program
changes it.  run.py runs it in a fresh interpreter between jobs, as it
runs the jobs, and divides job times by its time; see run.py.

It prints, as JSON, the seconds its imports took, timed as
setup_probe.py times a job's set-up: set-up is mostly imports, whose
speed on a shared host changes otherwise than that of computation.
"""

import time

T0 = time.perf_counter()
import itertools  # noqa: E402
import json  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy  # noqa: E402,F401  (kgraph_lab imports it; its import is part of a job's start)

IMPORT_S = time.perf_counter() - T0


@dataclass(frozen=True)
class Step:
    src: int
    dst: int
    color: int


def work(rounds=100, n=500):
    """Returns a checksum so that the work cannot be skipped."""
    check = 0
    for r in range(rounds):
        table = {}
        weight = Fraction(0)
        for i in range(n):
            s = Step(i % 37, (i * 7 + r) % 41, i % 2)
            table[(s.src, s.dst, s.color)] = s
            weight += Fraction(s.dst + 1, s.src + 2) * Fraction(1, 2 + s.color)
        path = tuple(sorted(table.values(), key=lambda s: (s.color, s.dst, s.src)))
        pairs = sum(1 for a, b in itertools.combinations(path[:60], 2) if a.dst < b.dst)
        check += pairs + len(json.dumps(str(weight)))
    return check


if __name__ == "__main__":
    work()
    print(json.dumps({"import_s": IMPORT_S}))
