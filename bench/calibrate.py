"""A fixed slice of pure-Python work that gauges how fast the host runs now.

    python3 bench/calibrate.py

Prints the wall time of one pass as a JSON number.  bench/run.py runs it in
a fresh process after every job and scales the run's times by the reference
pass time over the run's median pass time.  On a shared host the speed of a
core drifts by up to a fifth over minutes; the jobs and the passes of one
run see the same drift, so the ratio holds where the raw times do not.  The
work is the kind the library does (exact fractions, tuples, a dict keyed by
tuples that grows to some 30 MB, as the memo tables do) and imports nothing
from circletree, so no change to the program moves it.
"""

import json
from fractions import Fraction
from time import perf_counter


def main() -> None:
    start = perf_counter()
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 90000):
        total += Fraction((-1) ** i, i % 89 + 1)
        key = (i % 30011, (i * 7) % 13)
        table[key] = table.get(key, ()) + ((i, total.denominator % 17),)
    print(json.dumps(perf_counter() - start))


if __name__ == "__main__":
    main()
