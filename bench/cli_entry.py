"""Run the circletree command line as its console script does.

    python3 bench/cli_entry.py <circletree arguments>

With BENCH_SPANS=<file> in the environment, the wall time and call count
of prelie.prelie_product inside the command are written to that file as
a JSON pair; the command's output does not change.
"""

import json
import os
import sys
from time import perf_counter

from circletree import cli, prelie


def main() -> int:
    path = os.environ.get("BENCH_SPANS")
    if not path:
        return cli.main()
    span = [0.0, 0]
    inner = prelie.prelie_product

    def timed(*args):
        start = perf_counter()
        try:
            return inner(*args)
        finally:
            span[0] += perf_counter() - start
            span[1] += 1

    prelie.prelie_product = timed
    try:
        return cli.main()
    finally:
        with open(path, "w") as handle:
            json.dump(span, handle)


if __name__ == "__main__":
    sys.exit(main())
