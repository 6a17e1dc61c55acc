"""One job of a library workload, run in a fresh interpreter by bench/run.py.

    python3 bench/worker.py <workload> <input-dir> [--trace] [--setup-only]

Set-up (importing circletree and parsing the generated inputs) ends at the
first timed call.  The job is the workload's fixed call sequence; its
outputs are checked afterwards, outside the timed region.  With --trace
every call into the library goes through a span that sums its wall time
and call count, and term counts are taken from the results.  Untraced
jobs make the same calls in the same order.  The result is one JSON
object on stdout.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations, product
from pathlib import Path
from time import perf_counter

class Tracer:
    """Sums wall time and calls per span name; counts accumulate per name."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        start = perf_counter()
        out = fn(*args)
        elapsed = perf_counter() - start
        span = self.spans.setdefault(name, [0.0, 0])
        span[0] += elapsed
        span[1] += 1
        return out

    def count(self, name, value) -> None:
        """Add to a term count; `value` is a thunk so untraced jobs skip it."""
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + value()

    def maximum(self, name, value) -> None:
        if self.on:
            self.counts[name] = max(self.counts.get(name, value), value)


# ---------------------------------------------------------------------------
# antipode-sweep


def sweep_setup(inputs: Path, tr: Tracer):
    from circletree.trees import parse_rct

    items = []
    for line in (inputs / "trees.txt").read_text().splitlines():
        m_text, rct_text = line.split()
        m = int(m_text)
        items.append((parse_rct(rct_text, m), m))
    return items


def sweep_job(items, tr: Tracer):
    from circletree import coordmaps, hopf, trees

    results = []
    for c, m in items:
        general = tr.call("trees.enumerate_all_extractions", trees.enumerate_all_extractions, c)
        admissible = tr.call("trees.enumerate_admissible_extractions",
                             trees.enumerate_admissible_extractions, c)
        coproduct = tr.call("hopf.coproduct", hopf.coproduct, c, m)
        default = tr.call("hopf.antipode.default", hopf.antipode, c, m)
        right = tr.call("hopf.antipode.right", hopf.antipode_recursive, c, m, "right")
        forest = tr.call("hopf.antipode.forest", hopf.antipode_forest, c, m)
        stats = tr.call("hopf.antipode_stats.left", hopf.antipode_stats, c, m, "recursive_left")
        a = coordmaps.to_coord_map(c)
        coord_left = tr.call("coordmaps.antipode.left", coordmaps.antipode, a, m, "left")
        coord_right = tr.call("coordmaps.antipode.right", coordmaps.antipode, a, m, "right")

        tr.count("trees.enumerate_all_extractions.families", lambda: len(general))
        tr.count("trees.enumerate_admissible_extractions.families", lambda: len(admissible))
        tr.count("hopf.coproduct.terms", lambda: len(coproduct))
        tr.count("hopf.antipode.distinct", lambda: len(default))
        tr.count("hopf.antipode.forest.generated", forest.coeff_mass)
        tr.count("hopf.antipode_stats.left.generated", lambda: stats.generated)
        tr.count("hopf.antipode_stats.left.cancelled_mass", lambda: stats.cancelled_mass)
        # Keep only what the checks need: the degree-13 family list alone holds 9,366 entries.
        results.append({
            "families": len(general),
            "general": general if m > 1 or len(c.word) == 3 else None,
            "default": default, "right": right, "forest": forest, "stats": stats,
            "coord_left": coord_left, "coord_right": coord_right,
        })
    return results


def _brute_general_families(c):
    """Oracle: every set of admissible subsets with distinct minima, pairwise disjoint or nested."""
    from circletree.trees import admissible_subsets

    subsets = admissible_subsets(c)
    out = set()
    for size in range(len(subsets) + 1):
        for family in combinations(subsets, size):
            sets = [set(s) for s in family]
            if len({s[0] for s in family}) != size:
                continue
            if all(a.isdisjoint(b) or a < b or b < a for a, b in combinations(sets, 2)):
                out.add(tuple(sorted(family)))
    return out


def sweep_check(items, results, checks) -> None:
    from circletree import coordmaps
    from circletree.trees import format_rct
    from run import TABLE1

    ladder = [r for (c, m), r in zip(items, results) if m == 1 and set(c.word) == {0}]
    checks.expect([len(r["default"]) for r in ladder] == list(TABLE1[:len(ladder)]),
                  "Table-1 distinct counts")
    for (c, m), r in zip(items, results):
        name = format_rct(c)
        checks.expect(r["default"] == r["right"] == r["forest"], f"tree antipodes agree on {name}")
        coord = coordmaps.tree_poly_to_coord(r["default"])
        checks.expect(r["coord_left"] == r["coord_right"] == coord,
                      f"coordinate-map antipodes agree with the tree side on {name}")
        # One forest term per (family, labelling); none of them may cancel.
        label_mass = (r["families"] if m == 1
                      else sum(m ** len(e.subsets) for e in r["general"]))
        checks.expect(r["forest"].coeff_mass() == label_mass,
                      f"forest formula never cancels on {name}")
        stats = r["stats"]
        checks.expect(stats.distinct == len(r["default"])
                      and stats.generated - stats.cancelled_mass == r["default"].coeff_mass(),
                      f"left-recursion statistics on {name}")
        if m == 1 and len(c.word) == 3:
            got = {tuple(sorted(e.subsets)) for e in r["general"]}
            checks.expect(len(r["general"]) == 26 and got == _brute_general_families(c),
                          f"the 26 general families of {name}")


# ---------------------------------------------------------------------------
# feedback-group


def feedback_setup(inputs: Path, tr: Tracer):
    from circletree import numeric, series

    def load(stem, max_len):
        text = tr.call("series.parse", series.parse_series,
                       (inputs / f"{stem}.series").read_text(), 2, 2, max_len)
        doc = tr.call("series.parse", series.loads_json, (inputs / f"{stem}.json").read_text())
        return text, doc

    manifest = json.loads((inputs / "manifest.json").read_text())
    loaded = {stem: load(stem, max_len)
              for max_len, stems in manifest.values() for stem in stems}
    signal = numeric.Signal.from_functions(numeric.standard_inputs(), 1.0, 2000)
    return manifest, loaded, signal


def feedback_job(state, tr: Tracer):
    from circletree import groupops, numeric, series
    from circletree.coordmaps import CoordMap

    manifest, loaded, signal = state
    group = [loaded[s][0] for s in manifest["group"][1]]
    out = {"triples": [], "inverses": [], "convolve": [], "deviation": []}
    for a, b, c in zip(group, group[1:], group[2:]):
        tr.call("groupops.compose", groupops.compose, a, b)
        tr.call("groupops.mod_compose", groupops.mod_compose, a, b)
        hat = tr.call("groupops.hat_compose", groupops.hat_compose, a, b)
        shuffled = tr.call("series.shuffle_product", series.shuffle_product, a, b)
        ab = tr.call("groupops.group_product", groupops.group_product, a, b)
        bc = tr.call("groupops.group_product", groupops.group_product, b, c)
        left = tr.call("groupops.group_product", groupops.group_product, ab, c)
        right = tr.call("groupops.group_product", groupops.group_product, a, bc)
        text = tr.call("series.format", series.format_series, left)
        doc = tr.call("series.format", series.dumps_json, right)
        tr.count("groupops.group_product.terms",
                 lambda: sum(len(s.coeffs) for s in (ab, bc, left, right)))
        out["triples"].append((a, b, ab, hat, shuffled, left, right, text, doc))

    for stem in manifest["invert"][1]:
        s = loaded[stem][0]
        inverse = tr.call("groupops.group_inverse", groupops.group_inverse, s)
        tr.count("groupops.group_inverse.words",
                 lambda: s.m * sum((s.m + 1) ** n for n in range(s.max_len + 1)))
        tr.count("groupops.group_inverse.terms", lambda: len(inverse.coeffs))
        out["inverses"].append((s, inverse))

    phi, psi = groupops.Character(group[0]), groupops.Character(group[1])
    for n in range(5):
        for word in product(range(3), repeat=n):
            for channel in (1, 2):
                a = CoordMap(channel, word)
                out["convolve"].append((a, tr.call("groupops.convolve", groupops.convolve,
                                                   phi, psi, a)))

    numeric_stems = manifest["numeric"][1]
    for c_stem, d_stem in zip(numeric_stems[::2], numeric_stems[1::2]):
        c, d = loaded[c_stem][0], loaded[d_stem][0]
        tr.call("numeric.fliess_eval", numeric.fliess_eval, c, signal)
        dev = tr.call("numeric.identity_deviation", numeric.identity_deviation,
                      "group", c, d, signal)
        tr.maximum("numeric.identity_deviation.max", dev)
        out["deviation"].append(dev)
    return out


def feedback_check(state, out, checks) -> None:
    from circletree import groupops, series

    _manifest, loaded, _signal = state
    for stem, (text, doc) in loaded.items():
        checks.expect(text == doc, f"text and JSON forms of {stem} parse alike")
    for a, b, ab, hat, shuffled, left, right, text, doc in out["triples"]:
        checks.expect(left.coeffs == right.coeffs, "group product is associative")
        checks.expect(series.parse_series(text, 2, 2, left.max_len) == left
                      and series.loads_json(doc) == right, "formatted series parse back")
        checks.expect(hat == series.add(b.truncated(hat.max_len), groupops.compose(a, b)),
                      "hat_compose is b + compose(a, b)")
        checks.expect(shuffled == series.shuffle_product(b, a), "shuffle product commutes")
    for s, inverse in out["inverses"]:
        checks.expect(groupops.group_product(s, inverse).is_zero()
                      and groupops.group_product(inverse, s).is_zero(),
                      "c.c^-1 = c^-1.c = 0")
    product_01 = out["triples"][0][2]
    for a, value in out["convolve"]:
        checks.expect(value == product_01.coeff(a.channel, a.word),
                      f"convolve equals the group-product coefficient at {a}")
    for dev in out["deviation"]:
        checks.expect(dev <= 1e-6, f"group identity deviation {dev:.3e} <= 1e-6 at N=2000")


WORKLOADS = {
    "antipode-sweep": (sweep_setup, sweep_job, sweep_check),
    "feedback-group": (feedback_setup, feedback_job, feedback_check),
}


def main(argv: list[str]) -> int:
    workload, inputs = argv[0], Path(argv[1])
    tr = Tracer("--trace" in argv)
    setup, job, check = WORKLOADS[workload]
    import circletree  # noqa: F401  (set-up includes the package import)

    state = setup(inputs, tr)
    start = perf_counter()
    report = {"start": start}
    if "--setup-only" not in argv:
        out = job(state, tr)
        report["job_s"] = perf_counter() - start
        from run import Tally  # after the timed region: keeps set-up free of bench imports

        checks = Tally()
        check(state, out, checks)
        report.update(attempted=checks.attempted, failed=checks.failed,
                      spans=tr.spans, counts=tr.counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the memo tables takes up to 0.4 s a
    # job, which nothing measures and which would leave fewer jobs in a run.
    os._exit(code)
