"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
appear; without -s they show up in captured output on failure.
"""

import time
from fractions import Fraction

import suites
from oracles import closed_form_antipodes

from circletree import checks, coordmaps, hopf
from circletree.groupops import group_product
from circletree.series import Series
from circletree.trees import (
    Rct,
    admissible_subsets,
    enumerate_admissible_extractions,
    enumerate_all_extractions,
)

TABLE1_DISTINCT = {1: 2, 2: 6, 3: 17, 4: 50, 5: 139, 6: 390, 7: 1059}


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


def test_criterion_01_table1_distinct_terms():
    hopf.clear_caches()
    counts = {}
    start = time.perf_counter()
    for k in range(1, 8):
        counts[k] = len(hopf.antipode_recursive(Rct(1, (0,) * k), 1, "left"))
    memo_elapsed = time.perf_counter() - start

    hopf.clear_caches()
    start = time.perf_counter()
    raw = len(hopf.antipode_recursive(Rct(1, (0,) * 7), 1, "left", memoize=False))
    raw_elapsed = time.perf_counter() - start

    ok = counts == TABLE1_DISTINCT and raw == 1059 \
        and memo_elapsed < 10.0 and raw_elapsed < 600.0
    report(1, "distinct antipode terms of the all-white trees, m=1", ok,
           f"counts={list(counts.values())}, memo {memo_elapsed:.1f}s, raw {raw_elapsed:.1f}s")


def test_criterion_02_extraction_counts_and_lists():
    families = enumerate_all_extractions(Rct(1, (0, 0, 0)))
    subsets = admissible_subsets(Rct(1, (1, 0, 2, 0)))
    extractions = {
        frozenset(e.subsets)
        for e in enumerate_admissible_extractions(Rct(1, (1, 0, 2, 0)))
    }
    expected_subsets = [(2,), (2, 3), (2, 3, 4), (2, 4), (4,)]
    expected_extractions = {
        frozenset({(2,)}), frozenset({(4,)}), frozenset({(2, 3)}),
        frozenset({(2, 4)}), frozenset({(2, 3, 4)}),
        frozenset({(2,), (4,)}), frozenset({(2, 3), (4,)}),
    }
    ok = len(families) == 26 and subsets == expected_subsets \
        and extractions == expected_extractions
    report(2, "general extraction count 26; published subset/extraction lists", ok,
           f"|families|={len(families)}, subsets={len(subsets)}, extractions={len(extractions)}")


def test_criterion_03_antipode_triple_agreement():
    n1 = checks.check_antipode_agreement(11, 1)
    n2 = checks.check_antipode_agreement(8, 2)
    report(3, "left = right = forest antipode (deg<=11 m=1, deg<=8 m=2)", True,
           f"{n1}+{n2} generators")


def test_criterion_04_forest_cancellation_freeness():
    n1 = checks.check_forest_sign_purity(9, 1)
    n2 = checks.check_forest_sign_purity(9, 2)
    report(4, "forest formula never mixes signs on a monomial (deg<=9)", True,
           f"{n1}+{n2} generators")


def test_criterion_05_hopf_axiom_suite():
    totals = []
    for m in (1, 2):
        totals.append(checks.check_coassociativity(8, m))
        totals.append(checks.check_counit(8, m))
        totals.append(checks.check_grading(8, m))
        totals.append(checks.check_antipode_convolution(8, m))
    report(5, "coassociativity, counit, grading, S*id=id*S=unit (deg<=8)", True,
           f"case counts {totals}")


def test_criterion_06_isomorphism_suite():
    n1 = checks.check_iso_coproduct(8, 1) + checks.check_iso_coproduct(8, 2)
    n2 = checks.check_iso_antipode(8, 1) + checks.check_iso_antipode(8, 2)
    closed = 0
    for m in (1, 2):
        for i in range(1, m + 1):
            for a, expected in closed_form_antipodes(i, m):
                assert coordmaps.antipode(a, m, "left") == expected, a
                assert coordmaps.antipode(a, m, "right") == expected, a
                closed += 1
    six = len(coordmaps.antipode(coordmaps.CoordMap(1, (0, 0)), 1))
    report(6, "coproduct/antipode agree through the bijection; closed antipode forms",
           six == 6, f"{n1}+{n2} generators, {closed} closed forms, |S(a_{{00}})|={six}")


def test_criterion_07_group_worked_example():
    c = Series(2, 2, 4, {(1, (2,)): 1})
    d = Series(2, 2, 4, {(2, (1,)): 1})
    got = group_product(c, d)
    expected = {(1, (2,)): Fraction(1), (1, (0, 1)): Fraction(1), (2, (1,)): Fraction(1)}
    report(7, "worked feedback-group product", got.coeffs == expected,
           f"{sorted(got.coeffs)}")


def test_criterion_08_group_properties_randomized():
    trials = suites.check_group_axioms(trials=20, m=2, max_len=4)
    report(8, "associativity and two-sided inverses, 20 random triples", trials == 20)


def test_criterion_09_modified_composition_identities():
    trials = suites.check_mod_compose_identities(trials=50)
    report(9, "modified-composition prepend and nesting identities, 50 trials",
           trials == 50)


def test_criterion_10_prelie_suite():
    n_pre = suites.check_prelie_identity(4, 2, random_trials=100)
    n_jac = suites.check_jacobi(4, 2, random_trials=100)
    suites.check_duality(6, 2)
    n_co = checks.check_copre_lie(7, 1) + checks.check_copre_lie(7, 2)
    report(10, "pre-Lie identity, Jacobi, pairing duality, co-pre-Lie relation", True,
           f"{n_pre} + {n_jac} triples, co-pre-Lie on {n_co} generators")


def test_criterion_11_convolution_matches_group_product():
    trials = suites.check_convolution(trials=20, word_bound=3)
    report(11, "character convolution equals group-product coefficients", trials == 20)


def test_criterion_12_numeric_identities():
    start = time.perf_counter()
    records = suites.check_numeric(N=2000, tol=1e-6, ratio_lo=3.2, ratio_hi=4.8)
    elapsed = time.perf_counter() - start
    worst = max(rec.final_deviation for rec in records)
    report(12, "numeric shuffle/cascade/group identities at N=2000",
           elapsed < 30.0, f"max deviation {worst:.2e}, {elapsed:.1f}s")
