"""The library's refusals that no other test reaches, each with its message."""

import pytest

from circletree import coordmaps, groupops, hopf, numeric, series, trees, words
from circletree.coordmaps import CoordMap
from circletree.series import Series

WHITE = trees.Rct(1, (0,))

REFUSALS = {
    "compose-right-not-square": (
        lambda: groupops.compose(Series(1, 2, 2), Series(1, 2, 2)),
        "right factor must be square (ell == m)"),
    "group-product-not-square": (
        lambda: groupops.group_product(Series(1, 2, 2), Series(2, 2, 2)),
        "group elements must be square (ell == m)"),
    "group-inverse-not-square": (
        lambda: groupops.group_inverse(Series(1, 2, 2)),
        "group elements must be square (ell == m)"),
    "character-channel-outside": (
        lambda: groupops.Character(Series(1, 2, 2)).eval_map(CoordMap(2, ())),
        "channel 2 outside 1..1"),
    "convolve-different-alphabets": (
        lambda: groupops.convolve(groupops.Character(Series(1, 1, 2)),
                                  groupops.Character(Series(2, 2, 2)), CoordMap(1, ())),
        "characters live over different alphabets"),
    "stats-unknown-method": (
        lambda: hopf.antipode_stats(WHITE, 1, "bogus"),
        "unknown stats method 'bogus'"),
    "fliess-eval-too-few-channels": (
        lambda: numeric.fliess_eval(Series(1, 2, 1), numeric.Signal([0.0, 1.0], [[0.0, 0.0]])),
        "signal has 1 channels, series needs 2"),
    "left-concat-letter-outside": (
        lambda: series.left_concat(3, Series(1, 2, 2)),
        "letter 3 outside alphabet 0..2"),
    "parse-series-channel-0": (
        lambda: series.parse_series("0 e 1"),
        "channel 0 must be >= 1"),
    "parse-word-negative-letter": (
        lambda: words.parse_word("1.-1"),
        "negative letter index in '1.-1'"),
    "parse-coord-map-without-semicolon": (
        lambda: coordmaps.parse_coord_map("a[1.0]"),
        "malformed coordinate map 'a[1.0]'"),
    "restrict-empty-subset": (
        lambda: trees.restrict(WHITE, (), 1, 1),
        "empty subset"),
    "restrict-subset-out-of-range": (
        lambda: trees.restrict(WHITE, (3,), 1, 1),
        "subset (3,) out of range for word of length 1"),
    "quotient-label-count": (
        lambda: trees.quotient(WHITE, [(1,)], [], 1),
        "one label per subset required"),
    "restrict-label-outside": (
        lambda: trees.restrict(WHITE, (1,), 2, 1),
        "label 2 outside 1..1"),
    "parse-subset-without-braces": (
        lambda: trees.parse_subset("1,2"),
        "malformed subset '1,2'"),
    "parse-subset-empty": (
        lambda: trees.parse_subset("{ }"),
        "empty subset"),
    "parse-subset-repeated-position": (
        lambda: trees.parse_subset("{1,1}"),
        "subset '{1,1}' repeats a position"),
    "quotient-repeated-position": (
        lambda: trees.quotient(trees.Rct(1, (0, 0, 1)), [(1, 1, 2)], [2], 2),
        "subset (1, 1, 2) repeats a position"),
    "restrict-repeated-position": (
        lambda: trees.restrict(trees.Rct(1, (0, 0, 1)), (1, 1, 2), 2, 2),
        "subset (1, 1, 2) repeats a position"),
    "nesting-forest-of-the-empty-family": (
        lambda: trees.build_nesting_forest(WHITE, trees.EMPTY_EXTRACTION),
        "nesting forest needs a nonempty extraction"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
