"""Hopf algebra of coordinate maps for the output-feedback group.

A coordinate map picks out one coefficient of a vector-valued series:
channel i, word eta.  It is the same generator as the circle tree i:eta:
`CoordMap` is `trees.Rct`, whose `channel` reads the root, so the two
algebras share one generator type, one `degree`/`mono_degree` and one
antipode memo table, and differ only in the formatter each side prints
with (`a[1;0.0]` here, `1:0.0` in `hopf`).  The coproduct here is *not*
computed through extraction combinatorics; it is built from the three
recursions on the prepend operators (deshuffle coproduct, then the
feedback coproduct, then the full one), which give its terms already
combined.  `hopf` reads its coproduct from `reduced_terms`, and both
recursive antipodes and its raw counts from `reduced_items` and
`_antipode`, as they are; the extraction sum `hopf.extraction_coproduct`
and the forest formula are the independent references they are checked
against.

Tensor values share the monomial-pair convention of `hopf`: keys are
(left monomial, right monomial) with single-map monomials of length 1.

The memo tables here follow the interning rule of `lincomb`: they hold
maps as generator ids (`trees.gen_id`) and monomials as prime-product
keys.  `_tilde_items` is keyed by (channel, word, m) and holds (left id,
right-leg key, coefficient) terms, a new leg's key being its tail leg's
times the new map's prime (`lincomb.key_times`); the one antipode table
`_antipode` is keyed by (id, m, side) and holds polynomials keyed by
keys, so each of the recursions' many products is one int
multiplication.  Maps appear only where a result leaves: `tilde_terms`,
`reduced_terms`, the deltas and `antipode` decode the ids through
`trees.GENS` and the keys through `trees.decode_key`, the one memo of
decoded monomials, on every read.  So a warm read pays one lookup per
monomial and a fresh dict, on purpose: a decoded copy kept beside each
entry would hold every table twice.  Measured on a 2-vCPU shared host
with Python 3.11, a warm `antipode` read costs about 0.25 us per
monomial (0.095 ms for the 390 of a[1;0.0.0.0.0.0] at m=1, 2.7 ms for
the 7,579 at degree 19) and a warm `tilde_terms` read about 0.2 us per
term (18-20 ms for the 86,874 terms of the 3,362 maps of degree <= 9 at
m=2).
"""

from __future__ import annotations

from collections import Counter

from . import lincomb
from .lincomb import LinComb, format_monomial, key_times, memo
from .trees import GENS, Rct, decode_key, gen, gen_id
from .trees import degree, mono_degree  # one grading for both spellings
from .words import Word, format_word, parse_word

CoordMap = Rct

CMono = tuple[CoordMap, ...]

UNIT: CMono = ()


def _deshuffle_splits(word: Word) -> dict[tuple[Word, Word], int]:
    """{(u, v): count} of the ordered subword pairs, in the order of the bitmask sent to v."""
    splits = [((), ())]
    for letter in word:
        splits = [(u + (letter,), v) for u, v in splits] + [(u, v + (letter,)) for u, v in splits]
    return Counter(splits)


def deshuffle_coproduct(a: CoordMap, j: int) -> LinComb:
    """Split a's word into ordered subword pairs; the right legs live on channel j."""
    return LinComb({((gen(a.channel, u),), (gen(j, v),)): k
                    for (u, v), k in _deshuffle_splits(a.word).items()})


@memo
def _tilde_items(channel: int, word: Word, m: int) -> tuple[tuple[int, int, int], ...]:
    """Feedback coproduct terms (left map id, key of the right leg,
    coefficient) by the prepend recursion, one plain-dict update per term;
    no positive coefficient cancels, so the terms keep the order they are
    first met in, and the left-primitive term (id of a, 1, 1), met first,
    stays first."""
    if not word:
        return ((gen_id(channel, ()), 1, 1),)
    head, tail = word[0], word[1:]
    # prepending any letter acts on the left leg, which stays on `channel`
    acc = {(gen_id(channel, (head,) + GENS[left].word), right): coeff
           for left, right, coeff in _tilde_items(channel, tail, m)}
    get = acc.get
    if head == 0:
        # the integrator letter additionally couples to a deshuffle of the
        # tail, whose map joins the right leg: one more prime in its key
        splits = _deshuffle_splits(tail).items()
        for n in range(1, m + 1):
            for (u, v), dcoeff in splits:
                vid = gen_id(n, v)
                for left, right, coeff in _tilde_items(channel, u, m):
                    key = (gen_id(channel, (n,) + GENS[left].word), key_times(right, vid))
                    acc[key] = get(key, 0) + coeff * dcoeff
    return tuple((left, right, coeff) for (left, right), coeff in acc.items())


def reduced_items(i: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """The tilde id terms of the map with id `i` less the left-primitive one,
    which comes first (it is the only term whose right leg is the unit 1):
    the reduced coproduct every recursion and raw count reads."""
    a = GENS[i]
    return _tilde_items(a.channel, a.word, m)[1:]


def tilde_terms(a: CoordMap, m: int) -> tuple[tuple[CoordMap, CMono, int], ...]:
    """The combined terms (left single map, right monomial, coefficient) of
    tilde_delta(a, m), the table's id terms as shared maps and monomials."""
    return tuple((GENS[left], decode_key(right), k)
                 for left, right, k in _tilde_items(a.channel, a.word, m))


def tilde_delta(a: CoordMap, m: int) -> LinComb:
    """Coproduct dual to the modified composition product."""
    return LinComb({((left,), right): coeff for left, right, coeff in tilde_terms(a, m)})


def reduced_delta(a: CoordMap, m: int) -> LinComb:
    """The reduced coproduct: the tilde terms less the left-primitive one.
    The terms are combined and nonzero, so one dict build takes them as they
    are; `hopf.reduced_coproduct` is this function."""
    return LinComb({((left,), right): coeff for left, right, coeff in reduced_terms(a, m)})


def full_delta(a: CoordMap, m: int) -> LinComb:
    """Coproduct dual to the group product: the reduced terms, then both
    primitive ones; `hopf.coproduct` is this function."""
    out = reduced_delta(a, m)
    out[(a,), UNIT] = 1
    out[UNIT, (a,)] = 1
    return out


def reduced_terms(a: CoordMap, m: int) -> tuple[tuple[CoordMap, CMono, int], ...]:
    """The tilde terms of `a` less the left-primitive one, decoded as in
    `tilde_terms`: the reduced coproduct as shared maps and monomials."""
    return tilde_terms(a, m)[1:]


@memo
def _antipode(i: int, m: int, side: str) -> LinComb:
    """The one antipode table of the package: trees and coordinate maps
    are one generator type, so `hopf` reads the same entries.  An entry is
    the antipode of the map with id `i`, keyed by prime-product keys whose
    ids the step records in the `lincomb` key store; the step reads the
    reduced id terms as they are."""
    return lincomb.antipode_step(i, reduced_items(i, m), side, lambda j: _antipode(j, m, side))


def antipode(a: CoordMap, m: int, side: str = "right") -> LinComb:
    return LinComb({decode_key(key): k for key, k in _antipode(gen_id(*a), m, side).items()})


# ---------------------------------------------------------------------------
# bijection with circle trees: the identity, since both spellings are one
# type; kept because bench/worker.py calls these two


def to_coord_map(c: Rct) -> CoordMap:
    return c


def tree_poly_to_coord(p: LinComb) -> LinComb:
    return p


# ---------------------------------------------------------------------------
# text format


def format_coord_map(a: CoordMap) -> str:
    return f"a[{a.channel};{format_word(a.word)}]"


def parse_coord_map(text: str, m: int | None = None) -> CoordMap:
    text = text.strip()
    if not (text.startswith("a[") and text.endswith("]")):
        raise ValueError(f"malformed coordinate map {text!r}")
    inner = text[2:-1]
    if ";" not in inner:
        raise ValueError(f"malformed coordinate map {text!r}")
    channel_text, word_text = inner.split(";", 1)
    try:
        channel = int(channel_text)
    except ValueError as exc:
        raise ValueError(f"malformed channel in {text!r}") from exc
    if m is None and channel < 1:
        raise ValueError(f"channel {channel} must be >= 1")
    if m is not None and not 1 <= channel <= m:
        raise ValueError(f"channel {channel} outside 1..{m}")
    return gen(channel, parse_word(word_text, m))


def format_cmono(mono: CMono) -> str:
    return format_monomial(mono, format_coord_map)


def format_poly(p: LinComb) -> str:
    return lincomb.format_poly(p, format_coord_map)
