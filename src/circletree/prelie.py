"""Right pre-Lie product on decorated circle trees.

One tree is inserted into another at every internal vertex whose
decoration matches the inserted tree's root label: the insertion vertex
is redecorated with the integrator letter and the suffix after it is
shuffled into the inserted tree's word.  The output keeps the outer
root.  Antisymmetrising gives a Lie bracket; the product is dual to the
single-subset part of the coproduct.
"""

from __future__ import annotations

from .lincomb import LinComb, memo
from .trees import Rct, gen
from .words import shuffle


@memo
def _prelie_items(c: Rct, d: Rct) -> tuple[tuple[Rct, int], ...]:
    out = LinComb()
    word = c.word
    for idx, letter in enumerate(word):
        if letter != d.root:
            continue
        prefix = word[:idx] + (0,)
        for tail, mult in shuffle(word[idx + 1:], d.word).items():
            out.add_term(gen(c.root, prefix + tail), mult)
    return tuple(out.items())


def prelie_product(c: Rct, d: Rct) -> LinComb:
    """Sum of insertions of d into c, as a LinComb over single trees."""
    return LinComb(_prelie_items(c, d))


def prelie_combs(p: LinComb, q: LinComb) -> LinComb:
    """Bilinear extension of the product to LinCombs of single trees."""
    out = LinComb()
    for a, ka in p.items():
        for b, kb in q.items():
            out.add_comb(prelie_product(a, b), ka * kb)
    return out


def lie_bracket(c: Rct, d: Rct) -> LinComb:
    return prelie_product(c, d) - prelie_product(d, c)
