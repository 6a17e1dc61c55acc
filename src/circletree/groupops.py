"""Composition products on series and the output-feedback group.

Four products, all exact and all closed under length truncation:

* compose:      cascade of two series operators;
* mod_compose:  cascade against an identity-shifted right factor;
* hat_compose:  identity-shifted left factor (right factor plain);
* group_product: both factors shifted -- the feedback group product.

The cascade homomorphism treats the integrator channel of the right
factor as the constant 1; the modified one treats it as 0.  Group
inversion evaluates coordinate-map antipodes at the series, which is
what makes the closed antipode formula practically useful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .coordmaps import CoordMap, antipode, full_delta
from .lincomb import LinComb, as_fraction
from .series import Series, add, from_channel_polys
from .words import shuffle_polys

_UNIT_POLY = LinComb({(): 1})


def _require_composable(c: Series, d: Series) -> None:
    if d.ell != d.m:
        raise ValueError("right factor must be square (ell == m)")
    if c.m != d.m:
        raise ValueError(f"alphabet mismatch: left m={c.m}, right m={d.m}")


def _fold_word(word, d_polys, max_len: int, modified: bool) -> LinComb:
    """Image of one word under the (modified) cascade homomorphism, applied to 1."""
    acc = _UNIT_POLY
    for letter in reversed(word):
        out = LinComb()
        if modified:
            for w, coeff in acc.items():
                if len(w) + 1 <= max_len:
                    out.add_term((letter,) + w, coeff)
            d_i = d_polys.get(letter) if letter != 0 else None  # integrator channel is 0
        else:
            d_i = d_polys.get(letter) if letter != 0 else _UNIT_POLY
        if d_i:
            for w, coeff in shuffle_polys(d_i, acc, max_len - 1).items():
                out.add_term((0,) + w, coeff)
        acc = out
        if not acc:
            break
    return acc


def _compose_impl(c: Series, d: Series, modified: bool, max_len: int | None) -> Series:
    _require_composable(c, d)
    length = min(c.max_len, d.max_len) if max_len is None else max_len
    d_polys = {
        ch: LinComb({w: v for w, v in d.channel_poly(ch).items() if len(w) <= length})
        for ch in range(1, d.m + 1)
    }
    cache: dict = {}
    channels = []
    for ch in range(1, c.ell + 1):
        poly = LinComb()
        for word, coeff in c.channel_poly(ch).items():
            image = cache.get(word)
            if image is None:
                image = _fold_word(word, d_polys, length, modified)
                cache[word] = image
            poly.add_comb(image, coeff)
        channels.append(poly)
    return from_channel_polys(channels, c.m, length)


def compose(c: Series, d: Series, max_len: int | None = None) -> Series:
    """Cascade product: left series driven by the outputs of the right one.

    Linear in the left argument; not linear in the right one (a word of
    length k is degree-k in the right factor's channels).
    """
    return _compose_impl(c, d, modified=False, max_len=max_len)


def mod_compose(c: Series, d: Series, max_len: int | None = None) -> Series:
    """Cascade against identity + d."""
    return _compose_impl(c, d, modified=True, max_len=max_len)


def hat_compose(c: Series, d: Series, max_len: int | None = None) -> Series:
    """(identity + left) driven by the right factor: d + compose(c, d)."""
    composed = compose(c, d, max_len)
    return add(d.truncated(composed.max_len), composed)


def group_product(c: Series, d: Series, max_len: int | None = None) -> Series:
    """Series part of the feedback-group product: d + mod_compose(c, d)."""
    if c.ell != c.m:
        raise ValueError("group elements must be square (ell == m)")
    modified = mod_compose(c, d, max_len)
    return add(d.truncated(modified.max_len), modified)


# ---------------------------------------------------------------------------
# characters and inversion


@dataclass(frozen=True)
class Character:
    """Multiplicative evaluation of coordinate-map polynomials at a series."""

    series: Series

    def eval_map(self, a: CoordMap) -> Fraction:
        if len(a.word) > self.series.max_len:
            raise ValueError(
                f"word {a.word} exceeds the series truncation {self.series.max_len}")
        if not 1 <= a.channel <= self.series.ell:
            raise ValueError(f"channel {a.channel} outside 1..{self.series.ell}")
        return self.series.coeff(a.channel, a.word)

    def eval_monomial(self, mono) -> Fraction:
        value = Fraction(1)
        for factor in mono:
            value *= self.eval_map(factor)
            if not value:
                return value
        return value

    def __call__(self, poly) -> Fraction:
        if isinstance(poly, CoordMap):
            return self.eval_map(poly)
        if isinstance(poly, tuple):
            return self.eval_monomial(poly)
        total = Fraction(0)
        for mono, coeff in poly.items():
            total += as_fraction(coeff) * self.eval_monomial(mono)
        return total


def group_inverse(c: Series, max_len: int | None = None) -> Series:
    """Series part of the group inverse: coefficients are antipode evaluations."""
    if c.ell != c.m:
        raise ValueError("group elements must be square (ell == m)")
    length = c.max_len if max_len is None else max_len
    if length > c.max_len:
        raise ValueError(
            f"cannot invert to length {length} from a series truncated at {c.max_len}")
    phi = Character(c)
    m = c.m
    coeffs: dict = {}
    for channel in range(1, m + 1):
        for n in range(length + 1):
            for word in iter_product(range(m + 1), repeat=n):
                value = phi(antipode(CoordMap(channel, word), m))
                if value:
                    coeffs[(channel, word)] = value
    return Series(m, m, length, coeffs)


def convolve(phi: Character, psi: Character, a: CoordMap) -> Fraction:
    """Convolution of two characters on one coordinate map."""
    m = phi.series.m
    if psi.series.m != m:
        raise ValueError("characters live over different alphabets")
    total = Fraction(0)
    for (left, right), coeff in full_delta(a, m).items():
        value = phi.eval_monomial(left)
        if value:
            value *= psi.eval_monomial(right)
        if value:
            total += coeff * value
    return total


def inf_char(c: Series, a: CoordMap, terms: int = 12) -> Fraction:
    """Partial sum of the alternating power series in the picked coefficient."""
    x = Character(c).eval_map(a)
    if not x:
        return Fraction(0)
    total = Fraction(0)
    power = Fraction(1)
    for k in range(1, terms + 1):
        power *= x
        total += power / k if k % 2 else -power / k
    return total


def inf_char_poly(c: Series, poly: LinComb, terms: int = 12) -> Fraction:
    """Linear extension: zero on the unit and on products of two or more maps."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        if len(mono) == 1:
            total += as_fraction(coeff) * inf_char(c, mono[0], terms)
    return total
