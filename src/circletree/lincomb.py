"""Exact linear combinations over an arbitrary hashable basis.

Every symbolic object in this package (word polynomials, circle-tree
polynomials, tensors) is a finite linear combination with integer or
Fraction coefficients.  `LinComb` is a dict from basis element to
coefficient that never stores a zero, so two combinations are equal as
dicts exactly when they are equal as algebraic elements.

The monomial algebra and the antipode step below are shared by the
circle-tree and the coordinate-map algebras.  The step and `poly_mul`,
the hot loops of both antipodes, add each term into a plain dict under
its sorted monomial and drop the zeros once, on return.  Every memo
table of the package is made by `memo`, and every plain store the tables
share or index is passed to `memo_store`; both register it, so that
`clear_caches` empties them all.

Interning rule: a memo table stores one shared object per value.  Every
generator the package builds comes from `trees.gen`, and a monomial that a
table keeps (a right leg of the coproduct terms) passes once through
`intern`; a monomial generated and combined within one call is not
interned, so the unmemoized route does no interning work.  The antipode
table and the forest sum run on small int generator ids (`trees.gen_id`):
an antipode entry is keyed by interned sorted id tuples, and a monomial
leaves the package through `trees.decode`, which hands out one interned
sorted tuple of generators per id tuple.  The interning table, the
numbering's inverse list `trees.GENS` and the decoded monomials are plain
stores that `clear_caches` empties with the tables, so no id outlives the
numbering.  Equal values stay equal whatever object holds them, so a
caller's own generator works as before; shared ones let comparisons and
lookups take the identity shortcut and keep the tables small.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce

_MEMO_TABLES: list = []
_MEMO_STORES: list = []  # plain dicts and lists that live as long as the tables


def memo(fn):
    """Unbounded `lru_cache` of `fn`, registered for `clear_caches`; the values
    it returns are shared, so a caller copies one before mutating it."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMO_TABLES.append(cached)
    return cached


def memo_store(store):
    """Register `store`, a plain dict or list that the memo tables share or
    index, so that `clear_caches` empties it with them; a dict entry costs a
    fraction of an `lru_cache` one, which counts where a store holds one
    entry per stored monomial."""
    _MEMO_STORES.append(store)
    return store


def clear_caches() -> None:
    """Empty every memo table and store of the package, e.g. to time a cold run."""
    for cached in _MEMO_TABLES:
        cached.cache_clear()
    for store in _MEMO_STORES:
        store.clear()


_INTERNED: dict = memo_store({})


def intern(value):
    """The one shared object equal to `value`: the first one met since the
    tables were last cleared."""
    return _INTERNED.setdefault(value, value)


class LinComb(dict):
    """Map basis element -> nonzero exact coefficient (int or Fraction)."""

    __slots__ = ()

    @classmethod
    def single(cls, key, coeff=1) -> "LinComb":
        out = cls()
        if coeff:
            out[key] = coeff
        return out

    def add_term(self, key, coeff) -> None:
        """In-place `self += coeff * key`, dropping the entry if it cancels."""
        if not coeff:
            return
        new = self.get(key, 0) + coeff
        if new:
            self[key] = new
        else:
            del self[key]

    def add_comb(self, other, scale=1) -> None:
        """In-place `self += scale * other`."""
        if not scale:
            return
        for key, coeff in other.items():
            self.add_term(key, scale * coeff)

    def __add__(self, other: "LinComb") -> "LinComb":
        out = LinComb(self)
        out.add_comb(other)
        return out

    def __sub__(self, other: "LinComb") -> "LinComb":
        out = LinComb(self)
        out.add_comb(other, -1)
        return out

    def map_basis(self, fn) -> "LinComb":
        """Apply `fn` to every basis element, combining collisions."""
        out = LinComb()
        for key, coeff in self.items():
            out.add_term(fn(key), coeff)
        return out

    def coeff_mass(self):
        """Sum of absolute values of the coefficients."""
        return sum(abs(v) for v in self.values())


# ---------------------------------------------------------------------------
# commutative monomials: sorted tuples of basis elements, () is the unit;
# shared by the circle-tree and the coordinate-map algebras


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def nonzero(acc: dict) -> LinComb:
    """A plain-dict accumulator as a LinComb, its zeros dropped; most
    accumulators cancel nothing and are copied without a filter pass."""
    return LinComb({key: k for key, k in acc.items() if k} if 0 in acc.values() else acc)


def poly_mul(p: dict, q: dict) -> LinComb:
    out: dict = {}
    get = out.get
    for ma, ka in p.items():
        for mb, kb in q.items():
            key = tuple(sorted(ma + mb))
            out[key] = get(key, 0) + ka * kb
    return nonzero(out)


def counit(p: LinComb):
    return p.get((), 0)


def mono_sort_key(mono: tuple):
    return (len(mono), mono)


def antipode_step(x, reduced_terms, side: str, antipode_of) -> LinComb:
    """S(x) = -x - sum S(l) r (left) or -x - sum l S(r_1)...S(r_n) (right) over
    the (l, r, coeff) terms of the reduced coproduct of x; `antipode_of` gives
    the antipode of a smaller generator, memoized or not, and is only read."""
    if side not in {"left", "right"}:
        raise ValueError(f"side must be left or right, got {side!r}")
    acc = {(x,): -1}
    get = acc.get
    if side == "left":
        for left, right, coeff in reduced_terms:
            for mono, k in antipode_of(left).items():
                key = tuple(sorted(mono + right))
                acc[key] = get(key, 0) - coeff * k
    else:
        products: dict = {}  # S(r_1)...S(r_n), once per right leg; a reduced leg is not 1
        for left, right, coeff in reduced_terms:
            prod = products.get(right)
            if prod is None:
                prod = products[right] = reduce(
                    poly_mul, map(antipode_of, right[1:]), antipode_of(right[0]))
            for mono, k in prod.items():
                key = tuple(sorted((left,) + mono))
                acc[key] = get(key, 0) - coeff * k
    return nonzero(acc)


def antipode_poly(p: LinComb, antipode_of) -> LinComb:
    """Antipode extended multiplicatively to monomials, linearly to polynomials;
    `antipode_of` gives the antipode of one generator."""
    out: dict = {}
    get = out.get
    for mono, coeff in p.items():
        for key, k in reduce(poly_mul, map(antipode_of, mono), {(): 1}).items():
            out[key] = get(key, 0) + coeff * k
    return nonzero(out)


def format_monomial(mono: tuple, format_factor) -> str:
    return "*".join(map(format_factor, mono)) if mono else "1"


def format_poly(p: LinComb, format_factor) -> str:
    """One `monomial coefficient` line per term in canonical order; `0` if empty."""
    lines = [
        f"{format_monomial(mono, format_factor)} {format_rational(p[mono])}"
        for mono in sorted(p, key=mono_sort_key)
    ]
    return "\n".join(lines) if lines else "0"


def as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def digit_limit_error(what: str) -> ValueError:
    """The error for `what`, a rational with more digits than
    `sys.get_int_max_str_digits()` lets `str` print."""
    return ValueError(f"{what} exceeds the limit ({sys.get_int_max_str_digits()} digits) "
                      "for integer string conversion")


def format_rational(value, what: str = "a value") -> str:
    """`-3/2` style; integers print without a denominator.  A numerator or
    denominator past the digit limit raises `digit_limit_error(what)`."""
    frac = as_fraction(value)
    try:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    except ValueError:
        raise digit_limit_error(what) from None


def parse_rational(text: str) -> Fraction:
    """The rational `text` spells; ValueError, not ZeroDivisionError, on `1/0`,
    and on an exponent above `sys.get_int_max_str_digits()` in magnitude, whose
    value could not be printed, before any digit of it is built."""
    text = text.strip()
    limit = sys.get_int_max_str_digits()
    digits = text.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    if limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ValueError(f"exponent of {text!r} exceeds {limit} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
