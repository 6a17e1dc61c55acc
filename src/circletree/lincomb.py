"""Exact linear combinations over an arbitrary hashable basis.

Every symbolic object in this package (word polynomials, circle-tree
polynomials, tensors) is a finite linear combination with integer or
Fraction coefficients.  `LinComb` is a dict from basis element to
coefficient that never stores a zero, so two combinations are equal as
dicts exactly when they are equal as algebraic elements.

The monomial algebra and the antipode step below are shared by the
circle-tree and the coordinate-map algebras.  The step and `poly_mul`,
the hot loops of both antipodes, add each term into a plain dict under
its monomial and drop the zeros once, on return.  Every memo table of the
package is made by `memo`, and every plain store the tables share or
index is passed to `memo_store`; both register it, so that `clear_caches`
empties them all.

Interning rule: a memo table stores one shared object per value.  Every
memo table of the algebra holds small int generator ids (`trees.gen_id`),
not generators: the coproduct terms, the raw counts and the antipode
entries, and the forest sum and the unmemoized recursion compute on ids
too.  The antipode step and the forest sum key a monomial by its
prime-product key (below): the product of the primes of its factors'
ids, so a product of monomials is one int multiplication and unique
factorization keeps the key exact.  The one store `_INTERNED` maps a key
to its one shared int and the one shared sorted id tuple of that
monomial.  It holds three kinds of key: those of antipode entries, those
of the coproduct terms' right legs, and the generators' primes.  A key is
recorded the first time a step or a leg meets it, its tuple the
operand's tuple merged with the other operand's ids by one sort, and
every later step stores the shared int, so the tables hold one int per
monomial, not one per entry.  The leg products of a right step, which no
table keeps, live in a dict of that step, and the forest sum sorts its
keys' ids in a dict of its own call, so it checks the store and never
reads it.  The tuple functions (`poly_mul`, `mono_mul`, `antipode_poly`)
keep sorted tuples.  A generator (`trees.Rct`, from `trees.gen`) appears
only at the package edge: a key leaves through `ids_of`, then
`trees.GENS` and `trees.decode`, which hands out one shared sorted tuple
of generators per id tuple.  The key store, the numbering's
inverse list `trees.GENS` and the decoded monomials are plain stores that
`clear_caches` empties with the tables, so no id outlives the numbering;
the prime list depends on nothing and stays.  Equal values stay equal
whatever object holds them, so a caller's own generator works as before;
shared ones let comparisons and lookups take the identity shortcut and
keep the tables small.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import isqrt, prod

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


# ---------------------------------------------------------------------------
# prime-product keys: generator id i has the i-th prime, and a multiset of
# ids is keyed by the product of its factors' primes (the unit () by 1), so
# a product of monomials is one int multiplication; unique factorization
# makes the key exact.  The i-th prime depends on i alone, so the prime list
# is no memo store: it grows, by sieving a doubled range, as far as the
# largest numbering built.

_PRIMES: list[int] = []


def _sieve(limit: int) -> None:
    """Make `_PRIMES` the primes below `limit`."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    _PRIMES[:] = compress(range(limit), sieve)


_prime_at = _PRIMES.__getitem__  # `_sieve` refills the one list in place


def prime(i: int) -> int:
    """The prime of the generator id `i`: 2, 3, 5, ... for 0, 1, 2, ..."""
    try:
        return _prime_at(i)
    except IndexError:
        while i >= len(_PRIMES):
            _sieve(2 * _PRIMES[-1] if _PRIMES else 64)  # Bertrand: a new prime each time
        return _PRIMES[i]


def key_of(ids: tuple) -> int:
    """The key of a multiset of generator ids: the product of their primes."""
    try:
        return prod(map(_prime_at, ids))
    except IndexError:
        prime(max(ids))
        return prod(map(_prime_at, ids))


# key -> (the one shared int of that key, the one shared sorted id tuple of
# that monomial), the first ones met since the tables were last cleared:
# the antipode entries share the ints, the coproduct terms the tuples
_INTERNED: dict = memo_store({})


def ids_of(key: int) -> tuple:
    """The sorted id tuple of a stored key, for the package edge."""
    return _INTERNED[key][1]


def intern_with(ids: tuple, i: int, key: int) -> tuple:
    """The one shared sorted id tuple of `ids` and one more id `i`, whose key
    `key` is `key_of(ids) * prime(i)`, so a tuple met before costs no sort."""
    entry = _INTERNED.get(key)
    if entry is None:
        entry = _INTERNED[key] = (key, tuple(sorted(ids + (i,))))
    return entry[1]


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


def _key_mul(p: dict, q: dict, partial: dict | None = None) -> dict:
    """The product of two polynomials keyed by prime-product keys, `q` an
    antipode entry.  A key the store holds is replaced by its shared int; a
    new key records its entry, its sorted id tuple by one sort, in
    `partial`, the step-local store of the products no table keeps, or in
    the store when none is given.  Zeros are kept: the caller drops them
    once."""
    store = _INTERNED
    if partial is None:
        partial = store
    out: dict = {}
    get = out.get
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = ka * kb
            old = get(key)
            if old is None:
                entry = store.get(key) or partial.get(key)
                if entry is None:
                    ids = (store.get(ka) or partial[ka])[1] + store[kb][1]
                    entry = partial[key] = (key, tuple(sorted(ids)))
                key = entry[0]
                out[key] = ca * cb
            else:
                out[key] = old + ca * cb
    return out


def antipode_step(x: int, reduced_terms, side: str, antipode_of) -> LinComb:
    """S(x) = -x - sum S(l) r (left) or -x - sum l S(r_1)...S(r_n) (right) over
    the (l, r, coeff) terms of the reduced coproduct of the generator id x (l
    an id, r a sorted id tuple); `antipode_of` gives the antipode of a smaller
    generator id, memoized or not, and is only read.  Antipodes are keyed by
    prime-product keys, so each product is one int multiplication.  A key
    new to the step is looked up in `_INTERNED` once: a stored key is
    replaced by its shared int, and a new one records its sorted id tuple,
    the operand's tuple merged with the other operand's ids by one sort.
    A right leg's products S(r_1)...S(r_k), which no table keeps, record
    theirs in a dict of the step alone, so the store holds only the keys of
    table entries and coproduct legs and the generators' primes."""
    if side not in {"left", "right"}:
        raise ValueError(f"side must be left or right, got {side!r}")
    store = _INTERNED
    px = prime(x)
    px = store.setdefault(px, (px, (x,)))[0]
    acc = {px: -1}
    get = acc.get
    legs: dict = {}  # per distinct right leg: its key (left) or S(r_1)...S(r_n) (right)
    partial: dict = {}  # key -> entry of a leg product the store does not hold
    for left, right, coeff in reduced_terms:
        if side == "left":
            poly, ids = antipode_of(left), right
            factor = legs.get(right)
            if factor is None:
                factor = legs[right] = key_of(right)
        else:
            poly = legs.get(right)
            if poly is None:  # a reduced leg is not 1
                poly = legs[right] = reduce(lambda p, q: _key_mul(p, q, partial),
                                            map(antipode_of, right[1:]), antipode_of(right[0]))
            factor, ids = prime(left), (left,)
        neg = -coeff
        for mono, k in poly.items():
            key = mono * factor
            old = get(key)
            if old is None:
                entry = store.get(key)
                if entry is None:
                    store[key] = (key, tuple(sorted((store.get(mono) or partial[mono])[1] + ids)))
                else:
                    key = entry[0]
                acc[key] = neg * k
            else:
                acc[key] = old + neg * k
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
