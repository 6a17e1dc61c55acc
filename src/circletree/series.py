"""Truncated vector-valued formal power series with exact coefficients.

A Series holds coefficients for (channel, word) pairs, channels 1-based,
words no longer than max_len.  Truncation is by word length: every
product implemented here only lengthens words, so computing with
truncation L is exact for all words of length <= L.

The coefficients are stored in one form: `nums` maps each (channel,
word) with a nonzero coefficient to an int numerator over `den`, the one
positive denominator, and gcd(den, *nums) == 1, so a value has exactly
one form and equality compares the fields.  Every operation here and in
`groupops` reads and writes that form, and Fractions appear only at the
edge: the constructor takes any rational values, `coeff` returns one
Fraction, and `coeffs`, a read-only view of the Fractions, is built on
each read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .lincomb import as_fraction, digit_limit_error, parse_rational
from .words import Word, by_length, format_word, parse_word, shuffle_into


_ZERO = Fraction(0)  # Fraction is immutable, so every miss can share it


def _frozen(self, *_args):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _set_fields(series, ell: int, m: int, max_len: int, nums: dict, den: int) -> None:
    for name, value in (("ell", ell), ("m", m), ("max_len", max_len), ("nums", nums),
                        ("den", den)):
        object.__setattr__(series, name, value)


def from_nums(ell: int, m: int, max_len: int, nums: dict, den: int) -> "Series":
    """The series nums / den, for int numerators keyed validly for the shape
    and den > 0, put in canonical form: zero numerators dropped, the common
    factor of den and nums divided out, the key order kept.  The checks of
    the constructor are skipped."""
    if 0 in nums.values():
        nums = {key: n for key, n in nums.items() if n}
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        den //= g
        nums = {key: n // g for key, n in nums.items()}
    out = object.__new__(Series)
    _set_fields(out, ell, m, max_len, nums, den)
    return out


class Series:
    """Coefficients (channel, word) -> rational of an ell-output, (m+1)-letter
    series truncated at word length max_len, stored as int numerators `nums`
    over the positive denominator `den` in canonical form.

    The constructor checks the shape and every key against it, reads values
    as Fractions and drops zeros.  Instances are immutable and unhashable,
    and compare equal when shape and coefficients agree.
    """

    __slots__ = ("ell", "m", "max_len", "nums", "den")
    __setattr__ = __delattr__ = _frozen
    __hash__ = None

    def __init__(self, ell: int, m: int, max_len: int, coeffs: dict | None = None):
        if ell < 1 or m < 1 or max_len < 0:
            raise ValueError(f"series shape ell={ell}, m={m}, max_len={max_len} needs "
                             "ell >= 1, m >= 1 and max_len >= 0")
        clean: dict[tuple[int, Word], Fraction] = {}
        for (channel, word), value in (coeffs or {}).items():
            word = tuple(word)
            if not 1 <= channel <= ell:
                raise ValueError(f"channel {channel} outside 1..{ell}")
            if word and not 0 <= min(word) <= max(word) <= m:
                raise ValueError(f"letter outside alphabet in word {word}")
            if len(word) > max_len:
                raise ValueError(f"word {word} longer than max_len={max_len}")
            value = as_fraction(value)
            if value:
                clean[(channel, word)] = value
        # the least common denominator of reduced fractions leaves gcd 1
        den = lcm(*[value.denominator for value in clean.values()])
        nums = {key: value.numerator * (den // value.denominator)
                for key, value in clean.items()}
        _set_fields(self, ell, m, max_len, nums, den)

    def _fractions(self) -> dict:
        den = self.den
        return {key: Fraction(n, den) for key, n in self.nums.items()}

    @property
    def coeffs(self) -> MappingProxyType:
        """{(channel, word): Fraction} of the nonzero coefficients, in the order
        of `nums`: a read-only view of a dict built on each read."""
        return MappingProxyType(self._fractions())

    def __eq__(self, other):
        if other.__class__ is not Series:
            return NotImplemented
        return (self.ell, self.m, self.max_len, self.den, self.nums) == (
            other.ell, other.m, other.max_len, other.den, other.nums)

    def __repr__(self) -> str:
        return (f"Series(ell={self.ell!r}, m={self.m!r}, max_len={self.max_len!r}, "
                f"coeffs={self._fractions()!r})")

    def __reduce__(self):
        return Series, (self.ell, self.m, self.max_len, self._fractions())

    def coeff(self, channel: int, word: Word) -> Fraction:
        n = self.nums.get((channel, tuple(word)))
        return Fraction(n, self.den) if n else _ZERO

    def is_zero(self) -> bool:
        return not self.nums

    def truncated(self, max_len: int) -> "Series":
        """The words no longer than max_len; a longer max_len pads."""
        if max_len < 0:
            raise ValueError(f"cannot truncate to the negative length {max_len}")
        kept = {key: n for key, n in self.nums.items() if len(key[1]) <= max_len}
        return from_nums(self.ell, self.m, max_len, kept, self.den)

    def scaled(self, factor) -> "Series":
        factor = as_fraction(factor)
        p = factor.numerator
        return from_nums(self.ell, self.m, self.max_len,
                         {key: p * n for key, n in self.nums.items()} if p else {},
                         self.den * factor.denominator)

    def __neg__(self) -> "Series":
        return from_nums(self.ell, self.m, self.max_len,
                         {key: -n for key, n in self.nums.items()}, self.den)


def zero_series(ell: int, m: int, max_len: int) -> Series:
    return Series(ell, m, max_len, {})


def _require_same_shape(a: Series, b: Series) -> None:
    if a.ell != b.ell or a.m != b.m:
        raise ValueError(
            f"series shape mismatch: ({a.ell},{a.m}) vs ({b.ell},{b.m})")


def add(a: Series, b: Series) -> Series:
    """a + b at the shorter length: the reference that the tests and the bench
    check the folded sums of `groupops.hat_compose` and `group_product` against."""
    _require_same_shape(a, b)
    max_len = min(a.max_len, b.max_len)
    den = lcm(a.den, b.den)
    scale_a, scale_b = den // a.den, den // b.den
    nums = {key: scale_a * n for key, n in a.nums.items() if len(key[1]) <= max_len}
    get = nums.get
    for key, n in b.nums.items():
        if len(key[1]) <= max_len:
            nums[key] = get(key, 0) + scale_b * n
    return from_nums(a.ell, a.m, max_len, nums, den)


def channel_nums(a: Series) -> dict:
    """{channel: {word: numerator}} over a.den, every channel present."""
    out: dict = {channel: {} for channel in range(1, a.ell + 1)}
    for (channel, word), n in a.nums.items():
        out[channel][word] = n
    return out


def shuffle_product(a: Series, b: Series) -> Series:
    """Channel-wise shuffle; the series-level product of parallel systems."""
    _require_same_shape(a, b)
    max_len = min(a.max_len, b.max_len)
    nums: dict = {}
    b_channels = channel_nums(b)
    for ch, p in channel_nums(a).items():
        out: dict = {}
        shuffle_into(out, p, by_length(b_channels[ch]), max_len)
        nums.update(((ch, word), k) for word, k in out.items())
    return from_nums(a.ell, a.m, max_len, nums, a.den * b.den)


def left_concat(letter: int, a: Series) -> Series:
    if not 0 <= letter <= a.m:
        raise ValueError(f"letter {letter} outside alphabet 0..{a.m}")
    nums = {(channel, (letter,) + word): n
            for (channel, word), n in a.nums.items() if len(word) < a.max_len}
    return from_nums(a.ell, a.m, a.max_len, nums, a.den)


# ---------------------------------------------------------------------------
# text and document formats


def _term_order(item) -> tuple:
    (channel, word), _n = item
    return channel, len(word), word


def _terms(a: Series):
    """(channel, word text, coefficient text) of each term, ordered by channel,
    word length and word; the coefficient prints as `format_rational` would,
    and one past the digit limit raises ValueError naming its channel and word."""
    den = a.den
    for (channel, word), n in sorted(a.nums.items(), key=_term_order):
        g = gcd(n, den)
        try:
            coeff = str(n // g) if g == den else f"{n // g}/{den // g}"
        except ValueError:
            raise digit_limit_error(
                f"the coefficient of channel {channel}, word {format_word(word)}") from None
        yield channel, format_word(word), coeff


def format_series(a: Series) -> str:
    return "\n".join(f"{channel} {word} {coeff}" for channel, word, coeff in _terms(a))


def parse_series(text: str, ell: int | None = None, m: int | None = None,
                 max_len: int | None = None) -> Series:
    """Parse `<channel> <word> <rational>` lines; shape is inferred unless given."""
    coeffs: dict = {}
    max_channel = 0
    max_letter = 0
    longest = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed series line {raw!r}")
        channel = int(parts[0])
        word = parse_word(parts[1], m)
        value = parse_rational(parts[2])
        if channel < 1:
            raise ValueError(f"channel {channel} must be >= 1")
        key = (channel, word)
        coeffs[key] = coeffs[key] + value if key in coeffs else value
        max_channel = max(max_channel, channel)
        max_letter = max(max_letter, max(word, default=0))
        longest = max(longest, len(word))
    ell = ell if ell is not None else max(max_channel, 1)
    m = m if m is not None else max(max_letter, 1)
    max_len = max_len if max_len is not None else longest
    return Series(ell, m, max_len, coeffs)


def series_to_doc(a: Series) -> dict:
    return {
        "ell": a.ell,
        "m": a.m,
        "max_len": a.max_len,
        "terms": [{"channel": channel, "word": word, "coeff": coeff}
                  for channel, word, coeff in _terms(a)],
    }


_JSON_TYPES = {list: "array", int: "integer", str: "string"}


def _doc_field(obj: dict, name: str, kind: type):
    """obj[name] if it has the JSON type `kind` (a bool is no integer); a
    missing field raises KeyError, a wrongly typed one ValueError."""
    value = obj[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"field {name!r} must be a JSON {_JSON_TYPES[kind]}, not {value!r}")
    return value


def series_from_doc(doc: dict) -> Series:
    """The series of a document as `series_to_doc` writes it; ValueError if the
    document or a field has the wrong JSON type."""
    if not isinstance(doc, dict):
        raise ValueError(f"series document must be a JSON object, not {type(doc).__name__}")
    coeffs = {}
    for term in _doc_field(doc, "terms", list):
        if not isinstance(term, dict):
            raise ValueError(f"series term must be a JSON object, not {term!r}")
        key = (_doc_field(term, "channel", int),
               parse_word(_doc_field(term, "word", str), _doc_field(doc, "m", int)))
        value = parse_rational(_doc_field(term, "coeff", str))
        coeffs[key] = coeffs[key] + value if key in coeffs else value
    return Series(*(_doc_field(doc, name, int) for name in ("ell", "m", "max_len")), coeffs)


def dumps_json(a: Series) -> str:
    """The bytes of `json.dumps(series_to_doc(a), indent=2)`, written directly:
    word and coefficient texts hold only digits, `.`, `e`, `-` and `/`, which
    JSON strings take unescaped."""
    terms = ",\n".join(
        f'    {{\n      "channel": {channel},\n      "word": "{word}",\n'
        f'      "coeff": "{coeff}"\n    }}' for channel, word, coeff in _terms(a))
    terms = f"[\n{terms}\n  ]" if terms else "[]"
    return (f'{{\n  "ell": {a.ell},\n  "m": {a.m},\n  "max_len": {a.max_len},\n'
            f'  "terms": {terms}\n}}')


def loads_json(text: str) -> Series:
    import json

    return series_from_doc(json.loads(text))
