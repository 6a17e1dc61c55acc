"""Truncated vector-valued formal power series with exact coefficients.

A Series holds coefficients for (channel, word) pairs, channels 1-based,
words no longer than max_len.  Truncation is by word length: every
product implemented here only lengthens words, so computing with
truncation L is exact for all words of length <= L.
"""

from __future__ import annotations

from fractions import Fraction

from .lincomb import LinComb, as_fraction, format_rational, parse_rational
from .words import Word, format_word, parse_word, shuffle_polys


_ZERO = Fraction(0)  # Fraction is immutable, so every miss can share it


def _frozen(self, *_args):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _set_fields(series, ell: int, m: int, max_len: int, coeffs: dict) -> None:
    object.__setattr__(series, "ell", ell)
    object.__setattr__(series, "m", m)
    object.__setattr__(series, "max_len", max_len)
    object.__setattr__(series, "coeffs", coeffs)


class Series:
    """Coefficients (channel, word) -> Fraction of an ell-output, (m+1)-letter
    series truncated at word length max_len.

    The constructor checks the shape and every key against it, converts
    values to Fraction and drops zeros.  Instances are immutable and
    unhashable, and compare equal when shape and coefficients agree.
    """

    __slots__ = ("ell", "m", "max_len", "coeffs")
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
            if any(not 0 <= letter <= m for letter in word):
                raise ValueError(f"letter outside alphabet in word {word}")
            if len(word) > max_len:
                raise ValueError(f"word {word} longer than max_len={max_len}")
            value = as_fraction(value)
            if value:
                clean[(channel, word)] = value
        _set_fields(self, ell, m, max_len, clean)

    def __eq__(self, other):
        if other.__class__ is not Series:
            return NotImplemented
        return (self.ell, self.m, self.max_len, self.coeffs) == (
            other.ell, other.m, other.max_len, other.coeffs)

    def __repr__(self) -> str:
        return (f"Series(ell={self.ell!r}, m={self.m!r}, max_len={self.max_len!r}, "
                f"coeffs={self.coeffs!r})")

    def __reduce__(self):
        return Series, (self.ell, self.m, self.max_len, self.coeffs)

    @classmethod
    def _from_valid(cls, ell: int, m: int, max_len: int, coeffs: dict) -> "Series":
        """Private constructor for coefficients already valid for the shape:
        Fraction values keyed by in-range (channel, word tuple), as products
        of valid series give.  Skips the checks; only drops zeros."""
        out = object.__new__(cls)
        _set_fields(out, ell, m, max_len, {key: value for key, value in coeffs.items() if value})
        return out

    def coeff(self, channel: int, word: Word) -> Fraction:
        return self.coeffs.get((channel, tuple(word)), _ZERO)

    def channel_poly(self, channel: int) -> LinComb:
        out = LinComb()
        for (ch, word), value in self.coeffs.items():
            if ch == channel:
                out[word] = value
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncated(self, max_len: int) -> "Series":
        return Series._from_valid(self.ell, self.m, max_len, {
            key: value for key, value in self.coeffs.items() if len(key[1]) <= max_len})

    def scaled(self, factor) -> "Series":
        factor = as_fraction(factor)
        return Series._from_valid(self.ell, self.m, self.max_len,
                                  {key: factor * value for key, value in self.coeffs.items()})

    def __neg__(self) -> "Series":
        return self.scaled(-1)

    def sorted_items(self):
        return sorted(
            self.coeffs.items(),
            key=lambda item: (item[0][0], len(item[0][1]), item[0][1]))


def zero_series(ell: int, m: int, max_len: int) -> Series:
    return Series(ell, m, max_len, {})


def _require_same_shape(a: Series, b: Series) -> None:
    if a.ell != b.ell or a.m != b.m:
        raise ValueError(
            f"series shape mismatch: ({a.ell},{a.m}) vs ({b.ell},{b.m})")


def add(a: Series, b: Series) -> Series:
    _require_same_shape(a, b)
    max_len = min(a.max_len, b.max_len)
    coeffs = {key: value for key, value in a.coeffs.items() if len(key[1]) <= max_len}
    for key, value in b.coeffs.items():
        if len(key[1]) <= max_len:
            coeffs[key] = coeffs.get(key, 0) + value
    return Series._from_valid(a.ell, a.m, max_len, coeffs)


def shuffle_product(a: Series, b: Series) -> Series:
    """Channel-wise shuffle; the series-level product of parallel systems."""
    _require_same_shape(a, b)
    max_len = min(a.max_len, b.max_len)
    coeffs = {}
    for ch in range(1, a.ell + 1):
        for word, value in shuffle_polys(a.channel_poly(ch), b.channel_poly(ch), max_len).items():
            coeffs[(ch, word)] = Fraction(value)  # int when no denominator
    return Series._from_valid(a.ell, a.m, max_len, coeffs)


def left_concat(letter: int, a: Series) -> Series:
    if not 0 <= letter <= a.m:
        raise ValueError(f"letter {letter} outside alphabet 0..{a.m}")
    coeffs = {}
    for (channel, word), value in a.coeffs.items():
        if len(word) + 1 <= a.max_len:
            coeffs[(channel, (letter,) + word)] = value
    return Series(a.ell, a.m, a.max_len, coeffs)


# ---------------------------------------------------------------------------
# text and document formats


def format_series(a: Series) -> str:
    lines = [
        f"{channel} {format_word(word)} {format_rational(value)}"
        for (channel, word), value in a.sorted_items()
    ]
    return "\n".join(lines)


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
        coeffs[key] = coeffs.get(key, Fraction(0)) + value
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
        "terms": [
            {"channel": channel, "word": format_word(word), "coeff": format_rational(value)}
            for (channel, word), value in a.sorted_items()
        ],
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
        coeffs[key] = coeffs.get(key, Fraction(0)) + parse_rational(
            _doc_field(term, "coeff", str))
    return Series(*(_doc_field(doc, name, int) for name in ("ell", "m", "max_len")), coeffs)


def dumps_json(a: Series) -> str:
    import json  # only the JSON format needs it

    return json.dumps(series_to_doc(a), indent=2)


def loads_json(text: str) -> Series:
    import json

    return series_from_doc(json.loads(text))
