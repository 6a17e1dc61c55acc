"""Letters, words and the shuffle algebra.

The alphabet is {x_0, ..., x_m} with x_0 the distinguished integrator
letter.  A word is a tuple of letter indices read left to right; the
empty tuple is the empty word.  The grading gives x_0 weight 2 and every
other letter weight 1.
"""

from __future__ import annotations

from .lincomb import LinComb, memo

Word = tuple[int, ...]


def letter_weight(letter: int) -> int:
    return 2 if letter == 0 else 1


def word_degree(word: Word) -> int:
    """Sum of letter weights (without the +1 a rooted tree adds)."""
    return sum(letter_weight(letter) for letter in word)


@memo
def _shuffle_items(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc = LinComb()
    for word, coeff in _shuffle_items(u[1:], v):
        acc.add_term((u[0],) + word, coeff)
    for word, coeff in _shuffle_items(u, v[1:]):
        acc.add_term((v[0],) + word, coeff)
    return tuple(acc.items())


def shuffle(u: Word, v: Word) -> LinComb:
    """Shuffle product as a LinComb over words; coefficients are positive ints."""
    return LinComb(_shuffle_items(tuple(u), tuple(v)))


def by_length(p: dict) -> dict:
    """p with its words in order of length, the order `shuffle_into` reads its
    right factor in."""
    return dict(sorted(p.items(), key=lambda item: len(item[0])))


def shuffle_into(out: dict, p: dict, q: dict, cap, prefix: Word = ()) -> None:
    """Add prefix + w for every term w of the shuffle of p and q no longer than
    `cap` straight into the caller's dict `out`: the kernel.

    p and q are int-coefficient word dicts; q must list its words in order of
    length (see `by_length`), so that the words too long for a word of p end
    each pass; callers order a factor once and shuffle many left factors
    against it.  Entries that cancel stay in `out` as zeros."""
    get = out.get
    q_items = q.items()
    for u, a in p.items():
        room = cap - len(u)
        for v, b in q_items:
            if len(v) > room:
                break
            ab = a * b
            for word, mult in _shuffle_items(u, v):
                key = prefix + word
                out[key] = get(key, 0) + ab * mult


def format_word(word: Word) -> str:
    if not word:
        return "e"
    return ".".join(map(str, word))


def parse_word(text: str, m: int | None = None) -> Word:
    """Parse `0.1.2` (or `e` for the empty word); letters above m are rejected."""
    text = text.strip()
    if text == "e":
        return ()
    try:
        letters = tuple(int(part) for part in text.split("."))
    except ValueError as exc:
        raise ValueError(f"malformed word {text!r}") from exc
    if any(letter < 0 for letter in letters):
        raise ValueError(f"negative letter index in {text!r}")
    if m is not None and any(letter > m for letter in letters):
        raise ValueError(f"letter index above alphabet bound m={m} in {text!r}")
    return letters
