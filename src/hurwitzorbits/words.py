"""Exact arithmetic in the free group F(X).

Elements are reduced words over a named generator alphabet and formal
inverses. A letter is a pair ``(generator_index, sign)`` with sign +1 or -1.
All values are immutable; every operation returns a new reduced word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

Letter = Tuple[int, int]
Alphabet = Tuple[str, ...]


class AlphabetMismatchError(ValueError):
    """Raised when combining words over different alphabets."""


@dataclass(frozen=True)
class Word:
    """A reduced word: no adjacent pair of a letter and its formal inverse."""

    alphabet: Alphabet
    letters: Tuple[Letter, ...] = ()

    def __post_init__(self):
        n = len(self.alphabet)
        for idx, sign in self.letters:
            if not 0 <= idx < n:
                raise ValueError(f"letter index {idx} outside alphabet of size {n}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        for (i, s), (j, t) in zip(self.letters, self.letters[1:]):
            if i == j and s != t:
                raise ValueError("word is not reduced: adjacent inverse pair")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return render(self)


def _valid(alphabet: Alphabet, letters: Tuple[Letter, ...]) -> Word:
    w = object.__new__(Word)  # letters known valid and reduced: skip __post_init__
    w.__dict__.update(alphabet=alphabet, letters=letters)
    return w


def empty(alphabet: Alphabet) -> Word:
    return Word(tuple(alphabet), ())


def generator(alphabet: Alphabet, index: int, sign: int = 1) -> Word:
    """Single-letter word for one generator (or its inverse)."""
    return Word(tuple(alphabet), ((index, sign),))


def _reduce(raw: Iterable[Letter], prefix: Tuple[Letter, ...] = ()) -> Tuple[Letter, ...]:
    # Single left-to-right pass after a reduced prefix, cancelling against
    # the last emitted letter.
    out: list[Letter] = list(prefix)
    for idx, sign in raw:
        if out and out[-1][0] == idx and out[-1][1] != sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def reduce_word(alphabet: Alphabet, raw: Sequence[Letter]) -> Word:
    """The unique reduced form of a raw letter sequence."""
    return Word(tuple(alphabet), _reduce(raw))


def concat(u: Word, v: Word) -> Word:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError(
            f"cannot concatenate words over alphabets {u.alphabet} and {v.alphabet}"
        )
    return _valid(u.alphabet, _reduce(v.letters, u.letters))


def invert(w: Word) -> Word:
    return _valid(w.alphabet, tuple((i, -s) for i, s in reversed(w.letters)))


def reverse(w: Word) -> Word:
    """Letters in reversed order, signs unchanged (the * operation)."""
    return _valid(w.alphabet, tuple(reversed(w.letters)))


def render(w: Word) -> str:
    """Text form: names, inverses as ``name^-1``, runs collapsed to exponents.

    The empty word renders as ``1``. ``presentations.parse_word`` reads this
    syntax back.
    """
    if not w.letters:
        return "1"
    parts = []
    run_idx, run_sign, run_len = w.letters[0][0], w.letters[0][1], 0
    for idx, sign in w.letters + ((-1, 0),):  # sentinel flushes the last run
        if idx == run_idx and sign == run_sign:
            run_len += 1
            continue
        name = w.alphabet[run_idx]
        exp = run_sign * run_len
        parts.append(name if exp == 1 else f"{name}^{exp}")
        run_idx, run_sign, run_len = idx, sign, 1
    return " ".join(parts)
