"""Group presentations: text grammar, built-in families, reversibility.

Grammar (whitespace separates factors)::

    presentation := "<" names "|" relations ">"
    names        := name ("," name)*
    relations    := chain ("," chain)*
    chain        := term ("=" term)+ | term      (a bare term asserts term = 1)
    term         := "1" | factor+
    factor       := name ("^" integer)?

An equation chain ``u1 = u2 = ... = uk`` contributes the relators
``u_i * u_{i+1}^-1`` for each adjacent pair. A text spelling more than
``MAX_LETTERS`` letters is refused before its exponents are expanded, and
so is a factor list (``parse_factors``) or a builtin family's relator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import words
from .words import Word


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relator words; each relator asserts r = 1."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for r in self.relators:
            if r.alphabet != self.generators:
                raise ValueError("relator alphabet does not match generators")


# --- tokenizer / parser ---------------------------------------------------

MAX_LETTERS = 1_000_000

_PUNCT = {"<": "LANGLE", ">": "RANGLE", "|": "PIPE", ",": "COMMA", "=": "EQ"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _PUNCT:
            tokens.append((_PUNCT[c], c, i))
            i += 1
        elif c == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise PresentationSyntaxError("expected integer after '^'", i)
            tokens.append(("EXP", int(text[i + 1 : k]), i))
            i = k
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise PresentationSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: Optional[Tuple[str, ...]] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.letters_left = MAX_LETTERS

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise PresentationSyntaxError(
                f"expected {kind}, found {tok[1]!r}", tok[2]
            )
        self.pos += 1
        return tok

    def parse_term(self) -> Word:
        assert self.alphabet is not None
        kind, value, pos = self.peek()
        if kind == "INT":
            if value != 1:
                raise PresentationSyntaxError(
                    "only '1' may appear as a bare term", pos
                )
            self.pos += 1
            return words.empty(self.alphabet)
        letters: list = []
        index = {name: i for i, name in enumerate(self.alphabet)}
        saw_factor = False
        while self.peek()[0] == "NAME":
            _, name, pos = self.take("NAME")
            if name not in index:
                raise PresentationSyntaxError(f"unknown generator {name!r}", pos)
            exp = 1
            if self.peek()[0] == "EXP":
                _, exp, pos = self.take("EXP")
            self.letters_left -= abs(exp)
            if self.letters_left < 0:
                raise PresentationSyntaxError(f"more than {MAX_LETTERS} letters", pos)
            sign = 1 if exp >= 0 else -1
            letters.extend([(index[name], sign)] * abs(exp))
            saw_factor = True
        if not saw_factor:
            kind, value, pos = self.peek()
            raise PresentationSyntaxError(
                f"expected a term, found {value!r}", pos
            )
        return words.reduce_word(self.alphabet, letters)

    def parse_chain(self) -> list:
        terms = [self.parse_term()]
        while self.peek()[0] == "EQ":
            self.take("EQ")
            terms.append(self.parse_term())
        if len(terms) == 1:
            # bare term asserts term = 1
            terms.append(words.empty(self.alphabet))
        relators = []
        for u, v in zip(terms, terms[1:]):
            r = words.concat(u, words.invert(v))
            if not r.is_empty:
                relators.append(r)
        return relators

    def parse_presentation(self) -> Presentation:
        self.take("LANGLE")
        names = [self.take("NAME")[1]]
        while self.peek()[0] == "COMMA":
            self.take("COMMA")
            names.append(self.take("NAME")[1])
        self.alphabet = tuple(names)
        self.take("PIPE")
        relators = self.parse_chain()
        while self.peek()[0] == "COMMA":
            self.take("COMMA")
            relators.extend(self.parse_chain())
        self.take("RANGLE")
        self.take("END")
        return Presentation(self.alphabet, tuple(relators))


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse_presentation()


def parse_word(alphabet: Sequence[str], text: str) -> Word:
    """Parse one term (e.g. ``a b^-1 a`` or ``1``) over a known alphabet."""
    parser = _Parser(text, tuple(alphabet))
    w = parser.parse_term()
    parser.take("END")
    return w


def parse_factors(alphabet: Sequence[str], text: str) -> Tuple[Word, ...]:
    """Parse terms separated by commas or, in a text without a comma, by
    whitespace: ``a b, b`` is the words ``a b`` and ``b``, ``a b`` the words
    ``a`` and ``b``. The whole list shares one ``MAX_LETTERS`` budget, and
    error positions count from the start of ``text``."""
    parser = _Parser("", tuple(alphabet))
    factors = []
    for m in re.finditer(r"[^,]+" if "," in text else r"\S+", text):
        if m.group().isspace():
            continue
        parser.tokens = [(kind, value, m.start() + at) for kind, value, at in _tokenize(m.group())]
        parser.pos = 0
        factors.append(parser.parse_term())
        parser.take("END")
    if not factors:
        raise PresentationSyntaxError("no factors", len(text))
    return tuple(factors)


def render_presentation(p: Presentation) -> str:
    rels = ", ".join(words.render(r) for r in p.relators) or "1 = 1"
    return f"<{', '.join(p.generators)} | {rels}>"


# --- built-in families ----------------------------------------------------


def _check_dihedral(n: int):
    # (a b)^n spells 2n letters and the other relators a few more
    if not 1 <= n <= MAX_LETTERS // 4:
        raise ValueError(f"dihedral parameter must be in 1..{MAX_LETTERS // 4}")


def dihedral_rs(n: int) -> Presentation:
    """<r, s | r^n, s^2, r s r s^-1> (order 2n)."""
    _check_dihedral(n)
    return parse_presentation(f"<r, s | r^{n}, s^2, r s r s^-1>")


def dihedral_inv(n: int) -> Presentation:
    """<a, b | a^2, b^2, (a b)^n> (order 2n, generated by involutions)."""
    _check_dihedral(n)
    ab = "a b " * n
    return parse_presentation(f"<a, b | a^2, b^2, {ab.strip()}>")


def q8_ab() -> Presentation:
    """Quaternion group as <a, b | a^4, a^2 b^-2, b a b^-1 a>."""
    return parse_presentation("<a, b | a^4, a^2 b^-2, b a b^-1 a>")


def q8_ijk() -> Presentation:
    """Quaternion group on generators m, i, j, k where m plays -1."""
    return parse_presentation("<m, i, j, k | m^2, i^2 m, j^2 m, k^2 m, i j k m>")


def g4() -> Presentation:
    """<a, b | a^3, b^3, a b a (b a b)^-1> (order 24)."""
    return parse_presentation("<a, b | a^3, b^3, a b a = b a b>")


def g6() -> Presentation:
    """<a, b | a^3, b^2, (ab)^3 = (ba)^3> (order 48)."""
    return parse_presentation("<a, b | a^3, b^2, a b a b a b = b a b a b a>")


def _alternating(i: int, j: int, count: int, alphabet: Tuple[str, ...]) -> Word:
    letters = [(i if k % 2 == 0 else j, 1) for k in range(count)]
    return words.reduce_word(alphabet, letters)


def shephard(p: Sequence[int], q: Sequence[int]) -> Presentation:
    """Shephard presentation: s_i^{p_i}, far commutations, braid chains.

    Adjacent generators satisfy the alternating relation with q_i terms on
    each side; non-adjacent generators commute.
    """
    p = list(p)
    q = list(q)
    n = len(p)
    if n < 1 or len(q) != n - 1:
        raise ValueError("need p_1..p_n and q_1..q_{n-1}")
    # s_i^{p_i} spells p_i letters and a braid relation 2 q_i, at most MAX_LETTERS
    if not all(1 <= pi <= MAX_LETTERS for pi in p):
        raise ValueError(f"generator orders p_i must be in 1..{MAX_LETTERS}")
    if not all(2 <= qi <= MAX_LETTERS // 2 for qi in q):
        raise ValueError(f"braid lengths q_i must be in 2..{MAX_LETTERS // 2}")
    alphabet = tuple(f"s{i + 1}" for i in range(n))
    relators = []
    for i, pi in enumerate(p):
        relators.append(words.reduce_word(alphabet, [(i, 1)] * pi))
    for i in range(n):
        for j in range(i + 2, n):
            relators.append(
                words.reduce_word(
                    alphabet, [(i, 1), (j, 1), (i, -1), (j, -1)]
                )
            )
    for i, qi in enumerate(q):
        lhs = _alternating(i, i + 1, qi, alphabet)
        rhs = _alternating(i + 1, i, qi, alphabet)
        relators.append(words.concat(lhs, words.invert(rhs)))
    return Presentation(alphabet, tuple(r for r in relators if not r.is_empty))


def coxeter(matrix: Sequence[Sequence[int]]) -> Presentation:
    """Coxeter presentation from a symmetric matrix: s_i^2, (s_i s_j)^{m_ij}."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("Coxeter matrix must be square")
    alphabet = tuple(f"s{i + 1}" for i in range(n))
    relators = [words.reduce_word(alphabet, [(i, 1), (i, 1)]) for i in range(n)]
    for i in range(n):
        if matrix[i][i] != 1:
            raise ValueError("Coxeter matrix diagonal must be 1")
        for j in range(i + 1, n):
            m = matrix[i][j]
            if m != matrix[j][i] or not 2 <= m <= MAX_LETTERS // 2:  # (s_i s_j)^m spells 2m letters
                raise ValueError(f"Coxeter matrix must be symmetric with m_ij in 2..{MAX_LETTERS // 2}")
            lhs = _alternating(i, j, m, alphabet)
            rhs = _alternating(j, i, m, alphabet)
            relators.append(words.concat(lhs, words.invert(rhs)))
    return Presentation(alphabet, tuple(relators))


BUILTIN_PRESENTATIONS = {
    "dihedral-rs": dihedral_rs,
    "dihedral-inv": dihedral_inv,
    "q8-ab": q8_ab,
    "q8-ijk": q8_ijk,
    "g4": g4,
    "g6": g6,
}


def builtin(name: str, *params) -> Presentation:
    """Look up a built-in family by CLI name, e.g. builtin('dihedral-rs', 6)."""
    try:
        factory = BUILTIN_PRESENTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin presentation {name!r}; known: {sorted(BUILTIN_PRESENTATIONS)}"
        ) from None
    return factory(*params)


# --- reversibility ---------------------------------------------------------


def check_reversible(group) -> Optional[Tuple[Word, Word]]:
    """The first relator of the group's presentation whose reverse is not 1
    in ``group``, with that reverse; None when every reverse is 1.

    ``group`` is a ``RealizedGroup``, and its presentation is
    ``group.realization.origin``. A relator's reverse lies in the normal
    closure of the relators exactly when it evaluates to the identity there.
    """
    for r in group.realization.origin.relators:
        rev = words.reverse(r)
        if group.evaluate_word(rev) != group.identity:
            return r, rev
    return None
