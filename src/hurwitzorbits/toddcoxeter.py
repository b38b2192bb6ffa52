"""Coset enumeration over the trivial subgroup.

Realizes a finite presentation as element ids 0..|G|-1 with total
multiplication (the regular representation). The coset table is built by
HLT scan-and-fill (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 5.1-5.2), with coincidences merged through a union-find structure
and the Handbook's queue. Ids are breadth-first from the identity, so they
depend only on the group and the generator order. The cap bounds live
cosets, not the order: HLT can hold more than |G| before they collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from . import words
from .presentations import Presentation
from .words import Word

DEFAULT_COSET_CAP = 1_000_000


class _Full(Exception):
    """Defining one more coset would pass the live-coset cap."""


@dataclass(frozen=True)
class Capped:
    """Enumeration exceeded the live-coset cap; a bounded-resources outcome."""

    coset_cap: int


class CayleyRealization:
    """A finite group as ids 0..order-1 with generator action permutations.

    ``action[g][sign]`` maps each id to the id after right multiplication by
    generator g (sign 0) or its inverse (sign 1). Id 0 is the identity, and
    ids are breadth-first from it (generators in declaration order, each
    before its inverse), so they depend only on the Cayley graph.
    ``letters[g]`` spells a shortest word for element g; a ``Word`` is
    made from it only when asked for.
    """

    def __init__(self, origin: Presentation, action: List[Tuple[Tuple[int, ...], Tuple[int, ...]]],
                 letters: List[Tuple[words.Letter, ...]]):
        self.origin = origin
        self.action = action
        self.order = len(letters)
        self.identity_id = 0
        self._letters = letters
        self._inverses = tuple(self._follow(0, [(i, -s) for i, s in reversed(w)]) for w in letters)

    def _follow(self, start: int, letters) -> int:
        c = start
        for idx, sign in letters:
            c = self.action[idx][0 if sign > 0 else 1][c]
        return c

    def representative_word(self, g: int) -> Word:
        """A shortest word in the generators evaluating to element g."""
        self._check(g)
        return Word(self.origin.generators, self._letters[g])

    def _check(self, g: int):
        if not 0 <= g < self.order:
            raise ValueError(f"element id {g} out of range 0..{self.order - 1}")

    def multiply(self, g: int, h: int) -> int:
        self._check(g)
        self._check(h)
        return self._follow(g, self._letters[h])

    def inverse(self, g: int) -> int:
        self._check(g)
        return self._inverses[g]

    def evaluate_word(self, w: Word) -> int:
        if w.alphabet != self.origin.generators:
            raise words.AlphabetMismatchError(
                f"word over {w.alphabet} cannot be evaluated in a realization "
                f"of {self.origin.generators}"
            )
        return self._follow(0, w.letters)


def _breadth_first(p: Presentation, table: List[int], ncosets: int) -> CayleyRealization:
    """Number the live cosets of a complete flat table breadth-first from 0."""
    ndirs = 2 * len(p.generators)
    ids = [0] + [-1] * (ncosets - 1)
    cosets = [0]
    letters: List[Tuple[words.Letter, ...]] = [()]
    columns: List[List[int]] = [[] for _ in range(ndirs)]
    for k, c in enumerate(cosets):  # cosets grows while this runs
        for d, column in enumerate(columns):
            e = table[c * ndirs + d]
            if ids[e] < 0:
                ids[e] = len(cosets)
                cosets.append(e)
                letters.append(letters[k] + ((d >> 1, -1 if d & 1 else 1),))
            column.append(ids[e])
    action = [(tuple(columns[d]), tuple(columns[d + 1])) for d in range(0, ndirs, 2)]
    return CayleyRealization(p, action, letters)


def enumerate_cosets(
    p: Presentation, coset_cap: int = DEFAULT_COSET_CAP
) -> Union[CayleyRealization, Capped]:
    """Enumerate cosets of the trivial subgroup; the result is all of G.

    Returns ``Capped`` when defining a coset would leave more than
    ``coset_cap`` live cosets, which can happen with a cap at or above |G|.
    """
    if coset_cap < 1:
        raise ValueError("coset_cap must be >= 1")
    # Direction 2i is generator i and 2i + 1 its inverse, so d ^ 1 inverts d.
    # Row c of the flat table is table[c * ndirs : (c + 1) * ndirs], -1 if unknown.
    ndirs = 2 * len(p.generators)
    rels = [tuple(2 * idx + (sign < 0) for idx, sign in r.letters) for r in p.relators]
    rels = [(rel, tuple(d ^ 1 for d in rel), len(rel) - 1) for rel in rels]
    table = [-1] * ndirs
    parent = [0]  # union-find; a coset is live when it is its own parent
    queue: List[int] = []  # dead cosets whose entries are still to be moved
    live = 1

    def define(c: int, d: int):
        nonlocal live
        if live >= coset_cap:
            raise _Full
        n = len(parent)
        parent.append(n)
        table.extend([-1] * ndirs)
        table[c * ndirs + d] = n
        table[n * ndirs + (d ^ 1)] = c
        live += 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]  # path halving
        return c

    def merge(a: int, b: int):
        nonlocal live
        a, b = find(a), find(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)
            live -= 1

    def coincidence(a: int, b: int):
        merge(a, b)
        for dead in queue:  # merge() appends while this runs
            for x in range(ndirs):
                e = table[dead * ndirs + x]
                if e >= 0:  # move the edge dead -x-> e to the live cosets
                    table[e * ndirs + (x ^ 1)] = -1
                    m, n = find(dead), find(e)
                    if table[m * ndirs + x] >= 0:
                        merge(n, table[m * ndirs + x])
                    elif table[n * ndirs + (x ^ 1)] >= 0:
                        merge(m, table[n * ndirs + (x ^ 1)])
                    else:
                        table[m * ndirs + x] = n
                        table[n * ndirs + (x ^ 1)] = m
        queue.clear()

    try:
        c = 0
        while c < len(parent):
            for rel, back, last in rels:
                if parent[c] != c:
                    break
                # Scan forward to f at position i and backward to b at j.
                f, i, b, j = c, 0, c, last
                while True:
                    while i <= j and (e := table[f * ndirs + rel[i]]) >= 0:
                        f, i = e, i + 1
                    while j >= i and (e := table[b * ndirs + back[j]]) >= 0:
                        b, j = e, j - 1
                    if j < i:  # the relator closed: f and b are one coset
                        if f != b:
                            coincidence(f, b)
                        break
                    if i == j:  # deduction: the gap is one letter
                        table[f * ndirs + rel[i]] = b
                        table[b * ndirs + back[i]] = f
                        break
                    define(f, rel[i])
            if parent[c] == c:
                for d in range(ndirs):
                    if table[c * ndirs + d] < 0:
                        define(c, d)
            c += 1
    except _Full:
        return Capped(coset_cap)
    return _breadth_first(p, table, len(parent))
