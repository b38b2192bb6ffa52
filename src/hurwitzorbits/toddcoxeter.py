"""Coset enumeration over the trivial subgroup.

Realizes a finite presentation as element ids 0..|G|-1 with total
multiplication (the regular representation). The table is built by scanning
every relator at every live coset, with coincidences merged through a
union-find structure; scan order is fixed so ids are deterministic
run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from . import words
from .presentations import Presentation
from .words import Word

DEFAULT_COSET_CAP = 1_000_000

_SENTINEL = -1


@dataclass(frozen=True)
class Capped:
    """Enumeration exceeded the live-coset cap; a bounded-resources outcome."""

    coset_cap: int


class CayleyRealization:
    """A finite group as ids 0..order-1 with generator action permutations.

    ``action[g][sign]`` maps each id to the id after right multiplication by
    generator g (sign 0) or its inverse (sign 1). Id 0 is the identity.
    """

    def __init__(self, origin: Presentation, action: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]):
        self.origin = origin
        self.action = action
        self.order = len(action[0][0]) if action else 1
        self.identity_id = 0
        self._rep_words = self._representative_words()
        self._inverses = tuple(
            self._follow(0, words.invert(w)) for w in self._rep_words
        )

    def _follow(self, start: int, w: Word) -> int:
        c = start
        for idx, sign in w.letters:
            c = self.action[idx][0 if sign > 0 else 1][c]
        return c

    def _representative_words(self) -> List[Word]:
        # BFS from the identity in declaration order: shortest, deterministic.
        alphabet = self.origin.generators
        reps: List[Word] = [None] * self.order  # type: ignore[list-item]
        reps[0] = words.empty(alphabet)
        frontier = [0]
        seen = 1
        while frontier and seen < self.order:
            new = []
            for c in frontier:
                for idx in range(len(alphabet)):
                    for sign in (1, -1):
                        d = self.action[idx][0 if sign > 0 else 1][c]
                        if reps[d] is None:
                            reps[d] = words.concat(
                                reps[c], words.generator(alphabet, idx, sign)
                            )
                            new.append(d)
                            seen += 1
            frontier = new
        if seen != self.order:
            raise ValueError("generator action is not transitive")
        return reps

    def representative_word(self, g: int) -> Word:
        """A shortest word in the generators evaluating to element g."""
        self._check(g)
        return self._rep_words[g]

    def _check(self, g: int):
        if not 0 <= g < self.order:
            raise ValueError(f"element id {g} out of range 0..{self.order - 1}")

    def multiply(self, g: int, h: int) -> int:
        self._check(g)
        self._check(h)
        return self._follow(g, self._rep_words[h])

    def inverse(self, g: int) -> int:
        self._check(g)
        return self._inverses[g]

    def evaluate_word(self, w: Word) -> int:
        if w.alphabet != self.origin.generators:
            raise words.AlphabetMismatchError(
                f"word over {w.alphabet} cannot be evaluated in a realization "
                f"of {self.origin.generators}"
            )
        return self._follow(0, w)


def enumerate_cosets(
    p: Presentation, coset_cap: int = DEFAULT_COSET_CAP
) -> Union[CayleyRealization, Capped]:
    """Enumerate cosets of the trivial subgroup; the result is all of G.

    Returns ``Capped`` when the number of live cosets exceeds ``coset_cap``.
    """
    if coset_cap < 1:
        raise ValueError("coset_cap must be >= 1")
    ngens = len(p.generators)
    ndirs = 2 * ngens

    # Directions: 2i is generator i, 2i+1 its inverse. Cancellation relators
    # keep the two directions mutually inverse.
    rels: List[Tuple[int, ...]] = []
    for i in range(ngens):
        rels.append((2 * i, 2 * i + 1))
        rels.append((2 * i + 1, 2 * i))
    for r in p.relators:
        rels.append(tuple(2 * idx + (0 if sign > 0 else 1) for idx, sign in r.letters))

    labels: List[int] = [0]
    neighbors: List[List[int]] = [[_SENTINEL] * ndirs]
    live = 1

    def find(c: int) -> int:
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def add_vertex() -> int:
        nonlocal live
        c = len(labels)
        labels.append(c)
        neighbors.append([_SENTINEL] * ndirs)
        live += 1
        return c

    def follow(c: int, rel: Tuple[int, ...]) -> int:
        for d in rel:
            c = find(c)
            row = neighbors[c]
            if row[d] == _SENTINEL:
                row[d] = add_vertex()
            c = row[d]
        return find(c)

    def unify(c1: int, c2: int):
        nonlocal live
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            live -= 1
            ra, rb = neighbors[a], neighbors[b]
            for d in range(ndirs):
                if ra[d] == _SENTINEL:
                    ra[d] = rb[d]
                elif rb[d] != _SENTINEL:
                    stack.append((ra[d], rb[d]))

    to_visit = 0
    while to_visit < len(labels):
        if find(to_visit) == to_visit:
            for rel in rels:
                unify(follow(to_visit, rel), to_visit)
            if live > coset_cap:
                return Capped(coset_cap)
        to_visit += 1

    # Compact to contiguous ids; the identity coset keeps id 0.
    roots = [c for c in range(len(labels)) if find(c) == c]
    compact = {c: i for i, c in enumerate(roots)}
    action = []
    for i in range(ngens):
        fwd = tuple(compact[find(neighbors[c][2 * i])] for c in roots)
        bwd = tuple(compact[find(neighbors[c][2 * i + 1])] for c in roots)
        action.append((fwd, bwd))
    return CayleyRealization(p, action)
