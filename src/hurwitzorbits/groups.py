"""A uniform finite-group interface over multiple backends.

Elements are the integer keys 0..order-1, so orbit machinery can hash and
deduplicate factorizations without caring which backend produced them. This
module is the only place that does element arithmetic, for realized and
permutation groups alike: every Hurwitz move reads its pair's images from
``Group.move_images``, which memoizes them per group.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .toddcoxeter import CayleyRealization
from .words import AlphabetMismatchError, Word


class Group:
    """Finite group whose elements are keyed 0..order-1.

    A backend sets ``order`` and ``identity``, and raises ``ValueError``
    for a key outside 0..order-1.
    """

    name = "group"
    order: int
    identity: int

    def elements(self) -> Sequence[int]:
        return range(self.order)

    def multiply(self, g: int, h: int) -> int:
        raise NotImplementedError

    def inverse(self, g: int) -> int:
        raise NotImplementedError

    def element_name(self, g: int) -> str:
        return str(g)

    def _check(self, g: int):
        if not 0 <= g < self.order:
            raise ValueError(f"element key {g} out of range 0..{self.order - 1}")

    def conjugate(self, g: int, y: int) -> int:
        """y^-1 g y."""
        return self.multiply(self.multiply(self.inverse(y), g), y)

    def power(self, g: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse(g), -n)
        out = self.identity
        for _ in range(n):
            out = self.multiply(out, g)
        return out

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.multiply(x, g)
            k += 1
        return k

    def conjugation_tables(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """This group's memo of move images: (a, b) -> (b^-1 a b, a b a^-1).

        It starts empty. ``move_images`` fills it with the pairs of factors
        that searches and moves meet, and every search over the group shares
        it, so no conjugate is computed twice or computed when unneeded.
        """
        return self.__dict__.setdefault("_moves", {})

    def move_images(self, a: int, b: int) -> Tuple[int, int]:
        """(b^-1 a b, a b a^-1), memoized in ``conjugation_tables()``.

        A forward Hurwitz move sends the pair (a, b) to (b, b^-1 a b), and an
        inverse move sends it to (a b a^-1, a).
        """
        try:
            return self._moves[a, b]
        except (AttributeError, KeyError):
            images = (self.conjugate(a, b), self.conjugate(b, self.inverse(a)))
            self.conjugation_tables()[a, b] = images
            return images


class RealizedGroup(Group):
    """A group realized by coset enumeration; keys are the element ids.

    Arithmetic follows the generator actions: g h is g moved along the
    shortest word for h, and the inverses are tabled once.
    """

    def __init__(self, realization: CayleyRealization, name: Optional[str] = None):
        self.realization = realization
        self.name = name or f"<{','.join(realization.origin.generators)}|...>"
        self.order = realization.order
        self.identity = 0  # ids are numbered breadth-first from the identity
        # each generator's key is the image of the identity (id 0) under it
        self.generator_keys = tuple(forward[0] for forward, _ in realization.action)
        self._inverses = tuple(self._follow(0, [(i, -s) for i, s in reversed(w)]) for w in realization.letters)

    def _follow(self, g: int, letters) -> int:
        action = self.realization.action
        for idx, sign in letters:
            g = action[idx][0 if sign > 0 else 1][g]
        return g

    def multiply(self, g: int, h: int) -> int:
        self._check(g)
        self._check(h)
        return self._follow(g, self.realization.letters[h])

    def inverse(self, g: int) -> int:
        self._check(g)
        return self._inverses[g]

    def representative_word(self, g: int) -> Word:
        """A shortest word in the generators evaluating to element g."""
        self._check(g)
        return Word(self.realization.origin.generators, self.realization.letters[g])

    def element_name(self, g: int) -> str:
        return str(self.representative_word(g))

    def evaluate_word(self, w: Word) -> int:
        if w.alphabet != self.realization.origin.generators:
            raise AlphabetMismatchError(
                f"word over {w.alphabet} cannot be evaluated in a realization "
                f"of {self.realization.origin.generators}"
            )
        return self._follow(0, w.letters)


def _compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """Apply p, then q (left-to-right product)."""
    return tuple(map(q.__getitem__, p))


def _invert_perm(p: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_notation(perm: Tuple[int, ...]) -> str:
    """One-line cycle form on points 1..n, e.g. ``(1 2)(3 4)``."""
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) or "()"


class PermutationGroup(Group):
    """Permutations of {1..n}, closed from the generators.

    A key is the permutation's position in the sorted list of the group's
    elements, so the keys are 0..order-1, the identity is 0, and in S_n a
    key is the Lehmer rank of its permutation.
    """

    def __init__(self, degree: int, generators: Sequence[Tuple[int, ...]], name: str = "perm-group"):
        self.degree = degree
        self.name = name
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"{g} is not a permutation of 0..{degree - 1}")
        identity = tuple(range(degree))
        elements = {identity}
        frontier = [identity]
        while frontier:
            new = []
            for p in frontier:
                for g in generators:
                    q = _compose(p, g)
                    if q not in elements:
                        elements.add(q)
                        new.append(q)
            frontier = new
        self._perms = sorted(elements)
        self.order = len(self._perms)
        self.identity = 0  # the identity sorts first
        self._keys = {p: k for k, p in enumerate(self._perms)}
        self.generator_keys = tuple(self._keys[tuple(g)] for g in generators)

    def permutation(self, key: int) -> Tuple[int, ...]:
        self._check(key)
        return self._perms[key]

    def key_of(self, perm: Tuple[int, ...]) -> int:
        try:
            return self._keys[tuple(perm)]
        except KeyError:
            raise ValueError(f"{perm} is not an element of {self.name}") from None

    def multiply(self, g: int, h: int) -> int:
        self._check(g)
        self._check(h)
        return self._keys[_compose(self._perms[g], self._perms[h])]

    def inverse(self, g: int) -> int:
        self._check(g)
        return self._keys[_invert_perm(self._perms[g])]

    def element_name(self, g: int) -> str:
        return cycle_notation(self.permutation(g))


def symmetric_group(n: int) -> PermutationGroup:
    """Full S_n for 1 <= n <= 8; a key is the permutation's index in
    ``itertools.permutations(range(n))``, its Lehmer rank."""
    if not 1 <= n <= 8:
        raise ValueError("symmetric_group supports 1 <= n <= 8")
    if n == 1:
        return PermutationGroup(1, [(0,)], name="S1")
    transpositions = [
        tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
        for i in range(n - 1)
    ]
    return PermutationGroup(n, transpositions, name=f"S{n}")
