"""A uniform finite-group interface over multiple backends.

Elements are canonical small-integer keys, so orbit machinery can hash and
deduplicate factorizations without caring which backend produced them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .toddcoxeter import CayleyRealization


class Group:
    """Finite group with elements keyed by small integers."""

    name = "group"

    @property
    def order(self) -> int:
        raise NotImplementedError

    @property
    def identity(self) -> int:
        raise NotImplementedError

    def elements(self) -> Sequence[int]:
        raise NotImplementedError

    def multiply(self, g: int, h: int) -> int:
        raise NotImplementedError

    def inverse(self, g: int) -> int:
        raise NotImplementedError

    def element_name(self, g: int) -> str:
        return str(g)

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
        """This group's memo of conjugates: (a, b) -> (b^-1 a b, a b a^-1).

        It starts empty. Orbit searches fill it with the pairs of factors they
        meet and share it, so repeated searches over one group make few group
        calls, and no search computes a conjugate it does not need.
        """
        return self.__dict__.setdefault("_conj_tables", {})


class RealizedGroup(Group):
    """Backend over a CayleyRealization; keys are the element ids."""

    def __init__(self, realization: CayleyRealization, name: Optional[str] = None):
        self.realization = realization
        self.name = name or f"<{','.join(realization.origin.generators)}|...>"

    @property
    def order(self) -> int:
        return self.realization.order

    @property
    def identity(self) -> int:
        return self.realization.identity_id

    def elements(self) -> Sequence[int]:
        return range(self.realization.order)

    def multiply(self, g: int, h: int) -> int:
        return self.realization.multiply(g, h)

    def inverse(self, g: int) -> int:
        return self.realization.inverse(g)

    def element_name(self, g: int) -> str:
        return str(self.realization.representative_word(g))

    def evaluate_word(self, w) -> int:
        return self.realization.evaluate_word(w)


def _lehmer_rank(perm: Tuple[int, ...]) -> int:
    n = len(perm)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if perm[j] < perm[i])
        rank = rank * (n - i) + smaller
    return rank


def _compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """Apply p, then q (left-to-right product)."""
    return tuple(q[p[x]] for x in range(len(p)))


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
    """Permutations of {1..n}; keys are Lehmer-code ranks."""

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
        self._by_key: Dict[int, Tuple[int, ...]] = {
            _lehmer_rank(p): p for p in elements
        }
        self._keys = sorted(self._by_key)
        self.generator_keys = tuple(_lehmer_rank(g) for g in generators)

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def identity(self) -> int:
        return 0  # the identity permutation has Lehmer rank 0

    def elements(self) -> Sequence[int]:
        return self._keys

    def permutation(self, key: int) -> Tuple[int, ...]:
        return self._by_key[key]

    def key_of(self, perm: Tuple[int, ...]) -> int:
        key = _lehmer_rank(tuple(perm))
        if key not in self._by_key:
            raise ValueError(f"{perm} is not an element of {self.name}")
        return key

    def multiply(self, g: int, h: int) -> int:
        return _lehmer_rank(_compose(self._by_key[g], self._by_key[h]))

    def inverse(self, g: int) -> int:
        return _lehmer_rank(_invert_perm(self._by_key[g]))

    def element_name(self, g: int) -> str:
        return cycle_notation(self._by_key[g])


def symmetric_group(n: int) -> PermutationGroup:
    """Full S_n for 1 <= n <= 8 (keys are Lehmer ranks, dense 0..n!-1)."""
    if not 1 <= n <= 8:
        raise ValueError("symmetric_group supports 1 <= n <= 8")
    if n == 1:
        return PermutationGroup(1, [(0,)], name="S1")
    transpositions = [
        tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
        for i in range(n - 1)
    ]
    return PermutationGroup(n, transpositions, name=f"S{n}")
