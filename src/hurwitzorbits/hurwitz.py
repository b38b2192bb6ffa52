"""Hurwitz moves on factorizations and orbit enumeration.

The forward move at position i (1-based, 1 <= i <= len-1) sends
(..., x_i, x_{i+1}, ...) to (..., x_{i+1}, x_{i+1}^-1 x_i x_{i+1}, ...);
the inverse move sends it to (..., x_i x_{i+1} x_i^-1, x_i, ...). Both
preserve the left-to-right product. An orbit is the BFS closure under forward
moves alone: each permutes the finite set G^n, so a power of it is its inverse.

Both moves rewrite one adjacent pair of factors by conjugation, so one
splice, ``move_tuple``, makes either move on a tuple in any group given
b^-1 a b: ``hurwitz_move`` on group keys, ``equalities.word_tuple_move`` on
free-group words. The orbit search and the graph export read
``Group.move_image``, the group's memo of b^-1 a b, directly, so there is one
code path for every backend and group order, and the work of a search is
bounded by the orbit. One search answers every orbit query:
``orbit``, ``orbit_sizes`` and ``same_orbit`` read the packed states it returns.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterator, List, Literal, Optional, Sequence, Tuple, Union

from .groups import Group

DEFAULT_NODE_CAP = 10_000_000

FORWARD = "forward"
INVERSE = "inverse"
Direction = Literal["forward", "inverse"]


class CappedOrbitError(RuntimeError):
    """Raised when an operation needs a complete orbit but got a capped one."""


@dataclass(frozen=True)
class Factorization:
    group: Group
    factors: Tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a factorization has length >= 1")
        if min(self.factors) < 0 or max(self.factors) >= self.group.order:
            raise ValueError(f"factors {self.factors} are not all keys 0..{self.group.order - 1}")

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "(" + ", ".join(self.group.element_name(x) for x in self.factors) + ")"


@dataclass(frozen=True)
class Orbit:
    base: Factorization
    members: FrozenSet[Tuple[int, ...]]
    capped: bool

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Finite:
    size: int


@dataclass(frozen=True)
class AtLeast:
    size: int


OrbitSize = Union[Finite, AtLeast]


def product(f: Factorization) -> int:
    g = f.group
    out = g.identity
    for x in f.factors:
        out = g.multiply(out, x)
    return out


def move_tuple(t: Tuple, i: int, direction: Direction, image: Callable, inverse: Callable) -> Tuple:
    """The move at position i of a tuple in any group with ``image(a, b)`` = b^-1 a b.

    The forward move sends the pair (a, b) to (b, image(a, b)), and the
    inverse move to (image(b, inverse(a)), a), which is (a b a^-1, a).
    """
    if not 1 <= i <= len(t) - 1:
        raise ValueError(f"move position {i} out of range 1..{len(t) - 1}")
    a, b = t[i - 1], t[i]
    if direction == FORWARD:
        pair = (b, image(a, b))
    elif direction == INVERSE:
        pair = (image(b, inverse(a)), a)
    else:
        raise ValueError(f"direction must be {FORWARD!r} or {INVERSE!r}")
    return t[: i - 1] + pair + t[i + 1 :]


def hurwitz_move(f: Factorization, i: int, direction: Direction = FORWARD) -> Factorization:
    group = f.group
    return Factorization(group, move_tuple(f.factors, i, direction, group.move_image, group.inverse))


class _Widen(Exception):
    """A search met more distinct factors than its digits can number."""


def _explore(f: Factorization, node_cap: int):
    """BFS closure under forward moves. Returns (seen, capped, index, bits).

    A capped search holds the first ``node_cap`` states it meets. A state packs
    each factor's ``index`` (numbered as the search meets factors) into a
    ``bits``-wide digit of one integer, the narrowest that count allows; a
    search that outgrows its digits restarts wider, once per doubling at most.
    """
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    keys = list(dict.fromkeys(f.factors))
    while True:
        try:
            return _search(f, node_cap, keys)
        except _Widen:
            pass  # ``keys`` has grown, and the next search numbers all of it


def _search(f: Factorization, node_cap: int, keys: List[int]):
    """A forward move XORs the state with a delta set by the pair it rewrites.

    Each position's table maps a packed pair to its delta, shifted into
    place and filled from ``Group.move_image`` when the pair is first met,
    so the work is bounded by the orbit. (a, a), which the move fixes, gets 0.
    """
    move_image = f.group.move_image
    index = {x: k for k, x in enumerate(keys)}
    bits = max((len(keys) - 1).bit_length(), 1)
    mask, pair_mask = (1 << bits) - 1, (1 << 2 * bits) - 1

    def local(x: int) -> int:
        k = index.get(x)
        if k is None:
            k = index[x] = len(keys)
            keys.append(x)
            if k > mask:
                raise _Widen
        return k

    def delta(p: int) -> int:
        a, b = p >> bits, p & mask
        return 0 if a == b else p ^ ((b << bits) | local(move_image(keys[a], keys[b])))

    positions = [(bits * i, {}) for i in range(len(f.factors) - 2, -1, -1)]
    seen = {_pack(f.factors, index, bits)}
    queue = deque(seen)
    while queue:
        base = queue.popleft()
        for shift, deltas in positions:
            p = (base >> shift) & pair_mask
            try:
                d = deltas[p]
            except KeyError:
                d = deltas[p] = delta(p) << shift
            if d:
                state = base ^ d
                if state not in seen:
                    if len(seen) >= node_cap:
                        return seen, True, index, bits
                    seen.add(state)
                    queue.append(state)
    return seen, False, index, bits


def _pack(t: Sequence[int], index, bits: int) -> int:
    out = 0
    for x in t:
        out = (out << bits) | index[x]
    return out


def _contains(t: Sequence[int], seen, index, bits: int) -> bool:
    """Whether a search's states hold ``t``; a factor the search never met puts it outside."""
    return all(x in index for x in t) and _pack(t, index, bits) in seen


def orbit(f: Factorization, node_cap: int = DEFAULT_NODE_CAP) -> Orbit:
    seen, capped, index, bits = _explore(f, node_cap)
    keys, mask, shifts = list(index), (1 << bits) - 1, range(bits * (len(f) - 1), -1, -bits)
    members = frozenset(tuple(keys[(state >> s) & mask] for s in shifts) for state in seen)
    return Orbit(base=f, members=members, capped=capped)


def orbit_size(f: Factorization, node_cap: int = DEFAULT_NODE_CAP) -> OrbitSize:
    return orbit_sizes([f], node_cap)[0]


def orbit_sizes(fs: Sequence[Factorization], node_cap: int = DEFAULT_NODE_CAP) -> List[OrbitSize]:
    """The orbit size of each factorization in ``fs``, one search per orbit met.

    A capped search gives ``AtLeast(node_cap)`` to every tuple among its states,
    as their own searches would: any search caps iff its orbit exceeds the cap.
    """
    if any(f.group is not fs[0].group for f in fs):
        raise ValueError("factorizations live in different groups")
    out: List[Optional[OrbitSize]] = [None] * len(fs)
    for i, f in enumerate(fs):
        if out[i] is None:
            seen, capped, index, bits = _explore(f, node_cap)
            size = AtLeast(node_cap) if capped else Finite(len(seen))
            for j, t in enumerate(g.factors for g in fs):
                if out[j] is None and len(t) == len(f.factors) and _contains(t, seen, index, bits):
                    out[j] = size
            del seen  # free the orbit before the next search builds its own
    return out


def same_orbit(
    f1: Factorization, f2: Factorization, node_cap: int = DEFAULT_NODE_CAP
) -> Literal["yes", "no", "unknown"]:
    """Whether f2 lies in the orbit of f1: "yes", "no" or "unknown".

    Moves preserve the product, so a different product is "no" with no search.
    Otherwise "yes" iff f2 is among the states of ``orbit(f1, node_cap)``;
    "unknown" when that search capped (only when |O| > node_cap), else "no".
    """
    if f1.group is not f2.group:
        raise ValueError("factorizations live in different groups")
    if len(f1.factors) != len(f2.factors):
        raise ValueError("factorizations have different lengths")
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    if product(f1) != product(f2):
        return "no"  # moves preserve the product
    seen, capped, index, bits = _explore(f1, node_cap)
    if _contains(f2.factors, seen, index, bits):
        return "yes"
    return "unknown" if capped else "no"


def export_orbit_graph(
    o: Orbit, format: str = "dot", self_loops: bool = False
) -> str:
    """Render an orbit as DOT or JSON; edges are forward moves labeled s_i."""
    return "".join(orbit_graph_pieces(o, format, self_loops))


def orbit_graph_pieces(o: Orbit, format: str, self_loops: bool) -> Iterator[str]:
    """The text of ``export_orbit_graph``, one piece per vertex and per edge."""
    if o.capped:
        raise CappedOrbitError(
            "orbit is capped; rerun with a larger node cap to export the graph"
        )
    if format not in ("dot", "json"):
        raise ValueError("format must be 'dot' or 'json'")
    group = o.base.group
    vertices = sorted(o.members)
    index = {t: k for k, t in enumerate(vertices)}
    # each element is named once, not once per occurrence
    names = {x: group.element_name(x) for x in {x for t in vertices for x in t}}

    def label(t):
        return "(" + ", ".join(map(names.__getitem__, t)) + ")"

    def edges():
        for k, t in enumerate(vertices):
            for i in range(1, len(t)):
                a, b = t[i - 1], t[i]
                if a == b and not self_loops:
                    continue  # a forward move fixes (a, a) and nothing else
                u = t[: i - 1] + (b, group.move_image(a, b)) + t[i + 1 :]
                yield k, index[u], i

    if format == "json":  # the layout of json.dumps(indent=2), labels escaped by json.dumps
        yield '{\n  "vertices": [\n    ' + json.dumps(label(vertices[0]))
        for t in vertices[1:]:
            yield ",\n    " + json.dumps(label(t))
        sep = '\n  ],\n  "edges": ['
        for a, b, i in edges():
            yield f'{sep}\n    {{\n      "from": {a},\n      "to": {b},\n      "move": {i}\n    }}'
            sep = ","
        yield "\n  ]\n}" if sep == "," else sep + "]\n}"  # json.dumps writes no edge as []
        return
    yield "digraph hurwitz_orbit {"
    for k, t in enumerate(vertices):
        yield f'\n  v{k} [label="{label(t)}"];'
    for a, b, i in edges():
        yield f'\n  v{a} -> v{b} [label="s{i}"];'
    yield "\n}"
