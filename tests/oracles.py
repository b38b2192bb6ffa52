"""Independent oracles the tests check the library against.

Nothing here imports the modules under test beyond the public Group
interface, and the orbit oracle deliberately uses a different traversal
(DFS on unpacked tuples) than the library's packed BFS.
"""

import itertools
import json
from fractions import Fraction as F

from hurwitzorbits.groups import Group, PermutationGroup


def element_order_multiset(group):
    """Sorted orders of all elements: equal for isomorphic groups."""
    return tuple(sorted(group.element_order(g) for g in group.elements()))


# --- explicit dihedral groups ------------------------------------------------


class DihedralGroup(Group):
    """Direct dihedral backend of order 2n: elements r^k f^e, key 2k + e."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dihedral parameter must be >= 1")
        self.n = n
        self.name = f"D{2 * n}"

    @property
    def order(self) -> int:
        return 2 * self.n

    @property
    def identity(self) -> int:
        return 0

    def elements(self):
        return range(2 * self.n)

    def multiply(self, g: int, h: int) -> int:
        k1, e1 = divmod(g, 2)
        k2, e2 = divmod(h, 2)
        k = (k1 + (k2 if e1 == 0 else -k2)) % self.n
        return 2 * k + (e1 ^ e2)

    def inverse(self, g: int) -> int:
        k, e = divmod(g, 2)
        return g if e else 2 * ((-k) % self.n)

    def element_name(self, g: int) -> str:
        k, e = divmod(g, 2)
        rot = "1" if k == 0 else f"r^{k}" if k > 1 else "r"
        return rot + (" f" if e else "") if (k or e) else "1"


def dihedral_permutation_group(n: int) -> PermutationGroup:
    """D_2n acting on n points: an n-cycle and a reflection."""
    if n == 1:
        return PermutationGroup(2, [(1, 0)], name="D2")
    if n == 2:
        return PermutationGroup(4, [(1, 0, 3, 2), (0, 1, 3, 2)], name="D4")
    rotation = tuple(list(range(1, n)) + [0])
    reflection = tuple((n - i) % n for i in range(n))
    return PermutationGroup(n, [rotation, reflection], name=f"D{2 * n}")


# --- unit quaternions ----------------------------------------------------------

_QUAT_UNITS = [
    (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
    (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
]
_QUAT_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


class QuaternionGroup(Group):
    """Direct Q8 backend over the unit quaternions."""

    name = "Q8"

    def __init__(self):
        index = {q: i for i, q in enumerate(_QUAT_UNITS)}
        self._table = [
            [index[_quat_mul(a, b)] for b in _QUAT_UNITS] for a in _QUAT_UNITS
        ]
        self._inv = [
            next(j for j in range(8) if self._table[i][j] == 0) for i in range(8)
        ]

    @property
    def order(self) -> int:
        return 8

    @property
    def identity(self) -> int:
        return 0

    def elements(self):
        return range(8)

    def multiply(self, g: int, h: int) -> int:
        return self._table[g][h]

    def inverse(self, g: int) -> int:
        return self._inv[g]

    def element_name(self, g: int) -> str:
        return _QUAT_NAMES[g]


# --- exact cyclotomic matrix closure ------------------------------------------
#
# Arithmetic in Q(z) for z a primitive 12th root of unity: elements are
# 4-tuples of Fractions, coordinates in the basis 1, z, z^2, z^3 with
# z^4 = z^2 - 1. The cube root of unity w = z^4 and sqrt(3) = z + z^11
# both live here, so one number field covers both reflection groups.

_ZERO = (F(0), F(0), F(0), F(0))
_ONE = (F(1), F(0), F(0), F(0))


def cyc_mul(x, y):
    out = [F(0)] * 7
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i + j] += a * b
    for k in (6, 5, 4):
        c = out[k]
        if c:
            out[k] = F(0)
            out[k - 2] += c
            out[k - 4] -= c
    return tuple(out[:4])


def cyc_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def mat_mul(A, B):
    return tuple(
        tuple(
            cyc_add(cyc_mul(A[i][0], B[0][j]), cyc_mul(A[i][1], B[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )


def matrix_closure_order(generators) -> int:
    """Number of distinct matrices in the closure under multiplication."""
    elements = set(generators)
    frontier = list(elements)
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                x = mat_mul(m, g)
                if x not in elements:
                    elements.add(x)
                    new.append(x)
        frontier = new
    return len(elements)


MATRIX_IDENTITY = ((_ONE, _ZERO), (_ZERO, _ONE))

_W = (F(-1), F(0), F(1), F(0))  # w = z^4, primitive cube root of unity
_SQRT3 = (F(0), F(2), F(0), F(-1))  # z + z^11

# Order-3 reflections a = diag(w, 1) and b with trace 1 + w, det w,
# satisfying the braid relation a b a = b a b; closure has order 24.
G4_MATRIX_GENERATORS = (
    ((_W, _ZERO), (_ZERO, _ONE)),
    (
        ((F(1, 3), F(0), F(1, 3), F(0)), _ONE),
        ((F(2, 3), F(0), F(-2, 3), F(0)), (F(-1, 3), F(0), F(2, 3), F(0))),
    ),
)

# a = diag(w, 1) of order 3 and an order-2 reflection b with
# (a b)^3 = (b a)^3; closure has order 48.
_P = tuple(v / 3 for v in _SQRT3)  # sqrt(3)/3
G6_MATRIX_GENERATORS = (
    ((_W, _ZERO), (_ZERO, _ONE)),
    (
        (_P, (F(2, 3), F(0), F(0), F(0))),
        (_ONE, tuple(-v for v in _P)),
    ),
)


# --- Cayley tables and Coxeter data -------------------------------------------


def cayley_tables(generators, multiply, inverse, identity):
    """A concrete group's generator tables, in ``CayleyRealization.action`` form.

    Elements are numbered breadth-first from the identity: each element in
    turn, each generator in order, the product by the generator before the
    product by its inverse. ``tables[i][0][x]`` is the id of x g_i and
    ``tables[i][1][x]`` the id of x g_i^-1.
    """
    steps = [s for g in generators for s in (g, inverse(g))]
    ids = {identity: 0}
    elements = [identity]
    columns = [[] for _ in steps]
    for x in elements:  # elements grows while this runs
        for step, column in zip(steps, columns):
            y = multiply(x, step)
            if y not in ids:
                ids[y] = len(elements)
                elements.append(y)
            column.append(ids[y])
    return [(tuple(columns[i]), tuple(columns[i + 1])) for i in range(0, len(steps), 2)]


def coxeter_matrix(n, edges):
    """Coxeter matrix of rank n: m_ij from (i, j, m) edges, 2 elsewhere."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, mij in edges:
        m[i][j] = m[j][i] = mij
    return m


def coxeter_chain(*labels):
    """A linear diagram s1 - s2 - ... with the given edge labels."""
    return coxeter_matrix(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)])


def coxeter_d(n):
    """Type D_n: a chain of n - 1 nodes with s_n joined to s_(n-2)."""
    return coxeter_matrix(n, [(i, i + 1, 3) for i in range(n - 2)] + [(n - 3, n - 1, 3)])


# --- independent orbit traversal ----------------------------------------------


def orbit_dfs(group, factors, node_cap=10_000_000):
    """Depth-first Hurwitz orbit closure over plain tuples.

    Returns (members, capped). Moves are computed straight from the group
    operations, independent of the library's move and packing code.
    """
    start = tuple(factors)
    length = len(start)
    seen = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for i in range(length - 1):
            a, b = t[i], t[i + 1]
            fwd = t[:i] + (b, group.multiply(group.multiply(group.inverse(b), a), b)) + t[i + 2 :]
            bwd = t[:i] + (group.multiply(group.multiply(a, b), group.inverse(a)), a) + t[i + 2 :]
            for u in (fwd, bwd):
                if u not in seen:
                    if len(seen) >= node_cap:
                        return seen, True
                    seen.add(u)
                    stack.append(u)
    return seen, False


def transposition_pair_orbits(group):
    """Partition all ordered pairs of transpositions into Hurwitz orbits."""
    transpositions = [
        g for g in group.elements() if group.element_order(g) == 2
        and _is_transposition(group, g)
    ]
    pairs = {(x, y) for x in transpositions for y in transpositions}
    orbits = []
    while pairs:
        seed = sorted(pairs)[0]
        members, _ = orbit_dfs(group, seed)
        orbits.append(members)
        pairs -= members
    return orbits


def _is_transposition(group, g):
    perm = group.permutation(g)
    return sum(1 for i, v in enumerate(perm) if v != i) == 2


# --- exhaustive orbit census ---------------------------------------------------


class TableGroup(Group):
    """A group read once into a multiplication table: the census's arithmetic."""

    def __init__(self, group):
        self.name = group.name
        self._identity = group.identity
        els = range(group.order)
        self.table = [[group.multiply(a, b) for b in els] for a in els]
        self.inv = [group.inverse(a) for a in els]

    @property
    def order(self):
        return len(self.table)

    @property
    def identity(self):
        return self._identity

    def multiply(self, g, h):
        return self.table[g][h]

    def inverse(self, g):
        return self.inv[g]

    def conjugate(self, g, y):
        return self.table[self.table[self.inv[y]][g]][y]


def orbit_census(group, n):
    """Every Hurwitz orbit of G^n: (table, orbit id of each n-tuple, sizes).

    Each orbit is closed by ``orbit_dfs`` over a ``TableGroup`` built once;
    its keys are the group's, so library factorizations look up directly.
    """
    table = TableGroup(group)
    orbit_of, sizes = {}, []
    for t in itertools.product(range(table.order), repeat=n):
        if t not in orbit_of:
            members, _ = orbit_dfs(table, t)
            orbit_of.update(dict.fromkeys(members, len(sizes)))
            sizes.append(len(members))
    return table, orbit_of, sizes


# --- whole-text graph export ----------------------------------------------------


def export_orbit_graph_reference(o, format="dot", self_loops=False):
    """The graph export as one whole object: a list of edges, then json.dumps.

    The library writes the same text piece by piece; this is the export it
    replaced, kept as the byte-for-byte reference (a capped orbit raises
    ``ValueError`` here, so nothing but ``Group`` is imported).
    """
    if o.capped:
        raise ValueError(
            "orbit is capped; rerun with a larger node cap to export the graph"
        )
    if format not in ("dot", "json"):
        raise ValueError("format must be 'dot' or 'json'")
    group = o.base.group
    length = len(o.base.factors)
    vertices = sorted(o.members)
    index = {t: k for k, t in enumerate(vertices)}
    # each element is named once, not once per occurrence
    names = {x: group.element_name(x) for x in {x for t in vertices for x in t}}

    def label(t):
        return "(" + ", ".join(map(names.__getitem__, t)) + ")"

    edges = []
    for t, k in index.items():
        for i in range(1, length):
            a, b = t[i - 1], t[i]
            if a == b and not self_loops:
                continue  # a forward move fixes (a, a) and nothing else
            u = t[: i - 1] + (b, group.move_images(a, b)[0]) + t[i + 1 :]
            edges.append((k, index[u], i))

    if format == "json":
        return json.dumps(
            {
                "vertices": [label(t) for t in vertices],
                "edges": [{"from": a, "to": b, "move": i} for a, b, i in edges],
            },
            indent=2,
        )
    lines = ["digraph hurwitz_orbit {"]
    for t in vertices:
        lines.append(f'  v{index[t]} [label="{label(t)}"];')
    for a, b, i in edges:
        lines.append(f'  v{a} -> v{b} [label="s{i}"];')
    lines.append("}")
    return "\n".join(lines)
