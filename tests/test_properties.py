"""Property tests: Hurwitz invariants, the DFS oracle and the graph export.

Hypothesis draws small tuples in S4, G4 and G6 (orders 24, 24 and 48), so
every orbit has at most a few thousand members and the whole file stays
within a couple of seconds.
"""

import itertools
import json
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import orbit_dfs

from hurwitzorbits import presentations as P
from hurwitzorbits import words
from hurwitzorbits.groups import PermutationGroup
from hurwitzorbits.hurwitz import (
    Factorization,
    Finite,
    export_orbit_graph,
    hurwitz_move,
    orbit,
    orbit_size,
    orbit_sizes,
    product,
    same_orbit,
)

SMALL = settings(max_examples=12, deadline=None, database=None)

# group fixture -> longest tuple drawn; with the product fixed, an orbit of
# length n has at most |G|^(n-1) members
GROUPS = {"s4": 4, "g4_group": 4, "g6_group": 3}


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group_and_length(request):
    return request.getfixturevalue(request.param), GROUPS[request.param]


def _draw_orbit(data, group, max_length):
    factors = data.draw(
        st.lists(st.sampled_from(range(group.order)), min_size=1, max_size=max_length),
        label="factors",
    )
    f = Factorization(group, tuple(factors))
    return f, orbit(f)


def _class_invariant(group, g):
    """The cycle type in S_n; elsewhere the least key of g's conjugacy class."""
    if isinstance(group, PermutationGroup):
        perm, seen, lengths = group.permutation(g), set(), []
        for start in range(len(perm)):
            n, x = 0, start
            while x not in seen:
                seen.add(x)
                x, n = perm[x], n + 1
            if n:
                lengths.append(n)
        return tuple(sorted(lengths))
    return min(group.conjugate(g, y) for y in group.elements())


@given(data=st.data())
@SMALL
def test_product_and_class_multiset_hold_on_the_orbit(group_and_length, data):
    group, max_length = group_and_length
    f, o = _draw_orbit(data, group, max_length)
    p = product(f)
    invariant = {g: _class_invariant(group, g) for g in group.elements()}
    classes = Counter(map(invariant.__getitem__, f.factors))
    for t in o.members:
        assert product(Factorization(group, t)) == p
        assert Counter(map(invariant.__getitem__, t)) == classes


@given(data=st.data())
@SMALL
def test_orbit_is_closed_under_conjugation_by_the_product(group_and_length, data):
    group, max_length = group_and_length
    f, o = _draw_orbit(data, group, max_length)
    p = product(f)
    for t in o.members:
        assert tuple(group.conjugate(x, p) for x in t) in o.members


@given(data=st.data())
@SMALL
def test_orbit_size_matches_the_dfs_oracle(group_and_length, data):
    group, max_length = group_and_length
    f, o = _draw_orbit(data, group, max_length)
    members, capped = orbit_dfs(group, f.factors)
    assert not capped
    assert orbit_size(f) == Finite(len(members))
    assert o.members == members


@given(data=st.data(), self_loops=st.booleans())
@SMALL
def test_exported_edges_are_forward_moves(group_and_length, data, self_loops):
    group, max_length = group_and_length
    f, o = _draw_orbit(data, group, max_length)
    graph = json.loads(export_orbit_graph(o, "json", self_loops=self_loops))
    vertices = sorted(o.members)
    assert graph["vertices"] == [str(Factorization(group, t)) for t in vertices]
    for e in graph["edges"]:
        moved = hurwitz_move(Factorization(group, vertices[e["from"]]), e["move"])
        assert moved.factors == vertices[e["to"]]
    moving = sum(
        1 for t in vertices for i in range(1, len(t)) if self_loops or t[i - 1] != t[i]
    )
    assert len(graph["edges"]) == moving


@pytest.mark.parametrize("name", ["s4", "g6_group"])
@given(data=st.data(), node_cap=st.sampled_from([10_000_000, 5]))
@SMALL
def test_orbit_sizes_matches_orbit_size_per_tuple(request, name, data, node_cap):
    group = request.getfixturevalue(name)
    # one to three drawn tuples, each followed by up to three members of its
    # orbit, then shuffled
    fs = []
    for _ in range(data.draw(st.integers(1, 3), label="seeds")):
        f, o = _draw_orbit(data, group, GROUPS[name])
        members = sorted(o.members)
        picks = data.draw(st.lists(st.sampled_from(members), max_size=3), label="members")
        fs += [f] + [Factorization(group, t) for t in picks]
    fs = data.draw(st.permutations(fs), label="order")
    assert orbit_sizes(fs, node_cap) == [orbit_size(f, node_cap) for f in fs]


def _ending_in(group, prefix, p):
    """``prefix`` with one more factor, chosen so the product is ``p``."""
    q = group.identity
    for x in prefix:
        q = group.multiply(q, x)
    return tuple(prefix) + (group.multiply(group.inverse(q), p),)


@given(data=st.data())
@SMALL
def test_capped_searches_hold_part_of_the_orbit(group_and_length, data):
    group, max_length = group_and_length
    f, _ = _draw_orbit(data, group, max_length)
    members, capped = orbit_dfs(group, f.factors)
    assert not capped
    k = data.draw(st.integers(1, len(members) + 1), label="node_cap")
    o = orbit(f, k)
    assert o.capped == (len(members) > k)
    assert o.size == min(k, len(members)) and o.members <= members
    # a member, and when there is one, a non-member with the same product
    gs = [data.draw(st.sampled_from(sorted(members)), label="member")]
    p, n = product(f), len(f)
    prefixes = itertools.product(group.elements(), repeat=n - 1)
    outside = sorted({_ending_in(group, t, p) for t in prefixes} - members)
    if outside:
        gs.append(data.draw(st.sampled_from(outside), label="non-member"))
    for g in gs:
        answer = same_orbit(f, Factorization(group, g), k)
        assert answer == ("yes" if g in members else "no") or answer == "unknown"
        assert answer != "unknown" or len(members) > k


FIRST = "abstxyzABστ_"
NAMES = st.builds(str.__add__, st.sampled_from(FIRST), st.text(FIRST + "0129", max_size=3))


@st.composite
def presentations(draw):
    names = tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    letter = st.tuples(st.integers(0, len(names) - 1), st.sampled_from((1, -1)))
    raws = draw(st.lists(st.lists(letter, min_size=1, max_size=8), max_size=4))
    relators = (words.reduce_word(names, raw) for raw in raws)
    return P.Presentation(names, tuple(r for r in relators if not r.is_empty))


@given(presentations())
@settings(max_examples=60, deadline=None, database=None)
def test_render_and_parse_presentation_round_trip(p):
    assert P.parse_presentation(P.render_presentation(p)) == p
