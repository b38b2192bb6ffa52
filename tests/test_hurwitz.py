import json
import math
import random

import pytest

from oracles import (
    coxeter_chain,
    coxeter_d,
    dihedral_permutation_group,
    export_orbit_graph_reference,
    orbit_dfs,
    transposition_pair_orbits,
)

from hurwitzorbits import presentations as P
from hurwitzorbits import words
from hurwitzorbits.groups import RealizedGroup
from hurwitzorbits.hurwitz import (
    FORWARD,
    INVERSE,
    AtLeast,
    CappedOrbitError,
    Factorization,
    Finite,
    apply_braid,
    export_orbit_graph,
    hurwitz_move,
    orbit,
    orbit_size,
    orbit_sizes,
    product,
    same_orbit,
)
from hurwitzorbits.toddcoxeter import enumerate_cosets


def fz(group, *factors):
    return Factorization(group, tuple(factors))


def test_forward_move_definition(s3):
    t12 = s3.key_of((1, 0, 2))
    t23 = s3.key_of((0, 2, 1))
    moved = hurwitz_move(fz(s3, t12, t23), 1, FORWARD)
    assert moved.factors == (t23, s3.conjugate(t12, t23))


def test_inverse_move_undoes_forward(s4):
    rng = random.Random(1)
    els = list(s4.elements())
    for _ in range(100):
        f = fz(s4, *(rng.choice(els) for _ in range(4)))
        for i in (1, 2, 3):
            assert hurwitz_move(hurwitz_move(f, i, FORWARD), i, INVERSE) == f
            assert hurwitz_move(hurwitz_move(f, i, INVERSE), i, FORWARD) == f


def test_moves_preserve_product(s4):
    rng = random.Random(2)
    els = list(s4.elements())
    for _ in range(100):
        f = fz(s4, *(rng.choice(els) for _ in range(3)))
        i = rng.choice((1, 2))
        d = rng.choice((FORWARD, INVERSE))
        assert product(hurwitz_move(f, i, d)) == product(f)


def test_move_position_bounds(s3):
    f = fz(s3, s3.identity, s3.identity)
    with pytest.raises(ValueError):
        hurwitz_move(f, 0)
    with pytest.raises(ValueError):
        hurwitz_move(f, 2)


def test_move_rejects_bad_direction(s3):
    with pytest.raises(ValueError):
        hurwitz_move(fz(s3, 0, 0), 1, "sideways")


def test_apply_braid_composes(s4):
    rng = random.Random(3)
    els = list(s4.elements())
    f = fz(s4, *(rng.choice(els) for _ in range(3)))
    moves = [(rng.choice((1, 2)), rng.choice((FORWARD, INVERSE))) for _ in range(6)]
    step = f
    for i, d in moves:
        step = hurwitz_move(step, i, d)
    assert apply_braid(f, moves) == step


def test_factorization_requires_a_factor(s3):
    with pytest.raises(ValueError):
        Factorization(s3, ())


@pytest.mark.parametrize("group_name", ["s3", "g4_group"])
@pytest.mark.parametrize("factors", [(-1, 1), (1, -1), (99, 99), (0, 24)])
def test_factorization_rejects_keys_outside_the_group(group_name, factors, request):
    # -1 once named the same S3 element as 5, so (-1, 1) and (5, 1) had orbits of different sizes
    with pytest.raises(ValueError, match="not all keys"):
        Factorization(request.getfixturevalue(group_name), factors)


def test_singleton_orbit(s3):
    assert orbit_size(fz(s3, s3.key_of((1, 0, 2)))) == Finite(1)


def test_s3_transposition_orbit_size(s3):
    t12 = s3.key_of((1, 0, 2))
    t23 = s3.key_of((0, 2, 1))
    assert orbit_size(fz(s3, t12, t23)) == Finite(3)


def test_orbit_matches_dfs_oracle(s4, g4_group):
    rng = random.Random(4)
    for group in (s4, g4_group):
        els = list(group.elements())
        for _ in range(20):
            f = fz(group, *(rng.choice(els) for _ in range(rng.choice((2, 3)))))
            members, capped = orbit_dfs(group, f.factors)
            assert not capped
            o = orbit(f)
            assert not o.capped
            assert o.members == frozenset(members)


def test_orbit_members_share_product(g6_group):
    rng = random.Random(5)
    els = list(g6_group.elements())
    f = fz(g6_group, *(rng.choice(els) for _ in range(3)))
    p = product(f)
    for t in orbit(f).members:
        assert product(Factorization(g6_group, t)) == p


def test_node_cap(s4):
    t = s4.key_of((1, 0, 2, 3))
    u = s4.key_of((0, 2, 1, 3))
    f = fz(s4, t, u, t)
    size = orbit_size(f)
    assert isinstance(size, Finite)
    capped = orbit_size(f, node_cap=3)
    assert capped == AtLeast(3)
    o = orbit(f, node_cap=3)
    assert o.capped and o.size == 3


def test_orbit_in_a_subgroup_with_dense_keys():
    # D10 inside S5: ten elements, keyed 0..9 by position in the sorted closure
    d10 = dihedral_permutation_group(5)
    assert d10.order == 10 and max(d10.elements()) == 9
    reflections = sorted(x for x in d10.elements() if x != d10.identity and d10.multiply(x, x) == d10.identity)
    f = fz(d10, reflections[0], reflections[1], reflections[2], reflections[0])
    members, capped = orbit_dfs(d10, f.factors)
    o = orbit(f)
    assert not capped and not o.capped
    assert o.members == members and o.size == 125


def test_g6_length_six_orbit_matches_dfs_oracle(g6_group):
    # the oracle follows both move directions; the search follows forward
    # moves only, and must still reach every member
    f = fz(g6_group, *_word_factors(g6_group, "a b a b a b"))
    members, capped = orbit_dfs(g6_group, f.factors)
    o = orbit(f)
    assert not capped and not o.capped
    assert len(members) == 34_560 and o.members == members


def test_node_cap_validation(s3):
    with pytest.raises(ValueError):
        orbit_size(fz(s3, 0, 0), node_cap=0)


def _dfs_size(group, factors, node_cap=10_000_000):
    members, capped = orbit_dfs(group, factors, node_cap)
    return AtLeast(node_cap) if capped else Finite(len(members))


ORBIT_SIZE_BATCHES = {
    # (t12, t12) is fixed, so its search never meets t23 or t34
    "outside the first closure": ((1, 1), (1, 2), (2, 1), (1, 1), (3, 2)),
    "duplicates and several orbits": ((1, 2), (2, 3), (1, 2), (3, 1), (2, 3), (1, 2)),
    "mixed lengths": ((1, 2, 1), (1,), (2, 1), (1, 2, 1), (2,), (3, 2, 1), (1, 2)),
}


@pytest.mark.parametrize("node_cap", [10_000_000, 6])
@pytest.mark.parametrize("case", sorted(ORBIT_SIZE_BATCHES))
def test_orbit_sizes_matches_per_tuple_and_dfs(s4, case, node_cap):
    t = {1: s4.key_of((1, 0, 2, 3)), 2: s4.key_of((0, 2, 1, 3)), 3: s4.key_of((0, 1, 3, 2))}
    fs = [Factorization(s4, tuple(t[k] for k in ks)) for ks in ORBIT_SIZE_BATCHES[case]]
    sizes = orbit_sizes(fs, node_cap)
    assert sizes == [orbit_size(f, node_cap) for f in fs]
    assert sizes == [_dfs_size(s4, f.factors, node_cap) for f in fs]


def test_orbit_sizes_caps_some_searches_but_not_others(g4_group):
    rng = random.Random(7)
    els = list(g4_group.elements())
    fs = [fz(g4_group, *(rng.choice(els) for _ in range(rng.choice((2, 3, 4))))) for _ in range(40)]
    fs += fs[::3]  # duplicates of earlier tuples, answered by their searches
    sizes = orbit_sizes(fs, node_cap=50)
    assert AtLeast(50) in sizes and any(isinstance(s, Finite) for s in sizes)
    assert sizes == [orbit_size(f, node_cap=50) for f in fs]
    assert sizes == [_dfs_size(g4_group, f.factors, 50) for f in fs]


def test_orbit_sizes_rejects_mixed_groups(s3, s4):
    assert orbit_sizes([]) == []
    with pytest.raises(ValueError, match="different groups"):
        orbit_sizes([fz(s3, 1, 2), fz(s4, 1, 2)])


def test_same_orbit_yes(s3):
    t12 = s3.key_of((1, 0, 2))
    t23 = s3.key_of((0, 2, 1))
    f = fz(s3, t12, t23)
    assert same_orbit(f, hurwitz_move(f, 1, FORWARD)) == "yes"
    assert same_orbit(f, f) == "yes"


def test_same_orbit_no(s3):
    t12 = s3.key_of((1, 0, 2))
    t13 = s3.key_of((2, 1, 0))
    assert same_orbit(fz(s3, t12, t13), fz(s3, t13, t12)) == "no"


def test_same_orbit_unknown_when_capped(s4):
    t = s4.key_of((1, 0, 2, 3))
    u = s4.key_of((0, 2, 1, 3))
    f = fz(s4, t, u, t)
    # in the orbit, but not among the first two states the search reaches
    far = apply_braid(f, [(2, FORWARD), (1, INVERSE), (2, FORWARD)])
    assert same_orbit(f, far) == "yes"
    assert same_orbit(f, far, node_cap=2) == "unknown"
    # moves preserve the product, so a different product is a sure "no"
    other_product = fz(s4, s4.identity, s4.identity, s4.identity)
    assert same_orbit(f, other_product, node_cap=2) == "no"


@pytest.mark.parametrize("node_cap", range(1, 9))
def test_capped_same_orbit_agrees_with_orbit(s4, node_cap):
    t = s4.key_of((1, 0, 2, 3))
    u = s4.key_of((0, 2, 1, 3))
    f = fz(s4, t, u, t)
    members = orbit(f).members
    assert len(members) == 8
    held = orbit(f, node_cap).members
    for g in sorted(members):
        expected = "yes" if g in held else "unknown"
        assert same_orbit(f, Factorization(s4, g), node_cap) == expected


def test_same_orbit_no_with_equal_products(s4):
    t12 = s4.key_of((1, 0, 2, 3))
    c123 = s4.key_of((1, 2, 0, 3))
    c132 = s4.key_of((2, 0, 1, 3))
    # equal products, but 3-cycles never arise from conjugating (1 2) by itself
    assert same_orbit(fz(s4, t12, t12), fz(s4, c123, c132)) == "no"


def test_same_orbit_argument_validation(s3, s4):
    with pytest.raises(ValueError):
        same_orbit(fz(s3, 0, 0), fz(s4, 0, 0))
    with pytest.raises(ValueError):
        same_orbit(fz(s3, 0, 0), fz(s3, 0, 0, 0))
    with pytest.raises(ValueError):
        same_orbit(fz(s3, 0, 0), fz(s3, 0, 1), node_cap=0)


def test_brute_force_s3_pair_orbits(s3):
    # all ordered transposition pairs split into orbits; equal pairs are
    # fixed points, distinct pairs fall into two orbits of size 3
    orbits = sorted(len(o) for o in transposition_pair_orbits(s3))
    assert orbits == [1, 1, 1, 3, 3]


def test_export_dot(s3):
    t12 = s3.key_of((1, 0, 2))
    t23 = s3.key_of((0, 2, 1))
    dot = export_orbit_graph(orbit(fz(s3, t12, t23)), "dot")
    assert dot.startswith("digraph")
    assert dot.count("label=\"s1\"") == 3
    assert "(1 2), (2 3)" in dot


def test_export_suppresses_self_loops(s3):
    t12 = s3.key_of((1, 0, 2))
    o = orbit(fz(s3, t12, t12))
    assert "->" not in export_orbit_graph(o, "dot")
    assert "->" in export_orbit_graph(o, "dot", self_loops=True)


def test_export_json(s3):
    t12 = s3.key_of((1, 0, 2))
    t23 = s3.key_of((0, 2, 1))
    data = json.loads(export_orbit_graph(orbit(fz(s3, t12, t23)), "json"))
    assert len(data["vertices"]) == 3
    assert all(e["move"] == 1 for e in data["edges"])
    assert len(data["edges"]) == 3


def test_export_rejects_capped(s4):
    t = s4.key_of((1, 0, 2, 3))
    u = s4.key_of((0, 2, 1, 3))
    o = orbit(fz(s4, t, u, t), node_cap=2)
    with pytest.raises(CappedOrbitError):
        export_orbit_graph(o)


def test_export_rejects_unknown_format(s3):
    with pytest.raises(ValueError):
        export_orbit_graph(orbit(fz(s3, 0, 0)), "svg")


def _word_factors(group, text):
    alphabet = group.realization.origin.generators
    return [group.evaluate_word(P.parse_word(alphabet, w)) for w in text.split()]


NON_ASCII = "<σ, τ | σ^2, τ^2, σ τ σ τ σ τ>"

# name -> (group fixture or presentation, factors); the last two orbits have
# no edge without self-loops, and JSON escapes the names of "non-ascii"
GRAPH_CASES = {
    "s3": ("s3", [(1, 0, 2), (0, 2, 1)]),
    "s4-chain": ("s4", [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]),
    "g4-abab": ("g4_group", "a b a b"),
    "g4-aabb": ("g4_group", "a a b b"),
    "g6-ababa": ("g6_group", "a b a b a"),
    "non-ascii": (NON_ASCII, "σ τ"),
    "length-1": ("g4_group", "a"),
    "x-x": ("g4_group", "b b"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_export_matches_whole_text_reference(case, request):
    source, factors = GRAPH_CASES[case]
    if source.startswith("<"):
        group = RealizedGroup(enumerate_cosets(P.parse_presentation(source)), name="S3")
    else:
        group = request.getfixturevalue(source)
    if isinstance(factors, str):
        keys = _word_factors(group, factors)
    else:
        keys = [group.key_of(perm) for perm in factors]
    o = orbit(fz(group, *keys))
    for fmt in ("dot", "json"):
        for self_loops in (False, True):
            text = export_orbit_graph(o, fmt, self_loops=self_loops)
            assert text == export_orbit_graph_reference(o, fmt, self_loops=self_loops)
    if case in ("length-1", "x-x"):
        assert export_orbit_graph(o, "json").endswith('"edges": []\n}')
    if case == "non-ascii":
        assert "\\u03c3" in export_orbit_graph(o, "json")
        assert "σ" in export_orbit_graph(o, "dot")


def test_orbit_deterministic(g4_group):
    els = list(g4_group.elements())
    f = fz(g4_group, els[1], els[2], els[3])
    assert orbit(f).members == orbit(f).members
    assert export_orbit_graph(orbit(f)) == export_orbit_graph(orbit(f))


# Well-generated reflection groups W of rank n with |W| and the Coxeter
# number h from the classification (Humphreys, Reflection Groups and Coxeter
# Groups, ch. 2-3; G25 from Shephard and Todd): name -> (presentation on the
# simple reflections, |W|, h).
COXETER_ELEMENT_CASES = {
    "A4": (lambda: P.coxeter(coxeter_chain(3, 3, 3)), 120, 5),
    "B4": (lambda: P.coxeter(coxeter_chain(3, 3, 4)), 384, 8),
    "D4": (lambda: P.coxeter(coxeter_d(4)), 192, 6),
    "F4": (lambda: P.coxeter(coxeter_chain(3, 4, 3)), 1152, 12),
    "H3": (lambda: P.coxeter(coxeter_chain(5, 3)), 120, 10),
    "D5": (lambda: P.coxeter(coxeter_d(5)), 1920, 8),
    "B5": (lambda: P.coxeter(coxeter_chain(3, 3, 3, 4)), 3840, 10),
    "A6": (lambda: P.coxeter(coxeter_chain(3, 3, 3, 3, 3)), 5040, 7),
    "G25": (lambda: P.shephard([3, 3, 3], [3, 3]), 648, 12),
}


@pytest.mark.parametrize("name", COXETER_ELEMENT_CASES)
def test_coxeter_element_orbit_size(name):
    # The orbit of (s_1, ..., s_n), whose product is a Coxeter element, has
    # n! h^n / |W| members (Deligne 1974; Bessis, Ann. of Math. 2015).
    make, order, h = COXETER_ELEMENT_CASES[name]
    pres = make()
    group = RealizedGroup(enumerate_cosets(pres), name=name)
    n = len(pres.generators)
    reflections = tuple(group.evaluate_word(words.generator(pres.generators, i)) for i in range(n))
    assert group.order == order
    assert orbit_size(Factorization(group, reflections)) == Finite(math.factorial(n) * h**n // order)
