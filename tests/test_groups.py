import itertools
import math
import random

import pytest

from oracles import (
    DihedralGroup,
    QuaternionGroup,
    dihedral_permutation_group,
    element_order_multiset,
    orbit_dfs,
)

from hurwitzorbits import presentations as P
from hurwitzorbits.groups import (
    PermutationGroup,
    RealizedGroup,
    cycle_notation,
    symmetric_group,
)
from hurwitzorbits.hurwitz import (
    FORWARD,
    INVERSE,
    Factorization,
    Finite,
    apply_braid,
    export_orbit_graph,
    orbit,
    orbit_size,
)
from hurwitzorbits.toddcoxeter import enumerate_cosets


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_group_orders(n):
    assert symmetric_group(n).order == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_group_keys_are_lexicographic_indices(n):
    s = symmetric_group(n)
    for k, p in enumerate(itertools.permutations(range(n))):
        assert s.key_of(p) == k and s.permutation(k) == p


def test_symmetric_group_bounds():
    with pytest.raises(ValueError):
        symmetric_group(0)
    with pytest.raises(ValueError):
        symmetric_group(9)


def test_identity_key_is_zero(s4):
    assert s4.identity == 0
    assert s4.permutation(0) == (0, 1, 2, 3)


def test_key_roundtrip(s4):
    for key in s4.elements():
        assert s4.key_of(s4.permutation(key)) == key


def test_key_of_rejects_non_member():
    s3 = PermutationGroup(3, [(1, 0, 2)], name="<(12)>")
    with pytest.raises(ValueError):
        s3.key_of((1, 2, 0))


def test_composition_is_left_to_right(s3):
    # apply (1 2) then (2 3): 1 -> 2 -> 3, so the product is (1 3 2)
    a = s3.key_of((1, 0, 2))
    b = s3.key_of((0, 2, 1))
    assert s3.element_name(s3.multiply(a, b)) == "(1 3 2)"


def test_conjugate_convention(s3):
    # (1 2) conjugated by (2 3) is (1 3)
    t12 = s3.key_of((1, 0, 2))
    t23 = s3.key_of((0, 2, 1))
    t13 = s3.key_of((2, 1, 0))
    assert s3.conjugate(t12, t23) == t13


def test_cycle_notation():
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation((1, 0, 2)) == "(1 2)"
    assert cycle_notation((1, 0, 3, 2)) == "(1 2)(3 4)"
    assert cycle_notation((1, 2, 0)) == "(1 2 3)"


def test_power_and_element_order(s4):
    c4 = s4.key_of((1, 2, 3, 0))
    assert s4.element_order(c4) == 4
    assert s4.power(c4, 4) == s4.identity
    assert s4.power(c4, -1) == s4.inverse(c4)
    assert s4.power(c4, 0) == s4.identity


def test_permutation_group_rejects_bad_generator():
    with pytest.raises(ValueError):
        PermutationGroup(3, [(0, 0, 1)])


@pytest.mark.parametrize("n", range(1, 13))
def test_direct_dihedral_matches_enumerator(n):
    direct = DihedralGroup(n)
    realized = RealizedGroup(enumerate_cosets(P.dihedral_rs(n)))
    assert direct.order == realized.order == 2 * n
    assert element_order_multiset(direct) == element_order_multiset(realized)


@pytest.mark.parametrize("n", (3, 5, 8))
def test_direct_dihedral_matches_permutation_oracle(n):
    direct = DihedralGroup(n)
    oracle = dihedral_permutation_group(n)
    assert direct.order == oracle.order
    assert element_order_multiset(direct) == element_order_multiset(oracle)


def test_dihedral_group_axioms():
    g = DihedralGroup(7)
    els = list(g.elements())
    for a in els:
        assert g.multiply(a, g.inverse(a)) == g.identity
        assert g.multiply(g.identity, a) == a
    for a in els[:6]:
        for b in els[:6]:
            for c in els[:6]:
                assert g.multiply(g.multiply(a, b), c) == g.multiply(
                    a, g.multiply(b, c)
                )


def test_quaternion_group():
    q = QuaternionGroup()
    assert q.order == 8
    assert element_order_multiset(q) == (1, 2, 4, 4, 4, 4, 4, 4)
    names = {q.element_name(g): g for g in q.elements()}
    assert q.multiply(names["i"], names["j"]) == names["k"]
    assert q.multiply(names["j"], names["i"]) == names["-k"]
    assert q.inverse(names["i"]) == names["-i"]


def test_quaternion_matches_presentations(q8_ab_group, q8_ijk_group):
    direct = QuaternionGroup()
    assert element_order_multiset(direct) == element_order_multiset(q8_ab_group)
    assert element_order_multiset(direct) == element_order_multiset(q8_ijk_group)


def assert_tables_sound(group):
    """Every memo entry agrees with ``conjugate()``, and an inverse move undoes the forward one."""
    conj = group.conjugation_tables()
    assert conj
    for (a, b), (c, d) in conj.items():
        assert c == group.conjugate(a, b)
        assert d == group.conjugate(b, group.inverse(a))
        # (a, b) -> (b, c) by a forward move, and back by an inverse one
        assert group.conjugate(c, group.inverse(b)) == a
    # the factors the searches met
    return {x for pair in conj for x in pair}


@pytest.mark.parametrize("name", ["s3", "s4", "g4_group"])
def test_conjugation_tables_on_random_seeds(name, request):
    group = request.getfixturevalue(name)
    rng = random.Random(11)
    els = list(group.elements())
    for _ in range(20):
        orbit_size(Factorization(group, tuple(rng.choices(els, k=rng.randint(2, 4)))))
        assert_tables_sound(group)


def test_conjugation_tables_above_order_4096():
    s7 = symmetric_group(7)
    transpositions = set()
    for i in range(7):
        for j in range(i + 1, 7):
            perm = list(range(7))
            perm[i], perm[j] = j, i
            transpositions.add(s7.key_of(tuple(perm)))
    adjacent = [s7.key_of(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 7))) for i in range(6)]
    assert orbit_size(Factorization(s7, tuple(adjacent))) == Finite(16807)
    # the adjacent transpositions close up to all 21 under conjugation
    assert assert_tables_sound(s7) == transpositions


@pytest.mark.parametrize("n, size", [(7, 12), (8, 14)])
def test_small_orbit_over_a_large_closure(n, size):
    # an n-cycle and (1 2) close to thousands of elements under conjugation,
    # but their orbit is small: the memo gains at most one entry per state and position
    s = symmetric_group(n)
    f = Factorization(s, (s.key_of(tuple(range(1, n)) + (0,)), s.key_of((1, 0) + tuple(range(2, n)))))
    members, capped = orbit_dfs(s, f.factors)
    assert not capped and len(members) == size
    assert orbit_size(f) == Finite(size)
    assert len(s.conjugation_tables()) <= size
    assert_tables_sound(s)


def test_moves_and_export_read_the_memo():
    s4 = symmetric_group(4)
    t12, t23, t34 = (s4.key_of(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 4))) for i in range(3))
    f = Factorization(s4, (t12, t23, t34))
    apply_braid(f, [(1, FORWARD), (2, INVERSE), (2, FORWARD)])
    assert_tables_sound(s4)
    o = orbit(f)
    met = len(s4.conjugation_tables())
    export_orbit_graph(o, "json", self_loops=True)
    # the search met every pair the export moves
    assert len(s4.conjugation_tables()) == met
    assert_tables_sound(s4)


def test_conjugation_tables_start_empty():
    s3 = symmetric_group(3)
    conj = s3.conjugation_tables()
    assert conj == {}
    assert s3.conjugation_tables() is conj


def test_realized_group_names(d12_group):
    assert d12_group.name == "D12"
    assert d12_group.element_name(d12_group.identity) == "1"
