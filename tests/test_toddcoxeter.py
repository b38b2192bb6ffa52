import itertools

import pytest

from oracles import (
    G4_MATRIX_GENERATORS,
    G6_MATRIX_GENERATORS,
    MATRIX_IDENTITY,
    cayley_tables,
    coxeter_chain,
    dihedral_permutation_group,
    element_order_multiset,
    mat_mul,
    matrix_closure_order,
)

from hurwitzorbits import presentations as P
from hurwitzorbits import words
from hurwitzorbits.groups import RealizedGroup
from hurwitzorbits.toddcoxeter import Capped, enumerate_cosets
from hurwitzorbits.words import AlphabetMismatchError


def test_cyclic_group():
    r = enumerate_cosets(P.parse_presentation("<a | a^5>"))
    assert r.order == 5


def test_free_group_caps():
    result = enumerate_cosets(P.parse_presentation("<a | 1 = 1>"), coset_cap=100)
    assert isinstance(result, Capped)
    assert result.coset_cap == 100


@pytest.mark.parametrize("n", range(1, 13))
def test_dihedral_orders_match_permutation_oracle(n):
    r = enumerate_cosets(P.dihedral_rs(n))
    oracle = dihedral_permutation_group(n)
    assert r.order == oracle.order == 2 * n


def test_dihedral_multiplication_matches_oracle():
    # exhaustive comparison through the homomorphism r -> rotation, s -> flip
    n = 6
    r = RealizedGroup(enumerate_cosets(P.dihedral_rs(n)))
    oracle = dihedral_permutation_group(n)
    rot = oracle.generator_keys[0]
    flip = oracle.generator_keys[1]
    gen_map = {(0, 1): rot, (0, -1): oracle.inverse(rot), (1, 1): flip, (1, -1): flip}

    def image(g):
        out = oracle.identity
        for letter in r.representative_word(g).letters:
            out = oracle.multiply(out, gen_map[letter])
        return out

    images = [image(g) for g in range(r.order)]
    assert sorted(images) == sorted(oracle.elements())  # bijective
    for g, h in itertools.product(range(r.order), repeat=2):
        assert image(r.multiply(g, h)) == oracle.multiply(images[g], images[h])


def test_g4_order_matches_matrix_closure():
    assert matrix_closure_order(G4_MATRIX_GENERATORS) == 24
    assert enumerate_cosets(P.g4()).order == 24


def test_g6_order_matches_matrix_closure():
    assert matrix_closure_order(G6_MATRIX_GENERATORS) == 48
    assert enumerate_cosets(P.g6()).order == 48


def test_multiply_identity_and_inverses(d12_group):
    r = d12_group
    for g in range(r.order):
        assert r.multiply(0, g) == g
        assert r.multiply(g, 0) == g
        assert r.multiply(g, r.inverse(g)) == 0
        assert r.inverse(r.inverse(g)) == g


def test_multiply_out_of_range(d12_group):
    with pytest.raises(ValueError):
        d12_group.multiply(0, 99)


def test_q8_ab_square_relation(q8_ab_group):
    r = q8_ab_group
    alphabet = r.realization.origin.generators
    a = r.evaluate_word(words.generator(alphabet, 0, 1))
    b = r.evaluate_word(words.generator(alphabet, 1, 1))
    assert r.multiply(a, a) == r.multiply(b, b)


def test_dihedral_rs4_inverse_is_cube():
    r = RealizedGroup(enumerate_cosets(P.dihedral_rs(4)))
    rot = r.evaluate_word(words.generator(r.realization.origin.generators, 0, 1))
    cube = r.multiply(r.multiply(rot, rot), rot)
    assert r.inverse(rot) == cube


def test_evaluate_word_homomorphic(g6_group):
    import random

    r = g6_group
    alphabet = r.realization.origin.generators
    rng = random.Random(3)
    for _ in range(100):
        u = words.reduce_word(
            alphabet,
            [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))],
        )
        v = words.reduce_word(
            alphabet,
            [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))],
        )
        assert r.evaluate_word(words.concat(u, v)) == r.multiply(
            r.evaluate_word(u), r.evaluate_word(v)
        )


def test_evaluate_relators_trivial(g6_group):
    r = g6_group
    for rel in r.realization.origin.relators:
        assert r.evaluate_word(rel) == 0


def test_g6_braid_relation_evaluates_equal(g6_group):
    r = g6_group
    alphabet = r.realization.origin.generators
    lhs = P.parse_word(alphabet, "a b a b a b")
    rhs = P.parse_word(alphabet, "b a b a b a")
    assert r.evaluate_word(lhs) == r.evaluate_word(rhs)


def test_evaluate_alphabet_mismatch(g6_group):
    with pytest.raises(AlphabetMismatchError):
        g6_group.evaluate_word(words.empty(("x",)))


def test_latin_square_property(q8_ab_group):
    r = q8_ab_group
    for g in range(r.order):
        assert sorted(r.multiply(g, h) for h in range(r.order)) == list(range(r.order))


def test_regular_representation_faithful(d12_group):
    r = d12_group
    rows = {tuple(r.multiply(g, h) for h in range(r.order)) for g in range(r.order)}
    assert len(rows) == r.order


def test_dihedral_presentations_isomorphic():
    for n in (3, 5, 6):
        a = RealizedGroup(enumerate_cosets(P.dihedral_rs(n)))
        b = RealizedGroup(enumerate_cosets(P.dihedral_inv(n)))
        assert a.order == b.order == 2 * n
        assert element_order_multiset(a) == element_order_multiset(b)


def test_q8_element_order_multisets(q8_ab_group, q8_ijk_group):
    expected = (1, 2, 4, 4, 4, 4, 4, 4)
    assert element_order_multiset(q8_ab_group) == expected
    assert element_order_multiset(q8_ijk_group) == expected


def test_action_permutations_are_bijections(g4_group):
    r = g4_group.realization
    for fwd, bwd in r.action:
        assert sorted(fwd) == list(range(r.order))
        assert sorted(bwd) == list(range(r.order))
        for c in range(r.order):
            assert bwd[fwd[c]] == c


def test_deterministic_ids():
    a = enumerate_cosets(P.g6())
    b = enumerate_cosets(P.g6())
    assert a.action == b.action


# --- breadth-first ids against concrete groups ------------------------------


def _compose(p, q):
    """The permutation p, then q."""
    return tuple(q[i] for i in p)


def _perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _swaps(n, *pairs):
    perm = list(range(n))
    for i, j in pairs:
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _matrix_inverse(m):
    power = m
    while mat_mul(power, m) != MATRIX_IDENTITY:
        power = mat_mul(power, m)
    return power


def _permutations(n, generators):
    return (generators, _compose, _perm_inverse, tuple(range(n)))


def _dihedral(n):
    group = dihedral_permutation_group(n)
    return P.dihedral_rs(n), (group.generator_keys, group.multiply, group.inverse, group.identity)


def _type_a(n):
    # A_n is S_(n+1), generated by the adjacent transpositions
    adjacent = [_swaps(n + 1, (i, i + 1)) for i in range(n)]
    return P.coxeter(coxeter_chain(*[3] * (n - 1))), _permutations(n + 1, adjacent)


def _b4():
    # signed permutations of 4 letters: point k is +e_k and point k + 4 is -e_k
    adjacent = [_swaps(8, (i, i + 1), (i + 4, i + 5)) for i in range(3)]
    sign_change = _swaps(8, (3, 7))
    return P.coxeter(coxeter_chain(3, 3, 4)), _permutations(8, adjacent + [sign_change])


# name -> (presentation, concrete group as cayley_tables arguments)
ORACLE_GROUPS = {
    **{f"D{2 * n}": lambda n=n: _dihedral(n) for n in range(3, 13)},
    "G4": lambda: (P.g4(), (G4_MATRIX_GENERATORS, mat_mul, _matrix_inverse, MATRIX_IDENTITY)),
    "G6": lambda: (P.g6(), (G6_MATRIX_GENERATORS, mat_mul, _matrix_inverse, MATRIX_IDENTITY)),
    "A4": lambda: _type_a(4),
    "A5": lambda: _type_a(5),
    "B4": _b4,
}


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_tables_match_breadth_first_oracle(name):
    pres, concrete = ORACLE_GROUPS[name]()
    assert enumerate_cosets(pres).action == cayley_tables(*concrete)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_cap_below_the_order_is_capped(name):
    # the cap bounds live cosets, and a complete table has |G| of them
    pres, concrete = ORACLE_GROUPS[name]()
    order = len(cayley_tables(*concrete)[0][0])
    assert enumerate_cosets(pres, coset_cap=order - 1) == Capped(order - 1)
