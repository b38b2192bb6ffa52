import itertools

import pytest

from oracles import (
    G4_MATRIX_GENERATORS,
    G6_MATRIX_GENERATORS,
    dihedral_permutation_group,
    element_order_multiset,
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
    r = enumerate_cosets(P.dihedral_rs(n))
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
    r = d12_group.realization
    for g in range(r.order):
        assert r.multiply(0, g) == g
        assert r.multiply(g, 0) == g
        assert r.multiply(g, r.inverse(g)) == 0
        assert r.inverse(r.inverse(g)) == g


def test_multiply_out_of_range(d12_group):
    with pytest.raises(ValueError):
        d12_group.realization.multiply(0, 99)


def test_q8_ab_square_relation(q8_ab_group):
    r = q8_ab_group.realization
    alphabet = r.origin.generators
    a = r.evaluate_word(words.generator(alphabet, 0, 1))
    b = r.evaluate_word(words.generator(alphabet, 1, 1))
    assert r.multiply(a, a) == r.multiply(b, b)


def test_dihedral_rs4_inverse_is_cube():
    r = enumerate_cosets(P.dihedral_rs(4))
    rot = r.evaluate_word(words.generator(r.origin.generators, 0, 1))
    cube = r.multiply(r.multiply(rot, rot), rot)
    assert r.inverse(rot) == cube


def test_evaluate_word_homomorphic(g6_group):
    import random

    r = g6_group.realization
    alphabet = r.origin.generators
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
    r = g6_group.realization
    for rel in r.origin.relators:
        assert r.evaluate_word(rel) == 0


def test_g6_braid_relation_evaluates_equal(g6_group):
    r = g6_group.realization
    alphabet = r.origin.generators
    lhs = P.parse_word(alphabet, "a b a b a b")
    rhs = P.parse_word(alphabet, "b a b a b a")
    assert r.evaluate_word(lhs) == r.evaluate_word(rhs)


def test_evaluate_alphabet_mismatch(g6_group):
    with pytest.raises(AlphabetMismatchError):
        g6_group.realization.evaluate_word(words.empty(("x",)))


def test_latin_square_property(q8_ab_group):
    r = q8_ab_group.realization
    for g in range(r.order):
        assert sorted(r.multiply(g, h) for h in range(r.order)) == list(range(r.order))


def test_regular_representation_faithful(d12_group):
    r = d12_group.realization
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
