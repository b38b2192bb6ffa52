import random

import pytest

from hurwitzorbits import words
from hurwitzorbits.words import AlphabetMismatchError, Word

AB = ("a", "b", "c")


def w(*letters):
    return Word(AB, tuple(letters))


A, B, C = (0, 1), (1, 1), (2, 1)
Ai, Bi, Ci = (0, -1), (1, -1), (2, -1)


def test_reduce_single_cancellation():
    assert words.reduce_word(AB, [A, B, Bi, C]) == w(A, C)


def test_reduce_to_identity():
    assert words.reduce_word(AB, [A, Ai]) == words.empty(AB)


def test_reduce_cascading():
    assert words.reduce_word(AB, [B, Ai, A, Ai, A, B]) == w(B, B)


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(AB, (A, Ai))


@pytest.mark.parametrize(
    "letters", [((3, 1),), ((-1, 1),), ((0, 2),), ((0, 0),)],
    ids=["index-past-alphabet", "negative-index", "sign-2", "sign-0"],
)
def test_word_constructor_still_checks_its_letters(letters):
    # concat, invert and reverse skip the check on letters already checked;
    # a Word built directly does not
    with pytest.raises(ValueError):
        Word(AB, letters)


def test_concat_cancels_across_join():
    assert words.concat(w(A, B), w(Bi, C)) == w(A, C)


def test_concat_identity():
    u = w(A, B, A)
    assert words.concat(u, words.empty(AB)) == u
    assert words.concat(words.empty(AB), u) == u


def test_concat_full_cancellation():
    assert words.concat(w(A, B), w(Bi, Ai)) == words.empty(AB)


def test_concat_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        words.concat(w(A), Word(("x", "y"), ((0, 1),)))


def test_invert():
    assert words.invert(w(A, B)) == w(Bi, Ai)
    assert words.invert(words.empty(AB)) == words.empty(AB)
    assert words.invert(w(Ai)) == w(A)


def test_reverse():
    assert words.reverse(w(A, B)) == w(B, A)
    assert words.reverse(w(Ai, B)) == w(B, Ai)


def test_reverse_antihomomorphism_example():
    u, v = w(A, B), w(C)
    assert words.reverse(words.concat(u, v)) == w(C, B, A)


def test_is_palindrome():
    assert words.is_palindrome(w(A, B, A))
    assert not words.is_palindrome(w(A, B))
    assert words.is_palindrome(words.empty(AB))


def _random_raw(rng, n):
    return [(rng.randrange(3), rng.choice((1, -1))) for _ in range(n)]


def _random_word(rng, n):
    return words.reduce_word(AB, _random_raw(rng, n))


def test_reduce_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        reduced = words.reduce_word(AB, _random_raw(rng, rng.randrange(12)))
        assert words.reduce_word(AB, reduced.letters) == reduced


def test_concat_associative():
    rng = random.Random(12)
    for _ in range(300):
        u, v, x = (_random_word(rng, rng.randrange(8)) for _ in range(3))
        assert words.concat(words.concat(u, v), x) == words.concat(u, words.concat(v, x))


def test_reverse_commutes_with_invert():
    rng = random.Random(13)
    for _ in range(300):
        u = _random_word(rng, rng.randrange(10))
        assert words.reverse(words.invert(u)) == words.invert(words.reverse(u))


def test_reverse_of_product():
    rng = random.Random(14)
    for _ in range(300):
        u, v = _random_word(rng, rng.randrange(8)), _random_word(rng, rng.randrange(8))
        assert words.reverse(words.concat(u, v)) == words.concat(
            words.reverse(v), words.reverse(u)
        )


def test_reverse_involution():
    rng = random.Random(15)
    for _ in range(300):
        u = _random_word(rng, rng.randrange(10))
        assert words.reverse(words.reverse(u)) == u


def test_invert_is_group_inverse():
    rng = random.Random(16)
    for _ in range(100):
        u = _random_word(rng, rng.randrange(10))
        assert words.concat(u, words.invert(u)).is_empty


def test_render():
    assert words.render(words.empty(AB)) == "1"
    assert words.render(w(A, Bi, A)) == "a b^-1 a"
    assert words.render(w(A, A, B, B)) == "a^2 b^2"
    assert words.render(w(Ai, Ai)) == "a^-2"
