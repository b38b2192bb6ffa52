import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzorbits

from hurwitzorbits import presentations as P
from hurwitzorbits import words
from hurwitzorbits.presentations import (
    PresentationSyntaxError,
    check_reversible,
    parse_presentation,
    parse_word,
    render_presentation,
)
from hurwitzorbits.groups import RealizedGroup
from hurwitzorbits.toddcoxeter import enumerate_cosets
from hurwitzorbits.words import Word


def letters(alphabet, text):
    return parse_word(alphabet, text)


def test_parse_dihedral():
    # chains expand into adjacent pairs: r^4 = s^2 and s^2 = 1
    p = parse_presentation("<r,s | r^4 = s^2 = 1, r s r s^-1 = 1>")
    assert p.generators == ("r", "s")
    assert [str(r) for r in p.relators] == ["r^4 s^-2", "s^2", "r s r s^-1"]


def test_parse_g6_chain():
    p = parse_presentation("<a,b | a^3 = b^2 = 1, a b a b a b = b a b a b a>")
    assert p.generators == ("a", "b")
    assert str(p.relators[0]) == "a^3 b^-2"
    assert str(p.relators[1]) == "b^2"
    lhs = letters(("a", "b"), "a b a b a b")
    rhs = letters(("a", "b"), "b a b a b a")
    assert p.relators[2] == words.concat(lhs, words.invert(rhs))
    # the chain and the separated relators present the same group
    assert enumerate_cosets(p).order == 48


def test_parse_trivial_relation():
    p = parse_presentation("<a | 1 = 1>")
    assert p.generators == ("a",)
    assert p.relators == ()


def test_parse_chain_pairwise():
    p = parse_presentation("<a, b | a^2 = b^2 = a b>")
    assert len(p.relators) == 2


def test_parse_exponents():
    w = parse_word(("a", "b"), "a^-3 b^0 a")
    assert str(w) == "a^-2"


def test_syntax_error_position():
    with pytest.raises(PresentationSyntaxError) as exc:
        parse_presentation("<a | a^>")
    assert exc.value.position == 6


def test_parse_factors_splits_on_commas_else_whitespace():
    ab = ("a", "b")
    assert [str(w) for w in P.parse_factors(ab, "a b, b,, a^-2 ,")] == ["a b", "b", "a^-2"]
    assert [str(w) for w in P.parse_factors(ab, " a  b^2 1 ")] == ["a", "b^2", "1"]
    with pytest.raises(PresentationSyntaxError, match="no factors"):
        P.parse_factors(ab, " , ")


def test_parse_factors_counts_positions_in_the_whole_text():
    with pytest.raises(PresentationSyntaxError) as exc:
        P.parse_factors(("a", "b"), "a b, b c")
    assert exc.value.position == 7


def test_parse_factors_shares_one_letter_budget(monkeypatch):
    monkeypatch.setattr(P, "MAX_LETTERS", 10)
    assert len(P.parse_factors(("a",), "a^5, a^-5")) == 2
    with pytest.raises(PresentationSyntaxError, match="more than 10 letters"):
        P.parse_factors(("a",), "a^5, a^-5, a")
    with pytest.raises(PresentationSyntaxError, match="more than 10 letters"):
        P.parse_factors(("a",), "a^5 a^-5 a")


def test_unknown_generator():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("<a | a b>")


def test_render_parse_roundtrip():
    for p in (
        P.dihedral_rs(4),
        P.dihedral_inv(5),
        P.q8_ab(),
        P.q8_ijk(),
        P.g4(),
        P.g6(),
        P.shephard([3, 2], [6]),
        parse_presentation("<a | 1 = 1>"),
    ):
        assert parse_presentation(render_presentation(p)) == p


# --- builtins -----------------------------------------------------------------


def test_builtin_dihedral_rs():
    p = P.dihedral_rs(4)
    assert [str(r) for r in p.relators] == ["r^4", "s^2", "r s r s^-1"]


def test_builtin_q8_ijk():
    p = P.q8_ijk()
    assert p.generators == ("m", "i", "j", "k")
    assert [str(r) for r in p.relators] == ["m^2", "i^2 m", "j^2 m", "k^2 m", "i j k m"]


def test_builtin_g6():
    p = P.g6()
    lhs = letters(("a", "b"), "a b a b a b")
    rhs = letters(("a", "b"), "b a b a b a")
    assert p.relators[2] == words.concat(lhs, words.invert(rhs))


def test_shephard_g6_parameters():
    # n=2, p=(3,2), q=(6,) is the two-generator Shephard shape of G6
    p = P.shephard([3, 2], [6])
    r = enumerate_cosets(p)
    assert r.order == 48


def test_shephard_far_commutation():
    p = P.shephard([2, 2, 2], [3, 3])
    assert any(str(r) == "s1 s3 s1^-1 s3^-1" for r in p.relators)


def test_coxeter_is_shephard_special_case():
    # A_3 Coxeter matrix gives S_4
    matrix = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
    r = enumerate_cosets(P.coxeter(matrix))
    assert r.order == 24


def _limit_memory():
    import resource

    limit = 1 << 30  # 1 GiB of address space: an expansion of 10^9 letters fails fast
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "call",
    [
        "shephard([10**9, 3], [3])",
        "shephard([3, 3], [10**9])",
        "coxeter([[1, 10**9], [10**9, 1]])",
        f"coxeter([[1, {P.MAX_LETTERS // 2 + 1}], [{P.MAX_LETTERS // 2 + 1}, 1]])",
    ],
)
def test_huge_family_parameters_are_refused_before_expansion(call):
    # run in a child under a memory limit: an unchecked expansion would
    # take gigabytes, and there it fails with a MemoryError
    src = str(Path(hurwitzorbits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
from hurwitzorbits import presentations as P
try:
    P.{call}
except ValueError as exc:
    print("refused:", exc)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().startswith("refused: ")


def test_family_relators_at_the_letter_bound_are_built(monkeypatch):
    monkeypatch.setattr(P, "MAX_LETTERS", 10)
    assert len(P.coxeter([[1, 5], [5, 1]]).relators[2]) == 10
    assert len(P.shephard([10, 2], [5]).relators[0]) == 10
    with pytest.raises(ValueError, match=r"m_ij in 2\.\.5"):
        P.coxeter([[1, 6], [6, 1]])
    with pytest.raises(ValueError, match=r"p_i must be in 1\.\.10"):
        P.shephard([11], [])
    with pytest.raises(ValueError, match=r"q_i must be in 2\.\.5"):
        P.shephard([2, 2], [6])


def test_builtin_invalid_parameters():
    with pytest.raises(ValueError):
        P.dihedral_rs(0)
    with pytest.raises(ValueError):
        P.shephard([3, 2], [1])
    with pytest.raises(ValueError):
        P.builtin("nope")


def test_builtin_relators_hold_in_realization():
    for pres in (P.dihedral_rs(5), P.dihedral_inv(4), P.q8_ab(), P.q8_ijk(), P.g4(), P.g6()):
        r = RealizedGroup(enumerate_cosets(pres))
        for rel in pres.relators:
            assert r.evaluate_word(rel) == r.identity


# --- reversibility --------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 9))
def test_dihedral_rs_reversible(n):
    assert check_reversible(RealizedGroup(enumerate_cosets(P.dihedral_rs(n)))) is None


def test_dihedral_inv_reversible():
    assert check_reversible(RealizedGroup(enumerate_cosets(P.dihedral_inv(6)))) is None


def test_q8_ab_reversible(q8_ab_group):
    assert check_reversible(q8_ab_group) is None


def test_q8_ijk_not_reversible(q8_ijk_group):
    relator, rev = check_reversible(q8_ijk_group)
    assert str(relator) == "i j k m"
    assert str(rev) == "m k j i"
    # the reverse evaluates to the unique order-2 element (-1)
    g = q8_ijk_group.evaluate_word(rev)
    assert g != q8_ijk_group.identity
    assert q8_ijk_group.element_order(g) == 2


def reversible_by_shortcut(relator: Word) -> bool:
    """Syntactic sufficient conditions for a relator's reverse lying in N.

    Covers powers of a single generator, relators of the form u (u*)^-1,
    and equations between two palindromes (relator u v^-1 with u, v
    palindromes).
    """
    if len({idx for idx, _ in relator.letters}) <= 1:
        return True
    n = len(relator)
    for k in range(n + 1):
        u = Word(relator.alphabet, relator.letters[:k])
        v = words.invert(Word(relator.alphabet, relator.letters[k:]))
        if v == words.reverse(u):
            return True
        if words.is_palindrome(u) and words.is_palindrome(v):
            return True
    return False


def test_shortcut_agrees_with_full_check():
    for pres in (P.dihedral_rs(6), P.dihedral_inv(5), P.g4(), P.g6(), P.shephard([3, 3], [4])):
        group = RealizedGroup(enumerate_cosets(pres))
        assert check_reversible(group) is None
        for rel in pres.relators:
            assert reversible_by_shortcut(rel), str(rel)


def test_shortcut_generator_power():
    assert reversible_by_shortcut(parse_word(("g",), "g^7"))


def test_reversible_presentations_preserve_equality_under_reverse(g6_group, d12_group):
    # sample pairs of words equal in G; their reverses must be equal too
    rng = random.Random(5)
    for group in (g6_group, d12_group):
        alphabet = group.realization.origin.generators
        buckets = {}
        for _ in range(400):
            raw = [
                (rng.randrange(len(alphabet)), rng.choice((1, -1)))
                for _ in range(rng.randrange(8))
            ]
            w = words.reduce_word(alphabet, raw)
            buckets.setdefault(group.evaluate_word(w), []).append(w)
        checked = 0
        for same in buckets.values():
            for u, v in zip(same, same[1:]):
                assert group.evaluate_word(words.reverse(u)) == group.evaluate_word(
                    words.reverse(v)
                )
                checked += 1
        assert checked >= 50
