import random
import re

import pytest

from oracles import coxeter_chain, remark_rotation_check

from hurwitzorbits import equalities, hurwitz
from hurwitzorbits import presentations as P
from hurwitzorbits import words
from hurwitzorbits.equalities import (
    STATEMENTS,
    THEOREM_NAMES,
    closed_form_pair,
    compare_sizes,
    conjecture_scan,
    conjugate_all,
    cycle,
    default_check_groups,
    double_reverse,
    evaluate_tuple,
    flip_inverse,
    reverse_tuple,
    run_check,
    word_tuple_move,
)
from hurwitzorbits.groups import RealizedGroup, symmetric_group
from hurwitzorbits.hurwitz import (
    DEFAULT_NODE_CAP,
    FORWARD,
    INVERSE,
    AtLeast,
    Factorization,
    hurwitz_move,
    orbit_size,
    product,
)
from hurwitzorbits.toddcoxeter import enumerate_cosets


def test_closed_form_small_exponents(s4):
    x = s4.key_of((1, 2, 3, 0))
    y = s4.key_of((1, 0, 2, 3))
    assert closed_form_pair(s4, x, y, 0) == (x, y)
    assert closed_form_pair(s4, x, y, 1) == (y, s4.conjugate(x, y))
    back = closed_form_pair(s4, x, y, -1)
    assert back == (s4.conjugate(y, s4.inverse(x)), x)


def test_closed_form_is_periodic_in_dihedral(d12_group):
    # in a finite group the pair sequence is eventually periodic from 0
    x, y = 1, 2
    seen = {}
    for m in range(100):
        pair = closed_form_pair(d12_group, x, y, m)
        if pair in seen:
            period = m - seen[pair]
            assert closed_form_pair(d12_group, x, y, m + period) == pair
            return
        seen[pair] = m
    pytest.fail("no period found within 100 steps")


def test_transforms_preserve_length_and_group(s4):
    f = Factorization(s4, (1, 2, 3))
    for out in (cycle(f), flip_inverse(f), reverse_tuple(f), conjugate_all(f, 5)):
        assert out.group is s4
        assert len(out) == 3
    assert cycle(f).factors == (2, 3, 1)
    assert reverse_tuple(f).factors == (3, 2, 1)
    assert flip_inverse(f).factors == tuple(s4.inverse(x) for x in (3, 2, 1))


def test_cycle_preserves_product_conjugacy(s4):
    # products before and after rotation are conjugate by the first factor
    f = Factorization(s4, (9, 4, 7))
    p, q = product(f), product(cycle(f))
    assert q == s4.conjugate(p, 9)


def test_double_reverse_words():
    ab = ("a", "b")
    u = P.parse_word(ab, "a b")
    v = P.parse_word(ab, "b^-1 a")
    assert double_reverse((u, v)) == (
        P.parse_word(ab, "a b^-1"),
        P.parse_word(ab, "b a"),
    )
    assert double_reverse(double_reverse((u, v))) == (u, v)


def test_word_tuple_move_matches_group_move(g6_group):
    rng = random.Random(7)
    alphabet = g6_group.realization.origin.generators
    for _ in range(50):
        t = tuple(
            words.reduce_word(
                alphabet,
                [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(4))],
            )
            for _ in range(3)
        )
        i = rng.choice((1, 2))
        d = rng.choice((FORWARD, INVERSE))
        moved = word_tuple_move(t, i, d)
        assert evaluate_tuple(g6_group, moved) == hurwitz_move(
            evaluate_tuple(g6_group, t), i, d
        )


def test_word_tuple_move_bounds():
    u = P.parse_word(("a",), "a")
    with pytest.raises(ValueError):
        word_tuple_move((u, u), 2)


def test_compare_sizes_equal(g4_group):
    f = Factorization(g4_group, (1, 2))
    left, right, verdict = compare_sizes(f, STATEMENTS["cycle"].transform(f), DEFAULT_NODE_CAP)
    assert verdict == "equal"
    assert left == right


def test_compare_sizes_inconclusive(s4):
    t = s4.key_of((1, 0, 2, 3))
    u = s4.key_of((0, 2, 1, 3))
    f = Factorization(s4, (t, u, t))
    assert compare_sizes(f, cycle(f), node_cap=2) == (None, None, "inconclusive")


def test_statements_are_the_cli_suites():
    assert THEOREM_NAMES == (
        "pair-swap", "pair-inverse", "cycle", "flip-inverse", "conjugate",
        "involution-reverse", "double-reverse", "closed-form", "mirror-moves",
    )
    assert [n for n, s in STATEMENTS.items() if s.domain.words] == ["double-reverse", "mirror-moves"]
    assert [n for n, s in STATEMENTS.items() if s.identity] == ["closed-form", "mirror-moves"]
    assert [n for n, s in STATEMENTS.items() if s.domain.reversible] == ["double-reverse"]


def test_remark_rotation_basic():
    assert remark_rotation_check((0, 1))
    assert remark_rotation_check((0, 0, 1, 1))
    assert remark_rotation_check(())
    assert not remark_rotation_check((0, 0, 1, 0, 1, 1))
    with pytest.raises(ValueError):
        remark_rotation_check((0, 1, 2))


def test_g4_counterexample(g4_group):
    report = conjecture_scan(g4_group, 4)
    assert [r.permutation for r in report.rows[:4]] == ["(a)", "(b)", "(a^-1)", "(b^-1)"]
    assert (report.multisets, len(report.rows), len(report.candidates)) == (69, 340, 9)
    assert "{a, a, b, b}" in report.candidates
    sizes = {r.permutation: r.orbit_size for r in report.rows}
    assert (sizes["(a, a, b, b)"], sizes["(a, b, a, b)"]) == (36, 27)


def test_g4_scan_counts_with_capped_rows(g4_group):
    # a multiset with a capped row is not uniform, yet two uncapped sizes still make a candidate
    report = conjecture_scan(g4_group, 4, node_cap=40)
    assert report.summary() == "multisets: 69, uniform: 48, counterexample candidates: 2"
    assert report.candidates == ("{a, a, b, b}", "{a^-1, a^-1, b^-1, b^-1}")
    assert (sum(r.capped for r in report.rows), len(report.rows)) == (196, 340)
    assert all(r.capped == (r.orbit_size is None) for r in report.rows)


@pytest.mark.parametrize(
    "name, p, q, summary",
    [
        ("g6", [2, 3], [6], "multisets: 34, uniform: 34, counterexample candidates: 0"),
        ("g4", [3, 3], [3], "multisets: 69, uniform: 60, counterexample candidates: 9"),
    ],
    ids=["g6", "g4"],
)
def test_builtin_scans_as_its_shephard_group(name, p, q, summary):
    # the same group on other letters: G6's involution is b in the builtin and
    # s1 in the Shephard presentation, so rows are compared by size only
    builtin, shephard = (
        conjecture_scan(RealizedGroup(enumerate_cosets(pres)), 4) for pres in (P.builtin(name), P.shephard(p, q))
    )
    assert builtin.summary() == shephard.summary() == summary
    assert sorted(r.orbit_size for r in builtin.rows) == sorted(r.orbit_size for r in shephard.rows)


def test_conjecture_scan_letters_drop_repeated_elements():
    # both generators of dihedral-inv are involutions: no inverse letters
    group = RealizedGroup(enumerate_cosets(P.dihedral_inv(5)))
    report = conjecture_scan(group, 1)
    assert [r.permutation for r in report.rows] == ["(a)", "(b)"]


def test_conjecture_scan_runs_on_a_permutation_group():
    report = conjecture_scan(symmetric_group(4), 1)
    assert [r.multiset for r in report.rows] == ["{(1 2)}", "{(2 3)}", "{(3 4)}"]


PRESENTATIONS = {
    name: P.builtin(name, 5) if name.startswith("dihedral") else P.builtin(name)
    for name in P.BUILTIN_PRESENTATIONS
}
PRESENTATIONS["A3"] = P.coxeter(coxeter_chain(3, 3))
PRESENTATIONS["3[4]3"] = P.shephard([3, 3], [4])


@pytest.mark.parametrize("pres", PRESENTATIONS.values(), ids=PRESENTATIONS.keys())
def test_generator_keys_are_the_generators(pres):
    group = RealizedGroup(enumerate_cosets(pres))
    gens = pres.generators
    expected = tuple(group.evaluate_word(words.generator(gens, i, 1)) for i in range(len(gens)))
    assert group.generator_keys == expected


def test_conjecture_scan_small(g6_group):
    report = conjecture_scan(g6_group, 2)
    assert report.max_len == 2
    assert report.multisets == 9  # 3 singletons + 6 unordered pairs
    assert report.uniform == 9
    assert report.candidates == ()
    csv = report.to_csv()
    assert csv.startswith("multiset,permutation,orbit_size,capped\n")
    assert "counterexample candidates: 0" in report.summary()


@pytest.mark.parametrize("node_cap", [DEFAULT_NODE_CAP, 7])
def test_conjecture_scan_searches_each_orbit_once(monkeypatch, g6_group, node_cap):
    explore = hurwitz._explore
    searches = []

    def counted(*args, **kwargs):
        searches.append(args[0].factors)
        return explore(*args, **kwargs)

    monkeypatch.setattr(hurwitz, "_explore", counted)
    rows = conjecture_scan(g6_group, 5, node_cap).rows
    # 363 permutations of the 55 multisets lie in 129 orbits
    assert len(rows) == 363
    if node_cap == DEFAULT_NODE_CAP:
        assert len(searches) == 129
    alphabet = g6_group.realization.origin.generators
    letters = {
        "a": g6_group.evaluate_word(words.generator(alphabet, 0, 1)),
        "b": g6_group.evaluate_word(words.generator(alphabet, 1, 1)),
        "a^-1": g6_group.evaluate_word(words.generator(alphabet, 0, -1)),
    }
    for row in rows:
        f = Factorization(g6_group, tuple(letters[x] for x in row.permutation[1:-1].split(", ")))
        s = orbit_size(f, node_cap)
        capped = isinstance(s, AtLeast)
        assert (row.orbit_size, row.capped) == (None if capped else s.size, capped), row


def test_conjecture_scan_validates(g6_group):
    with pytest.raises(ValueError):
        conjecture_scan(g6_group, 0)


def test_default_check_groups():
    groups = default_check_groups()
    assert set(groups) == {"S4", "D12", "Q8", "G4", "G6"}
    assert [groups[k].order for k in ("S4", "D12", "Q8", "G4", "G6")] == [
        24, 12, 8, 24, 48,
    ]


def test_run_check_rejects_unknown():
    with pytest.raises(ValueError):
        run_check("no-such-theorem")


@pytest.mark.parametrize(
    "name",
    [n for n in THEOREM_NAMES if n not in ("closed-form",)],
)
def test_run_check_suites_pass(name):
    result = run_check(name, samples=20, seed=1)
    assert result.passed, result.failures


def test_run_check_closed_form_passes():
    result = run_check("closed-form", samples=5, seed=2, exponent_range=10)
    assert result.passed, result.failures


@pytest.mark.parametrize("samples", [0, -3])
def test_run_check_rejects_no_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_check("cycle", samples=samples)


def test_run_check_rejects_negative_exponent_range(s3):
    with pytest.raises(ValueError, match="exponent range must be >= 0"):
        run_check("closed-form", samples=2, groups={"S3": s3}, exponent_range=-2)


@pytest.mark.parametrize("name", ["double-reverse", "mirror-moves"])
def test_run_check_word_suite_needs_a_presentation(s3, g4_group, name):
    with pytest.raises(ValueError, match="needs a presentation; S3 has none"):
        run_check(name, samples=2, groups={"S3": s3, "G4": g4_group})


def test_run_check_refuses_a_presentation_that_is_not_reversible(g6_group, q8_ijk_group):
    # sampled anyway, this group gives false failures of the theorem
    with pytest.raises(ValueError, match="Q8ijk the relator i j k m has reverse m k j i != 1"):
        run_check("double-reverse", samples=30, seed=1, groups={"G6": g6_group, "Q8ijk": q8_ijk_group})


def test_mirror_moves_needs_no_reversible_presentation(q8_ijk_group):
    # the identity holds in the free group, whatever the relators
    result = run_check("mirror-moves", samples=30, seed=1, groups={"Q8ijk": q8_ijk_group})
    assert result.passed and result.samples == 30


def test_run_check_deterministic():
    a = run_check("cycle", samples=10, seed=9)
    b = run_check("cycle", samples=10, seed=9)
    assert a.failures == b.failures and a.inconclusive == b.inconclusive


def test_closed_form_failure_names_its_exponent(monkeypatch, s3):
    right = closed_form_pair

    def wrong_at_minus_3(group, x, y, m):
        return (-1, -1) if m == -3 else right(group, x, y, m)

    monkeypatch.setattr(equalities, "closed_form_pair", wrong_at_minus_3)
    result = run_check("closed-form", samples=2, groups={"S3": s3}, exponent_range=5)
    assert result.samples == 2 and len(result.failures) == 2
    for line in result.failures:
        x, y = map(int, re.match(r"S3: closed form sigma\^-3\((\d+),(\d+)\)", line).groups())
        f = Factorization(s3, (x, y))
        for _ in range(3):
            f = hurwitz_move(f, 1, INVERSE)
        assert line == f"S3: closed form sigma^-3({x},{y}) = (-1, -1), iteration gives {f.factors}"


def test_mirror_move_failure_names_its_positions(monkeypatch, g6_group):
    right = word_tuple_move

    def wrong_inverse(t, i, direction=FORWARD):
        return t if direction == INVERSE else right(t, i, direction)

    monkeypatch.setattr(equalities, "word_tuple_move", wrong_inverse)
    result = run_check("mirror-moves", samples=3, seed=5, groups={"G6": g6_group})
    assert result.samples == 3 and len(result.failures) == 3
    for line in result.failures:
        assert re.fullmatch(
            r"G6: mirrored moves broke the double reverse for \[.*\] with positions \[[12](, [12])*\]", line
        ), line
