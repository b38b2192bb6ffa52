"""End-to-end acceptance criteria.

Each test prints a single PASS/FAIL line so the run doubles as a report.
Runtime bounds are asserted where the criterion states one.
"""

import itertools
import time

from oracles import (
    G4_MATRIX_GENERATORS,
    G6_MATRIX_GENERATORS,
    dihedral_permutation_group,
    element_order_multiset,
    matrix_closure_order,
    remark_rotation_check,
    transposition_pair_orbits,
)

from hurwitzorbits import presentations as P
from hurwitzorbits.equalities import (
    conjecture_scan,
    run_check,
)
from hurwitzorbits.groups import RealizedGroup
from hurwitzorbits.hurwitz import Factorization, Finite, orbit_size, same_orbit
from hurwitzorbits.presentations import check_reversible
from hurwitzorbits.toddcoxeter import enumerate_cosets


def report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"{name}{tail}"


def test_acceptance_1_g4_orbit_sizes(g4_group):
    start = time.perf_counter()
    scan = conjecture_scan(g4_group, 4)
    elapsed = time.perf_counter() - start
    sizes = {r.permutation: r.orbit_size for r in scan.rows}
    aabb, abab = sizes["(a, a, b, b)"], sizes["(a, b, a, b)"]
    report(
        "criterion 1: G4 orbit sizes (a,a,b,b)=36 and (a,b,a,b)=27 under 1s",
        (aabb, abab) == (36, 27) and "{a, a, b, b}" in scan.candidates and elapsed < 1.0,
        f"sizes {aabb}/{abab} in {elapsed:.3f}s",
    )


def test_acceptance_2_reversibility_classification(q8_ab_group, q8_ijk_group):
    ok = True
    detail = []
    for n in range(3, 9):
        witness = check_reversible(RealizedGroup(enumerate_cosets(P.dihedral_rs(n))))
        if witness is not None:
            ok = False
            detail.append(f"dihedral-rs({n}): relator {witness[0]} has reverse {witness[1]}")
    if check_reversible(RealizedGroup(enumerate_cosets(P.dihedral_inv(6)))) is not None:
        ok = False
        detail.append("dihedral-inv(6) not reversible")
    if check_reversible(q8_ab_group) is not None:
        ok = False
        detail.append("q8-ab not reversible")
    ijk = check_reversible(q8_ijk_group)
    if ijk is None:
        ok = False
        detail.append("q8-ijk not flagged")
    else:
        witness_key = q8_ijk_group.evaluate_word(ijk[1])
        if q8_ijk_group.element_order(witness_key) != 2:
            ok = False
            detail.append("q8-ijk witness reverse is not the order-2 element")
    report(
        "criterion 2: reversibility classifications of the named presentations",
        ok,
        "; ".join(detail) or "all classified as expected",
    )


def test_acceptance_3_closed_form():
    start = time.perf_counter()
    # 40 pairs per group x 5 groups = 200 pairs, exponents -20..20 each
    result = run_check("closed-form", samples=40, seed=101, exponent_range=20)
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: closed form matches iterated moves for m in [-20, 20]",
        result.passed and elapsed < 10.0,
        f"200 pairs, {len(result.failures)} failures in {elapsed:.2f}s",
    )


def test_acceptance_4_theorem_suites():
    suites = (
        "pair-swap",
        "pair-inverse",
        "cycle",
        "conjugate",
        "flip-inverse",
        "involution-reverse",
    )
    start = time.perf_counter()
    failures = []
    for name in suites:
        result = run_check(name, samples=100, seed=202)
        if not result.passed:
            failures.append(f"{name}: {result.failures[:2]}")
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: six orbit-size equality suites at 100 samples per group",
        not failures and elapsed < 120.0,
        "; ".join(failures) or f"all pass in {elapsed:.1f}s",
    )


def test_acceptance_5_double_reverse_and_mirrored_moves():
    dr = run_check("double-reverse", samples=50, seed=303)
    mm = run_check("mirror-moves", samples=50, seed=404)
    report(
        "criterion 5: double-reverse orbit sizes and mirrored-move preservation",
        dr.passed and mm.passed,
        f"double-reverse failures {len(dr.failures)}, "
        f"mirror-moves failures {len(mm.failures)}",
    )


def test_acceptance_6_enumerator_vs_oracles(q8_ab_group, q8_ijk_group):
    ok = True
    detail = []
    for n in range(1, 13):
        order = enumerate_cosets(P.dihedral_rs(n)).order
        oracle = dihedral_permutation_group(n).order
        if not order == oracle == 2 * n:
            ok = False
            detail.append(f"dihedral({n}): {order} vs oracle {oracle}")
    expected = (1, 2, 4, 4, 4, 4, 4, 4)
    for name, group in (("q8-ab", q8_ab_group), ("q8-ijk", q8_ijk_group)):
        if group.order != 8 or element_order_multiset(group) != expected:
            ok = False
            detail.append(f"{name} wrong order structure")
    g4_order = enumerate_cosets(P.g4()).order
    g6_order = enumerate_cosets(P.g6()).order
    if g4_order != matrix_closure_order(G4_MATRIX_GENERATORS) or g4_order != 24:
        ok = False
        detail.append(f"g4 order {g4_order}")
    if g6_order != matrix_closure_order(G6_MATRIX_GENERATORS) or g6_order != 48:
        ok = False
        detail.append(f"g6 order {g6_order}")
    report(
        "criterion 6: enumerator orders match independent oracles",
        ok,
        "; ".join(detail) or "dihedral 2n, Q8 both 8, G4 24, G6 48",
    )


def test_acceptance_7_g6_conjecture_scan(g6_group):
    start = time.perf_counter()
    scan = conjecture_scan(g6_group, 4)
    elapsed = time.perf_counter() - start
    # a non-uniform multiset would be a finding, not a hidden failure
    report(
        "criterion 7: G6 scan of all multisets up to length 4 is uniform",
        scan.multisets == 34
        and scan.uniform == scan.multisets
        and not scan.candidates
        and elapsed < 300.0,
        f"{scan.summary()} in {elapsed:.1f}s",
    )


def test_acceptance_8_two_symbol_rotation_patterns():
    patterns = [
        p
        for length in range(1, 6)
        for p in itertools.product((0, 1), repeat=length)
    ]
    ok = len(patterns) == 62 and all(remark_rotation_check(p) for p in patterns)
    counterexample = not remark_rotation_check((0, 0, 1, 0, 1, 1))
    report(
        "criterion 8: reverse-is-rotation for all 62 short patterns, "
        "refuted at (0,0,1,0,1,1)",
        ok and counterexample,
        f"{len(patterns)} patterns checked",
    )


def test_acceptance_9_s3_orbits(s3):
    t12 = s3.key_of((1, 0, 2))
    t13 = s3.key_of((2, 1, 0))
    t23 = s3.key_of((0, 2, 1))
    size = orbit_size(Factorization(s3, (t12, t23)))
    f1 = Factorization(s3, (t12, t13))
    f2 = Factorization(s3, (t13, t12))
    sizes_equal = orbit_size(f1) == orbit_size(f2)
    disjoint = same_orbit(f1, f2) == "no"
    # brute force over every ordered pair of transpositions
    brute = sorted(len(o) for o in transposition_pair_orbits(s3)) == [1, 1, 1, 3, 3]
    report(
        "criterion 9: S3 pair orbits (size 3; equal sizes, distinct orbits)",
        size == Finite(3) and sizes_equal and disjoint and brute,
        f"orbit size {size}, same_orbit={same_orbit(f1, f2)}",
    )
