"""Orbit-size equality transformations, reports, and sampled check suites.

Every equality statement is verified by computing both orbit sizes and
comparing, never by assuming the statement: a bug shows up as a failing
check, not a silent shortcut.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import presentations, words
from .groups import Group, RealizedGroup, symmetric_group
from .hurwitz import (
    DEFAULT_NODE_CAP,
    FORWARD,
    INVERSE,
    AtLeast,
    Factorization,
    Finite,
    hurwitz_move,
    orbit_size,
)
from .presentations import Presentation, Reversibility, check_reversible
from .toddcoxeter import enumerate_cosets
from .words import Word

WordTuple = Tuple[Word, ...]


# --- factorization transforms ----------------------------------------------


def closed_form_pair(group: Group, x: int, y: int, m: int) -> Tuple[int, int]:
    """The pair sigma^m(x, y) in closed form, for any integer m.

    Even exponent 2n: (y^-1 (x^-1 y^-1)^{n-1} x (yx)^{n-1} y,
    (y^-1 x^-1)^n y (xy)^n). Odd exponent 2n+1: ((y^-1 x^-1)^n y (xy)^n,
    y^-1 (x^-1 y^-1)^n x (yx)^n y).
    """
    g = group
    mul, inv, pw = g.multiply, g.inverse, g.power
    xi, yi = inv(x), inv(y)
    xy, yx = mul(x, y), mul(y, x)
    xiyi, yixi = mul(xi, yi), mul(yi, xi)

    def chain(*parts: int) -> int:
        out = g.identity
        for p in parts:
            out = mul(out, p)
        return out

    n, r = divmod(m, 2)
    if r == 0:
        left = chain(yi, pw(xiyi, n - 1), x, pw(yx, n - 1), y)
        right = chain(pw(yixi, n), y, pw(xy, n))
    else:
        left = chain(pw(yixi, n), y, pw(xy, n))
        right = chain(yi, pw(xiyi, n), x, pw(yx, n), y)
    return left, right


def cycle(f: Factorization) -> Factorization:
    """Left rotation by one: (x1, x2, ..., xl) -> (x2, ..., xl, x1)."""
    return Factorization(f.group, f.factors[1:] + f.factors[:1])


def conjugate_all(f: Factorization, y: int) -> Factorization:
    return Factorization(
        f.group, tuple(f.group.conjugate(x, y) for x in f.factors)
    )


def flip_inverse(f: Factorization) -> Factorization:
    """Reverse the order and invert each factor."""
    return Factorization(
        f.group, tuple(f.group.inverse(x) for x in reversed(f.factors))
    )


def reverse_tuple(f: Factorization) -> Factorization:
    return Factorization(f.group, tuple(reversed(f.factors)))


def double_reverse(t: WordTuple) -> WordTuple:
    """(a1, ..., al) -> (al*, ..., a1*): reverse the tuple and each word."""
    return tuple(words.reverse(w) for w in reversed(t))


def word_tuple_move(t: WordTuple, i: int, direction: str = FORWARD) -> WordTuple:
    """A Hurwitz move on a tuple of free-group words (1-based position)."""
    if not 1 <= i <= len(t) - 1:
        raise ValueError(f"move position {i} out of range 1..{len(t) - 1}")
    a, b = t[i - 1], t[i]
    if direction == FORWARD:
        pair = (b, words.concat(words.concat(words.invert(b), a), b))
    elif direction == INVERSE:
        pair = (words.concat(words.concat(a, b), words.invert(a)), a)
    else:
        raise ValueError(f"direction must be {FORWARD!r} or {INVERSE!r}")
    return t[: i - 1] + pair + t[i:][1:]


def evaluate_tuple(group: RealizedGroup, t: WordTuple) -> Factorization:
    return Factorization(group, tuple(group.evaluate_word(w) for w in t))


# --- equality reports -------------------------------------------------------


@dataclass(frozen=True)
class EqualityReport:
    transform: str
    input_factors: Tuple[int, ...]
    output_factors: Tuple[int, ...]
    size_left: Optional[int]
    size_right: Optional[int]
    verdict: str  # equal | unequal | inconclusive
    note: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "transform": self.transform,
                "input": list(self.input_factors),
                "output": list(self.output_factors),
                "size_left": self.size_left,
                "size_right": self.size_right,
                "verdict": self.verdict,
                "note": self.note,
            }
        )


def _size_or_none(f: Factorization, node_cap: int) -> Optional[int]:
    s = orbit_size(f, node_cap)
    return s.size if isinstance(s, Finite) else None


def check_equality(
    group: Group,
    f: Factorization,
    transform: str,
    node_cap: int = DEFAULT_NODE_CAP,
    y: Optional[int] = None,
    word_tuple: Optional[WordTuple] = None,
    presentation: Optional[Presentation] = None,
) -> EqualityReport:
    """Compute orbit sizes of f and its transform; report, never assert.

    For ``double_reverse`` pass the word tuple that f evaluates; when the
    presentation is not known to be reversible the report carries a
    "no guarantee" note.
    """
    note = ""
    if transform == "cycle":
        out = cycle(f)
    elif transform == "flip_inverse":
        out = flip_inverse(f)
    elif transform == "reverse_tuple":
        out = reverse_tuple(f)
    elif transform == "conjugate_all":
        if y is None:
            raise ValueError("conjugate_all needs the conjugating element y")
        out = conjugate_all(f, y)
    elif transform == "double_reverse":
        if word_tuple is None or not isinstance(group, RealizedGroup):
            raise ValueError(
                "double_reverse needs a word tuple over a realized group"
            )
        if presentation is not None:
            report = check_reversible(presentation, group.realization)
            if report.status is not Reversibility.REVERSIBLE:
                note = "no guarantee: presentation not reversible"
        out = evaluate_tuple(group, double_reverse(word_tuple))
    else:
        raise ValueError(f"unknown transform {transform!r}")

    size_left = _size_or_none(f, node_cap)
    size_right = _size_or_none(out, node_cap)
    if size_left is None or size_right is None:
        verdict = "inconclusive"
    else:
        verdict = "equal" if size_left == size_right else "unequal"
    return EqualityReport(
        transform=transform,
        input_factors=f.factors,
        output_factors=out.factors,
        size_left=size_left,
        size_right=size_right,
        verdict=verdict,
        note=note,
    )


# --- the two-letter rotation remark ----------------------------------------


def remark_rotation_check(pattern: Sequence) -> bool:
    """True iff the reversed pattern is a cyclic rotation of the pattern.

    Only defined for patterns over at most two distinct symbols.
    """
    symbols = set(pattern)
    if len(symbols) > 2:
        raise ValueError("pattern uses more than 2 distinct symbols")
    seq = tuple(pattern)
    rev = tuple(reversed(seq))
    n = len(seq)
    return any(seq[k:] + seq[:k] == rev for k in range(max(n, 1)))


# --- G6 conjecture scan and G4 counterexample --------------------------------


@dataclass(frozen=True)
class ScanRow:
    multiset: str
    permutation: str
    orbit_size: Optional[int]
    capped: bool


@dataclass(frozen=True)
class ConjectureScanReport:
    max_len: int
    rows: Tuple[ScanRow, ...]
    multisets: int
    uniform: int
    candidates: Tuple[str, ...]  # multisets with more than one observed size

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("multiset,permutation,orbit_size,capped\n")
        for r in self.rows:
            size = "" if r.orbit_size is None else r.orbit_size
            out.write(
                f"\"{r.multiset}\",\"{r.permutation}\",{size},{str(r.capped).lower()}\n"
            )
        return out.getvalue()

    def summary(self) -> str:
        return (
            f"multisets: {self.multisets}, uniform: {self.uniform}, "
            f"counterexample candidates: {len(self.candidates)}"
        )


def conjecture_scan(
    group: RealizedGroup, max_len: int, node_cap: int = DEFAULT_NODE_CAP
) -> ConjectureScanReport:
    """Orbit sizes of all permutations of multisets over {a, b, a^-1} in G6.

    Any multiset whose permutations show more than one orbit size is flagged
    as a counterexample candidate.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    alphabet = group.realization.origin.generators
    letters = [
        ("a", group.evaluate_word(words.generator(alphabet, 0, 1))),
        ("b", group.evaluate_word(words.generator(alphabet, 1, 1))),
        ("a^-1", group.evaluate_word(words.generator(alphabet, 0, -1))),
    ]
    rows: List[ScanRow] = []
    multisets = 0
    uniform = 0
    candidates: List[str] = []
    for length in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(range(3), length):
            multisets += 1
            label = "{" + ", ".join(letters[i][0] for i in combo) + "}"
            sizes = set()
            any_capped = False
            for perm in sorted(set(itertools.permutations(combo))):
                f = Factorization(group, tuple(letters[i][1] for i in perm))
                s = orbit_size(f, node_cap)
                capped = isinstance(s, AtLeast)
                any_capped = any_capped or capped
                size = None if capped else s.size
                if size is not None:
                    sizes.add(size)
                rows.append(
                    ScanRow(
                        multiset=label,
                        permutation="(" + ", ".join(letters[i][0] for i in perm) + ")",
                        orbit_size=size,
                        capped=capped,
                    )
                )
            if len(sizes) <= 1 and not any_capped:
                uniform += 1
            elif len(sizes) > 1:
                candidates.append(label)
    return ConjectureScanReport(
        max_len=max_len,
        rows=tuple(rows),
        multisets=multisets,
        uniform=uniform,
        candidates=tuple(candidates),
    )


@dataclass(frozen=True)
class G4CounterexampleReport:
    size_aabb: Optional[int]
    size_abab: Optional[int]

    @property
    def ok(self) -> bool:
        return self.size_aabb == 36 and self.size_abab == 27


def g4_counterexample_check(
    group: RealizedGroup, node_cap: int = DEFAULT_NODE_CAP
) -> G4CounterexampleReport:
    """Reproduce the 36 vs 27 orbit sizes of (a,a,b,b) and (a,b,a,b)."""
    alphabet = group.realization.origin.generators
    a = group.evaluate_word(words.generator(alphabet, 0, 1))
    b = group.evaluate_word(words.generator(alphabet, 1, 1))
    return G4CounterexampleReport(
        size_aabb=_size_or_none(Factorization(group, (a, a, b, b)), node_cap),
        size_abab=_size_or_none(Factorization(group, (a, b, a, b)), node_cap),
    )


# --- sampled theorem suites ---------------------------------------------------


@dataclass
class CheckResult:
    name: str
    samples: int
    failures: List[str] = field(default_factory=list)
    inconclusive: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


THEOREM_NAMES = (
    "pair-swap",
    "pair-inverse",
    "cycle",
    "flip-inverse",
    "conjugate",
    "involution-reverse",
    "double-reverse",
    "closed-form",
    "mirror-moves",
)


# suites that sample words over a presentation, not elements of a group
WORD_SUITES = ("double-reverse", "mirror-moves")


def default_check_groups() -> Dict[str, Group]:
    """The five groups the sampled group suites run over."""
    named = {"S4": symmetric_group(4)}
    for name, pres in (
        ("D12", presentations.dihedral_rs(6)),
        ("Q8", presentations.q8_ab()),
        ("G4", presentations.g4()),
        ("G6", presentations.g6()),
    ):
        named[name] = RealizedGroup(enumerate_cosets(pres), name=name)
    return named


def _random_factorization(rng: random.Random, group: Group, length: int) -> Factorization:
    els = list(group.elements())
    return Factorization(group, tuple(rng.choice(els) for _ in range(length)))


def _random_word(rng: random.Random, alphabet, max_len: int) -> Word:
    letters: List[Tuple[int, int]] = []
    for _ in range(rng.randint(0, max_len)):
        choices = [
            (i, s)
            for i in range(len(alphabet))
            for s in (1, -1)
            if not (letters and letters[-1] == (i, -s))
        ]
        letters.append(rng.choice(choices))
    return Word(tuple(alphabet), tuple(letters))


def _compare(result: CheckResult, group_name, f, out, node_cap):
    left = _size_or_none(f, node_cap)
    right = _size_or_none(out, node_cap)
    if left is None or right is None:
        result.inconclusive += 1
    elif left != right:
        result.failures.append(
            f"{group_name}: {f.factors} -> {out.factors}: {left} != {right}"
        )


def run_check(
    name: str,
    samples: int = 100,
    seed: int = 0,
    node_cap: int = DEFAULT_NODE_CAP,
    groups: Optional[Dict[str, Group]] = None,
    exponent_range: int = 20,
    lengths: Tuple[int, ...] = (2, 3, 4),
) -> CheckResult:
    """Run one named property suite on sampled inputs; see THEOREM_NAMES.

    ``groups`` replaces the default groups. The word suites (WORD_SUITES)
    sample words over each group's presentation, so they need realized
    groups.
    """
    if name not in THEOREM_NAMES:
        raise ValueError(f"unknown theorem {name!r}; known: {THEOREM_NAMES}")
    rng = random.Random(seed)
    if name in WORD_SUITES:
        return _run_word_tuple_check(name, samples, rng, node_cap, groups)
    if groups is None:
        groups = default_check_groups()
    result = CheckResult(name=name, samples=samples * len(groups))

    for group_name, group in sorted(groups.items()):
        els = list(group.elements())
        for _ in range(samples):
            if name == "pair-swap":
                x, y = rng.choice(els), rng.choice(els)
                f = Factorization(group, (x, y))
                _compare(result, group_name, f, Factorization(group, (y, x)), node_cap)
            elif name == "pair-inverse":
                x, y = rng.choice(els), rng.choice(els)
                f = Factorization(group, (x, y))
                out = Factorization(group, (group.inverse(x), group.inverse(y)))
                _compare(result, group_name, f, out, node_cap)
            elif name == "cycle":
                f = _random_factorization(rng, group, rng.choice(lengths))
                _compare(result, group_name, f, cycle(f), node_cap)
            elif name == "flip-inverse":
                f = _random_factorization(rng, group, rng.choice(lengths))
                _compare(result, group_name, f, flip_inverse(f), node_cap)
            elif name == "conjugate":
                f = _random_factorization(rng, group, rng.choice(lengths))
                y = rng.choice(els)
                _compare(result, group_name, f, conjugate_all(f, y), node_cap)
            elif name == "involution-reverse":
                invol = [g for g in els if group.element_order(g) <= 2]
                f = Factorization(
                    group,
                    tuple(rng.choice(invol) for _ in range(rng.choice(lengths))),
                )
                _compare(result, group_name, f, reverse_tuple(f), node_cap)
            elif name == "closed-form":
                x, y = rng.choice(els), rng.choice(els)
                # sigma^m(x, y) by iteration: one forward and one backward walk
                iterated = {0: (x, y)}
                for direction, step in ((FORWARD, 1), (INVERSE, -1)):
                    f = Factorization(group, (x, y))
                    for k in range(1, exponent_range + 1):
                        f = hurwitz_move(f, 1, direction)
                        iterated[step * k] = f.factors
                for m in range(-exponent_range, exponent_range + 1):
                    expected = iterated[m]
                    got = closed_form_pair(group, x, y, m)
                    if got != expected:
                        result.failures.append(
                            f"{group_name}: closed form sigma^{m}({x},{y}) "
                            f"= {got}, iteration gives {expected}"
                        )
    return result


def _run_word_tuple_check(
    name: str, samples: int, rng: random.Random, node_cap: int, groups: Optional[Dict[str, Group]]
) -> CheckResult:
    if groups is None:
        groups = {
            pres_name: RealizedGroup(enumerate_cosets(pres), name=pres_name)
            for pres_name, pres in (("D10", presentations.dihedral_rs(5)), ("G6", presentations.g6()))
        }
    targets = sorted(groups.items())

    result = CheckResult(name=name, samples=samples)
    for _ in range(samples):
        pres_name, group = rng.choice(targets)
        pres = group.realization.origin
        length = rng.randint(2, 3)
        t = tuple(
            _random_word(rng, pres.generators, 3) for _ in range(length)
        )
        if name == "double-reverse":
            rep = check_equality(
                group,
                evaluate_tuple(group, t),
                "double_reverse",
                node_cap=node_cap,
                word_tuple=t,
                presentation=pres,
            )
            if rep.verdict == "inconclusive":
                result.inconclusive += 1
            elif rep.verdict != "equal":
                result.failures.append(
                    f"{pres_name}: {[str(w) for w in t]}: "
                    f"{rep.size_left} != {rep.size_right}"
                )
        else:  # mirror-moves, the mirrored braid double-reverse preservation
            n_moves = rng.randint(1, 8)
            positions = [rng.randint(1, length - 1) for _ in range(n_moves)]
            u_n = t
            for p in positions:
                u_n = word_tuple_move(u_n, p, FORWARD)
            v_n = double_reverse(t)
            for p in positions:
                v_n = word_tuple_move(v_n, length - p, INVERSE)
            expected = double_reverse(u_n)
            if expected != v_n:
                result.failures.append(
                    f"{pres_name}: mirrored moves broke the double reverse "
                    f"for {[str(w) for w in t]} with positions {positions}"
                )
                continue
            # the same equality, checked in the realized quotient
            for w1, w2 in zip(expected, v_n):
                if group.evaluate_word(w1) != group.evaluate_word(w2):
                    result.failures.append(
                        f"{pres_name}: realized mismatch for {w1} vs {w2}"
                    )
    return result
