"""The paper's orbit-size statements, their sampled checks, and the scan.

``STATEMENTS`` is the one table of the statements: each CLI name maps to an
input domain and a transform. ``run_check`` draws inputs from the domain,
sizes both orbits with ``orbit_size`` and compares them, never assuming the
statement, so a bug shows as a failing check, not a silent shortcut. The
identities ``closed-form`` and ``mirror-moves`` return failure lines.
``conjecture_scan`` runs on any group: its letters are the generators, then
their inverses, less repeated elements, and it sizes each multiset's
permutations in one ``orbit_sizes`` batch.
"""

from __future__ import annotations

import io
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    orbit_sizes,
)
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
    """Conjugate every factor by y."""
    return Factorization(f.group, tuple(f.group.conjugate(x, y) for x in f.factors))


def invert_all(f: Factorization) -> Factorization:
    """Invert each factor in place."""
    return Factorization(f.group, tuple(f.group.inverse(x) for x in f.factors))


def flip_inverse(f: Factorization) -> Factorization:
    """Reverse the order and invert each factor."""
    return Factorization(f.group, tuple(f.group.inverse(x) for x in reversed(f.factors)))


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


# --- the conjecture scan ---------------------------------------------------


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
    group: Group, max_len: int, node_cap: int = DEFAULT_NODE_CAP
) -> ConjectureScanReport:
    """Orbit sizes of all permutations of multisets of the group's letters.

    The letters are ``group.generator_keys``, then their inverses in the same
    order, less any element that repeats an earlier one, each named by
    ``group.element_name``: a, b, a^-1 in G6 and a, b, a^-1, b^-1 in G4.
    Each orbit among a multiset's permutations is searched once; a multiset
    whose permutations show more than one size is a counterexample candidate.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    gens = group.generator_keys
    keys = list(dict.fromkeys(gens + tuple(group.inverse(g) for g in gens)))
    names = [group.element_name(k) for k in keys]
    rows: List[ScanRow] = []
    multisets = 0
    uniform = 0
    candidates: List[str] = []
    for length in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(range(len(keys)), length):
            multisets += 1
            label = "{" + ", ".join(names[i] for i in combo) + "}"
            sizes = set()
            any_capped = False
            perms = sorted(set(itertools.permutations(combo)))
            fs = [Factorization(group, tuple(keys[i] for i in perm)) for perm in perms]
            for perm, s in zip(perms, orbit_sizes(fs, node_cap)):
                capped = isinstance(s, AtLeast)
                any_capped = any_capped or capped
                size = None if capped else s.size
                if size is not None:
                    sizes.add(size)
                rows.append(
                    ScanRow(
                        multiset=label,
                        permutation="(" + ", ".join(names[i] for i in perm) + ")",
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


# --- the paper's statements -------------------------------------------------


def _size_or_none(f: Factorization, node_cap: int) -> Optional[int]:
    s = orbit_size(f, node_cap)
    return s.size if isinstance(s, Finite) else None


def compare_sizes(f: Factorization, out: Factorization, node_cap: int):
    """(size of f, size of out, verdict); a capped size is None, "inconclusive"."""
    left = _size_or_none(f, node_cap)
    right = _size_or_none(out, node_cap)
    if left is None or right is None:
        return left, right, "inconclusive"
    return left, right, "equal" if left == right else "unequal"


def closed_form_failures(f: Factorization, exponent_range: int) -> List[str]:
    """Compare closed_form_pair with sigma^m by iteration, for |m| <= exponent_range."""
    group, (x, y) = f.group, f.factors
    iterated = {0: (x, y)}
    for direction, step in ((FORWARD, 1), (INVERSE, -1)):
        g = f
        for k in range(1, exponent_range + 1):
            g = hurwitz_move(g, 1, direction)
            iterated[step * k] = g.factors
    failures = []
    for m in range(-exponent_range, exponent_range + 1):
        got = closed_form_pair(group, x, y, m)
        if got != iterated[m]:
            failures.append(
                f"closed form sigma^{m}({x},{y}) = {got}, iteration gives {iterated[m]}"
            )
    return failures


def mirror_move_failures(t: WordTuple, positions: Sequence[int]) -> List[str]:
    """Moves at ``positions`` commute with the double reverse, mirrored:
    the double reverse of sigma_p(t) is sigma_{l-p}^-1 of the double reverse."""
    u = t
    for p in positions:
        u = word_tuple_move(u, p, FORWARD)
    v = double_reverse(t)
    for p in positions:
        v = word_tuple_move(v, len(t) - p, INVERSE)
    if double_reverse(u) == v:
        return []
    return [
        f"mirrored moves broke the double reverse for {[str(w) for w in t]} "
        f"with positions {list(positions)}"
    ]


def _random_word(rng: random.Random, alphabet, max_len: int) -> Word:
    letters: List[Tuple[int, int]] = []
    for _ in range(rng.randint(0, max_len)):
        last = letters[-1] if letters else None
        choices = [(i, s) for i in range(len(alphabet)) for s in (1, -1) if (i, -s) != last]
        letters.append(rng.choice(choices))
    return Word(tuple(alphabet), tuple(letters))


class Domain(NamedTuple):
    """Where inputs come from: ``draw(rng, group, pool(group))`` returns one
    input, the transform's arguments. A word domain draws words over the
    group's presentation and picks the group per sample; the others draw
    ``samples`` inputs from each group."""

    pool: Callable
    draw: Callable
    words: bool = False
    reversible: bool = False  # the statement holds over reversible presentations


LENGTHS = (2, 3, 4)


def _pair(rng: random.Random, group: Group, els: List[int]):
    return (Factorization(group, (rng.choice(els), rng.choice(els))),)


def _tuple(rng: random.Random, group: Group, pool: List[int]):
    return (Factorization(group, tuple(rng.choice(pool) for _ in range(rng.choice(LENGTHS)))),)


def _conjugated(rng: random.Random, group: Group, els: List[int]):
    return _tuple(rng, group, els) + (rng.choice(els),)


def _words(rng: random.Random, group: Group, generators):
    return (tuple(_random_word(rng, generators, 3) for _ in range(rng.randint(2, 3))),)


def _word_moves(rng: random.Random, group: Group, generators):
    (t,) = _words(rng, group, generators)
    return t, [rng.randint(1, len(t) - 1) for _ in range(rng.randint(1, 8))]


def _elements(group: Group) -> List[int]:
    return list(group.elements())


def _involutions(group: Group) -> List[int]:
    return [x for x in group.elements() if group.element_order(x) <= 2]


def _generators(group: Group):
    return group.realization.origin.generators


PAIRS = Domain(_elements, _pair)
TUPLES = Domain(_elements, _tuple)
INVOLUTIONS = Domain(_involutions, _tuple)
CONJUGATED = Domain(_elements, _conjugated)
REVERSIBLE_WORDS = Domain(_generators, _words, words=True, reversible=True)
WORD_MOVES = Domain(_generators, _word_moves, words=True)


class Statement(NamedTuple):
    """A statement over ``domain``. ``transform(*input)`` returns an input
    whose orbit must have the size of the first argument's orbit. For an
    identity, ``transform(*input, exponent_range)`` returns its failure
    lines instead."""

    domain: Domain
    transform: Callable
    identity: bool = False


STATEMENTS: Dict[str, Statement] = {
    "pair-swap": Statement(PAIRS, reverse_tuple),
    "pair-inverse": Statement(PAIRS, invert_all),
    "cycle": Statement(TUPLES, cycle),
    "flip-inverse": Statement(TUPLES, flip_inverse),
    "conjugate": Statement(CONJUGATED, conjugate_all),
    "involution-reverse": Statement(INVOLUTIONS, reverse_tuple),
    "double-reverse": Statement(REVERSIBLE_WORDS, double_reverse),
    "closed-form": Statement(PAIRS, closed_form_failures, identity=True),
    "mirror-moves": Statement(
        WORD_MOVES, lambda t, positions, _range: mirror_move_failures(t, positions), identity=True
    ),
}
THEOREM_NAMES = tuple(STATEMENTS)


@dataclass
class CheckResult:
    name: str
    samples: int = 0
    failures: List[str] = field(default_factory=list)
    inconclusive: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


def default_check_groups(words: bool = False) -> Dict[str, Group]:
    """S4, D12, Q8, G4 and G6, or D10 and G6 for the word suites."""
    P = presentations
    named: Dict[str, Group] = {} if words else {"S4": symmetric_group(4)}
    sources = [("D10", P.dihedral_rs(5))] if words else [
        ("D12", P.dihedral_rs(6)), ("Q8", P.q8_ab()), ("G4", P.g4())
    ]
    for name, pres in sources + [("G6", P.g6())]:
        named[name] = RealizedGroup(enumerate_cosets(pres), name=name)
    return named


def run_check(
    name: str,
    samples: int = 100,
    seed: int = 0,
    node_cap: int = DEFAULT_NODE_CAP,
    groups: Optional[Dict[str, Group]] = None,
    exponent_range: int = 20,
) -> CheckResult:
    """Check one statement of STATEMENTS on sampled inputs.

    ``groups`` replaces the default groups. The domain's hypotheses are
    enforced, never assumed: a word domain samples words over each group's
    presentation, so it needs realized groups, and a reversible one refuses
    a group with a relator whose reverse is not 1. A refusal is a
    ``ValueError`` that names the group.
    """
    if name not in STATEMENTS:
        raise ValueError(f"unknown theorem {name!r}; known: {THEOREM_NAMES}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if exponent_range < 0:
        raise ValueError(f"exponent range must be >= 0, got {exponent_range}")
    statement = STATEMENTS[name]
    domain = statement.domain
    if groups is None:
        groups = default_check_groups(domain.words)
    for group_name, group in sorted(groups.items()):
        if domain.words and not isinstance(group, RealizedGroup):
            raise ValueError(f"{name} samples words, which needs a presentation; {group_name} has none")
        witness = domain.reversible and presentations.check_reversible(group)
        if witness:
            raise ValueError(
                f"{name} holds over reversible presentations; in {group_name} "
                f"the relator {witness[0]} has reverse {witness[1]} != 1"
            )
    targets = [(n, g, domain.pool(g)) for n, g in sorted(groups.items())]
    rng = random.Random(seed)
    if domain.words:
        schedule = (rng.choice(targets) for _ in range(samples))
    else:
        schedule = (target for target in targets for _ in range(samples))

    result = CheckResult(name=name)
    for group_name, group, pool in schedule:
        result.samples += 1
        args = domain.draw(rng, group, pool)
        if statement.identity:
            lines = statement.transform(*args, exponent_range)
            result.failures.extend(f"{group_name}: {line}" for line in lines)
            continue
        f, out = args[0], statement.transform(*args)
        if domain.words:
            shown = [str(w) for w in f]
            f, out = evaluate_tuple(group, f), evaluate_tuple(group, out)
        else:
            shown = f"{f.factors} -> {out.factors}"
        left, right, verdict = compare_sizes(f, out, node_cap)
        if verdict == "inconclusive":
            result.inconclusive += 1
        elif verdict == "unequal":
            result.failures.append(f"{group_name}: {shown}: {left} != {right}")
    return result
