"""Every statement of the paper, checked on every input of three small groups.

``hurwitz check`` samples inputs; this census runs through whole domains
instead. Tuples, involution tuples and conjugation by each generator range
over G^3. Pairs and word tuples range over G^2, a word tuple being the
representative words of a pair: word arithmetic is too slow for G^3 here.
Orbit sizes come from ``oracles.orbit_census``, and every transform is
read from ``STATEMENTS``.
"""

import functools
import itertools

import pytest

from hurwitzorbits import presentations as P
from hurwitzorbits import words
from hurwitzorbits.equalities import (
    CONJUGATED,
    INVOLUTIONS,
    PAIRS,
    REVERSIBLE_WORDS,
    STATEMENTS,
    TUPLES,
    WORD_MOVES,
)
from hurwitzorbits.groups import RealizedGroup
from hurwitzorbits.hurwitz import Factorization
from hurwitzorbits.toddcoxeter import enumerate_cosets
from oracles import orbit_census

PRESENTATIONS = {"D10": P.dihedral_rs(5), "G4": P.g4(), "G6": P.g6()}
EXPONENT_RANGE = 4


@functools.lru_cache(maxsize=None)
def realized(name):
    return RealizedGroup(enumerate_cosets(PRESENTATIONS[name]), name=name)


@functools.lru_cache(maxsize=None)
def census(name, n):
    """(table, orbit size of every n-tuple) from ``orbit_census``."""
    table, orbit_of, sizes = orbit_census(realized(name), n)
    return table, {t: sizes[i] for t, i in orbit_of.items()}


@functools.lru_cache(maxsize=None)
def every_input(domain, name):
    """(n, every input of ``domain`` in the group, as transform arguments)."""
    group = realized(name)
    n = 2 if domain is PAIRS or domain.words else 3
    table = census(name, n)[0]
    els = range(group.order)
    if domain is INVOLUTIONS:
        els = [x for x in els if table.element_order(x) <= 2]
    tuples = itertools.product(els, repeat=n)
    if domain.words:
        rep = group.representative_word
        ts = [tuple(map(rep, t)) for t in tuples]
        if domain is WORD_MOVES:
            return n, [(t, [p]) for t in ts for p in range(1, n)]
        return n, [(t,) for t in ts]
    if domain is CONJUGATED:
        alphabet = group.realization.origin.generators
        gens = [group.evaluate_word(words.generator(alphabet, i)) for i in range(len(alphabet))]
        return n, [(f, y) for (f,) in every_input(TUPLES, name)[1] for y in gens]
    return n, [(Factorization(table, t),) for t in tuples]


@pytest.fixture(scope="module", autouse=True)
def _free_the_census():
    yield
    for cached in (realized, census, every_input):
        cached.cache_clear()


def test_every_domain_is_enumerated():
    domains = {s.domain for s in STATEMENTS.values()}
    assert domains == {PAIRS, TUPLES, INVOLUTIONS, CONJUGATED, REVERSIBLE_WORDS, WORD_MOVES}


@pytest.mark.parametrize("group_name", sorted(PRESENTATIONS))
@pytest.mark.parametrize("name", list(STATEMENTS))
def test_statement_holds_on_every_input(name, group_name):
    statement = STATEMENTS[name]
    transform = statement.transform
    n, inputs = every_input(statement.domain, group_name)
    assert inputs
    if statement.identity:
        failures = [line for args in inputs for line in transform(*args, EXPONENT_RANGE)]
    elif statement.domain.words:
        size_of = census(group_name, n)[1]
        evaluate = functools.lru_cache(maxsize=None)(realized(group_name).evaluate_word)
        failures = [
            args for args in inputs
            if size_of[tuple(map(evaluate, args[0]))] != size_of[tuple(map(evaluate, transform(*args)))]
        ]
    else:
        size_of = census(group_name, n)[1]
        failures = [args for args in inputs if size_of[args[0].factors] != size_of[transform(*args).factors]]
    assert failures == [], failures[:3]
