"""Hurwitz orbit sizes in finitely presented groups.

Free-group word arithmetic, presentation parsing, coset enumeration, a
uniform finite-group interface, Hurwitz orbit enumeration, and executable
checks of the orbit-size equality statements.
"""

from .words import Word, concat, invert, reduce_word, render, reverse
from .presentations import (
    Presentation,
    builtin,
    check_reversible,
    parse_presentation,
    parse_word,
)
from .toddcoxeter import Capped, CayleyRealization, enumerate_cosets
from .groups import Group, PermutationGroup, RealizedGroup, symmetric_group
from .hurwitz import (
    AtLeast,
    Factorization,
    Finite,
    Orbit,
    export_orbit_graph,
    hurwitz_move,
    orbit,
    orbit_size,
    product,
    same_orbit,
)
from .equalities import (
    STATEMENTS,
    closed_form_pair,
    conjecture_scan,
    conjugate_all,
    cycle,
    double_reverse,
    flip_inverse,
    invert_all,
    reverse_tuple,
    run_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
