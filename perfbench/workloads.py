"""The four benchmark workloads: their inputs, their calls and the answers.

Every call goes through a public entry point of the package: ``cli.main``
with stdout captured, or a library function where the CLI has no command.
Entry points are looked up on their module at call time, so the tracer's
patched attributes are the ones called.

Every expected answer is pinned from a source that does not depend on the
code under test (group classification, the paper, Denes' count, counting
words, an independent orbit traversal); README.md lists the sources.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
from dataclasses import dataclass
from typing import Any, Callable, List

@dataclass
class Call:
    """One closed-loop call.

    ``run()`` is the timed call into the program; ``answer`` turns its raw
    output into the value compared with ``expected``, outside the timing.
    """

    label: str
    run: Callable[[], Any]
    expected: Any
    answer: Callable[[Any], Any] = lambda raw: raw


def run_cli(argv: List[str]):
    """``cli.main(argv)`` with stdout captured; returns (exit code, stdout)."""
    from hurwitzorbits import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_call(label: str, argv: List[str], expected, answer) -> Call:
    return Call(label, lambda: run_cli(argv), expected, answer)


# --- realize -------------------------------------------------------------------


def _coxeter_matrix(n: int, edges) -> List[List[int]]:
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, mij in edges:
        m[i][j] = m[j][i] = mij
    return m


def _type_a(n):
    return _coxeter_matrix(n, [(i, i + 1, 3) for i in range(n - 1)])


def _type_b(n):
    return _coxeter_matrix(n, [(i, i + 1, 3) for i in range(n - 2)] + [(n - 2, n - 1, 4)])


def _type_d(n):
    chain = [(i, i + 1, 3) for i in range(n - 2)]
    return _coxeter_matrix(n, chain + [(n - 3, n - 1, 3)])


# Orders from the classification of finite Coxeter groups:
# |A_n| = (n+1)!, |B_n| = 2^n n!, |D_n| = 2^(n-1) n!.
COXETER = (
    ("A6", _type_a(6), 5040),
    ("B5", _type_b(5), 3840),
    ("D5", _type_d(5), 1920),
    ("A5", _type_a(5), 720),
    ("B4", _type_b(4), 384),
    ("D4", _type_d(4), 192),
)


def _realize_answer(raw):
    code, out = raw
    info = json.loads(out) if code == 0 else {}
    return code, info.get("order"), info.get("generator_orders"), info.get("reversible")


def realize_calls(seed: int) -> List[Call]:
    from hurwitzorbits import presentations

    calls = []
    for name, matrix, order in COXETER:
        text = presentations.render_presentation(presentations.coxeter(matrix))
        argv = ["realize", text, "--format", "json"]
        # Coxeter generators are involutions, so reversal is inversion and
        # every relator's reverse is trivial.
        expected = (0, order, [2] * len(matrix), "reversible")
        calls.append(cli_call(f"realize {name}", argv, expected, _realize_answer))
    # Shephard-Todd G25, the Hessian group of order 648.
    text = presentations.render_presentation(presentations.shephard([3, 3, 3], [3, 3]))
    argv = ["realize", text, "--format", "json"]
    calls.append(cli_call("realize G25", argv, (0, 648, [3, 3, 3], "reversible"), _realize_answer))
    builtins = [
        ("g4", 24, [3, 3], "reversible"),
        ("g6", 48, [3, 2], "reversible"),
        ("q8-ab", 8, [4, 4], "reversible"),
        # m plays -1: the reverse of i j k m is m k j i = -1 in Q8.
        ("q8-ijk", 8, [2, 4, 4, 4], "not_reversible"),
    ]
    for name, order, gen_orders, status in builtins:
        argv = ["realize", "--builtin", name, "--format", "json"]
        calls.append(cli_call(f"realize {name}", argv, (0, order, gen_orders, status), _realize_answer))
    for n in range(3, 13):
        argv = ["realize", "--builtin", "dihedral-rs", "--n", str(n), "--format", "json"]
        calls.append(cli_call(f"realize D{2 * n}", argv, (0, 2 * n, [n, 2], "reversible"), _realize_answer))
    return calls


# --- big-orbit -----------------------------------------------------------------

# Sizes cross-checked once against tests/oracles.py ``orbit_dfs``, a
# depth-first traversal written only against the group interface; the edge
# count is the number of forward moves that change the tuple, counted over
# the oracle's members.
S5_ORBIT = 143_360
G6_ORBIT = 241_920
G6_GRAPH_VERTICES = 34_560
G6_GRAPH_EDGES = 158_400


def _g6_generators(group):
    from hurwitzorbits import words

    alphabet = group.realization.origin.generators
    return tuple(group.evaluate_word(words.generator(alphabet, i, 1)) for i in range(2))


def _transposition(group, i: int, j: int) -> int:
    perm = list(range(group.degree))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    return group.key_of(tuple(perm))


def _permutation_product(perms) -> List[int]:
    """Left-to-right product of permutations given as tuples, in plain Python."""
    out = list(range(len(perms[0])))
    for p in perms:
        out = [p[x] for x in out]
    return out


def _size_answer(result):
    return type(result).__name__, result.size


def _graph_answer(text: str):
    data = json.loads(text)
    n = len(data["vertices"])
    bad = sum(1 for e in data["edges"] if not (0 <= e["from"] < n and 0 <= e["to"] < n))
    return n, len(data["edges"]), bad


def big_orbit_inputs():
    """Realize G6, build S5, warm both groups' tables and build the call inputs."""
    from hurwitzorbits import groups, hurwitz, presentations, toddcoxeter

    g6 = groups.RealizedGroup(toddcoxeter.enumerate_cosets(presentations.g6()))
    s5 = groups.symmetric_group(5)
    for group in (g6, s5):
        warm = getattr(group, "conjugation_tables", None)
        if warm is not None:
            warm()
    a, b = _g6_generators(g6)
    t12, t13, t23, t34, t45 = (_transposition(s5, i, j) for i, j in ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
    left = (t12, t23, t34, t45, t45, t34, t23)
    return {
        "s5": hurwitz.Factorization(s5, (t12,) * 4 + (t23, t34, t45)),
        "g6": hurwitz.Factorization(g6, (a, b, a, b, a, b, a)),
        "left": hurwitz.Factorization(s5, left),
        "right": hurwitz.Factorization(s5, left[:-1] + (t13,)),
        "graph": hurwitz.Factorization(g6, (a, b, a, b, a, b)),
    }


def big_orbit_calls(seed: int) -> List[Call]:
    from hurwitzorbits import hurwitz

    inputs = big_orbit_inputs()
    s5 = inputs["s5"].group
    # Hurwitz moves preserve the product, so tuples whose products differ
    # lie in different orbits.
    products = [_permutation_product([s5.permutation(x) for x in inputs[k].factors]) for k in ("left", "right")]
    same = "no" if products[0] != products[1] else "yes"
    return [
        Call("orbit_size S5", lambda: hurwitz.orbit_size(inputs["s5"]), ("Finite", S5_ORBIT), _size_answer),
        Call("orbit_size G6", lambda: hurwitz.orbit_size(inputs["g6"]), ("Finite", G6_ORBIT), _size_answer),
        Call("same_orbit S5", lambda: hurwitz.same_orbit(inputs["left"], inputs["right"]), same),
        Call(
            "export_orbit_graph G6",
            lambda: hurwitz.export_orbit_graph(hurwitz.orbit(inputs["graph"]), "json"),
            (G6_GRAPH_VERTICES, G6_GRAPH_EDGES, 0),
            _graph_answer,
        ),
    ]


# --- cold-orbit ----------------------------------------------------------------


def _stdout_answer(raw):
    code, out = raw
    return code, out.strip()


def cold_orbit_calls(seed: int) -> List[Call]:
    def cycles(n):
        return " ".join(f"({i} {i + 1})" for i in range(1, n))

    queries = [
        # Denes: an n-cycle has n^(n-2) factorizations into n-1
        # transpositions, and the Hurwitz action is transitive on them.
        (["orbit", "--builtin", "s6", cycles(6)], 6**4),
        (["orbit", "--builtin", "s7", cycles(7)], 7**5),
        # The paper's counterexample: reversing the tuple changes the size.
        (["orbit", "--builtin", "g4", "a a b b"], 36),
        (["orbit", "--builtin", "g4", "a b a b"], 27),
    ]
    return [
        cli_call(" ".join(argv[:3]) + f" {argv[3]!r}", argv, (0, str(size)), _stdout_answer)
        for argv, size in queries
    ]


# --- scan ------------------------------------------------------------------------

SUITES = (
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
SCAN_MAX_LEN = 5
# Over three letters there are 3^k words and C(k+2, 2) multisets of length k.
SCAN_ROWS = sum(3**k for k in range(1, SCAN_MAX_LEN + 1))
SCAN_MULTISETS = sum((k + 1) * (k + 2) // 2 for k in range(1, SCAN_MAX_LEN + 1))
SCAN_SUMMARY = f"# multisets: {SCAN_MULTISETS}, uniform: {SCAN_MULTISETS}, counterexample candidates: 0"

_CHECK_LINE = re.compile(r"^(\S+): (\w+) \((\d+) samples, (\d+) failures, (\d+) inconclusive\)$")


def _scan_answer(raw):
    code, out = raw
    lines = out.splitlines()
    rows = [line for line in lines[1:] if not line.startswith("#")]
    capped = sum(1 for line in rows if not line.endswith(",false"))
    return code, len(rows), capped, lines[-1] if lines else ""


def _check_answer(raw):
    code, out = raw
    m = _CHECK_LINE.match(out.splitlines()[0] if out else "")
    if m is None:
        return code, out
    name, status, _, failures, inconclusive = m.groups()
    return code, name, status, int(failures), int(inconclusive)


def scan_calls(seed: int) -> List[Call]:
    argv = ["scan-g6", "--max-len", str(SCAN_MAX_LEN)]
    calls = [cli_call("scan-g6", argv, (0, SCAN_ROWS, 0, SCAN_SUMMARY), _scan_answer)]
    for suite in SUITES:
        argv_s = ["check", suite, "--samples", "50", "--seed", str(seed)]
        calls.append(cli_call(f"check {suite}", argv_s, (0, suite, "pass", 0, 0), _check_answer))
    return calls


_BUILDERS = {
    "realize": realize_calls,
    "big-orbit": big_orbit_calls,
    "cold-orbit": cold_orbit_calls,
    "scan": scan_calls,
}
WORKLOADS = tuple(_BUILDERS)


def setup(workload: str, seed: int) -> List[Call]:
    """Import the package and build the workload's calls; this is what setup_s times."""
    importlib.import_module("hurwitzorbits.cli")
    return _BUILDERS[workload](seed)
