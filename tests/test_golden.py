"""Golden digests: CLI outputs and the suites' recorded calls stay byte-identical.

``golden.json`` maps each argv to the sha256 of its stdout and its exit
code, and each (suite, seed) to the sha256 of the calls that the suite
makes to ``orbit_size``, ``closed_form_pair`` and ``word_tuple_move``.
A passing ``check`` prints no sampled input, so the recorded calls are
what pin the sampled inputs and their order.

Realized element ids reach some of these bytes. A change that alters
outputs on purpose re-pins the file with ``python tests/test_golden.py``
and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hurwitzorbits import cli, equalities

GOLDEN = Path(__file__).with_name("golden.json")

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
PAIR_SUITES = ("pair-swap", "pair-inverse")

S4_CHAIN = "(1 2) (2 3) (3 4)"
DIHEDRAL_S4 = "<r, s | r^3, s^2, r s r s^-1>"

ARGVS = [
    ["orbit", "--builtin", "g4", "a b a b", "--graph", "dot"],
    ["orbit", "--builtin", "g4", "a b a b", "--graph", "json"],
    ["orbit", "--builtin", "s4", S4_CHAIN, "--graph", "dot", "--self-loops"],
    ["orbit", "--builtin", "s4", S4_CHAIN, "--graph", "json"],
    ["orbit", "--builtin", "g6", "a b a b a", "--graph", "dot"],
    ["orbit", "--builtin", "g6", "a b a b a", "--graph", "json"],
    ["orbit", "--builtin", "s5", "(1 2) (2 3) (3 4) (4 5)", "--format", "json"],
    ["orbit", "--builtin", "s5", "(1 2 3 4 5) (1 2) (2 3)", "--format", "json"],
    ["orbit", "--builtin", "g4", "a b a b", "--format", "json"],
    ["orbit", "--builtin", "s5", "(1 2) (2 3) (3 4) (4 5)", "--node-cap", "10", "--strict"],
    ["realize", "--builtin", "s6"],
    ["realize", "--builtin", "s6", "--format", "json"],
    ["realize", "--builtin", "g6"],
    ["realize", "--builtin", "g6", "--format", "json"],
    ["realize", "--builtin", "q8-ijk"],
    ["scan-g6", "--max-len", "4"],
    ["double-reverse", "--builtin", "dihedral-rs", "--n", "5", "r s, s"],
    ["double-reverse", "--builtin", "g6", "a b, b"],
    ["double-reverse", "--builtin", "g6", "a b, b", "--format", "json"],
    ["double-reverse", "--builtin", "q8-ijk", "i, j"],
    ["double-reverse", "--builtin", "q8-ijk", "i, j", "--format", "json"],
    ["double-reverse", "--builtin", "g6", "a b, b, a", "--node-cap", "3"],
    ["double-reverse", "--builtin", "g6", "a b, b, a", "--node-cap", "3", "--strict"],
    ["check", "double-reverse", "--builtin", "q8-ijk", "--samples", "5"],
    ["check", "double-reverse", "--builtin", "g6", "--samples", "10", "--seed", "4"],
    ["check", "mirror-moves", DIHEDRAL_S4, "--samples", "10", "--seed", "4"],
    ["check", "conjugate", DIHEDRAL_S4, "--samples", "10", "--seed", "4"],
    ["check", "closed-form", "--builtin", "s3", "--samples", "5", "--range", "5"],
    ["check", "cycle", "--samples", "20", "--seed", "1", "--node-cap", "12"],
    ["check", "cycle", "--samples", "20", "--seed", "1", "--node-cap", "12", "--strict"],
] + [
    ["check", suite, "--samples", "20", "--seed", seed, "--node-cap",
     "4" if suite in PAIR_SUITES else "12", "--format", "json"]
    for suite in SUITES
    for seed in ("1", "2")
]


def cli_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def suite_calls_digest(suite, seed, patch):
    """sha256 of every recorded call that ``run_check`` makes in one suite.

    ``patch(name, fn)`` replaces ``equalities.<name>`` for the duration.
    """
    calls = []
    real = {name: getattr(equalities, name) for name in ("orbit_size", "closed_form_pair", "word_tuple_move")}

    def orbit_size(f, node_cap):
        out = real["orbit_size"](f, node_cap)
        calls.append(("orbit_size", f.group.name, f.factors, node_cap, type(out).__name__, out.size))
        return out

    def closed_form_pair(group, x, y, m):
        out = real["closed_form_pair"](group, x, y, m)
        calls.append(("closed_form_pair", group.name, x, y, m, out))
        return out

    def word_tuple_move(t, i, direction="forward"):
        out = real["word_tuple_move"](t, i, direction)
        calls.append(("word_tuple_move", tuple(map(str, t)), i, direction, tuple(map(str, out))))
        return out

    for name, fn in (("orbit_size", orbit_size), ("closed_form_pair", closed_form_pair), ("word_tuple_move", word_tuple_move)):
        patch(name, fn)
    result = equalities.run_check(suite, samples=20, seed=seed)
    assert result.passed, result.failures
    return {"suite": suite, "seed": seed, "calls": len(calls), "sha256": hashlib.sha256(repr(calls).encode()).hexdigest()}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# a missing file fails test_golden_covers_every_suite_and_argv, not collection
_PINNED = _load() if GOLDEN.exists() else {"cli": [], "suite_calls": []}


@pytest.mark.parametrize("entry", _PINNED["cli"], ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry):
    assert cli_digest(entry["argv"]) == entry


@pytest.mark.parametrize("entry", _PINNED["suite_calls"], ids=lambda e: f"{e['suite']}-{e['seed']}")
def test_suite_calls_match_golden(monkeypatch, entry):
    patch = lambda name, fn: monkeypatch.setattr(equalities, name, fn)  # noqa: E731
    assert suite_calls_digest(entry["suite"], entry["seed"], patch) == entry


def test_golden_covers_every_suite_and_argv():
    golden = _load()
    assert [e["argv"] for e in golden["cli"]] == ARGVS
    assert sorted((e["suite"], e["seed"]) for e in golden["suite_calls"]) == sorted(
        (s, seed) for s in SUITES for seed in (1, 2)
    )


if __name__ == "__main__":
    def _patch(name, fn):
        setattr(equalities, name, fn)

    originals = {name: getattr(equalities, name) for name in ("orbit_size", "closed_form_pair", "word_tuple_move")}
    suite_calls = []
    for suite in SUITES:
        for seed in (1, 2):
            suite_calls.append(suite_calls_digest(suite, seed, _patch))
            for name, fn in originals.items():
                setattr(equalities, name, fn)
    golden = {"cli": [cli_digest(argv) for argv in ARGVS], "suite_calls": suite_calls}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
