import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzorbits
from hurwitzorbits import equalities
from hurwitzorbits.cli import (
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_builtin_g6(capsys):
    code, out, _ = run(capsys, "realize", "--builtin", "g6")
    assert code == EXIT_OK
    assert "order: 48" in out
    assert "generator orders: 3, 2" in out
    assert "reversible: yes" in out


def test_realize_inline(capsys):
    code, out, _ = run(capsys, "realize", "<a | a^5>")
    assert code == EXIT_OK
    assert "order: 5" in out


def test_realize_json(capsys):
    code, out, _ = run(capsys, "realize", "--builtin", "g4", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["order"] == 24
    assert data["reversible"] == "reversible"


def test_realize_not_reversible_witness(capsys):
    code, out, _ = run(capsys, "realize", "--builtin", "q8-ijk")
    assert code == EXIT_OK
    assert "reversible: no" in out
    assert "m k j i" in out


def test_realize_symmetric(capsys):
    code, out, _ = run(capsys, "realize", "--builtin", "s5")
    assert code == EXIT_OK
    assert "order: 120" in out
    assert "n/a" in out


def test_realize_dihedral_needs_n(capsys):
    code, _, err = run(capsys, "realize", "--builtin", "dihedral-rs")
    assert code == EXIT_USAGE
    assert "needs --n" in err


def test_realize_unknown_builtin(capsys):
    code, _, err = run(capsys, "realize", "--builtin", "e8")
    assert code == EXIT_USAGE


def test_realize_syntax_error(capsys):
    code, _, err = run(capsys, "realize", "<a | a^>")
    assert code == EXIT_USAGE
    assert "syntax error" in err


def test_realize_coset_cap(capsys):
    code, _, err = run(capsys, "realize", "--builtin", "g6", "--coset-cap", "3")
    assert code == EXIT_INCONCLUSIVE
    assert "cap" in err


def test_realize_from_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("<r, s | r^3, s^2, r s r s^-1>", encoding="utf-8")
    code, out, _ = run(capsys, "realize", "--file", str(path))
    assert code == EXIT_OK
    assert "order: 6" in out


@pytest.mark.parametrize(
    "command, name, rest", [("orbit", "missing.txt", ["a"]), ("realize", ".", [])], ids=["missing", "directory"]
)
def test_unreadable_file_is_an_error(tmp_path, capsys, command, name, rest):
    code, out, err = run(capsys, command, "--file", str(tmp_path / name), *rest)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_orbit_g4_counterexample(capsys):
    code, out, _ = run(capsys, "orbit", "--builtin", "g4", "a a b b")
    assert code == EXIT_OK and out.strip() == "36"
    code, out, _ = run(capsys, "orbit", "--builtin", "g4", "a, b, a, b")
    assert code == EXIT_OK and out.strip() == "27"


def test_orbit_json(capsys):
    code, out, _ = run(
        capsys, "orbit", "--builtin", "g4", "a b a b", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["size"] == 27 and data["exact"] is True


def test_orbit_symmetric_cycles(capsys):
    code, out, _ = run(capsys, "orbit", "--builtin", "s3", "(1 2) (2 3)")
    assert code == EXIT_OK and out.strip() == "3"


@pytest.mark.parametrize("n, size", [(3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807)])
def test_orbit_denes_count(capsys, n, size):
    # Denes: an n-cycle has n^(n-2) factorizations into n-1 transpositions,
    # and the Hurwitz action is transitive on them; S7 has order 5040
    cycles = " ".join(f"({i} {i + 1})" for i in range(1, n))
    code, out, _ = run(capsys, "orbit", "--builtin", f"s{n}", cycles)
    assert code == EXIT_OK and out.strip() == str(size)


@pytest.mark.parametrize(
    "n, cycles, factors, size",
    [(4, "(1 2) (2 3) (3 4)", [6, 2, 1], 16), (8, "(1 2 3 4 5 6 7 8) (1 2)", [5913, 5040], 14)],
)
def test_orbit_json_prints_lehmer_rank_keys(capsys, n, cycles, factors, size):
    code, out, _ = run(capsys, "orbit", "--builtin", f"s{n}", cycles, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"factors": factors, "size": size, "exact": True}


def test_orbit_juxtaposed_cycles_are_one_factor(capsys):
    code, out, _ = run(capsys, "orbit", "--builtin", "s4", "(1 2)(3 4) (1 3)(2 4)")
    assert code == EXIT_OK
    assert out.strip() == "2"


@pytest.mark.parametrize("factors", ["(1 2)(1 2)", "(1 2 3)(1 2 3)", "(1 1 2)"])
def test_orbit_rejects_a_repeated_point_within_a_factor(capsys, factors):
    # read cycle by cycle, these would silently give (1 2), (1 2 3) and a
    # made-up element instead of the products
    code, out, err = run(capsys, "orbit", "--builtin", "s3", factors)
    assert code == EXIT_USAGE and out == ""
    assert "disjoint" in err


def test_orbit_bad_cycles(capsys):
    code, _, err = run(capsys, "orbit", "--builtin", "s3", "(1 9)")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "orbit", "--builtin", "s3", "nonsense")
    assert code == EXIT_USAGE


def test_orbit_capped_strict(capsys):
    code, out, _ = run(
        capsys,
        "orbit", "--builtin", "g4", "a a b b", "--node-cap", "5", "--strict",
    )
    assert code == EXIT_INCONCLUSIVE
    assert "at least 5 (capped)" in out


def test_orbit_capped_lenient(capsys):
    code, out, _ = run(
        capsys, "orbit", "--builtin", "g4", "a a b b", "--node-cap", "5"
    )
    assert code == EXIT_OK


def test_orbit_graph_dot(capsys):
    code, out, _ = run(
        capsys, "orbit", "--builtin", "s3", "(1 2) (2 3)", "--graph", "dot"
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert 's1' in out


def test_orbit_graph_capped(capsys):
    code, _, err = run(
        capsys,
        "orbit", "--builtin", "g4", "a a b b", "--graph", "dot", "--node-cap", "5",
    )
    assert code == EXIT_INCONCLUSIVE


def test_orbit_inline_presentation(capsys):
    code, out, _ = run(
        capsys,
        "orbit", "--presentation", "<r, s | r^3, s^2, r s r s^-1>", "s r",
    )
    assert code == EXIT_OK
    assert out.strip().isdigit()


def test_check_cycle(capsys):
    code, out, _ = run(capsys, "check", "cycle", "--samples", "10")
    assert code == EXIT_OK
    assert "cycle: pass" in out


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "pair-swap", "--samples", "5", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True and data["theorem"] == "pair-swap"


def test_check_runs_on_the_given_group(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "cycle", "--builtin", "s3", "--samples", "2")
    assert code == EXIT_OK
    assert out.strip() == "cycle: pass (2 samples, 0 failures, 0 inconclusive)"

    seen = []
    original = equalities.run_check

    def spy(name, **kwargs):
        seen.append(sorted(g.order for g in kwargs["groups"].values()))
        return original(name, **kwargs)

    monkeypatch.setattr(equalities, "run_check", spy)
    pres = "<r, s | r^3, s^2, r s r s^-1>"
    assert run(capsys, "check", "conjugate", pres, "--samples", "3")[0] == EXIT_OK
    assert run(capsys, "check", "mirror-moves", pres, "--samples", "3")[0] == EXIT_OK
    assert run(capsys, "check", "double-reverse", "--builtin", "g4", "--samples", "3")[0] == EXIT_OK
    assert seen == [[6], [6], [24]]


@pytest.mark.parametrize("suite", ["double-reverse", "mirror-moves"])
def test_check_word_suite_needs_a_presentation(capsys, suite):
    code, _, err = run(capsys, "check", suite, "--builtin", "s3", "--samples", "2")
    assert code == EXIT_USAGE
    assert "no presentation" in err


def test_check_double_reverse_refuses_non_reversible(capsys):
    code, out, _ = run(
        capsys, "check", "double-reverse", "--builtin", "q8-ijk", "--samples", "5"
    )
    assert code == EXIT_USAGE
    assert "refused" in out


def test_check_double_reverse_allows_reversible(capsys):
    code, out, _ = run(
        capsys, "check", "double-reverse", "--builtin", "g6", "--samples", "5"
    )
    assert code == EXIT_OK


def test_check_unknown_theorem(capsys):
    code, _, _ = run(capsys, "check", "fermat")
    assert code == EXIT_USAGE


def test_scan_g6(capsys):
    code, out, _ = run(capsys, "scan-g6", "--max-len", "2")
    assert code == EXIT_OK
    assert out.startswith("multiset,permutation,orbit_size,capped")
    assert "# multisets: 9, uniform: 9, counterexample candidates: 0" in out


def test_reversible_command(capsys):
    code, out, _ = run(capsys, "reversible", "--builtin", "g6")
    assert code == EXIT_OK and out.strip() == "reversible"
    code, out, _ = run(capsys, "reversible", "--builtin", "q8-ijk")
    assert code == EXIT_OK and out.startswith("not reversible")


def test_reversible_json(capsys):
    code, out, _ = run(
        capsys, "reversible", "--builtin", "q8-ijk", "--format", "json"
    )
    data = json.loads(out)
    assert data["status"] == "not_reversible"
    assert data["witness"]["reverse"] == "m k j i"


def test_double_reverse_command(capsys):
    code, out, _ = run(
        capsys,
        "double-reverse", "--builtin", "dihedral-rs", "--n", "5", "r s, s",
    )
    assert code == EXIT_OK
    assert "double reverse: s, s r" in out
    assert "-> equal" in out


def test_double_reverse_json(capsys):
    code, out, _ = run(
        capsys,
        "double-reverse", "--builtin", "g6", "a b, b", "--format", "json",
    )
    data = json.loads(out)
    assert data["verdict"] == "equal"
    assert data["note"] == ""


def test_double_reverse_notes_a_non_reversible_presentation(capsys):
    code, out, _ = run(capsys, "double-reverse", "--builtin", "q8-ijk", "i, j")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "note: no guarantee: presentation not reversible"
    code, out, _ = run(capsys, "double-reverse", "--builtin", "q8-ijk", "i, j", "--format", "json")
    data = json.loads(out)
    assert data["transform"] == "double_reverse"
    assert data["note"] == "no guarantee: presentation not reversible"


def test_double_reverse_inconclusive_when_capped(capsys):
    argv = ["double-reverse", "--builtin", "g6", "a b, b, a", "--node-cap", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert "orbit sizes: None vs None -> inconclusive" in out
    assert run(capsys, *argv, "--strict")[0] == EXIT_INCONCLUSIVE
    data = json.loads(run(capsys, *argv, "--format", "json")[1])
    assert (data["size_left"], data["size_right"], data["verdict"]) == (None, None, "inconclusive")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "cycle", "--samples", "0"],
        ["check", "cycle", "--samples", "-3"],
        ["check", "mirror-moves", "--samples", "0"],
        ["check", "closed-form", "--range", "-2", "--samples", "2"],
    ],
)
def test_check_rejects_vacuous_runs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--builtin", "g4", "--seed", "1"],
        ["realize", "--builtin", "g4", "--node-cap", "5"],
        ["realize", "--builtin", "g4", "--strict"],
        ["orbit", "--builtin", "g4", "a b", "--seed", "1"],
        ["scan-g6", "--max-len", "1", "--seed", "1"],
        ["scan-g6", "--max-len", "1", "--format", "json"],
        ["reversible", "--builtin", "g4", "--seed", "1"],
        ["reversible", "--builtin", "g4", "--node-cap", "5"],
        ["reversible", "--builtin", "g4", "--strict"],
        ["double-reverse", "--builtin", "g4", "a, b", "--seed", "1"],
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_quietly():
    # about 520 KB of DOT, far more than a pipe buffers, so the writer
    # is still writing when the reader goes away
    argv = ["orbit", "--builtin", "g6", "a b a b a", "--graph", "dot"]
    src = str(Path(hurwitzorbits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "hurwitzorbits.cli", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(40).startswith(b"digraph hurwitz_orbit {")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_PIPE
    assert err == b""


def _limit_memory():
    import resource

    limit = 1 << 30  # 1 GiB of address space: an expansion of 10^9 letters fails fast
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--builtin", "g4", "a^1000000000 b"],
        ["realize", "<a | a^-1000000000>"],
        ["realize", "--builtin", "dihedral-inv", "--n", "1000000000"],
    ],
)
def test_huge_exponent_is_refused_before_expansion(argv):
    # run in a child under a memory limit: an unchecked expansion would
    # take gigabytes, and there it fails with a MemoryError traceback
    src = str(Path(hurwitzorbits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "hurwitzorbits.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=60, preexec_fn=_limit_memory)
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == b""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_no_command_is_usage(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
