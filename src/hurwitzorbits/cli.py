"""Command-line front door.

Commands: realize, orbit, check, scan-g6, reversible, double-reverse.
``check`` samples one entry of ``equalities.STATEMENTS``, and
``double-reverse`` applies that table's double-reverse entry to the given
words. Exit codes: 0 success / all pass, 1 usage or parse error, 2 property
failure, 3 cap-inconclusive under --strict, 141 the reader of stdout left
early (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from . import equalities, hurwitz, presentations, words
from .groups import Group, PermutationGroup, RealizedGroup, symmetric_group
from .hurwitz import AtLeast, Factorization, Finite
from .presentations import (
    Presentation,
    PresentationSyntaxError,
    Reversibility,
    check_reversible,
)
from .toddcoxeter import DEFAULT_COSET_CAP, Capped, enumerate_cosets

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_INCONCLUSIVE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by the signal

_SYMMETRIC = re.compile(r"^s([1-8])$")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_presentation(args) -> Presentation:
    if args.builtin:
        name = args.builtin
        if name in ("dihedral-rs", "dihedral-inv"):
            if args.n is None:
                raise CliError(f"builtin {name} needs --n")
            return presentations.builtin(name, args.n)
        if name in presentations.BUILTIN_PRESENTATIONS:
            return presentations.builtin(name)
        raise CliError(f"unknown builtin presentation {name!r}")
    text = None
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc.strerror or exc}") from exc
    elif getattr(args, "presentation", None):
        text = args.presentation
    if text is None:
        raise CliError("provide a presentation (inline, --file, or --builtin)")
    try:
        return presentations.parse_presentation(text)
    except PresentationSyntaxError as exc:
        raise CliError(f"presentation syntax error: {exc}") from exc


def _realize(pres: Presentation, coset_cap: int) -> RealizedGroup:
    result = enumerate_cosets(pres, coset_cap)
    if isinstance(result, Capped):
        raise CliError(
            f"coset enumeration exceeded cap of {result.coset_cap} live cosets",
            code=EXIT_INCONCLUSIVE,
        )
    return RealizedGroup(result)


def _load_group(args) -> Group:
    if args.builtin:
        m = _SYMMETRIC.match(args.builtin)
        if m:
            return symmetric_group(int(m.group(1)))
    return _realize(_load_presentation(args), args.coset_cap)


def _parse_permutation_factors(group: PermutationGroup, text: str) -> List[int]:
    """Parse factors in cycle notation, e.g. ``(1 2) (2 3)``.

    Whitespace between parenthesized groups separates factors; disjoint
    cycles juxtaposed without whitespace, like ``(1 2)(3 4)``, form one
    factor, and a point that repeats within one factor is an error.
    """
    matches = list(re.finditer(r"\(([^()]*)\)", text))
    if not matches:
        raise CliError(f"cannot parse permutation factors from {text!r}")
    head = text[: matches[0].start()]
    tail = text[matches[-1].end() :]
    if head.strip() or tail.strip():
        raise CliError(f"cannot parse permutation factors from {text!r}")
    factors = []
    perm = list(range(group.degree))
    used: List[int] = []
    for k, m in enumerate(matches):
        points = [int(tok) - 1 for tok in m.group(1).split()]
        if any(not 0 <= p < group.degree for p in points):
            raise CliError(f"cycle point out of range in {m.group(0)!r}")
        used += points
        if len(set(used)) < len(used):
            raise CliError(f"{m.group(0)!r} repeats a point of its factor; juxtaposed cycles must be disjoint")
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
        nxt = matches[k + 1] if k + 1 < len(matches) else None
        gap = text[m.end() : nxt.start()] if nxt else ""
        if gap.strip():
            raise CliError(f"unexpected text {gap.strip()!r} between cycles")
        if nxt is None or gap:
            factors.append(group.key_of(tuple(perm)))
            perm, used = list(range(group.degree)), []
    return factors


def _parse_word_factors(group: RealizedGroup, text: str):
    parts = [p for p in (text.split(",") if "," in text else text.split()) if p.strip()]
    if not parts:
        raise CliError("empty factorization")
    ws = []
    for part in parts:
        try:
            ws.append(presentations.parse_word(group.realization.origin.generators, part.strip()))
        except PresentationSyntaxError as exc:
            raise CliError(f"cannot parse factor {part.strip()!r}: {exc}") from exc
    return ws, [group.evaluate_word(w) for w in ws]


def _parse_factors(group: Group, text: str) -> List[int]:
    if isinstance(group, PermutationGroup):
        return _parse_permutation_factors(group, text)
    return _parse_word_factors(group, text)[1]


# --- subcommands -------------------------------------------------------------


def cmd_realize(args) -> int:
    group = _load_group(args)
    info = {
        "order": group.order,
        "generator_orders": [group.element_order(k) for k in group.generator_keys],
        "reversible": None,
    }
    if isinstance(group, RealizedGroup):
        report = check_reversible(group.realization.origin, group)
        info["reversible"] = report.status.value
        if report.witness:
            info["witness"] = {
                "relator": str(report.witness[0]),
                "reverse": str(report.witness[1]),
            }
    if args.format == "json":
        print(json.dumps(info))
    else:
        print(f"order: {info['order']}")
        print(
            "generator orders: "
            + ", ".join(str(k) for k in info["generator_orders"])
        )
        if info["reversible"] is None:
            print("reversible: n/a (not presentation-based)")
        elif info["reversible"] == "reversible":
            print("reversible: yes")
        else:
            w = info["witness"]
            print(f"reversible: no (relator {w['relator']} has reverse {w['reverse']} != 1)")
    return EXIT_OK


def cmd_orbit(args) -> int:
    group = _load_group(args)
    keys = _parse_factors(group, args.factors)
    f = Factorization(group, tuple(keys))
    if args.graph:
        o = hurwitz.orbit(f, args.node_cap)
        try:
            sys.stdout.writelines(hurwitz.orbit_graph_pieces(o, args.graph, args.self_loops))
        except hurwitz.CappedOrbitError as exc:
            raise CliError(str(exc), code=EXIT_INCONCLUSIVE) from exc
        print()
        return EXIT_OK
    size = hurwitz.orbit_size(f, args.node_cap)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "factors": list(keys),
                    "size": size.size,
                    "exact": isinstance(size, Finite),
                }
            )
        )
    elif isinstance(size, Finite):
        print(size.size)
    else:
        print(f"at least {size.size} (capped)")
    if isinstance(size, AtLeast) and args.strict:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_check(args) -> int:
    groups = None
    if args.builtin or args.file or args.presentation:
        group = _load_group(args)
        domain = equalities.STATEMENTS[args.theorem].domain
        if domain.words and not isinstance(group, RealizedGroup):
            raise CliError(f"{args.theorem} samples words, and {args.builtin} has no presentation")
        if domain.reversible:
            report = check_reversible(group.realization.origin, group)
            if report.status is not Reversibility.REVERSIBLE:
                print(
                    f"refused: presentation is not reversible "
                    f"({report.status.value})"
                )
                return EXIT_USAGE
        groups = {group.name: group}
    result = equalities.run_check(
        args.theorem,
        samples=args.samples,
        seed=args.seed,
        node_cap=args.node_cap,
        groups=groups,
        exponent_range=args.range,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "theorem": result.name,
                    "samples": result.samples,
                    "failures": result.failures,
                    "inconclusive": result.inconclusive,
                    "passed": result.passed,
                }
            )
        )
    else:
        status = "pass" if result.passed else "FAIL"
        print(
            f"{result.name}: {status} ({result.samples} samples, "
            f"{len(result.failures)} failures, {result.inconclusive} inconclusive)"
        )
        for line in result.failures:
            print(f"  {line}")
    if not result.passed:
        return EXIT_FAILURE
    if result.inconclusive and args.strict:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_scan_g6(args) -> int:
    group = _realize(presentations.g6(), args.coset_cap)
    report = equalities.conjecture_scan(group, args.max_len, args.node_cap)
    print(report.to_csv(), end="")
    print(f"# {report.summary()}")
    capped_rows = any(r.capped for r in report.rows)
    if report.candidates:
        return EXIT_FAILURE
    if capped_rows and args.strict:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_reversible(args) -> int:
    pres = _load_presentation(args)
    group = _realize(pres, args.coset_cap)
    report = check_reversible(pres, group)
    if args.format == "json":
        out = {"status": report.status.value}
        if report.witness:
            out["witness"] = {
                "relator": str(report.witness[0]),
                "reverse": str(report.witness[1]),
            }
        print(json.dumps(out))
    elif report.status is Reversibility.REVERSIBLE:
        print("reversible")
    else:
        r, rev = report.witness
        print(f"not reversible: relator {r} has reverse {rev} != 1")
    return EXIT_OK


def cmd_double_reverse(args) -> int:
    pres = _load_presentation(args)
    group = _realize(pres, args.coset_cap)
    ws, keys = _parse_word_factors(group, args.factors)
    reversible = check_reversible(pres, group).status is Reversibility.REVERSIBLE
    note = "" if reversible else "no guarantee: presentation not reversible"
    dr = equalities.STATEMENTS["double-reverse"].transform(tuple(ws))
    f, out = Factorization(group, tuple(keys)), equalities.evaluate_tuple(group, dr)
    left, right, verdict = equalities.compare_sizes(f, out, args.node_cap)
    report = {
        "transform": "double_reverse",
        "input": list(f.factors),
        "output": list(out.factors),
        "size_left": left,
        "size_right": right,
        "verdict": verdict,
        "note": note,
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        print("double reverse: " + ", ".join(str(w) for w in dr))
        print(f"orbit sizes: {left} vs {right} -> {verdict}")
        if note:
            print(f"note: {note}")
    if verdict == "inconclusive" and args.strict:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Hurwitz orbit sizes in finitely presented groups",
    )
    coset_cap = argparse.ArgumentParser(add_help=False)
    coset_cap.add_argument("--coset-cap", type=int, default=DEFAULT_COSET_CAP)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--node-cap", type=int, default=hurwitz.DEFAULT_NODE_CAP)
    search.add_argument("--strict", action="store_true")

    source = argparse.ArgumentParser(add_help=False, parents=[coset_cap])
    source.add_argument("--builtin", help="dihedral-rs, dihedral-inv, q8-ab, q8-ijk, g4, g6, s1..s8")
    source.add_argument("--n", type=int, help="parameter for dihedral builtins")
    source.add_argument("--file", help="read the presentation from a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", parents=[fmt, source])
    p.add_argument("presentation", nargs="?")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("orbit", parents=[fmt, search, source])
    p.add_argument("--presentation")
    p.add_argument("--graph", choices=("dot", "json"))
    p.add_argument("--self-loops", action="store_true")
    p.add_argument("factors", help="factor words (or permutation cycles for sN)")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("check", parents=[fmt, search, source])
    p.add_argument("theorem", choices=equalities.THEOREM_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--range", type=int, default=20, help="closed-form exponent range")
    p.add_argument("presentation", nargs="?", help="check this group alone (or --builtin, --file)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan-g6", parents=[coset_cap, search])
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=cmd_scan_g6)

    p = sub.add_parser("reversible", parents=[fmt, source])
    p.add_argument("presentation", nargs="?")
    p.set_defaults(func=cmd_reversible)

    p = sub.add_parser("double-reverse", parents=[fmt, search, source])
    p.add_argument("--presentation")
    p.add_argument("factors")
    p.set_defaults(func=cmd_double_reverse)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit-time flush
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (PresentationSyntaxError, ValueError, words.AlphabetMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader left early, as ``| head`` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet final flush
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
