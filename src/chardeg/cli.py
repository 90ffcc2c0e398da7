"""Command-line interface.

    chardeg table <group>   [--json]
    chardeg acd <group>     [--even | --div P | --coprime P]
                            [--mod GENS | --rel GENS] [--json]
    chardeg verify paper    [--corpus DIR] [--json]
    chardeg scan --check thmA|thmB|conj3p|question:P|cs [--corpus DIR] [--json]

<group> is a catalogue name (e.g. A5, SL2_5) or a path to a .grp file.
GENS is a comma-separated list of permutations in cycle notation defining a
normal subgroup, e.g. "(1 2)(3 4),(1 3)(2 4)".

Exit status: 0 on success, 1 if any check failed, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chars import character_table
from .checks import paper_check_suite, theorem_scan
from .corpusio import Catalogue, parse_group_file
from .cyclotomic import _is_input_prime
from .errors import ChardegError, ParseError
from .groups import Subgroup
from .invariants import (ALL, EVEN, DegreeFilter, RationalAverage,
                         format_rational, irr)
from .perms import parse_cycles


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ChardegError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="exact character tables and average character degrees")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", help="corpus directory "
                        "(default: bundled, or $CHARDEG_CORPUS)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command")

    p_table = sub.add_parser("table", parents=[common],
                             help="print the exact character table")
    p_table.add_argument("group")
    p_table.set_defaults(func=_cmd_table)

    p_acd = sub.add_parser("acd", parents=[common],
                           help="average character degree")
    p_acd.add_argument("group")
    filt = p_acd.add_mutually_exclusive_group()
    filt.add_argument("--even", action="store_true",
                      help="average over even degrees")
    filt.add_argument("--div", type=int, metavar="P",
                      help="average over degrees divisible by the prime P")
    filt.add_argument("--coprime", type=int, metavar="P",
                      help="average over degrees coprime to the prime P")
    rel = p_acd.add_mutually_exclusive_group()
    rel.add_argument("--mod", metavar="GENS",
                     help="average over characters with N in the kernel")
    rel.add_argument("--rel", metavar="GENS",
                     help="average over characters with N not in the kernel")
    p_acd.set_defaults(func=_cmd_acd)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=["paper"])
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", parents=[common],
                            help="scan the corpus for violations")
    p_scan.add_argument("--check", required=True,
                        help="thmA | thmB | conj3p | question:P | cs")
    p_scan.set_defaults(func=_cmd_scan)
    return parser


def _load_group(args):
    """The named catalogue group, or the group a .grp file defines, built and
    checked against its expect lines like a catalogue entry (product
    expressions resolve their references against the corpus)."""
    name = args.group
    cat = Catalogue(args.corpus)
    path = Path(name)
    if name.endswith(".grp") or path.is_file():
        return cat.build_spec(parse_group_file(path.read_text())).group
    return cat.group(name)


def _cmd_table(args) -> int:
    g = _load_group(args)
    t = character_table(g)
    if args.json:
        print(t.to_data().to_json())
        return 0
    cd = t.classes
    print(f"group {g.name or '?'}: order {g.order}, "
          f"{cd.num_classes} classes, exponent {t.exponent}")
    print("class element orders: "
          + " ".join(str(o) for o in cd.orders))
    print("class sizes:          "
          + " ".join(str(s) for s in cd.sizes))
    for chi in t.chars:
        values = " | ".join(str(v) for v in chi.values)
        print(f"degree {chi.degree}: {values}")
    return 0


def _prime(value, what: str) -> int:
    """value as a prime number, or a ParseError naming what it is for."""
    try:
        p = int(value)
    except ValueError:
        p = None
    if p is None or not _is_input_prime(p):
        raise ParseError(f"{what} needs a prime below 2^31, got {value}")
    return p


def _cmd_acd(args) -> int:
    filt = ALL
    if args.even:
        filt = EVEN
    elif args.div is not None:
        filt = DegreeFilter("divisible", _prime(args.div, "--div"))
    elif args.coprime is not None:
        filt = DegreeFilter("coprime", _prime(args.coprime, "--coprime"))
    g = _load_group(args)
    n = mode = None
    gens_text = args.mod if args.mod is not None else args.rel
    if gens_text is not None:
        try:
            gens = [parse_cycles(s.strip(), g.degree)
                    for s in gens_text.split(",") if s.strip()]
        except ValueError as exc:
            raise ParseError(f"bad generators {gens_text!r}: {exc}") from exc
        n = Subgroup(g, gens)
        if not n.is_normal():
            raise ChardegError("the given subgroup is not normal")
        mode = "quotient" if args.mod is not None else "relative"
    t = character_table(g)
    value = RationalAverage.of(
        c.degree for c in irr(t, filt, modulo=n, mode=mode)).value
    if args.json:
        print(json.dumps({"group": g.name, "acd": format_rational(value)}))
    else:
        print(format_rational(value))
    return 0


def _cmd_verify(args) -> int:
    cat = Catalogue(args.corpus)
    report = paper_check_suite(cat)
    print(report.to_json() if args.json else report.to_text())
    return report.exit_status()


def _cmd_scan(args) -> int:
    cat = Catalogue(args.corpus)
    check = args.check
    if check.startswith("question:"):
        mode, p = "question", _prime(check.split(":", 1)[1], "question:P")
    else:
        mode, p = check, None
    report = theorem_scan(cat, mode, p=p)
    print(report.to_json() if args.json else report.to_text())
    return report.exit_status()


if __name__ == "__main__":
    sys.exit(main())
