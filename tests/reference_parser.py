"""The argparse parser of cs-crystal, written out by hand.

This is the slow twin of cli._fast_args and the reference for the
parser that cli.build_parser makes from cli's option table: it declares
every subcommand and option the way the CLI did before that table
existed.  Tests require the fast reader to return exactly what this
parser sets or to decline, and cli.main's help text and usage errors to
be this parser's, byte for byte.
"""

import argparse

from cscrystal.cli import cmd_bzl, cmd_enumerate, cmd_graph, cmd_hpoly, cmd_verify


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cs-crystal",
        description="Exact tableau-crystal computations: decorated paths, "
        "deformed character identities, weight-multiplicity tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weight=True):
        p.add_argument("--rank", type=int, required=True, help="rank r >= 1")
        if weight:
            given = p.add_mutually_exclusive_group(required=True)
            given.add_argument("--lambda", dest="lam", help="fundamental coefficients c1,...,cr")
            given.add_argument("--partition", help="GL partition l1,l2,... (at most r+1 parts)")

    p = sub.add_parser("enumerate", help="list a crystal")
    add_common(p)
    p.add_argument("--shifted", action="store_true", help="use lambda + rho")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bzl", help="decorated path of one tableau")
    add_common(p, weight=False)
    p.add_argument("--tableau", required=True, help="one-line form, e.g. '1 2 2 / 3 3'")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bzl)

    p = sub.add_parser("verify", help="check the character identity for one lambda")
    add_common(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hpoly", help="deformed weight-multiplicity table")
    add_common(p)
    p.add_argument("--format", choices=["text", "json", "csv", "latex"], default="text")
    p.add_argument("--at", choices=["inf", "-1", "1"], help="specialize and cross-check")
    p.set_defaults(func=cmd_hpoly)

    p = sub.add_parser("graph", help="crystal graph as DOT")
    add_common(p)
    p.add_argument("--shifted", action="store_true", help="use lambda + rho")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.set_defaults(func=cmd_graph)

    return parser
