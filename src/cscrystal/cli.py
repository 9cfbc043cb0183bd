"""Command-line front end.

Subcommands: enumerate, bzl, verify, hpoly, graph.  Exit codes: 0 on
success, 1 when a mathematical check fails, 2 for usage or input
errors, 3 when an internal invariant breaks, 141 (128 + SIGPIPE) when
the reader of stdout closes it early, as `head` does.  Everything
written to stdout is a pure function of the arguments; timings go to
stderr.

One table, _COMMANDS, declares each subcommand's options.  main reads a
plainly written argv with _fast_args; only what that declines (--help,
usage errors, ...) imports argparse and goes to the parser build_parser
makes from the same table, so help, messages and exit codes stay its.
Another table, _AT, declares hpoly's --at points once.
"""

import gc
import os
import sys
import time
from functools import lru_cache
from operator import sub
from types import SimpleNamespace

from .bzl import (
    c_coefficient,
    c_factored_string,
    decorate_via_operators,
    decorate_via_stats,
    g_coefficient,
)
from .crystal import enumerate_crystal, f_op
from .hpoly import format_mu, h_table, tensor_weight_multiplicity, weight_multiplicity
from .laurent import shifted_sums, verify_bn_form, verify_identity
from .rootsys import (
    GLWeight,
    Shape,
    dot_orbit_sign,
    lambda_from_fundamental,
    rho,
)
from .tableaux import BZL_LAYOUT, content, is_strict, parse_tableau


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _weight_from_args(args) -> GLWeight:
    if args.partition is not None:
        parts = _parse_ints(args.partition, "--partition")
        if len(parts) > args.rank + 1:
            raise ValueError(f"partition has {len(parts)} parts, rank {args.rank} allows {args.rank + 1}")
        parts = parts + (0,) * (args.rank + 1 - len(parts))
        shape = Shape(parts)  # validates weakly decreasing, nonnegative
        return shape.to_weight()
    coeffs = _parse_ints(args.lam, "--lambda")
    return lambda_from_fundamental(coeffs, args.rank)


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj):
    import json  # here, not at the top: a text-format run never loads it

    _emit(json.dumps(obj, indent=2, ensure_ascii=False))


def _listed(args) -> tuple:
    """(shape, its listed crystal) of the weight, plus rho with --shifted."""
    lam = _weight_from_args(args)
    if args.shifted:
        lam = lam + rho(args.rank)
    shape = Shape(lam.coords)
    return shape, enumerate_crystal(shape, args.rank)


def cmd_enumerate(args) -> int:
    shape, elements = _listed(args)
    if args.format == "json":
        _emit_json(
            {
                "rank": args.rank,
                "shape": list(shape.parts),
                "count": len(elements),
                "tableaux": [
                    {**t.to_json_dict(), "content": list(content(t).coords)}
                    for t in elements
                ],
            }
        )
    else:
        for t in elements:
            _emit(f"{t.to_text()}   content={content(t).coords}")
        _emit(f"count: {len(elements)}")
    return 0


def cmd_bzl(args) -> int:
    t = parse_tableau(args.rank, args.tableau)
    path_tri = decorate_via_operators(t)
    stats_tri = decorate_via_stats(t)
    if path_tri != stats_tri:
        sys.stderr.write(
            "internal invariant breach: operator and statistics decorations disagree\n"
            f"  operator route: {path_tri.inline()}\n"
            f"  statistics route: {stats_tri.inline()}\n"
        )
        return 3
    g = g_coefficient(stats_tri)
    c = c_coefficient(stats_tri)
    if args.format == "json":
        _emit_json(
            {
                "tableau": t.to_json_dict(),
                "path": path_tri.to_json_dict(BZL_LAYOUT),
                "stats": stats_tri.to_json_dict(),
                "g": g.to_json(),
                "c_coeffs": list(c.coeffs),
                "strict": is_strict(t),
            }
        )
    else:
        _emit(f"tableau: {t.to_text()}")
        _emit(f"path: {path_tri.inline(BZL_LAYOUT)}")
        _emit(f"stats: {stats_tri.inline()}")
        _emit(f"G = {g}")
        _emit(f"C = {c_factored_string(stats_tri)}  [{c}]")
        _emit(f"strict: {'yes' if is_strict(t) else 'no'}")
    return 0


def cmd_verify(args) -> int:
    lam = _weight_from_args(args)
    started = time.monotonic()
    report = verify_identity(lam, shifted_sums(lam))
    failing = verify_bn_form(lam)
    elapsed_ms = 1000 * (time.monotonic() - started)
    sys.stderr.write(f"elapsed: {elapsed_ms:.1f} ms\n")
    if failing is not None:
        sys.stderr.write(f"walk and statistics differ at block (j, GT row j, GT row j+1) = {failing}\n")
    # the reversed form is the identity relabelled, once the walk agrees
    bn_ok = report.equal and failing is None
    if args.format == "json":
        payload = {
            "lambda": list(lam.coords),
            "rank": args.rank,
            "identity_equal": report.equal,
            "lhs_terms": report.lhs_terms,
            "rhs_terms": report.rhs_terms,
            "reversed_form_equal": bn_ok,
        }
        if report.first_mismatch is not None:
            exp, a, b = report.first_mismatch
            payload["first_mismatch"] = {
                "exp": list(exp),
                "lhs": list(a.coeffs),
                "rhs": list(b.coeffs),
            }
        _emit_json(payload)
    else:
        _emit(f"lambda: {lam.coords}  rank {args.rank}")
        _emit(
            f"identity: {'equal' if report.equal else 'MISMATCH'}"
            f" (lhs {report.lhs_terms} terms, rhs {report.rhs_terms} terms)"
        )
        if report.first_mismatch is not None:
            exp, a, b = report.first_mismatch
            _emit(f"first mismatch at z^{exp}: lhs {a} vs rhs {b}")
        _emit(f"reversed form: {'equal' if bn_ok else 'MISMATCH'}")
    return 0 if bn_ok else 1


# The --at points: q -> (t = 1/q, what H(t) is checked against).  The
# oracles stay out of it: perfbench's trace counts their calls at their
# global names here, which _oracle_value calls.
_AT = {"inf": (0, "irreducible multiplicity"), "-1": (-1, "tensor multiplicity"), "1": (1, "orbit sign")}


def _oracle_value(lam: GLWeight, w: tuple, at: str, shift: tuple) -> int:
    """The oracle's value at the point for the row of weight
    w = lam + rho - mu, as h_table keeps it; shift is rho's coordinates,
    computed once per table.  At q=inf the weight asked about is
    lam - mu = w - rho, at q=-1 and q=1 it is w itself."""
    if at == "inf":
        return weight_multiplicity(lam, GLWeight(tuple(map(sub, w, shift))))
    if at == "-1":
        return tensor_weight_multiplicity(lam, GLWeight(w))
    return dot_orbit_sign(lam, w)


def cmd_hpoly(args) -> int:
    lam = _weight_from_args(args)
    table = h_table(lam)
    at = args.at
    checks = []  # (got, want), one pair per row, in row order
    if at is not None:
        t, label = _AT[at]
        shift = rho(lam.rank).coords
        checks = [(poly.eval(t), _oracle_value(lam, w, at, shift)) for _, w, poly in table.rows]
    mismatched = sum(got != want for got, want in checks)

    if args.format == "json":
        payload = table.to_json_dict()
        if at is not None:
            payload["at"] = at
            payload["specialized"] = [
                {"mu": list(mu), "value": got, "oracle": want, "ok": got == want}
                for (mu, _, _), (got, want) in zip(table.rows, checks)
            ]
        _emit_json(payload)
    elif args.format == "csv":
        text = table.to_csv()
        if at is not None:
            header, *lines = text.rstrip("\n").split("\n")
            lines = [
                f"{line},{got},{want},{'ok' if got == want else 'FAIL'}"
                for line, (got, want) in zip(lines, checks)
            ]
            text = "\n".join([f"{header},at_{at},oracle,ok", *lines]) + "\n"
        _emit(text)
    elif args.format == "latex":
        _emit(table.to_latex())
        if mismatched:
            sys.stderr.write(f"{mismatched} specialization mismatches\n")
    else:
        _emit(f"lambda: {lam.coords}  rank {args.rank}  rows: {len(table.rows)}")
        marks = [
            f"  | at q={at}: {got}  {label} {want}  {'ok' if got == want else 'FAIL'}"
            for got, want in checks
        ]
        for (mu, _, poly), mark in zip(table.rows, marks or [""] * len(table.rows)):
            _emit(f"mu={format_mu(mu, 'a')}: {poly}{mark}")
    return 1 if mismatched else 0


def cmd_graph(args) -> int:
    _, elements = _listed(args)
    index = {t.rows: k for k, t in enumerate(elements)}
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for k, t in enumerate(elements):
        lines.append(f'  n{k} [label="{t.to_text()}"];')
    for k, t in enumerate(elements):
        for i in range(1, args.rank + 1):
            u = f_op(t, i)
            if u is not None:
                lines.append(f'  n{k} -> n{index[u.rows]} [label="{i}"];')
    lines.append("}")
    _emit("\n".join(lines))
    return 0


# Each subcommand once, as (help, function, {flag: argparse keywords}).
# build_parser and _fast_args both read this table, so the two parsers
# cannot drift apart.
_RANK = {"type": int, "required": True, "help": "rank r >= 1"}
_WEIGHT = {
    "--lambda": {"dest": "lam", "help": "fundamental coefficients c1,...,cr"},
    "--partition": {"help": "GL partition l1,l2,... (at most r+1 parts)"},
}
_ONE_OF = tuple(_WEIGHT)  # a required group: exactly one of them is given
_SHIFTED = {"action": "store_true", "default": False, "help": "use lambda + rho"}
_TEXT_JSON = {"choices": ["text", "json"], "default": "text"}
_COMMANDS = {
    "enumerate": (
        "list a crystal",
        cmd_enumerate,
        {"--rank": _RANK, **_WEIGHT, "--shifted": _SHIFTED, "--format": _TEXT_JSON},
    ),
    "bzl": (
        "decorated path of one tableau",
        cmd_bzl,
        {
            "--rank": _RANK,
            "--tableau": {"required": True, "help": "one-line form, e.g. '1 2 2 / 3 3'"},
            "--format": _TEXT_JSON,
        },
    ),
    "verify": (
        "check the character identity for one lambda",
        cmd_verify,
        {"--rank": _RANK, **_WEIGHT, "--format": _TEXT_JSON},
    ),
    "hpoly": (
        "deformed weight-multiplicity table",
        cmd_hpoly,
        {
            "--rank": _RANK,
            **_WEIGHT,
            "--format": {"choices": ["text", "json", "csv", "latex"], "default": "text"},
            "--at": {"choices": list(_AT), "help": "specialize and cross-check"},
        },
    ),
    "graph": (
        "crystal graph as DOT",
        cmd_graph,
        {
            "--rank": _RANK,
            **_WEIGHT,
            "--shifted": _SHIFTED,
            "--format": {"choices": ["dot"], "default": "dot"},
        },
    ),
}


def build_parser():
    import argparse  # here, not at the top: a plainly written argv never builds it

    parser = argparse.ArgumentParser(
        prog="cs-crystal",
        description="Exact tableau-crystal computations: decorated paths, "
        "deformed character identities, weight-multiplicity tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        group = None
        for flag, keywords in options.items():
            if flag in _ONE_OF and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            (group if flag in _ONE_OF else p).add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


@lru_cache(maxsize=1)
def _parser():
    """The parser, built on the first argv that _fast_args leaves to it."""
    return build_parser()


def _fast_args(argv):
    """The parse of a plainly written argv, or None to leave it to argparse.

    Plainly written: a subcommand, then its long options in full, each at
    most once, each value in the next token and starting with '-' only
    when it is one of the option's choices (`--at -1`), with --rank's
    value an int() and the required options given.  The result holds the
    attributes argparse would set, with the same values.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    given, k = {}, 1
    while k < len(argv):
        flag = argv[k]
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            k += 1
            continue
        if k + 1 == len(argv):
            return None
        value = argv[k + 1]
        choices = keywords.get("choices")
        if (value not in choices) if choices else value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        given[flag] = value
        k += 2
    if _ONE_OF[0] in options and sum(flag in given for flag in _ONE_OF) != 1:
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, keywords in options.items():
        if keywords.get("required") and flag not in given:
            return None
        setattr(args, keywords.get("dest", flag[2:]), given.get(flag, keywords.get("default")))
    return args


def _parsed(argv):
    """argparse's parse of argv, or its exit code where it exits.  What it
    prints for stdout (help) is written here, not by argparse, whose own
    write swallows the broken pipe that main turns into 141."""
    import contextlib
    import io

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return _parser().parse_args(argv)
    except SystemExit as exc:
        sys.stdout.write(out.getvalue())
        return 0 if exc.code == 0 else 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _fast_args(argv) or _parsed(argv)
        if isinstance(args, int):
            return args
        if args.rank < 1:
            sys.stderr.write("error: --rank must be >= 1\n")
            return 2
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"internal invariant breach: {exc}\n")
        return 3


def entry():
    """Process entry of `python -m cscrystal` and the cs-crystal script.

    gc.freeze() moves the start-up heap into the collector's permanent
    generation, so the job's collections do not traverse it again.
    After main(), the two streams are flushed and os._exit ends the
    process with main()'s code, skipping interpreter teardown (module
    cleanup, the final collection, freeing the listed crystal): the
    package opens no file and registers no atexit handler.  A reader
    gone by that flush makes the code 141, as in main.  main() neither
    freezes nor exits, for callers that run it many times in a process.
    """
    gc.freeze()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 141
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
