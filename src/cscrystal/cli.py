"""Command-line front end.

Subcommands: enumerate, bzl, verify, hpoly, graph.  Exit codes: 0 on
success, 1 when a mathematical check fails, 2 for usage or input
errors, 3 when an internal invariant breaks.  Everything written to
stdout is a pure function of the arguments; timings go to stderr.
"""

import argparse
import sys
import time
from functools import lru_cache

from .bzl import (
    block_agrees,
    c_coefficient,
    c_factored_string,
    decorate_via_operators,
    decorate_via_stats,
    g_coefficient,
)
from .crystal import enumerate_crystal, f_op
from .hpoly import (
    SpecPoint,
    format_mu,
    h_table,
    specialize,
    tensor_weight_multiplicity,
    weight_multiplicity,
)
from .laurent import shifted_sums, verify_bn_form, verify_identity
from .rootsys import (
    GLWeight,
    Shape,
    alpha_to_gl,
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
    g = g_coefficient(t, stats=stats_tri)
    c = c_coefficient(t, stats=stats_tri)
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
        _emit(f"C = {c_factored_string(t, stats=stats_tri)}  [{c}]")
        _emit(f"strict: {'yes' if is_strict(t) else 'no'}")
    return 0


def cmd_verify(args) -> int:
    lam = _weight_from_args(args)
    started = time.monotonic()
    sums, blocks = shifted_sums(lam)
    report = verify_identity(lam, sums)
    walk_ok = verify_bn_form(blocks)
    elapsed_ms = 1000 * (time.monotonic() - started)
    sys.stderr.write(f"elapsed: {elapsed_ms:.1f} ms\n")
    if not walk_ok:
        first = next((len(key[0]),) + key for key in blocks if not block_agrees(*key))
        sys.stderr.write(f"walk and statistics differ at block (j, GT row j, GT row j+1) = {first}\n")
    # the reversed form is the identity relabelled, once the walk agrees
    bn_ok = report.equal and walk_ok
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


_ORACLE_LABEL = {
    SpecPoint.Q_INF: "irreducible multiplicity",
    SpecPoint.Q_MINUS_ONE: "tensor multiplicity",
    SpecPoint.Q_ONE: "orbit sign",
}


def _oracle_value(lam: GLWeight, mu, point: SpecPoint) -> int:
    r = lam.rank
    if point is SpecPoint.Q_INF:
        return weight_multiplicity(lam, lam - alpha_to_gl(mu, r))
    if point is SpecPoint.Q_MINUS_ONE:
        return tensor_weight_multiplicity(lam, lam + rho(r) - alpha_to_gl(mu, r))
    return dot_orbit_sign(lam, mu)


def cmd_hpoly(args) -> int:
    lam = _weight_from_args(args)
    table = h_table(lam)
    point = SpecPoint(args.at) if args.at else None
    rows = table.sorted_rows()
    checks = []
    if point is not None:
        for mu, poly in rows:
            got = specialize(poly, point)
            want = _oracle_value(lam, mu, point)
            checks.append((mu, got, want))
    mismatched = [c for c in checks if c[1] != c[2]]

    if args.format == "json":
        payload = table.to_json_dict()
        if point is not None:
            payload["at"] = point.value
            payload["specialized"] = [
                {"mu": list(mu.c), "value": got, "oracle": want, "ok": got == want}
                for mu, got, want in checks
            ]
        _emit_json(payload)
    elif args.format == "csv":
        text = table.to_csv()
        if point is not None:
            lines = text.rstrip("\n").split("\n")
            lines[0] += f",at_{point.value},oracle,ok"
            for k, (mu, got, want) in enumerate(checks, start=1):
                lines[k] += f",{got},{want},{'ok' if got == want else 'FAIL'}"
            text = "\n".join(lines) + "\n"
        _emit(text)
    elif args.format == "latex":
        _emit(table.to_latex())
        if point is not None and mismatched:
            sys.stderr.write(f"{len(mismatched)} specialization mismatches\n")
    else:
        _emit(f"lambda: {lam.coords}  rank {args.rank}  rows: {len(table.rows)}")
        for k, (mu, poly) in enumerate(rows):
            line = f"mu={format_mu(mu, 'a')}: {poly}"
            if point is not None:
                _, got, want = checks[k]
                mark = "ok" if got == want else "FAIL"
                line += f"  | at q={point.value}: {got}  {_ORACLE_LABEL[point]} {want}  {mark}"
            _emit(line)
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


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if args.rank < 1:
        sys.stderr.write("error: --rank must be >= 1\n")
        return 2
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"internal invariant breach: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
