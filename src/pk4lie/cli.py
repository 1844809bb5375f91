"""Command-line front end: verify suites, per-entry geometry, phase products.

Exit codes: 0 all checks pass, 1 verification failure or a closed stdout,
2 usage or parse errors.  Output is deterministic for a fixed catalog.
No check samples: `--seed` and `--trials` are parsed, validated and
recorded in `verify`'s JSON report, and nothing reads them.

Every command runs on the scalar, matrix, notation, Lie algebra and
structure modules imported here.  A subcommand imports the rest of what it
runs when it starts, so that a cold process compiles and loads only that:
`dump` loads `catalog`, `geometry` `catalog` and `curvature`, `phase`
`phase_space`, and only `verify` loads `verify`.  Of the verify suites,
curvature loads `curvature`, phase, iso and witnesses `phase_space`, and
iso and witnesses `morphisms`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .liealg import LieAlgebra4
from .linalg import Mat4, RankAmbiguous, DegenerateError
from .notation import emit_sym_form, parse_sym_form
from .scalars import ParamDomain, ParseError, Scalar
from .structures import metric_from

if TYPE_CHECKING:
    from .catalog import Catalog

USAGE_ERROR = 2
SCOPES = ("symplectic", "structures", "phase", "iso", "curvature",
          "witnesses", "all")


def positive_int(text: str) -> int:
    """The type of --trials: argparse reports a ValueError as a usage error."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def main(argv=None) -> int:
    # an exact checker reads and prints integers of any length; the default
    # limit on int-string conversion guards servers that parse untrusted text
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = argparse.ArgumentParser(
        prog="pk4lie",
        description="exact verification of para-Kahler structures on "
                    "four-dimensional Lie algebras")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=positive_int, default=32)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("scope", choices=SCOPES)

    p_geom = sub.add_parser("geometry", help="connection, curvature and "
                                             "soliton data for one metric")
    p_geom.add_argument("entry", nargs="?", default=None,
                        help="catalog id, e.g. curvature/d4_half/1")
    p_geom.add_argument("--algebra", help="inline bracket table")
    p_geom.add_argument("--metric", help="inline symmetric form")
    p_geom.add_argument("--domain", default="", help="inline constraints")
    p_geom.add_argument("--set", action="append", default=[],
                        metavar="PARAM=RATIONAL",
                        help="evaluate at a parameter value (repeatable)")

    p_phase = sub.add_parser("phase", help="assemble a phase-space pair")
    p_phase.add_argument("base", help="left-symmetric algebra name, e.g. b2")
    p_phase.add_argument("dual", help="dual-side products, e.g. 'e3.e3=x*e4'"
                                      " (empty string for the trivial one)")

    p_dump = sub.add_parser("dump", help="print a catalog entry verbatim")
    p_dump.add_argument("entry")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code else 0

    commands = {"verify": cmd_verify, "geometry": cmd_geometry,
                "phase": cmd_phase, "dump": cmd_dump}
    try:
        return commands[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered to
        # devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def cmd_verify(args) -> int:
    from .catalog import load_catalog
    from .verify import run_scope
    cat = load_catalog()
    reports = run_scope(cat, args.scope)
    failed = sum(r.status == "FAIL" for r in reports)
    warned = sum(r.status == "WARN" for r in reports)
    if args.format == "json":
        print(json.dumps({
            "scope": args.scope, "seed": args.seed, "trials": args.trials,
            "status": "FAIL" if failed else ("WARN" if warned else "PASS"),
            "entries": [r.to_dict() for r in reports],
        }, indent=2))
    else:
        for r in reports:
            line = f"{r.status:4s} {r.entry_id}"
            bad = r.failing()
            if bad:
                line += f"  [{', '.join(bad)}]"
            print(line)
            if r.notes:
                print(f"     note: {r.notes}")
        if args.scope == "curvature":
            print()
            print(_curvature_table(cat))
        print(f"\n{len(reports)} entries: {len(reports) - failed - warned} "
              f"passed, {warned} warned, {failed} failed")
    return 1 if failed else 0


def _curvature_table(cat: Catalog) -> str:
    lines = [f"{'entry':34s} {'metric':46s} {'R=0':>4s} {'Ric=0':>6s} "
             f"{'lambda':>10s}  X"]
    for row in cat.curvature_list():
        g = row.geometry
        try:
            sol = g.soliton
            flat = "Yes" if g.flat else "No"
            ricflat = "Yes" if g.ricci_flat else "No"
            if sol is None:
                lam, xs = "", "No"
            else:
                lam = str(sol.lam)
                xs = "(" + ",".join(str(v) for v in sol.x) + ")"
        except RankAmbiguous as e:
            flat = ricflat = "?"
            lam, xs = "", f"branches on {e.poly!r}"
        except DegenerateError:
            flat = ricflat = "?"
            lam, xs = "", "metric is degenerate"
        metric = emit_sym_form(row.metric)
        lines.append(f"{row.entry_id:34s} {metric:46s} {flat:>4s} "
                     f"{ricflat:>6s} {lam:>10s}  {xs}")
    return "\n".join(lines)


def _resolve_geometry(args, cat: Catalog):
    if args.entry:
        if args.entry in cat.curvature_rows:
            row = cat.curvature_rows[args.entry]
            return row.algebra, row.metric, row.domain, args.entry
        if args.entry in cat.structures:
            st = cat.structures[args.entry]
            return st.algebra, metric_from(st.omega, st.K), st.domain, args.entry
        raise ParseError(f"no curvature row or structure named {args.entry!r}")
    if not (args.algebra is not None and args.metric):
        raise ParseError("geometry needs an entry id or --algebra/--metric")
    dom = ParamDomain.parse(args.domain)
    L = LieAlgebra4.parse(args.algebra, "inline")
    h = parse_sym_form(args.metric)
    if not dom.satisfiable(L.params() | h.params()):
        raise ParseError("inline: domain unsatisfiable")
    return L, h, dom, "inline"


def _parse_assignments(items, L: LieAlgebra4, h: Mat4, dom: ParamDomain) -> dict:
    """`--set PARAM=RATIONAL` items as a substitution; ParseError on a
    malformed item, on a parameter the algebra, metric and domain lack, or
    on a parameter assigned twice."""
    by_name = {p.name: p for p in h.params() | dom.params() | L.params()}
    subst = {}
    for item in items:
        name, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise ParseError(f"--set {item!r}: expected PARAM=RATIONAL")
        if name not in by_name:
            raise ParseError(f"--set {item!r}: the entry has no parameter {name!r}")
        if by_name[name] in subst:
            raise ParseError(f"--set {item!r}: duplicate assignment for {name}")
        try:
            subst[by_name[name]] = Scalar.const(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"--set {item!r}: {value!r} is not a rational number") from None
    return subst


def cmd_geometry(args) -> int:
    from .catalog import load_catalog
    from .curvature import Geometry, ricci_operator
    cat = load_catalog(check=False)
    L, h, dom, label = _resolve_geometry(args, cat)
    subst = _parse_assignments(args.set, L, h, dom)
    if subst:
        try:
            L, h = L.substitute(subst), h.substitute(subst)
        except ZeroDivisionError:
            _emit_geometry(args, {"entry": label, "algebra": L.serialize(),
                                  "metric": emit_sym_form(h), "error":
                                  "assignment makes a denominator vanish"})
            return 1
        # `--set` may leave the stated domain on purpose: say so, go on
        dom, violated = dom.substituted(subst)
        for c in violated:
            print(f"note: assignment leaves the stated domain ({c!r})", file=sys.stderr)
    out = {"entry": label, "algebra": L.serialize(),
           "metric": emit_sym_form(h)}
    # only `verify` reads a checked catalog, which asserts Jacobi on the first
    # read of a section; here inline brackets alone are checked
    if label == "inline" and not L.is_lie_algebra():
        out["error"] = "brackets fail the Jacobi identity"
        _emit_geometry(args, out)
        return 1
    g = Geometry(L, h, dom)
    try:
        conn = g.conn
    except DegenerateError:
        out["error"] = "metric is degenerate"
        _emit_geometry(args, out)
        return 1
    out["nabla"] = {f"e{i+1}": _mat(conn.nabla[i]) for i in range(4)}
    out["curvature"] = {f"R(e{i+1},e{j+1})": _mat(m)
                        for (i, j), m in sorted(g.R.matrices.items())}
    out["ric"] = _mat(g.ric)
    ric_op = ricci_operator(conn, g.ric)
    out["Ric"] = _mat(ric_op)
    out["scalar_curvature"] = str(ric_op.trace())
    out["flat"] = g.flat
    out["ricci_flat"] = g.ricci_flat
    try:
        sol = g.soliton
        if sol is None:
            out["soliton"] = None
        else:
            out["soliton"] = {
                "lambda": str(sol.lam),
                "X": [str(v) for v in sol.x],
                "free_parameters": sol.free_count,
                "type": g.soliton_type,
            }
    except RankAmbiguous as e:
        out["soliton"] = f"rank depends on parameters through {e.poly!r}"
    _emit_geometry(args, out)
    return 0


def _mat(m: Mat4):
    return [[str(v) for v in row] for row in m.rows]


def _emit_geometry(args, out: dict) -> None:
    if args.format == "json":
        print(json.dumps(out, indent=2))
        return
    print(f"entry:  {out['entry']}")
    print(f"algebra: {out['algebra']}")
    print(f"metric:  {out['metric']}")
    if "error" in out:
        print(f"error:  {out['error']}")
        return
    for name in ("nabla", "curvature"):
        for key, rows in out[name].items():
            print(f"{key} =")
            for row in rows:
                print("   [" + ", ".join(f"{v:>8s}" for v in row) + "]")
    for name in ("ric", "Ric"):
        print(f"{name} =")
        for row in out[name]:
            print("   [" + ", ".join(f"{v:>8s}" for v in row) + "]")
    print(f"scalar curvature = {out['scalar_curvature']}")
    print(f"flat = {out['flat']}, ricci flat = {out['ricci_flat']}")
    sol = out["soliton"]
    if sol is None:
        print("soliton: none")
    elif isinstance(sol, str):
        print(f"soliton: {sol}")
    else:
        print(f"soliton: lambda = {sol['lambda']}, X = ({', '.join(sol['X'])}), "
              f"{sol['free_parameters']} free parameter(s), {sol['type']}")


def cmd_phase(args) -> int:
    from .phase_space import (
        assembled_brackets, emit_products, is_lie_extendible, lsa_pair,
        normal_form_failures,
    )
    pair = lsa_pair(args.base, args.dual)
    L = assembled_brackets(pair)
    ok, defects = is_lie_extendible(L)
    out = {
        "base": emit_products(pair.on_U),
        "dual": emit_products(pair.on_Ustar, 2),
        "brackets": L.serialize(),
        "lie_extendible": ok,
    }
    if not ok:
        out["jacobi_residuals"] = {
            f"(e{i+1},e{j+1},e{k+1})": [str(c) for c in v]
            for (i, j, k), v in defects.items()
            if any(not c.is_zero for c in v)}
    else:
        failed = normal_form_failures(L)
        out["normal_form_valid"] = not failed
        if failed:
            out["failing_checks"] = failed
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(f"base:     {out['base']}")
        print(f"dual:     {out['dual']}")
        print(f"brackets: {out['brackets']}")
        if not ok:
            print("FAIL: the pair is not Lie-extendible")
            for key, v in out["jacobi_residuals"].items():
                print(f"   jacobi{key} = ({', '.join(v)})")
        else:
            print("Lie-extendible: yes")
            print("normal-form structure valid:",
                  "PASS" if out["normal_form_valid"] else
                  f"FAIL {out['failing_checks']}")
    if not ok:
        return 1
    return 0 if out.get("normal_form_valid", True) else 1


def cmd_dump(args) -> int:
    from .catalog import load_catalog
    cat = load_catalog(check=False)
    sys.stdout.write(cat.dump(args.entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
