"""Command line front end.

Subcommands: field arithmetic, Arf invariants of form files, building
and classifying geometries, oriented distance on a line, the
verification suites, and the nine-name classification table.

Exit codes: 0 on success, 1 on bad input or usage, 2 when a
verification suite reports failures.  With --json, standard output
carries exactly one JSON document; human logs go to standard error.
`run` returns a CommandResult record (exit code and payload) and never
raises on bad input; `main` prints the payload.
"""

import argparse
import json
import re
import sys

from .confgeo import CLASS_TABLE, Geometry, build_geometry, classify_geometry
from .errors import Char2ConfError, MalformedDocumentError
from .gf2field import (
    Arf, GF2Field, CLASS_E, CLASS_INF, CLASS_ZERO, MAX_DEGREE,
)
from .metric import distance, line_group, ort_plus
from .oracle import SUITES, report_lines, run_suite, suite_degrees
from .quadspace import QuadraticForm, arf_invariant
from .record import Record

CLASS_ORDER = [CLASS_E, CLASS_INF, CLASS_ZERO]

TABLE_DISPLAY = {
    "elliptic": "elliptic",
    "parabolic": "parabolic",
    "hyperbolic": "hyperbolic",
    "dual-parabolic": "dual parabolic",
    "laguerre-galilei": "Laguerre/Galilei",
    "dual-minkowski": "dual Minkowski",
    "dual-hyperbolic": "dual hyperbolic",
    "minkowski": "Minkowski",
    "anti-de-sitter": "anti-de Sitter",
}


class CommandResult(Record):
    _fields = ("exit_code", "payload")

    def __init__(self, exit_code, payload):
        self.exit_code = exit_code
        self.payload = payload


class _UsageError(Exception):
    def __init__(self, message, usage=""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise _UsageError(message, self.format_usage())


def parse_int(text, where):
    """int(text, 0), or a ValueError naming `where` and the text."""
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError("%s: %r is not an integer" % (where, text)) from None


def parse_arf(field, text, option="arf value"):
    """Arf value from its command-line spelling 0 / e / inf / raw:<k>."""
    if text in CLASS_ORDER:
        return field.arf_of_class(text)
    if text.startswith("raw:"):
        return Arf.finite(field.check(
            parse_int(text[4:], "%s %r" % (option, text))))
    raise ValueError(
        "arf values are spelled 0, e, inf or raw:<int>, not %r" % text)


def render_arf(arf):
    if arf.is_infinity:
        return "inf"
    return "raw:%d" % arf.value


def parse_vector(field, text, option="vector"):
    where = "%s %r" % (option, text)
    parts = [parse_int(x, where) for x in text.replace(" ", "").split(",")]
    if len(parts) != 6:
        raise ValueError("expected 6 comma-separated coordinates, got %d"
                         % len(parts))
    return tuple(field.check(x) for x in parts)


def parse_degrees(text):
    """Degree list from "3", "2..8" or a comma mix of both.

    A range lo..hi keeps lo, then the rest of it within 1..MAX_DEGREE + 1:
    every degree outside 1..MAX_DEGREE is refused and every suite cap is
    at most MAX_DEGREE, so the first degree any check refuses is kept, a
    range that passes every check is kept whole, and a huge range costs
    no more than a short one.
    """
    def degree(part):
        try:
            return int(part)
        except ValueError:
            raise ValueError("--n %r: %s" % (
                text, "%r is not a degree" % part if part.strip()
                else "empty degree")) from None

    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = map(degree, part.split("..", 1))
            if lo <= hi:
                out.append(lo)
                out.extend(range(max(lo + 1, 1), min(hi, MAX_DEGREE + 1) + 1))
        else:
            out.append(degree(part))
    if not out:
        raise ValueError("empty degree range")
    return out


def _log(message):
    print(message, file=sys.stderr)


def _field_of(args):
    if args.n is None:
        raise _UsageError("--n is required for this command")
    modulus = args.modulus
    return GF2Field(args.n, None if modulus is None
                    else parse_int(modulus, "--modulus"))


def _read_doc(path):
    """The JSON document at path (- for stdin); a document that does not
    decode or parse is a MalformedDocumentError naming the path."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an int longer than
        # Python's digit limit for str -> int conversion
        raise MalformedDocumentError(
            "%s: not a JSON document (%s)" % (path, exc)) from None
    except RecursionError:
        raise MalformedDocumentError(
            "%s: JSON document is nested too deeply" % path) from None


# -- subcommand handlers --------------------------------------------------
# Each returns (json_document, text_rendering, exit_code); a handler that
# wrote its result to --out instead returns (None, "", exit_code).

_BINARY_OPS = ("add", "mul", "div")
# field ops whose GF2Field method has another name; the rest match
_FIELD_METHODS = {"solve": "solve_quadratic"}


def _cmd_field(args):
    field = _field_of(args)
    want = 2 if args.op in _BINARY_OPS else 1
    if len(args.operands) != want:
        raise _UsageError("field %s takes %d operand%s"
                          % (args.op, want, "s" if want > 1 else ""))
    vals = [field.check(parse_int(x, "field %s" % args.op))
            for x in args.operands]
    result = getattr(field, _FIELD_METHODS.get(args.op, args.op))(*vals)
    if isinstance(result, tuple):  # solve: both roots of x^2 + x = a
        result = list(result)
    doc = {"field": field.to_json(), "op": args.op, "operands": vals,
           "result": result}
    if result is None:
        text = "no solution (trace 1)"
    elif isinstance(result, list):
        text = " ".join(str(x) for x in result)
    else:
        text = str(result)
    return doc, text, 0


def _cmd_arf(args):
    form = QuadraticForm.from_json(_read_doc(args.file))
    value = arf_invariant(form)
    cls = form.field.arf_normalize(value)
    doc = {"field": form.field.to_json(), "dim": form.dim,
           "value": render_arf(value), "class": cls}
    return doc, "%s (class %s)" % (render_arf(value), cls), 0


def _cmd_build(args):
    field = _field_of(args)
    arf_p = parse_arf(field, args.arf_p, "--arf-p")
    arf_l = parse_arf(field, args.arf_l, "--arf-l")
    arf_v = parse_arf(field, args.arf_v, "--arf-v") if args.arf_v else None
    g = build_geometry(field, arf_p, arf_l, arf_v=arf_v)
    doc = g.to_json()
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _log("wrote %s" % args.out)
        doc, text = None, ""
    _log("built %s geometry over GF(2^%d)"
         % (classify_geometry(g).name, field.n))
    return doc, text, 0


def _cmd_classify(args):
    g = Geometry.from_json(_read_doc(args.file))
    cls = classify_geometry(g)
    doc = {"class": cls.name, "arf_p": cls.arf_p, "arf_l": cls.arf_l}
    text = "%s (Arf(P) class %s, Arf(L) class %s)" % (
        cls.name, cls.arf_p, cls.arf_l)
    return doc, text, 0


def _cmd_distance(args):
    g = Geometry.from_json(_read_doc(args.file))
    field = g.field
    ell = parse_vector(field, args.line, "--line")
    p1 = parse_vector(field, args.p1, "--p1")
    p2 = parse_vector(field, args.p2, "--p2")
    d = distance(g, ell, p1, p2)
    group = ort_plus(line_group(g, ell))  # both cached by distance
    matrices = [[list(row) for row in group.ambient_matrix(x)] for x in d.pair]
    _log("line group kind %s, oriented subgroup order %d"
         % (group.kind, group.order))
    doc = {"kind": group.kind, "group_order": group.order, "pair": matrices}
    blocks = []
    for m in matrices:
        blocks.append("\n".join(" ".join(str(x) for x in row) for row in m))
    return doc, "\n\n".join(blocks), 0


def _cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    degrees = None if args.n is None else parse_degrees(args.n)
    # every suite's degree cap is checked before the first suite runs
    runs = [(name, suite_degrees(name, degrees)) for name in names]
    reports = []
    for name, suite_range in runs:
        reports.extend(run_suite(name, suite_range, seed=args.seed))
    ok = all(r.ok for r in reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_lines(reports) + "\n")
        _log("wrote %d report lines to %s" % (len(reports), args.out))
    doc = {"ok": ok, "suites": names,
           "reports": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        mark = "ok  " if r.ok else "FAIL"
        lines.append("[%s] %-28s n=%d cases=%d failures=%d"
                     % (mark, r.claim_id, r.field_n, r.cases_checked,
                        len(r.failures)))
        for failure in r.failures[:5]:
            lines.append("       %s" % json.dumps(failure, sort_keys=True))
    return doc, "\n".join(lines), 0 if ok else 2


def _cmd_table(args):
    cells = [[CLASS_TABLE[(rp, rl)] for rl in CLASS_ORDER]
             for rp in CLASS_ORDER]
    doc = {"rows": CLASS_ORDER, "columns": CLASS_ORDER, "cells": cells}
    header = ["Arf(P) \\ Arf(L)"] + CLASS_ORDER
    body = [[rp] + [TABLE_DISPLAY[name] for name in row]
            for rp, row in zip(CLASS_ORDER, cells)]
    widths = [max(len(line[i]) for line in [header] + body)
              for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in [header] + body]
    return doc, "\n".join(lines), 0


def _add_field_flags(p):
    p.add_argument("--n", type=int, default=None,
                   help="field extension degree")
    p.add_argument("--modulus", default=None,
                   help="irreducible modulus bits (defaults per degree)")


def build_parser():
    parser = _Parser(prog="char2conf",
                     description="conformal geometries over GF(2^n)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")

    p = sub.add_parser("field", parents=[common],
                       help="evaluate field arithmetic")
    _add_field_flags(p)
    p.add_argument("op", choices=["add", "mul", "div", "inv", "trace",
                                  "sqrt", "h", "solve"])
    p.add_argument("operands", nargs="+", metavar="ELEM")
    p.set_defaults(handler=_cmd_field)

    p = sub.add_parser("arf", parents=[common],
                       help="Arf invariant of a quadratic form file")
    p.add_argument("file", nargs="?", default="-",
                   help="form JSON file (default stdin)")
    p.set_defaults(handler=_cmd_arf)

    p = sub.add_parser("build", parents=[common],
                       help="construct a geometry with given Arf data")
    _add_field_flags(p)
    p.add_argument("--arf-p", required=True, metavar="ARF",
                   help="Arf value for the point marker (0, e, inf, raw:<k>)")
    p.add_argument("--arf-l", required=True, metavar="ARF",
                   help="Arf value for the line marker")
    p.add_argument("--arf-v", default=None, metavar="ARF",
                   help="total Arf value of the form (default 0)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the geometry JSON here instead of stdout")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("classify", parents=[common],
                       help="name the class of a geometry file")
    p.add_argument("file", nargs="?", default="-",
                   help="geometry JSON file (default stdin)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("distance", parents=[common],
                       help="oriented distance of two points on a line")
    p.add_argument("file", help="geometry JSON file (- for stdin)")
    p.add_argument("--line", required=True, metavar="VEC",
                   help="line as 6 comma-separated coordinates")
    p.add_argument("--p1", required=True, metavar="VEC")
    p.add_argument("--p2", required=True, metavar="VEC")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("verify", parents=[common],
                       help="run brute-force verification suites")
    p.add_argument("--suite", required=True,
                   help="suite name (%s) or all" % ", ".join(sorted(SUITES)))
    p.add_argument("--n", default=None, metavar="RANGE",
                   help="degrees to run: a value, lo..hi, or a comma mix"
                        " (default: the suite's own range)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the sampling seed of sampled suites")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write reports as JSON lines to FILE")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="print the nine-class geometry table")
    p.set_defaults(handler=_cmd_table)

    return parser


def _attach_degrees(argv):
    """Attach a dash-leading value of verify's --n ("--n -3..5" becomes
    "--n=-3..5"), so that it reaches parse_degrees without depending on
    how argparse treats a separate value that starts with "-"."""
    argv = list(argv)
    if argv[:1] == ["verify"]:
        end = argv.index("--") if "--" in argv else len(argv)
        for i in range(end - 2, 0, -1):
            if argv[i] == "--n" and re.match(r"-\d", argv[i + 1]):
                argv[i:i + 2] = ["--n=" + argv[i + 1]]
    return argv


def run(argv):
    """Parse and execute one invocation; never raises on bad input."""
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_degrees(argv))
        if not getattr(args, "command", None):
            raise _UsageError("a subcommand is required",
                              parser.format_usage())
        doc, text, code = args.handler(args)
    except _UsageError as exc:
        _log("error: %s" % exc)
        if exc.usage:
            _log(exc.usage.rstrip())
        return CommandResult(1, "")
    except (Char2ConfError, ValueError, ZeroDivisionError, OSError) as exc:
        _log("error: %s" % exc)
        return CommandResult(1, "")
    if args.json and doc is not None:
        text = json.dumps(doc, sort_keys=True)
    return CommandResult(code, text)


def main(argv=None):
    try:
        result = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help path
        return exc.code or 0
    if result.payload:
        print(result.payload)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
