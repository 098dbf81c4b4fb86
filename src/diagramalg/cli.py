"""Command-line front end.

Four subcommands: ``multiply`` (diagram arithmetic on JSON input),
``dims`` (dimension formulas cross-checked by enumeration; a family
given a flag it does not use is a usage error), ``verify``
(double-centralizer verification) and ``derangements`` (derangement
table).  Output goes to stdout as canonical JSON (or a plain-text
rendering of the same object); diagnostics go to stderr.

Exit codes: 0 success / verified, 1 a verification ran and an equality
came out false, 2 usage or input errors, 3 a resource cap was hit, 4 an
internal failure (arithmetic the engine could not complete, such as
running out of primes that agree, or memory exhausted).

Results never depend on the environment or on timing; identical
invocations print identical bytes.  ``--threads`` is accepted for sweep
harnesses but the computations are sequential and deterministic, so it
cannot change any output.
"""
from __future__ import annotations

import argparse
import json
import sys
from math import lgamma, log

from .algebra import (
    AlgebraElement,
    deranged_basis,
    element_from_json,
    element_to_json,
)
from .combinatorics import derangement_table, derangements, diagram_count, walled_count
from .diagrams import (
    CapExceededError,
    Wall,
    diagram_from_json,
    enumerate_diagrams,
    enumerate_walled,
)
from .duality import FAMILIES, MODES, verify_duality
from .linalg import DEFAULT_UNKNOWN_CAP
from .ring import DIGITS_CAP as FORMULA_DIGITS_CAP, fraction_from_str

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAPS = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _emit(obj, output: str) -> None:
    if output == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(_render_text(obj) + "\n")


def _render_text(obj, indent: str = "") -> str:
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{indent}{k}:")
                lines.append(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_render_text(v)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(f"{indent}-\n{_render_text(v, indent + '  ')}"
                         if isinstance(v, (dict, list)) and v
                         else f"{indent}- {_render_text(v)}" for v in obj)
    if obj is None:
        return "-"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return str(obj)


def cmd_multiply(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.file}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(payload, list) or not payload:
        raise UsageError("input must be a nonempty JSON list of diagrams or elements")

    x0 = None if args.x == "generic" else fraction_from_str(args.x)
    factors = []
    for pos, item in enumerate(payload, start=1):
        if isinstance(item, dict) and "edges" in item:
            factors.append(AlgebraElement.from_diagram(diagram_from_json(item), 1, x0))
        elif isinstance(item, dict) and "terms" in item:
            el = element_from_json(item)
            if el.x0 != x0:
                raise UsageError(
                    f"entry {pos}: element ring x0={el.x0!r} does not match --x {args.x}")
            factors.append(el)
        else:
            raise UsageError(f"entry {pos}: neither a diagram nor an element")
    product = factors[0]
    for el in factors[1:]:
        product = product * el
    _emit(element_to_json(product), args.output)
    return EXIT_OK


# family -> (the flag it takes besides --r, the exact formula, a lower bound
# on the formula's natural log, the enumeration).  The bounds come from
# lgamma: (2r-1)!! = (2r)! / (2^r r!), (r+s)!, and N(2r) >= (2r)!/e (the
# alternating series for N(k)/k! ends above 1/e when k is even).  Names
# resolve at call time, so a test may patch them on this module.
_DIMS = {
    "brauer": (None, lambda r, s, n: diagram_count(r),
               lambda r, s: lgamma(2 * r + 1) - lgamma(r + 1) - r * log(2),
               lambda r, s, n: sum(1 for _ in enumerate_diagrams(r))),
    "walled": ("s", lambda r, s, n: walled_count(r, s), lambda r, s: lgamma(r + s + 1),
               lambda r, s, n: sum(1 for _ in enumerate_walled(Wall(r, s)))),
    "deranged": ("n", lambda r, s, n: derangements(2 * r), lambda r, s: lgamma(2 * r + 1) - 1,
                 lambda r, s, n: len(deranged_basis(r, n))),
}


def cmd_dims(args) -> int:
    takes, formula_of, ln_floor, enumerate_of = _DIMS[args.family]
    for flag in ("s", "n"):
        if (getattr(args, flag) is None) == (flag == takes):
            verb = "needs" if flag == takes else "does not use"
            raise UsageError(f"--family {args.family} {verb} --{flag}")
    r, s, n = args.r, args.s or 0, args.n
    # refuse up front only a digit past the cap; the exact check below settles
    # the rest.  A negative size is left to the counting function's message.
    if min(r, s) >= 0 and ln_floor(r, s) / log(10) >= FORMULA_DIGITS_CAP + 1:
        raise CapExceededError(f"formula has more than {FORMULA_DIGITS_CAP} digits")
    formula = formula_of(r, s, n)
    if args.family == "deranged" and n < 2 * r:  # deranged_basis's rule, at every r
        raise UsageError(f"need n >= 2r (got n={n}, r={r})")
    try:  # zero columns hold only the empty diagram, nothing to enumerate
        enumerated = 1 if r + s == 0 else enumerate_of(r, s, n)
    except CapExceededError:
        enumerated = None
    if formula >= 10 ** FORMULA_DIGITS_CAP:
        raise CapExceededError(f"formula has more than {FORMULA_DIGITS_CAP} digits")
    _emit({"family": args.family, "r": args.r, "s": args.s, "n": args.n,
           "formula": formula, "enumerated": enumerated,
           "match": None if enumerated is None else enumerated == formula}, args.output)
    return EXIT_CAPS if enumerated is None else EXIT_OK


def cmd_verify(args) -> int:
    if args.solver_cap < 1:
        raise UsageError("--solver-cap must be at least 1")
    report = verify_duality(
        args.duality, args.n, args.r, args.s, mode=args.mode,
        solver_cap=args.solver_cap, with_timing=args.timing)
    _emit(report.to_json_dict(), args.output)
    if args.duality == "so-direct":
        return EXIT_OK if report.extra.get("proper_subalgebra") else EXIT_FALSE
    return EXIT_OK if report.verified else EXIT_FALSE


def cmd_derangements(args) -> int:
    if args.max < 0:
        raise UsageError("--max must be nonnegative")
    table = derangement_table(args.max)
    _emit({"max": args.max, "rows": table.rows()}, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagramalg",
        description="Exact diagram-algebra arithmetic and Schur-Weyl "
                    "double-centralizer verification.")
    parser.add_argument("--output", choices=("json", "text"), default="json",
                        help="output rendering (default json)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for harness compatibility; results "
                             "are identical for every value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", help="multiply diagrams/elements from a JSON file")
    p.add_argument("--file", required=True, help="JSON list of diagrams or elements")
    p.add_argument("--x", default="generic",
                   help="'generic' or a rational like -2 or 3/2 (default generic)")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("dims", help="dimension formulas with enumeration cross-check")
    p.add_argument("--family", required=True, choices=("brauer", "walled", "deranged"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="double-centralizer verification")
    p.add_argument("--duality", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default="auto",
                   help="auto: exact arithmetic on small systems, one prime "
                        "certified by an exact check on larger ones (default); "
                        "exact: exact arithmetic throughout")
    p.add_argument("--solver-cap", type=int, default=DEFAULT_UNKNOWN_CAP)
    p.add_argument("--timing", action="store_true",
                   help="fill elapsed_ms (off by default so identical "
                        "inputs give identical bytes)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derangements", help="derangement number table")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_derangements)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.threads < 1:
        sys.stderr.write("diagramalg: --threads must be at least 1\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except CapExceededError as exc:
        sys.stderr.write(f"diagramalg: cap exceeded: {exc}\n")
        return EXIT_CAPS
    except ValueError as exc:  # UsageError, DiagramError and RingMismatchError among them
        sys.stderr.write(f"diagramalg: {exc}\n")
        return EXIT_USAGE
    except (ArithmeticError, MemoryError) as exc:
        try:
            detail = f": {exc}" if str(exc) else ""
            sys.stderr.write(f"diagramalg: internal error: {type(exc).__name__}{detail}\n")
        except MemoryError:  # too short of memory to format: a constant line, or none
            try:
                sys.stderr.write("diagramalg: internal error: MemoryError\n")
            except MemoryError:
                pass
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
