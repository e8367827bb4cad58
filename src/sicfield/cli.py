"""Command line interface.

Subcommands:

    verify-d4     run every exact check on the dimension-4 projector
    minpoly       minimal polynomial of an expression over the field
    galois        group order, census, and the structure certificate
    units         audit the reconstruction phases and the named units
    search        numerical fiducial search in a chosen dimension
    discriminant  (d - 3)(d + 1) and its squarefree part

Every subcommand accepts --json for machine-readable reports and
--config FILE, a JSON object whose keys are read as the flags they name,
before the flags given on the command line; minpoly, galois and units,
whose reports carry approximate values of field elements, also accept
--precision {double, extended} to choose how those values are computed.
Reports are objects with the four fields check, status, details, and
category; numbers in them are rendered to 12 significant digits with
ties going to even. Exit status is 0 when every check passes, 1 when
any check fails, 2 for usage or parse errors (search values out of
range and expressions whose value would exceed MAX_VALUE_BITS
included), and 141 when the reader of the output closes it early.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Any

# the layers are registered, not run, by the package; each handler runs
# only the ones it reads (search is imported in its handler, since the
# package's name search is the function)
from . import expressions, galois, minpoly, sic4, tower
from ._lazy import mpmath

EXTENDED_DPS = 50

#: exit status when the reader of stdout closes early, as for a process
#: that SIGPIPE ends
EXIT_BROKEN_PIPE = 141


def render_number(value: Any) -> str:
    """The exact rational that value stands for, rounded once to 12
    significant digits, ties to even; int() reads the numpy integer that
    Fraction keeps as a numerator. A NaN or an infinity raises."""
    if hasattr(value, "_mpf_"):
        if not mpmath.isfinite(value):
            raise ValueError(f"{value} has no digits")
        value = Fraction(*mpmath.libmp.to_rational(value._mpf_))
    exact = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(int(exact.numerator)) / Decimal(int(exact.denominator)))


def render_complex(value: Any) -> str:
    re = render_number(value.real)
    im = render_number(value.imag)
    sign = "-" if im.startswith("-") else "+"
    return f"{re} {sign} {im.lstrip('-')}i"


def serialize_element(elem: tower.FieldElement, precision: str) -> dict:
    # a rational element rounds from its exact value, a Fraction with imag
    # 0; otherwise a double outside the normal float range, an infinity or
    # a nonzero value that underflowed, gives way to the EXTENDED_DPS value
    if elem.is_rational():
        z = elem.coords[0]
    else:
        z = None if precision == "extended" else tower.embed(elem)
        if z is None or not cmath.isfinite(z) or (
                max(abs(z.real), abs(z.imag)) < sys.float_info.min):
            z = tower.embed(elem, EXTENDED_DPS)
    approx = {"re": render_number(z.real), "im": render_number(z.imag)}
    return {"coords": [str(c) for c in elem.coords], "approx": approx}


def make_report(check: str, passed: bool, details: dict | None = None) -> dict:
    """A report without its category, which _run adds last."""
    return {
        "check": check,
        "status": "pass" if passed else "fail",
        "details": details or {},
    }


# -- subcommand handlers ----------------------------------------------------


def cmd_verify_d4(args: argparse.Namespace) -> list[dict]:
    phases = sic4.canonical_phase_matrix(negate_entry=args.corrupt)
    reports = [
        make_report("hermiticity_symmetry", sic4.hermiticity_symmetry_holds(phases)),
        make_report("phases_in_inner_field", sic4.phases_in_inner_field(phases)),
    ]
    projector = sic4.reconstruct_projector(phases)
    for check in sic4.verify_sic_projector(projector):
        details = {"note": check.detail} if check.detail else {}
        reports.append(make_report(check.name, check.passed, details))
    return reports


def cmd_minpoly(args: argparse.Namespace) -> list[dict]:
    elem = expressions.evaluate_expression(args.expression)
    result = minpoly.minimal_polynomial(elem)
    details = {
        "expression": args.expression,
        "element": serialize_element(elem, args.precision),
        "minimal_polynomial": result.primitive.format(),
        "degree": result.degree,
        "algebraic_integer": result.is_algebraic_integer,
        "unit": result.is_unit,
    }
    if not args.json:
        print(result.primitive.format())
    return [make_report("minimal_polynomial", True, details)]


def cmd_galois(args: argparse.Namespace) -> list[dict]:
    generators = galois.standard_generators()
    group = galois.generate_group(list(generators.values()))
    cert = galois.certify_structure(group)
    census = cert.census
    inner = galois.generate_group([generators[k] for k in ("g1", "g2", "g3")])
    columns = {name: tower.constant(name)
               for name in ("sqrt5", "sqrt2", "isqrt_sqrt5p1", "i", "tau")}
    rows = galois.action_table(list(generators.values()), columns)
    actions = {
        name: {
            col: serialize_element(value, args.precision)
            for col, value in row.items()
        }
        for name, row in zip(generators, rows)
    }
    reports = [
        make_report("group_order", len(group) == 16, {"order": len(group)}),
        make_report("generators_are_involutions",
                    all((g * g).is_identity() for g in generators.values())),
        make_report("order_census", census == {1: 1, 2: 11, 4: 4},
                    {"census": {str(k): v for k, v in sorted(census.items())}}),
        make_report("abelian_inner_subgroup",
                    len(inner) == 8 and galois.is_abelian(inner),
                    {"order": len(inner)}),
        make_report("structure_certificate", cert.certified, {
            "isomorphism_type": cert.isomorphism_type,
            "central_involution": cert.central_involution,
            "dihedral_generators": cert.dihedral_generators,
        }),
        make_report("inner_subgroup_fixes_sqrt5",
                    galois.fixed_subfield_check(inner, tower.constant("sqrt5"))
                    and not galois.fixed_subfield_check(group, tower.constant("sqrt5"))),
        make_report("generator_actions", True, {"actions": actions}),
    ]
    return reports


def cmd_units(args: argparse.Namespace) -> list[dict]:
    reports = []
    for audit in sic4.phase_unit_audit():
        i, j = audit.index
        reports.append(make_report(
            f"phase_{i}{j}", audit.unit_modulus and audit.algebraic_unit,
            {
                "unit_modulus": audit.unit_modulus,
                "algebraic_unit": audit.algebraic_unit,
                "minpoly_degree": audit.minpoly_degree,
            },
        ))
    for name in ("u1", "u2", "u3", "u4", "u5"):
        elem = tower.constant(name)
        result = minpoly.minimal_polynomial(elem)
        reports.append(make_report(
            f"unit_{name}", result.is_unit,
            {
                "minimal_polynomial": result.primitive.format(),
                "degree": result.degree,
                "algebraic_integer": result.is_algebraic_integer,
                "element": serialize_element(elem, args.precision),
            },
        ))
    return reports


def cmd_search(args: argparse.Namespace) -> list[dict]:
    from .search import SearchConfig, search

    if args.dim is None:
        raise ValueError("--dim is required")
    # an option not given is absent from args, and SearchConfig's own
    # default applies
    options = {field: getattr(args, dest) for dest, field in (
        ("restarts", "restarts"), ("seed", "rng_seed"),
        ("tolerance", "tolerance"), ("max_iterations", "max_iterations"),
    ) if hasattr(args, dest)}
    result = search(SearchConfig(dimension=args.dim, **options))
    target = 2 * args.dim / (args.dim + 1)
    details = {
        "dimension": result.dimension,
        "converged": result.converged,
        "residual": render_number(result.residual),
        "sic_defect": render_number(result.sic_defect),
        "restarts_run": len(result.restarts),
        "best_restart": result.restart_index,
        "iterations": result.iterations,
        "stop_reason": result.restarts[result.restart_index].stop_reason,
        "fourth_moment": render_number(result.fourth_moment),
        "fourth_moment_target": render_number(target),
        "fiducial": [render_complex(z) for z in result.fiducial],
    }
    if not args.json:
        state = "converged" if result.converged else "did not converge"
        print(f"dimension {args.dim}: {state}, "
              f"residual {render_number(result.residual)}, "
              f"restart {result.restart_index}, "
              f"iterations {result.iterations}")
    return [make_report(f"search_d{args.dim}", result.converged, details)]


def cmd_discriminant(args: argparse.Namespace) -> list[dict]:
    if args.dim is None:
        raise ValueError("--dim is required")
    result = sic4.discriminant(args.dim)
    if not args.json:
        print(f"(d - 3)(d + 1) = {result.value}, "
              f"squarefree part {result.squarefree_part}")
    return [make_report(f"discriminant_d{args.dim}", True, {
        "dimension": result.dimension,
        "value": result.value,
        "squarefree_part": result.squarefree_part,
    })]


# -- argument plumbing -------------------------------------------------------


def _corrupt_pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a pair like 1,2",
        ) from None
    return i, j


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit reports as a JSON array")
    common.add_argument("--config", metavar="FILE",
                        help="JSON object with option defaults")
    # only the subcommands that print a field element's approximate value
    approx = argparse.ArgumentParser(add_help=False)
    approx.add_argument("--precision", choices=("double", "extended"),
                        default="double",
                        help="how approximate values are computed")

    parser = argparse.ArgumentParser(
        prog="sicfield",
        description="exact arithmetic for the dimension-4 SIC and friends",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-d4", parents=[common],
                        help="exact checks on the dimension-4 projector")
    p.add_argument("--corrupt", type=_corrupt_pair, metavar="I,J", default=None,
                   help="negate one phase first, as a negative control")
    p.set_defaults(func=cmd_verify_d4)

    p = subs.add_parser("minpoly", parents=[common, approx],
                        help="minimal polynomial of a field expression")
    p.add_argument("expression",
                   help="a field expression; write one that begins with a minus "
                        "sign after --, as in: sicfield minpoly -- -u")
    p.set_defaults(func=cmd_minpoly)

    p = subs.add_parser("galois", parents=[common, approx],
                        help="Galois group census and certification")
    p.set_defaults(func=cmd_galois)

    p = subs.add_parser("units", parents=[common, approx],
                        help="audit the phases and the named units")
    p.set_defaults(func=cmd_units)

    # --dim is checked by the handler, not argparse, so a config file
    # can supply it
    p = subs.add_parser("search", parents=[common],
                        help="numerical fiducial search")
    p.add_argument("--dim", type=int, default=None)
    # no defaults here, so that parsing needs no search module: the
    # handler passes on only the options given
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-iterations", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("discriminant", parents=[common],
                        help="(d - 3)(d + 1) and its squarefree part")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_discriminant)

    return parser, subs.choices


def _config_flags(parser: argparse.ArgumentParser,
                  sub: argparse.ArgumentParser, path: str) -> list[str]:
    """The flags a config file names, for the subcommand's own parser to
    read: a switch set to true is its bare flag and false is none, and any
    other key is --flag=VALUE with a string as it stands and any other
    value as its JSON text."""
    try:
        with open(path) as handle:
            overrides = json.load(handle)
    except (OSError, ValueError) as err:  # bad JSON or bad UTF-8
        parser.error(f"cannot read config {path}: {err}")
    if not isinstance(overrides, dict):
        parser.error("config must be a JSON object")
    # a key names an optional flag of the subcommand; --help and --config
    # themselves, and positional arguments, which the first parse already
    # required, can never take effect
    actions = {action.dest: action for action in sub._actions
               if action.option_strings and action.dest not in ("help", "config")}
    unknown = set(overrides) - set(actions)
    if unknown:
        parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
    flags = []
    for key, value in overrides.items():
        flag = actions[key].option_strings[-1]
        if actions[key].nargs != 0:
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"{flag}={text}")
        elif not isinstance(value, bool):  # a switch
            parser.error(f"config key {key!r}: invalid value {value!r}")
        elif value:
            flags.append(flag)
    return flags


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # reports print every integer the field computes, whatever its size;
    # Python 3.10 has no limit to lift
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser, registry = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # refused by the subcommand, whose usage lists what it takes
            registry[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
        if getattr(args, "config", None):
            # the config's flags go right after the subcommand, so its own
            # actions read them and an explicit flag, coming later, wins
            at = argv.index(args.command) + 1
            flags = _config_flags(parser, registry[args.command], args.config)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
    except SystemExit as exit_:
        return int(exit_.code or 0)

    try:
        return _run(args)
    except BrokenPipeError:
        # the reader of stdout went away: stop quietly, and point stdout at
        # devnull so the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(args: argparse.Namespace) -> int:
    try:
        reports = args.func(args)
    except (ValueError, ZeroDivisionError) as err:
        # ExpressionError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    for report in reports:
        report["category"] = args.command

    if args.json:
        print(json.dumps(reports, indent=2))
    elif args.command in ("verify-d4", "galois", "units"):
        for report in reports:
            label = report["status"].upper()
            line = f"[{label}] {report['category']}:{report['check']}"
            note = report["details"].get("note")
            if note:
                line += f" ({note})"
            print(line)
    sys.stdout.flush()
    return 0 if all(r["status"] == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
