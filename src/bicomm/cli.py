"""Command-line surface: group files in, exact canonical results out.

Subcommands:

  hilbert     closed-form series of a group (classical, trace analogue,
              bicommutative analogue) with exact expansions
  invariants  degree-wise invariant bases and dimensions
  nonfg       dimension-gap report between invariants and the subalgebra
              generated by low-degree invariants
  symmetric   module generators and saturation report for the symmetric group
  verify      cross-check every closed formula against the brute-force
              linear-algebra oracles; nonzero exit on any mismatch

Output is plain text by default, or one self-describing JSON document with
`--format structured`.  All numbers are exact rationals rendered as "p/q".

Exit codes: 0 success, 1 verification mismatch, 2 bad arguments,
3 unreadable or invalid group file, 4 group closure cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict

from . import __version__
from .algebra_core import BicommElement, dim_component, random_element
from .group_action import (
    DEFAULT_CLOSURE_CAP,
    CapExceededError,
    FiniteGroup,
    GroupFileError,
    RationalMatrix,
    act,
    diagonal_matrix,
    format_rational,
    group_closure,
    load_group,
    permutation_matrix,
    reynolds,
    symmetric_group,
    trivial_group,
)
from .hilbert import (
    RationalFunction,
    TruncatedSeries,
    dicks_formanek,
    expand,
    hilbert_free_bicomm,
    molien_bicomm,
    molien_classic,
)
from .invariants import (
    commutative_invariant_dimension,
    invariant_basis,
    invariant_dimension,
    nonfg_witness,
)
from .symmetric import symmetric_module_generators, verify_d2_identity

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GROUP_FILE = 3
EXIT_CAP = 4

_VERIFY_SEED = 20_240_601

# Largest `hilbert --order`: coefficients grow like 2^n and are all printed.
MAX_ORDER = 1000

# Largest `verify --d` and `symmetric --d`.
MAX_VERIFY_RANK = 8
MAX_SYMMETRIC_RANK = 5

# The most monomials, summed over degrees 1..order, that `verify` (for each
# catalogue group), `invariants`, `nonfg` or `symmetric` (up to --max-degree)
# works in.
MAX_MONOMIALS = 3000


def _rational_function_payload(f: RationalFunction) -> dict:
    return {
        "numerator": [format_rational(c) for c in f.numerator.coeffs],
        "denominator": [format_rational(c) for c in f.denominator.coeffs],
    }


def _series_payload(series: TruncatedSeries) -> list[str]:
    return [format_rational(c) for c in series.coefficients]


def _element_payload(element: BicommElement) -> dict:
    return {
        "linear": [format_rational(c) for c in element.linear],
        "terms": [
            {"alpha": list(alpha), "beta": list(beta), "coeff": format_rational(coeff)}
            for (alpha, beta), coeff in element.bulk.ordered_terms()
        ],
        "text": str(element),
    }


def _load_group_header(args, **inputs) -> tuple[FiniteGroup, list[str], dict]:
    """Load `--group` under `--cap`; return the group, the plain header lines
    and the structured `input` payload, extended by `inputs` in order."""
    group = load_group(args.group, cap=args.cap)
    lines = [
        f"group file: {args.group}",
        f"rank d: {group.rank}",
        f"group order: {group.order}",
    ]
    payload = {"d": group.rank, "group_order": group.order, "group_file": args.group}
    return group, lines, dict(payload, **inputs)


def catalogued_groups(d: int) -> list[tuple[str, FiniteGroup]]:
    """The desk-scale catalogue of test groups available at rank d."""
    groups: list[tuple[str, FiniteGroup]] = [("trivial", trivial_group(d))]
    if d in (1, 2):
        groups.append(("negation", group_closure([diagonal_matrix([-1] * d)])))
    if d == 2:
        swap = permutation_matrix((1, 0))
        groups.append(("symmetric S_2", group_closure([swap])))
        rotation = RationalMatrix([[0, -1], [1, 0]])
        groups.append(("cyclic C_4", group_closure([rotation])))
        groups.append(
            ("signed permutations", group_closure([swap, diagonal_matrix([-1, 1])]))
        )
    if d == 3:
        groups.append(("symmetric S_3", symmetric_group(3)))
    return groups


def _cmd_hilbert(args) -> tuple[int, list[str], dict]:
    order = args.order
    group, lines, payload = _load_group_header(args, order=order, cap=args.cap)
    results = {
        "molien_classic": molien_classic(group),
        "dicks_formanek": dicks_formanek(group),
        "molien_bicomm": molien_bicomm(group),
    }
    lines.append("")
    payload_results = {}
    for name, f in results.items():
        series = _series_payload(expand(f, order))
        lines.append(f"{name}: {f}")
        lines.append(f"  series to t^{order}: [{', '.join(series)}]")
        payload_results[name] = dict(_rational_function_payload(f), series=series)
    document = {
        "command": "hilbert",
        "input": payload,
        "results": payload_results,
    }
    return EXIT_OK, lines, document


def _cmd_invariants(args) -> tuple[int, list[str], dict]:
    group, lines, payload = _load_group_header(args, max_degree=args.max_degree)
    _check_monomials(group.rank, args.max_degree, "--max-degree")
    lines.append("")
    degrees = []
    for n in range(1, args.max_degree + 1):
        basis = invariant_basis(group, n)
        lines.append(f"degree {n}: dimension {len(basis)}")
        for element in basis:
            lines.append(f"  {element}")
        degrees.append(
            {
                "degree": n,
                "dimension": len(basis),
                "basis": [_element_payload(e) for e in basis],
            }
        )
    document = {
        "command": "invariants",
        "input": payload,
        "results": {"degrees": degrees},
    }
    return EXIT_OK, lines, document


def _cmd_nonfg(args) -> tuple[int, list[str], dict]:
    if not args.max_degree > args.cutoff:
        raise ValueError(
            f"need --max-degree > --cutoff, got --max-degree {args.max_degree} "
            f"and --cutoff {args.cutoff}"
        )
    group, lines, payload = _load_group_header(
        args, cutoff=args.cutoff, max_degree=args.max_degree
    )
    _check_monomials(group.rank, args.max_degree, "--max-degree")
    gaps = nonfg_witness(group, args.cutoff, args.max_degree)
    lines += [f"searched degrees up to {args.max_degree}", ""]
    for gap in gaps:
        if gap.gap_degree is None:
            lines.append(
                f"cutoff {gap.cutoff}: no gap found up to degree {args.max_degree}"
            )
        else:
            lines.append(
                f"cutoff {gap.cutoff}: gap at degree {gap.gap_degree} "
                f"(subalgebra span {gap.span_dimension} < invariants "
                f"{gap.invariant_dimension})"
            )
    document = {
        "command": "nonfg",
        "input": payload,
        "results": {"gaps": [asdict(gap) for gap in gaps]},
    }
    return EXIT_OK, lines, document


def _check_monomials(d: int, order: int, order_flag: str) -> None:
    """Reject a request whose degrees 1..order hold more than MAX_MONOMIALS
    monomials at rank d, before any basis is built; the error names the rank
    and the flag."""
    monomials = 0
    for n in range(1, order + 1):
        monomials += dim_component(d, n)
        if monomials > MAX_MONOMIALS:
            raise ValueError(
                f"{order_flag} {order} at rank d = {d} needs more than "
                f"{MAX_MONOMIALS} monomials in degrees 1..{order}; lower "
                f'{order_flag} or d (--d, or "d" in the group file)'
            )


def _cmd_symmetric(args) -> tuple[int, list[str], dict]:
    _check_monomials(args.d, args.max_degree, "--max-degree")
    result = symmetric_module_generators(args.d, args.max_degree)
    lines = [
        f"rank d: {args.d}",
        f"degree bound: {args.max_degree}",
        "",
        "selected module generators:",
    ]
    for generator in result.generators:
        lines.append(f"  {generator.label}  (degree {generator.degree})")
    bounds_text = ", ".join(
        f"n_{{{p},{q}}} = {bound}" for (p, q), bound in sorted(result.exponent_bounds.items())
    )
    lines.append(f"polarization exponent bounds: {bounds_text or 'none'}")
    lines.append("")
    lines.append("saturation against the symmetric invariants:")
    for entry in result.saturation:
        status = "ok" if entry.saturated else "GAP"
        lines.append(
            f"  degree {entry.degree}: span {entry.span_dimension} "
            f"vs invariants {entry.invariant_dimension}  {status}"
        )
    document = {
        "command": "symmetric",
        "input": {"d": args.d, "max_degree": args.max_degree},
        "results": {
            "generators": [
                {"label": g.label, "degree": g.degree} for g in result.generators
            ],
            "exponent_bounds": [
                {"p": p, "q": q, "bound": bound}
                for (p, q), bound in sorted(result.exponent_bounds.items())
            ],
            "saturation": [
                dict(asdict(e), saturated=e.saturated) for e in result.saturation
            ],
            "saturated_everywhere": result.saturated_everywhere(),
        },
    }
    return (EXIT_OK if result.saturated_everywhere() else EXIT_MISMATCH), lines, document


def _series_mismatch(group_name: str, series: TruncatedSeries, dimension) -> dict | None:
    """The first degree at which `series` differs from the brute-force
    `dimension(n)`, as a verify detail; None when they agree up to its order."""
    for n, coefficient in enumerate(series.coefficients):
        if coefficient != (brute_force := dimension(n)):
            return {"group": group_name, "degree": n,
                    "series": format_rational(coefficient), "dimension": brute_force}
    return None


def _verify_checks(d: int, order: int):
    """Yield (check name, passed, detail) for the whole cross-validation
    suite; a failed series check's detail names the first bad degree, and
    every other detail is None."""
    rng = random.Random(_VERIFY_SEED)
    yield (
        f"trivial group series equals free-algebra series (d={d})",
        molien_bicomm(trivial_group(d)) == hilbert_free_bicomm(d),
        None,
    )
    for name, group in catalogued_groups(d):
        for claim, series, dimension in (
            ("bicommutative series matches Reynolds dimensions", molien_bicomm,
             lambda n: invariant_dimension(group, n) if n else 0),
            ("classical series matches commutative dimensions", molien_classic,
             lambda n: commutative_invariant_dimension(group, n)),
        ):
            mismatch = _series_mismatch(name, expand(series(group), order), dimension)
            yield (f"{name}: {claim}", mismatch is None, mismatch)
        reynolds_ok = True
        for _ in range(3):
            element = random_element(rng, d)
            averaged = reynolds(group, element)
            if reynolds(group, averaged) != averaged:
                reynolds_ok = False
            if any(act(g, averaged) != averaged for g in group.elements):
                reynolds_ok = False
        trace_average = group.average(RationalMatrix.trace)
        reynolds_ok = reynolds_ok and invariant_dimension(group, 1) == trace_average
        yield (f"{name}: Reynolds operator suite", reynolds_ok, None)
    identities_ok = True
    for _ in range(100):
        a, b, c = (random_element(rng, d) for _ in range(3))
        if ((a * b) * c != (a * c) * b) or (a * (b * c) != b * (a * c)):
            identities_ok = False
            break
    yield ("bicommutative identities on random triples", identities_ok, None)
    if d >= 2:
        x1 = BicommElement.generator(d, 1)
        x2 = BicommElement.generator(d, 2)
        yield (
            "one-sided products differ (noncommutativity witness)",
            x1 * (x2 * x2) != (x2 * x2) * x1,
            None,
        )
    report = verify_d2_identity()
    yield ("two-alphabet symmetric identity at rank 2", report.holds, None)


def _cmd_verify(args) -> tuple[int, list[str], dict]:
    _check_monomials(args.d, args.order, "--order")
    checks = []
    all_ok = True
    lines = [f"verification suite: d={args.d}, order={args.order}", ""]
    for name, ok, detail in _verify_checks(args.d, args.order):
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}")
        checks.append({"check": name, "pass": ok})
        if detail is not None:
            lines.append(
                f"      {detail['group']}, degree {detail['degree']}: series coefficient "
                f"{detail['series']}, brute-force dimension {detail['dimension']}"
            )
            checks[-1]["detail"] = detail
        all_ok = all_ok and ok
    lines.append("")
    lines.append("all checks passed" if all_ok else "MISMATCH DETECTED")
    document = {
        "command": "verify",
        "input": {"d": args.d, "order": args.order},
        "results": {"checks": checks, "all_passed": all_ok},
    }
    return (EXIT_OK if all_ok else EXIT_MISMATCH), lines, document


def _int_at_least(low: int, kind: str, high: int | None = None):
    """An argparse type: an integer >= low, described as `kind`, and <= high
    if one is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a nonnegative integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomm",
        description="Exact invariants of finite matrix groups acting on the "
        "free bicommutative algebra.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("plain", "structured"),
            default="plain",
            help="plain text or one JSON document (default: plain)",
        )

    def add_group(p):
        p.add_argument("--group", required=True, help="path to a JSON group file")
        p.add_argument(
            "--cap",
            type=_positive_int,
            default=DEFAULT_CLOSURE_CAP,
            help=f"closure size cap (default: {DEFAULT_CLOSURE_CAP})",
        )

    p = sub.add_parser("hilbert", help="closed-form series and expansions")
    add_group(p)
    p.add_argument(
        "--order",
        type=_int_at_least(0, "a nonnegative integer", MAX_ORDER),
        default=10,
        help=f"expansion order, at most {MAX_ORDER} (default: 10)",
    )
    add_format(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("invariants", help="degree-wise invariant bases")
    add_group(p)
    p.add_argument(
        "--max-degree",
        type=_positive_int,
        default=6,
        help=f"largest degree to compute (default: 6); at most {MAX_MONOMIALS} "
        "monomials in degrees 1..max-degree",
    )
    add_format(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("nonfg", help="finite-generation dimension gaps")
    add_group(p)
    p.add_argument(
        "--cutoff",
        type=_positive_int,
        default=2,
        help="largest generator-degree cutoff (default: 2)",
    )
    p.add_argument(
        "--max-degree",
        type=_positive_int,
        default=8,
        help=f"largest degree searched, above the cutoff (default: 8); at most "
        f"{MAX_MONOMIALS} monomials in degrees 1..max-degree",
    )
    add_format(p)
    p.set_defaults(func=_cmd_nonfg)

    p = sub.add_parser("symmetric", help="module generators for the symmetric group")
    p.add_argument(
        "--d",
        type=_int_at_least(2, "an integer >= 2", MAX_SYMMETRIC_RANK),
        default=2,
        help=f"rank, at most {MAX_SYMMETRIC_RANK} (default: 2)",
    )
    p.add_argument(
        "--max-degree",
        type=_int_at_least(2, "an integer >= 2"),
        default=6,
        help=f"degree bound (default: 6); at most {MAX_MONOMIALS} monomials in "
        "degrees 1..max-degree",
    )
    add_format(p)
    p.set_defaults(func=_cmd_symmetric)

    p = sub.add_parser("verify", help="run the full cross-validation suite")
    p.add_argument(
        "--d",
        type=_int_at_least(1, "a positive integer", MAX_VERIFY_RANK),
        default=2,
        help=f"rank of the catalogue, at most {MAX_VERIFY_RANK} (default: 2)",
    )
    p.add_argument(
        "--order",
        type=_nonnegative_int,
        default=10,
        help=f"expansion order (default: 10); at most {MAX_MONOMIALS} "
        "monomials in degrees 1..order",
    )
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, lines, document = args.func(args)
    except GroupFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GROUP_FILE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(document, indent=2) if args.format == "structured" else "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Point it at devnull
        # so that the flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
