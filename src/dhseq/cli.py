"""Command line front end: generate, lincomp, verify, survey.

Exit codes: 0 success, 1 failed check or prediction, 2 input error,
3 internal cross-method disagreement.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path

from . import gf2poly, lincomp, numtheory, sequence, theorems
from .cyclotomy import VectorAssignment
from .errors import DHSeqError, MethodDisagreement
from .numtheory import Modulus
from .sequence import delta

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DISAGREEMENT = 3

DEFAULT_SURVEY_CAP = 2000


def parse_factors(text: str) -> list[tuple[int, int]]:
    """Parse 'p:e,p:e,...' (the whole ':e' may be omitted for exponent 1,
    but a ':' with nothing after it is refused).

    Each side must be ASCII decimal digits once its surrounding spaces are
    stripped, so the signs, underscores and non-ASCII digits that int()
    would accept are refused.
    """
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise DHSeqError(f"empty entry in factor list {text!r}")
        head, colon, tail = part.partition(":")
        head, tail = head.strip(), tail.strip() if colon else "1"
        if not all(side.isascii() and side.isdigit() for side in (head, tail)):
            raise DHSeqError(f"bad factor entry {part!r}; expected p:e in decimal digits")
        out.append((int(head), int(tail)))
    return out


def _add_assignment_options(parser: argparse.ArgumentParser):
    grp = parser.add_mutually_exclusive_group()
    grp.add_argument(
        "--default",
        action="store_true",
        help="(0,...,0,1) on every divisor (the default)",
    )
    grp.add_argument(
        "--all-ones-top",
        action="store_true",
        help="all-ones vector on n itself, default elsewhere",
    )
    grp.add_argument("--spec", metavar="FILE", help="assignment spec file of d:bits lines")
    grp.add_argument(
        "--assignment",
        metavar="OVERRIDES",
        help="inline overrides, e.g. '21:11' or '21:11;15:10'",
    )


def resolve_assignment(modulus: Modulus, args) -> VectorAssignment:
    if args.all_ones_top:
        return VectorAssignment.all_ones_top(modulus)
    if args.spec:
        return VectorAssignment.parse_spec(modulus, Path(args.spec).read_text())
    if args.assignment:
        return VectorAssignment.parse_spec(modulus, args.assignment.replace(";", "\n"))
    return VectorAssignment.default(modulus)


def cmd_generate(args) -> int:
    modulus = numtheory.validate_modulus(parse_factors(args.factors))
    assignment = resolve_assignment(modulus, args)
    seq = sequence.generate(modulus, assignment)
    line = sequence.sequence_line(seq)
    if args.out:
        Path(args.out).write_text(line)
    else:
        sys.stdout.write(line)
    if args.meta:
        Path(args.meta).write_text(sequence.metadata_block(modulus, assignment, seq))
    return EXIT_OK


def _load_period(args):
    if args.sequence:
        # a raw period has no modulus or assignment, so these would be ignored
        if args.factors or args.default or args.all_ones_top or args.spec or args.assignment:
            raise DHSeqError("--sequence cannot be combined with --factors or an assignment option")
        return sequence.parse_bit_line(Path(args.sequence).read_text())
    if not args.factors:
        raise DHSeqError("either --sequence or --factors is required")
    modulus = numtheory.validate_modulus(parse_factors(args.factors))
    return sequence.generate(modulus, resolve_assignment(modulus, args))


METHODS = ("bm", "gcd", "spectral")


def _field(n: int, degree_cap: int | None, required: bool):
    """GF(2^m), m = ord_n(2), for the spectral route: None (a skip) when n
    is even or 1 or m is above the cap, or that error when the caller has
    no use for a skip."""
    try:
        if n % 2 == 0 or n == 1:
            raise DHSeqError("spectral method needs an odd period > 1")
        return gf2poly.build_field(n, degree_cap)
    except DHSeqError:
        if required:
            raise
        return None


def _measure(seq, methods, degree_cap, required=False) -> tuple[dict[str, int], str | None]:
    """L of seq by each of methods, in order, and why the spectral route
    was skipped (None when it ran or was not asked for). With required a
    spectral route that cannot run raises instead."""
    found, skipped = {}, None
    for method in methods:
        if method != "spectral":
            # looked up per call, so a patched or traced lincomp is seen
            found[method] = getattr(lincomp, f"lincomp_{method}")(seq)
        elif (field := _field(seq.n, degree_cap, required)) is None:
            skipped = "field unavailable"
        else:
            try:
                found[method] = lincomp.lincomp_spectral(seq, field)
            except DHSeqError as exc:  # a full sweep refused
                if required:
                    raise
                skipped = str(exc)
    return found, skipped


def cmd_lincomp(args) -> int:
    seq = _load_period(args)
    methods = METHODS if args.method == "all" else (args.method,)
    found, skipped = _measure(seq, methods, args.degree_cap, args.method == "spectral")
    if skipped:
        print(f"L[spectral] skipped: {skipped}")
    for method, L in found.items():
        print(f"L[{method}] = {L}")
    if len(set(found.values())) > 1:
        print("error: methods disagree", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _verdict_line(v: theorems.CheckVerdict) -> str:
    holds = "-" if v.holds is None else str(v.holds).lower()
    return (
        f"{v.name} applicable={str(v.applicable).lower()} "
        f"holds={holds} witness={v.witness or '-'}"
    )


def cmd_verify(args) -> int:
    modulus = numtheory.validate_modulus(parse_factors(args.factors))
    assignment = resolve_assignment(modulus, args)
    field = None
    if args.check not in ("lemma1", "corollary"):
        # lemma3/lemma4 cannot run at all without the field
        field = _field(modulus.n, args.degree_cap, args.check in ("lemma3", "lemma4"))
    verdicts = theorems.all_checks(modulus, assignment, field, args.check)
    for v in verdicts:
        print(_verdict_line(v))
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_CHECK_FAILED


CSV_HEADER = [
    "n",
    "factors",
    "assignment",
    "delta",
    "L_bm",
    "L_gcd",
    "L_spectral",
    "theorem1_applicable",
    "theorem1_holds",
    "predicted_L",
    "prediction_match",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def survey_row(modulus: Modulus, assignment: VectorAssignment, degree_cap=None) -> dict:
    """One survey measurement, keyed by CSV_HEADER in header order; raises
    MethodDisagreement when BM or the spectral route disagrees with gcd."""
    run = theorems.CheckRun(modulus, assignment, None)
    seq, l_gcd = run.measured()
    found, _ = _measure(seq, ("bm", "spectral"), degree_cap)
    for method, label in (("bm", "BM"), ("spectral", "spectral")):
        if found.get(method, l_gcd) != l_gcd:
            raise MethodDisagreement(
                f"{label}/GCD disagreement at n={modulus.n}: {found[method]} vs {l_gcd}"
            )
    th1 = theorems.check_theorem1(run)
    predicted = match = None
    if (
        modulus.t == 2
        and all(e == 1 for _, e in modulus.factors)
        and assignment.vector_for(modulus.n) == (1, 1)
        and all(p % 4 == 3 for p, _ in modulus.factors)
    ):
        predicted = theorems.predicted_L_two_primes(
            modulus.factors[0][0], modulus.factors[1][0]
        )
        match = l_gcd == predicted
    return {
        "n": modulus.n,
        "factors": modulus.factor_string(),
        "assignment": assignment.spec_string(),
        "delta": delta(modulus.n),
        "L_bm": found["bm"],
        "L_gcd": l_gcd,
        "L_spectral": found.get("spectral"),
        "theorem1_applicable": th1.applicable,
        "theorem1_holds": th1.holds,
        "predicted_L": predicted,
        "prediction_match": match,
    }


def cmd_survey(args) -> int:
    # 0, 1 and 2 hold no valid period and give a survey of zero rows
    if args.max_n < 0:
        raise DHSeqError(f"--max-n {args.max_n} is negative")
    if args.max_n > args.cap:
        raise DHSeqError(f"--max-n {args.max_n} exceeds the survey cap {args.cap}")
    # validate_modulus refuses n >= MAX_PERIOD; a survey lists only periods it accepts
    if args.max_n >= numtheory.MAX_PERIOD:
        raise DHSeqError(
            f"--max-n {args.max_n} is not below the supported period bound {numtheory.MAX_PERIOD}"
        )
    # opened before the first row, so an unwritable --out fails at once
    with open(args.out, "w", newline="") as fh:
        rows = []
        for modulus in numtheory.enumerate_valid_moduli(args.max_n):
            if args.mode == "two-primes-11":
                if modulus.t != 2 or any(e != 1 for _, e in modulus.factors):
                    continue
                assignment = VectorAssignment.all_ones_top(modulus)
            else:
                assignment = VectorAssignment.default(modulus)
            rows.append(survey_row(modulus, assignment, args.degree_cap))
        # DictWriter raises on a key outside CSV_HEADER
        writer = csv.DictWriter(fh, CSV_HEADER)
        writer.writeheader()
        writer.writerows({k: _cell(v) for k, v in r.items()} for r in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    bad = any(
        r["prediction_match"] is False
        or (r["theorem1_applicable"] and r["theorem1_holds"] is False)
        for r in rows
    )
    return EXIT_CHECK_FAILED if bad else EXIT_OK


# built once per process: each parser is a web of reference cycles that
# only a full gc collection frees
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhseq",
        description="Generalized cyclotomic binary sequences and their linear complexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write one period of a sequence")
    gen.add_argument("--factors", required=True, help="modulus factorization, e.g. 3:1,7:1")
    _add_assignment_options(gen)
    gen.add_argument("--out", metavar="FILE", help="sequence file (default: stdout)")
    gen.add_argument("--meta", metavar="FILE", help="also write a key=value sidecar")
    gen.set_defaults(func=cmd_generate)

    lc = sub.add_parser("lincomp", help="measure linear complexity")
    lc.add_argument("--factors", help="modulus factorization, e.g. 3:1,7:1")
    lc.add_argument("--sequence", metavar="FILE", help="read a raw period instead")
    _add_assignment_options(lc)
    lc.add_argument(
        "--method", choices=[*METHODS, "all"], default="all", help="which method(s) to run"
    )
    lc.set_defaults(func=cmd_lincomp)

    ver = sub.add_parser("verify", help="run structural checks")
    ver.add_argument("--check", required=True, choices=[*theorems.CHECKS, "all"])
    ver.add_argument("--factors", required=True, help="modulus factorization")
    _add_assignment_options(ver)
    ver.set_defaults(func=cmd_verify)

    sur = sub.add_parser("survey", help="sweep moduli and emit a CSV")
    sur.add_argument("--max-n", type=int, required=True)
    sur.add_argument("--mode", choices=["two-primes-11", "default-all"], required=True)
    sur.add_argument("--out", required=True, metavar="FILE")
    sur.add_argument("--cap", type=int, default=DEFAULT_SURVEY_CAP, help="hard cap on --max-n")
    sur.set_defaults(func=cmd_survey)

    for cmd in (lc, ver, sur):
        cmd.add_argument("--degree-cap", type=int, default=None, help="spectral degree cap")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "degree_cap" in args:
            # checked here, so a check that builds no field still rejects it
            args.degree_cap = gf2poly.resolve_degree_cap(args.degree_cap)
        return args.func(args)
    except MethodDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (DHSeqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
