"""Command line front end: generate, lincomp, verify, survey.

Exit codes: 0 success, 1 failed check or prediction, 2 input error,
3 internal cross-method disagreement.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

from . import gf2poly, lincomp, numtheory, sequence, theorems
from .cyclotomy import VectorAssignment
from .errors import DegreeCapExceeded, DHSeqError, MethodDisagreement
from .numtheory import Modulus
from .sequence import delta

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DISAGREEMENT = 3

DEFAULT_SURVEY_CAP = 2000


def parse_factors(text: str) -> list[tuple[int, int]]:
    """Parse 'p:e,p:e,...' (':e' may be omitted for exponent 1)."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise DHSeqError(f"empty entry in factor list {text!r}")
        head, _, tail = part.partition(":")
        try:
            p = int(head)
            e = int(tail) if tail else 1
        except ValueError:
            raise DHSeqError(f"bad factor entry {part!r}; expected p:e") from None
        out.append((p, e))
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
        Path(args.meta).write_text(sequence.metadata_block(seq))
    return EXIT_OK


def _load_period(args):
    if args.sequence:
        return sequence.parse_bit_line(Path(args.sequence).read_text())
    if not args.factors:
        raise DHSeqError("either --sequence or --factors is required")
    modulus = numtheory.validate_modulus(parse_factors(args.factors))
    return sequence.generate(modulus, resolve_assignment(modulus, args))


def cmd_lincomp(args) -> int:
    seq = _load_period(args)
    wanted = ["bm", "gcd", "spectral"] if args.method == "all" else [args.method]
    results: dict[str, int] = {}
    for method in wanted:
        if method == "bm":
            results["bm"] = lincomp.lincomp_bm(seq).L
        elif method == "gcd":
            results["gcd"] = lincomp.lincomp_gcd(seq).L
        else:
            try:
                if seq.n % 2 == 0 or seq.n == 1:
                    raise DHSeqError("spectral method needs an odd period > 1")
                field = gf2poly.build_field(seq.n, args.degree_cap)
            except (DegreeCapExceeded, DHSeqError):
                if args.method == "spectral":
                    raise
                print("L[spectral] skipped: field unavailable")
                continue
            results["spectral"] = lincomp.lincomp_spectral(seq, field).L
    for method in ("bm", "gcd", "spectral"):
        if method in results:
            print(f"L[{method}] = {results[method]}")
    if len(set(results.values())) > 1:
        print("error: methods disagree", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _collect_verdicts(check, modulus, assignment, field):
    if check == "all":
        return theorems.all_checks(modulus, assignment, field)
    if check == "lemma1":
        return [
            theorems.check_lemma1(modulus, d, assignment.vector_for(d))
            for d in modulus.divisors_gt1()
        ]
    if check == "lemma2":
        return [
            theorems.check_lemma2(modulus, assignment, d, field)
            for d in modulus.divisors_gt1()
        ]
    if check == "lemma3":
        return [
            theorems.check_lemma3(modulus, assignment, d, field)
            for d in modulus.divisors_gt1()
        ]
    if check == "lemma4":
        return [theorems.check_lemma4(modulus, field)]
    if check == "theorem1":
        return [theorems.check_theorem1(modulus, assignment, field)]
    return [theorems.check_corollary(modulus, assignment)]


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
    if args.check in ("lemma2", "lemma3", "lemma4", "theorem1", "all"):
        try:
            field = gf2poly.build_field(modulus.n, args.degree_cap)
        except DegreeCapExceeded:
            # lemma3/lemma4 cannot run at all without the field
            if args.check in ("lemma3", "lemma4"):
                raise
    verdicts = _collect_verdicts(args.check, modulus, assignment, field)
    for v in verdicts:
        print(_verdict_line(v))
    if all(v.passed for v in verdicts):
        return EXIT_OK
    return EXIT_CHECK_FAILED


@dataclass(frozen=True)
class SurveyRow:
    n: int
    factors: str
    assignment: str
    delta: int
    L_bm: int
    L_gcd: int
    L_spectral: int | None
    theorem1_applicable: bool
    theorem1_holds: bool | None
    predicted_L: int | None
    prediction_match: bool | None


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


def survey_row(modulus: Modulus, assignment: VectorAssignment, degree_cap=None) -> SurveyRow:
    """One survey measurement; raises MethodDisagreement when BM or the
    spectral route disagrees with gcd."""
    seq = sequence.generate(modulus, assignment)
    l_bm = lincomp.lincomp_bm(seq).L
    l_gcd = lincomp.lincomp_gcd(seq).L
    if l_bm != l_gcd:
        raise MethodDisagreement(f"BM/GCD disagreement at n={modulus.n}: {l_bm} vs {l_gcd}")
    l_spec = None
    try:
        field = gf2poly.build_field(modulus.n, degree_cap)
        l_spec = lincomp.lincomp_spectral(seq, field).L
    except DegreeCapExceeded:
        pass
    if l_spec is not None and l_spec != l_gcd:
        raise MethodDisagreement(
            f"spectral/GCD disagreement at n={modulus.n}: {l_spec} vs {l_gcd}"
        )
    th1 = theorems.check_theorem1(modulus, assignment)
    predicted = None
    match = None
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
    return SurveyRow(
        n=modulus.n,
        factors=modulus.factor_string(),
        assignment=assignment.spec_string(),
        delta=delta(modulus.n),
        L_bm=l_bm,
        L_gcd=l_gcd,
        L_spectral=l_spec,
        theorem1_applicable=th1.applicable,
        theorem1_holds=th1.holds,
        predicted_L=predicted,
        prediction_match=match,
    )


def cmd_survey(args) -> int:
    if args.max_n > args.cap:
        raise DHSeqError(f"--max-n {args.max_n} exceeds the survey cap {args.cap}")
    rows: list[SurveyRow] = []
    for modulus in numtheory.enumerate_valid_moduli(args.max_n):
        if args.mode == "two-primes-11":
            if modulus.t != 2 or any(e != 1 for _, e in modulus.factors):
                continue
            assignment = VectorAssignment.all_ones_top(modulus)
        else:
            assignment = VectorAssignment.default(modulus)
        rows.append(survey_row(modulus, assignment, args.degree_cap))
    rows.sort(key=lambda r: (r.n, r.factors))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    _cell(r.n),
                    _cell(r.factors),
                    _cell(r.assignment),
                    _cell(r.delta),
                    _cell(r.L_bm),
                    _cell(r.L_gcd),
                    _cell(r.L_spectral),
                    _cell(r.theorem1_applicable),
                    _cell(r.theorem1_holds),
                    _cell(r.predicted_L),
                    _cell(r.prediction_match),
                ]
            )
    print(f"wrote {len(rows)} rows to {args.out}")
    bad = any(
        r.prediction_match is False or (r.theorem1_applicable and r.theorem1_holds is False)
        for r in rows
    )
    return EXIT_CHECK_FAILED if bad else EXIT_OK


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
        "--method",
        choices=["bm", "gcd", "spectral", "all"],
        default="all",
        help="which method(s) to run",
    )
    lc.add_argument("--degree-cap", type=int, default=None, help="spectral degree cap")
    lc.set_defaults(func=cmd_lincomp)

    ver = sub.add_parser("verify", help="run structural checks")
    ver.add_argument(
        "--check",
        required=True,
        choices=["lemma1", "lemma2", "lemma3", "lemma4", "theorem1", "corollary", "all"],
    )
    ver.add_argument("--factors", required=True, help="modulus factorization")
    _add_assignment_options(ver)
    ver.add_argument("--degree-cap", type=int, default=None, help="spectral degree cap")
    ver.set_defaults(func=cmd_verify)

    sur = sub.add_parser("survey", help="sweep moduli and emit a CSV")
    sur.add_argument("--max-n", type=int, required=True)
    sur.add_argument("--mode", choices=["two-primes-11", "default-all"], required=True)
    sur.add_argument("--out", required=True, metavar="FILE")
    sur.add_argument("--cap", type=int, default=DEFAULT_SURVEY_CAP, help="hard cap on --max-n")
    sur.add_argument("--degree-cap", type=int, default=None, help="spectral degree cap")
    sur.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MethodDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (DHSeqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
