"""The benchmark's workloads: CLI argument lists and their output oracles.

Every expected value comes from somewhere other than the route being timed:
the paper's closed-form table or corollary, a digest recorded at the seed,
or a value recorded from the gcd route and confirmed with Berlekamp-Massey.
Inputs depend only on the seed, and the program sees only the generated
argument lists and files.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("survey", "lincomp-large", "verify")


@dataclass(frozen=True)
class Op:
    """One CLI call. ``check(exit_code, stdout)`` returns None when the output
    is right, else the reason it is wrong."""

    name: str
    argv: list[str]
    check: Callable[[int, str], str | None]


def delta(n: int) -> int:
    return 1 if n % 4 == 3 else 0


def two_prime_closed_form(p1: int, p2: int) -> int:
    """The paper's four-case L for n = p1*p2, all-ones top vector, p1, p2 = 3 mod 4."""
    table = {
        (3, 3): p1 + p2 - 1,
        (3, 7): p1 + (p2 - 1) // 2,
        (7, 3): p2 + (p1 - 1) // 2,
        (7, 7): (p1 + p2) // 2,
    }
    return table[(p1 % 8, p2 % 8)]


def factor_arg(factors) -> str:
    return ",".join(f"{p}:{e}" for p, e in factors)


# --- survey ---------------------------------------------------------------

SURVEY_MAX_N = 2000
# (rows, sha256 of the CSV) recorded at the seed for --max-n 2000.
SURVEY_EXPECTED = {
    ("default-all", 2000): (
        726,
        "f917d3544e0ca738222f18033b9912b96603157e513a4b0d57859687c5e3696d",
    ),
    ("two-primes-11", 2000): (
        269,
        "dd50e4ae386d5c8783db187901e35974c0e62665e571a2dee86003abd7e89418",
    ),
}


def check_survey_csv(path: Path, rows_and_digest) -> str | None:
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    for r in rows:
        at = f"row n={r['n']} {r['factors']}"
        if r["L_bm"] != r["L_gcd"]:
            return f"{at}: L_bm {r['L_bm']} != L_gcd {r['L_gcd']}"
        if r["L_spectral"] not in ("", r["L_gcd"]):
            return f"{at}: L_spectral {r['L_spectral']} != L_gcd {r['L_gcd']}"
        if r["prediction_match"] == "false" or r["theorem1_holds"] == "false":
            return f"{at}: prediction or theorem1 failed"
    if rows_and_digest is not None:
        want_rows, want_digest = rows_and_digest
        if len(rows) != want_rows:
            return f"{len(rows)} rows, expected {want_rows}"
        if hashlib.sha256(data).hexdigest() != want_digest:
            return "CSV digest differs from the one recorded at the seed"
    return None


def survey(workdir: Path, max_n: int = SURVEY_MAX_N) -> list[Op]:
    """Both survey modes. The input is fixed by --max-n, so no seed is used."""
    ops = []
    for mode in ("default-all", "two-primes-11"):
        out = workdir / f"survey-{mode}.csv"
        expected = SURVEY_EXPECTED.get((mode, max_n))

        def check(code, stdout, out=out, expected=expected):
            if code != 0:
                return f"exit code {code}"
            if not stdout.startswith("wrote ") or not out.exists():
                return f"unexpected output {stdout!r}"
            return check_survey_csv(out, expected)

        argv = ["survey", "--max-n", str(max_n), "--mode", mode, "--out", str(out)]
        ops.append(Op(f"survey {mode}", argv, check))
    return ops


# --- lincomp-large --------------------------------------------------------

# (factors, assignment flag, expected L). 250746 and 357557 were recorded
# from the gcd route at the seed and confirmed with Berlekamp-Massey.
LINCOMP_CASES = [
    (((499, 1), (503, 1)), "--default", 250746),
    (((499, 1), (503, 1)), "--all-ones-top", two_prime_closed_form(499, 503)),
    # 2 is primitive modulo 3^11, so the corollary gives L = n - delta.
    (((3, 11),), "--default", 3**11 - delta(3**11)),
    (((5, 1), (7, 1), (11351, 1)), "--default", 357557),
]
# The raw period: the 3^11 sequence, decimated by a unit and rotated,
# which leaves L unchanged.
LINCOMP_RAW = (((3, 11),), 3**11 - delta(3**11))


def expect_lines(lines: str) -> Callable[[int, str], str | None]:
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        if stdout != lines:
            return f"printed {stdout!r}, expected {lines!r}"
        return None

    return check


def scramble_period(bits: str, rng: random.Random) -> str:
    """Decimate by a seeded unit u and rotate by a seeded offset k:
    s'_i = s_((u*i + k) mod n). Both keep the linear complexity."""
    n = len(bits)
    u = rng.randrange(2, n)
    while math.gcd(u, n) != 1:
        u = rng.randrange(2, n)
    k = rng.randrange(n)
    return "".join(bits[(u * i + k) % n] for i in range(n))


def lincomp_large(
    workdir: Path, rng: random.Random, run_cli, cases=LINCOMP_CASES, raw=LINCOMP_RAW
) -> list[Op]:
    """gcd-only lincomp on large periods, plus one raw period read from a file.

    ``run_cli(argv)`` returns (exit code, stdout); it writes the raw period
    with the program's own ``generate`` before anything is timed.
    """
    ops = []
    for factors, flag, want in cases:
        argv = ["lincomp", "--method", "gcd", "--factors", factor_arg(factors), flag]
        ops.append(Op(f"lincomp {factor_arg(factors)} {flag}", argv,
                      expect_lines(f"L[gcd] = {want}\n")))
    raw_factors, raw_want = raw
    plain = workdir / "period.txt"
    code, _ = run_cli(["generate", "--factors", factor_arg(raw_factors), "--default",
                       "--out", str(plain)])
    if code != 0:
        raise RuntimeError(f"generate for the raw period exited {code}")
    raw_path = workdir / "raw-period.txt"
    raw_path.write_text(scramble_period(plain.read_text().strip(), rng) + "\n")
    ops.append(Op(f"lincomp --sequence ({factor_arg(raw_factors)} scrambled)",
                  ["lincomp", "--method", "gcd", "--sequence", str(raw_path)],
                  expect_lines(f"L[gcd] = {raw_want}\n")))
    return ops


# --- verify ---------------------------------------------------------------

# ord_n(2) <= 64 for each, so every field-dependent check runs.
VERIFY_MODULI = [
    ((3, 1), (5, 1), (7, 1), (11, 1)),  # 1155
    ((3, 1), (17, 1), (31, 1)),  # 1581
    ((3, 1), (5, 1), (127, 1)),  # 1905
    ((3, 1), (5, 1), (151, 1)),  # 2265
    ((3, 2), (257, 1)),  # 2313
    ((3, 1), (1103, 1)),  # 3309
]


def divisors_gt1(factors) -> list[tuple[int, int]]:
    """(d, number of distinct primes of d) for every divisor d > 1."""
    divs = [(1, 0)]
    for p, e in factors:
        divs = [(d * p**k, w + (k > 0)) for d, w in divs for k in range(e + 1)]
    return sorted(dw for dw in divs if dw[0] > 1)


def odd_sum_vector(width: int, rng: random.Random) -> str:
    bits = [rng.randrange(2) for _ in range(width - 1)]
    bits.append(1 - sum(bits) % 2)
    return "".join(map(str, bits))


def multiplicative_order(a: int, m: int) -> int:
    k, x = 1, a % m
    while x != 1:
        x = x * a % m
        k += 1
    return k


def expected_verdicts(factors) -> dict[str, bool]:
    """Verdict name -> whether it must be applicable. Every applicable verdict
    must hold; lemma4 and the corollary apply only to some moduli."""
    divs = [d for d, _ in divisors_gt1(factors)]
    out = {}
    for lemma in ("lemma1", "lemma2", "lemma3"):
        out.update({f"{lemma}(d={d})": True for d in divs})
    out["lemma4"] = len(factors) == 2 and all(e == 1 for _, e in factors)
    out["theorem1"] = True
    out["corollary"] = all(
        multiplicative_order(2, p**e) == p ** (e - 1) * (p - 1) for p, e in factors
    )
    return out


def check_verdicts(factors) -> Callable[[int, str], str | None]:
    expected = expected_verdicts(factors)

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        lines = [line.partition(" ") for line in stdout.splitlines()]
        if sorted(name for name, _, _ in lines) != sorted(expected):
            return f"verdicts {[name for name, _, _ in lines]}, expected {sorted(expected)}"
        seen = {name: rest for name, _, rest in lines}
        for name, applicable in expected.items():
            want = "applicable=true holds=true " if applicable else "applicable=false holds=- "
            if not seen[name].startswith(want):
                return f"{name}: {seen[name]}"
        return None

    return check


def verify(rng: random.Random, moduli=VERIFY_MODULI) -> list[Op]:
    """verify --check all, with a seeded odd-sum vector on every divisor."""
    ops = []
    for factors in moduli:
        spec = ";".join(f"{d}:{odd_sum_vector(w, rng)}" for d, w in divisors_gt1(factors))
        argv = ["verify", "--check", "all", "--factors", factor_arg(factors),
                "--assignment", spec]
        ops.append(Op(f"verify {factor_arg(factors)}", argv, check_verdicts(factors)))
    return ops
