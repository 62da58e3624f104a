import csv

import pytest

from dhseq import cli
from dhseq.cli import main
from dhseq.errors import DHSeqError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--factors", "3:1,7:1", "--default")
    assert code == 0
    line = out.strip()
    assert len(line) == 21
    assert line.count("1") == 11


def test_generate_to_file(tmp_path, capsys):
    out_file = tmp_path / "seq.txt"
    meta_file = tmp_path / "seq.meta"
    code, _, _ = run(
        capsys,
        "generate",
        "--factors",
        "3:1,13:1",
        "--default",
        "--out",
        str(out_file),
        "--meta",
        str(meta_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.endswith("\n") and len(text.strip()) == 39
    assert "n=39" in meta_file.read_text()


def test_generate_rejects_bad_modulus(capsys):
    code, _, err = run(capsys, "generate", "--factors", "5:1,13:1")
    assert code == 2
    assert "(5, 13)" in err


def test_generate_rejects_bad_factor_syntax(capsys):
    code, _, err = run(capsys, "generate", "--factors", "3:x")
    assert code == 2
    assert "factor" in err


def test_generate_rejects_bad_spec_line(tmp_path, capsys):
    spec = tmp_path / "a.spec"
    spec.write_text("21:00\n")
    code, _, err = run(capsys, "generate", "--factors", "3:1,7:1", "--spec", str(spec))
    assert code == 2
    assert "21:00" in err


@pytest.mark.parametrize(
    "spec, d",
    [("15:11\n15:10", 15), ("15:10\n015:11", 15), ("3:1\n15:11\n3:1", 3)],
)
def test_generate_rejects_a_divisor_listed_twice(tmp_path, capsys, spec, d):
    spec_file = tmp_path / "a.spec"
    spec_file.write_text(spec + "\n")
    inline = spec.replace("\n", ";")
    for option, value in (("--spec", str(spec_file)), ("--assignment", inline)):
        code, out, err = run(capsys, "generate", "--factors", "3:1,5:1", option, value)
        assert (code, out) == (2, ""), option
        assert f"divisor {d} is listed twice" in err, option


def test_lincomp_all_methods_n21(capsys):
    code, out, _ = run(
        capsys, "lincomp", "--factors", "3:1,7:1", "--all-ones-top", "--method", "all"
    )
    assert code == 0
    assert "L[bm] = 6" in out
    assert "L[gcd] = 6" in out
    assert "L[spectral] = 6" in out


def test_lincomp_n33_all_ones(capsys):
    code, out, _ = run(
        capsys, "lincomp", "--factors", "3:1,11:1", "--all-ones-top", "--method", "gcd"
    )
    assert code == 0
    assert "L[gcd] = 13" in out


def test_lincomp_assignment_override(capsys):
    code, out, _ = run(
        capsys, "lincomp", "--factors", "3:1,7:1", "--assignment", "21:11", "--method", "bm"
    )
    assert code == 0
    assert "L[bm] = 6" in out


def test_lincomp_from_sequence_file(tmp_path, capsys):
    f = tmp_path / "ones.txt"
    f.write_text("1" * 9 + "\n")
    code, out, _ = run(capsys, "lincomp", "--sequence", str(f), "--method", "bm")
    assert code == 0
    assert "L[bm] = 1" in out


@pytest.mark.parametrize("extra", [("--factors", "3:1,7:1"), ("--all-ones-top",)])
def test_lincomp_sequence_rejects_construction_options(tmp_path, capsys, extra):
    # a raw period has no modulus or assignment: the options would be ignored
    f = tmp_path / "ones.txt"
    f.write_text("1" * 21 + "\n")
    code, out, err = run(capsys, "lincomp", "--sequence", str(f), *extra, "--method", "gcd")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("line", ["1_0", "0b1", "\uff10\uff11"])
def test_lincomp_sequence_rejects_what_int_would_parse(tmp_path, capsys, line):
    f = tmp_path / "junk.txt"
    f.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "lincomp", "--sequence", str(f), "--method", "gcd")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_lincomp_spectral_cap_exceeded(capsys):
    code, _, err = run(
        capsys,
        "lincomp",
        "--factors",
        "3:1,7:1",
        "--method",
        "spectral",
        "--degree-cap",
        "4",
    )
    assert code == 2
    assert "cap" in err


def test_lincomp_all_skips_spectral_above_cap(capsys):
    code, out, _ = run(
        capsys,
        "lincomp",
        "--factors",
        "3:1,7:1",
        "--method",
        "all",
        "--degree-cap",
        "4",
    )
    assert code == 0
    assert "L[bm] = " in out and "L[spectral] = " not in out


def test_lincomp_requires_input(capsys):
    code, _, err = run(capsys, "lincomp", "--method", "bm")
    assert code == 2


def test_verify_all_n21(capsys):
    code, out, _ = run(capsys, "verify", "--check", "all", "--factors", "3:1,7:1", "--default")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert any(l.startswith("lemma1(d=3)") for l in lines)
    assert any(l.startswith("theorem1") for l in lines)
    assert all("holds=false" not in l for l in lines)


def test_verify_theorem1_even_sum_inapplicable(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--check",
        "theorem1",
        "--factors",
        "3:1,7:1",
        "--assignment",
        "21:11",
    )
    assert code == 0
    assert "applicable=false" in out


def test_verify_lemma4_n15(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--check",
        "lemma4",
        "--factors",
        "3:1,5:1",
        "--assignment",
        "15:11",
    )
    assert code == 0
    assert "lemma4 applicable=true holds=true" in out


def test_verify_lemma4_needs_field(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--check",
        "lemma4",
        "--factors",
        "3:1,7:1",
        "--degree-cap",
        "4",
    )
    assert code == 2


@pytest.mark.parametrize("cap", ["100000", "0"])
def test_lincomp_degree_cap_out_of_range_exits_2(capsys, cap):
    # ord_1019(2) = 1018, so a cap above it would start a search for an
    # irreducible of degree 1018 that takes minutes; the range check comes first
    code, out, err = run(
        capsys, "lincomp", "--factors", "1019:1", "--method", "all", "--degree-cap", cap
    )
    assert code == 2
    assert "L[" not in out
    assert err.startswith("error: ") and "degree cap" in err


@pytest.mark.parametrize("check", ["lemma1", "corollary"])
@pytest.mark.parametrize("cap", ["0", "257"])
def test_verify_degree_cap_out_of_range_exits_2_without_a_field(capsys, check, cap):
    # lemma1 and corollary build no field, but the cap is checked all the same
    code, out, err = run(
        capsys, "verify", "--check", check, "--factors", "3:1,7:1", "--degree-cap", cap
    )
    assert code == 2
    assert "applicable=" not in out
    assert err.startswith("error: ") and "degree cap" in err


def test_verify_all_without_field_marks_inapplicable(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--check",
        "all",
        "--factors",
        "3:1,7:1",
        "--degree-cap",
        "4",
    )
    assert code == 0
    assert "lemma3(d=21) applicable=false" in out


def test_survey_two_primes(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code, _, _ = run(
        capsys,
        "survey",
        "--max-n",
        "100",
        "--mode",
        "two-primes-11",
        "--out",
        str(out_csv),
    )
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    by_n = {row["n"]: row for row in rows}
    assert by_n["21"]["L_bm"] == "6"
    assert by_n["21"]["predicted_L"] == "6"
    assert by_n["21"]["prediction_match"] == "true"
    assert by_n["33"]["L_gcd"] == "13"
    assert by_n["33"]["prediction_match"] == "true"
    # 15 = 3 * 5 has a prime 1 mod 4: measured but not predicted
    assert by_n["15"]["predicted_L"] == ""
    assert by_n["15"]["prediction_match"] == ""
    for row in rows:
        assert row["L_bm"] == row["L_gcd"]


def test_survey_default_all(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "survey", "--max-n", "100", "--mode", "default-all", "--out", str(out_csv)
    )
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    ns = [int(row["n"]) for row in rows]
    assert ns == sorted(ns)
    assert {9, 15, 21} <= set(ns)
    assert 63 not in set(ns)
    for row in rows:
        assert row["theorem1_applicable"] == "true"
        assert row["theorem1_holds"] == "true"


def test_survey_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "survey", "--max-n", "80", "--mode", "default-all", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_survey_cap(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "survey",
        "--max-n",
        "5000",
        "--mode",
        "default-all",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("extra", [0, 1, 1 << 24])
def test_survey_past_the_period_bound_exits_2_before_enumerating(
    extra, capsys, tmp_path, monkeypatch
):
    from dhseq import numtheory

    def refuse(max_n):
        raise AssertionError(f"enumerated up to {max_n}")

    monkeypatch.setattr(numtheory, "enumerate_valid_moduli", refuse)
    max_n = str(numtheory.MAX_PERIOD + extra)
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "survey", "--max-n", max_n, "--cap", max_n, "--mode", "default-all", "--out", str(out)
    )
    assert code == 2
    assert err == (
        f"error: --max-n {max_n} is not below the supported period bound {numtheory.MAX_PERIOD}\n"
    )
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("max_n", ["-1", "-5"])
def test_survey_negative_max_n_exits_2(max_n, capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "survey", "--max-n", max_n, "--mode", "default-all", "--out", str(out)
    )
    assert code == 2
    assert err == f"error: --max-n {max_n} is negative\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("max_n", ["0", "1", "2"])
def test_survey_below_three_writes_zero_rows(max_n, capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, _ = run(
        capsys, "survey", "--max-n", max_n, "--mode", "default-all", "--out", str(out)
    )
    assert code == 0
    assert stdout == f"wrote 0 rows to {out}\n"
    assert out.read_text().count("\n") == 1


def test_parse_factors():
    assert cli.parse_factors("3:1,7:2") == [(3, 1), (7, 2)]
    assert cli.parse_factors("3,7") == [(3, 1), (7, 1)]
    with pytest.raises(Exception):
        cli.parse_factors("3:1,,7:1")
    # spaces around either side and leading zeros stay valid
    assert cli.parse_factors(" 3 : 1 , 07 :02") == [(3, 1), (7, 2)]


# int() accepts the signs, the underscore and non-ASCII digits, so the
# decimal check must refuse them first; str.isdigit() alone passes "\u00b2";
# a ':' with no exponent after it is no shorthand for ':1'
@pytest.mark.parametrize(
    "text",
    ["1_1:1", "\u0661\u0661:1", "3:+1", "+3:1", "3:-1", "3:1_0", "3:\u00b2", "\uff13:1", ":1",
     "3:", "3: ", "3:,7:1"],
)
def test_parse_factors_rejects_junk(text, capsys):
    with pytest.raises(DHSeqError, match="bad factor entry"):
        cli.parse_factors(text)
    code, out, err = run(capsys, "generate", "--factors", text)
    assert code == 2 and out == ""
    assert "bad factor entry" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec", ["2_1:11", "\u0662\u0661:11", "+21:11", "-21:11", "2 1:11", "\uff12\uff11:11"]
)
def test_assignment_divisor_rejects_junk(spec, capsys):
    code, out, err = run(
        capsys, "verify", "--check", "lemma1", "--factors", "3:1,7:1", f"--assignment={spec}"
    )
    assert code == 2 and out == ""
    assert f"bad assignment line {spec!r}: divisor is not a decimal integer" in err


@pytest.mark.parametrize("spec", ["021:11", " 21 : 11 "])
def test_assignment_divisor_keeps_spaces_and_leading_zeros(spec, capsys):
    args = ("verify", "--check", "lemma1", "--factors", "3:1,7:1", "--assignment")
    assert run(capsys, *args, spec) == run(capsys, *args, "21:11")


@pytest.mark.parametrize("period, want", [("1", 1), ("0", 0)])
def test_lincomp_all_on_one_bit_period_skips_spectral(tmp_path, capsys, period, want):
    f = tmp_path / "one.txt"
    f.write_text(period + "\n")
    code, out, _ = run(capsys, "lincomp", "--sequence", str(f), "--method", "all")
    assert code == 0
    assert f"L[bm] = {want}" in out
    assert f"L[gcd] = {want}" in out
    assert "L[spectral] skipped: field unavailable" in out


def test_lincomp_all_on_even_raw_period_skips_spectral(tmp_path, capsys):
    f = tmp_path / "even.txt"
    # S(x) = x + x^2 shares the single factor 1 + x with x^4 + 1 = (1 + x)^4
    f.write_text("0110\n")
    code, out, _ = run(capsys, "lincomp", "--sequence", str(f), "--method", "all")
    assert code == 0
    assert "L[bm] = 3" in out and "L[gcd] = 3" in out
    assert "L[spectral] skipped: field unavailable" in out


def test_lincomp_spectral_only_on_one_bit_period_is_input_error(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("1\n")
    code, _, err = run(capsys, "lincomp", "--sequence", str(f), "--method", "spectral")
    assert code == 2
    assert "odd period" in err


def test_generate_out_matches_per_index_oracle(tmp_path, capsys):
    from dhseq.cyclotomy import VectorAssignment
    from dhseq.numtheory import validate_modulus

    from oracles import generate_by_index, to_bits

    out_file = tmp_path / "seq.txt"
    code, _, _ = run(
        capsys, "generate", "--factors", "3:1,5:1,7:1", "--all-ones-top", "--out", str(out_file)
    )
    assert code == 0
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    bits = to_bits(generate_by_index(m, VectorAssignment.all_ones_top(m)), m.n)
    assert out_file.read_text() == "".join(map(str, bits)) + "\n"


def _wrong_by_one(real):
    def wrong(*args, **kwargs):
        return real(*args, **kwargs) + 1

    return wrong


def test_survey_spectral_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.lincomp, "lincomp_spectral", _wrong_by_one(cli.lincomp.lincomp_spectral))
    out_csv = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "survey", "--max-n", "30", "--mode", "default-all", "--out", str(out_csv)
    )
    assert code == 3
    assert "spectral/GCD disagreement at n=3" in err
    # --out is opened before the first row, so the stopped survey leaves it empty
    assert out_csv.read_text() == ""


def test_survey_bm_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.lincomp, "lincomp_bm", _wrong_by_one(cli.lincomp.lincomp_bm))
    out_csv = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "survey", "--max-n", "30", "--mode", "two-primes-11", "--out", str(out_csv)
    )
    assert code == 3
    assert "BM/GCD disagreement at n=15" in err


def test_survey_unwritable_out_exits_2_before_the_first_row(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "survey_row", lambda *args: calls.append(args))
    out = tmp_path / "no" / "such" / "s.csv"
    code, stdout, err = run(
        capsys, "survey", "--max-n", "2000", "--mode", "default-all", "--out", str(out)
    )
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert stdout == "" and calls == []


def test_lincomp_disagreement_exits_3_after_every_value(capsys, monkeypatch):
    monkeypatch.setattr(cli.lincomp, "lincomp_bm", _wrong_by_one(cli.lincomp.lincomp_bm))
    code, out, err = run(capsys, "lincomp", "--method", "all", "--factors", "3:1,7:1", "--default")
    assert code == 3
    assert out == "L[bm] = 19\nL[gcd] = 18\nL[spectral] = 18\n"
    assert err == "error: methods disagree\n"


def test_verify_corollary_failure_exits_1_with_its_witness(capsys, monkeypatch):
    real = cli.lincomp.lincomp_gcd
    monkeypatch.setattr(cli.lincomp, "lincomp_gcd", lambda seq: real(seq) - 1)
    code, out, _ = run(capsys, "verify", "--check", "corollary", "--factors", "3:2,5:1")
    assert code == 1
    assert out == "corollary applicable=true holds=false witness=L=44, expected 45\n"


def test_method_disagreement_is_not_an_input_error():
    from dhseq.errors import DHSeqError, MethodDisagreement

    assert not issubclass(MethodDisagreement, (DHSeqError, ValueError))


def test_crt_split_check_survives_optimization(monkeypatch):
    # the defining congruence of the oracle is checked by an explicit raise,
    # not an assert
    import oracles
    from dhseq.errors import MethodDisagreement
    from dhseq.numtheory import validate_modulus

    m = validate_modulus([(3, 1), (7, 1)])
    monkeypatch.setattr(oracles, "pow", lambda *args: 2, raising=False)
    with pytest.raises(MethodDisagreement):
        oracles.crt_split(m, 21)


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--factors", "2305843009213693951:1"),
        ("verify", "--check", "lemma1", "--factors", "2305843009213693951:1"),
        ("generate", "--factors", "3:1000000000"),
    ],
)
def test_oversized_period_exits_2_before_allocating(capsys, argv):
    # 2^61 - 1 is prime: it used to end in a MemoryError (generate) or a hang
    # (lemma1); a huge exponent must not be multiplied out either
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "not below the supported bound" in err and "Traceback" not in err
    assert peak < 1 << 20


def test_oversized_sequence_file_exits_2(tmp_path, capsys):
    # a raw period is bounded like a constructed one, before the gcd starts
    from dhseq.numtheory import MAX_PERIOD

    f = tmp_path / "huge.txt"
    f.write_text("1" * MAX_PERIOD + "\n")
    code, out, err = run(capsys, "lincomp", "--sequence", str(f), "--method", "gcd")
    assert code == 2
    assert out == ""
    assert f"period of {MAX_PERIOD} bits" in err
    assert "not below the supported bound" in err and "Traceback" not in err


def test_survey_row_generates_and_measures_gcd_once(monkeypatch):
    from collections import Counter

    from dhseq import lincomp, sequence
    from dhseq.cyclotomy import VectorAssignment
    from dhseq.numtheory import validate_modulus

    calls = Counter()

    def counted(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counted(sequence, "generate")
    counted(lincomp, "lincomp_gcd")
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    row = cli.survey_row(m, VectorAssignment.default(m))
    assert calls == {"generate": 1, "lincomp_gcd": 1}
    assert row["theorem1_applicable"] and row["theorem1_holds"]


def test_survey_calls_check_theorem1_once_per_row(tmp_path, capsys, monkeypatch):
    # perfbench traces theorems.check_theorem1; survey_row must look it up
    from collections import Counter

    from dhseq import theorems

    calls = Counter()
    for module, attr in ((cli, "survey_row"), (theorems, "check_theorem1")):
        real = getattr(module, attr)

        def wrapper(*args, _attr=attr, _real=real, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
    out_csv = tmp_path / "s.csv"
    code, out, _ = run(
        capsys, "survey", "--max-n", "200", "--mode", "default-all", "--out", str(out_csv)
    )
    assert code == 0
    rows = len(out_csv.read_text().splitlines()) - 1
    assert out == f"wrote {rows} rows to {out_csv}\n"
    assert rows > 10 and calls == Counter(survey_row=rows, check_theorem1=rows)


@pytest.mark.parametrize(
    "factors, make",
    [
        ([(3, 1), (7, 1)], "all_ones_top"),  # two-primes-11, prediction filled
        ([(3, 1), (5, 1)], "default"),  # default-all, prediction empty
    ],
)
def test_survey_row_keys_are_the_csv_header(factors, make):
    from dhseq.cyclotomy import VectorAssignment
    from dhseq.numtheory import validate_modulus

    m = validate_modulus(factors)
    row = cli.survey_row(m, getattr(VectorAssignment, make)(m))
    assert list(row) == cli.CSV_HEADER
    filled = make == "all_ones_top"
    assert (row["predicted_L"] is not None) == filled
    assert (row["prediction_match"] is not None) == filled


def test_package_exports_resolve_once():
    import dhseq

    assert len(dhseq.__all__) == len(set(dhseq.__all__))
    for name in dhseq.__all__:
        assert hasattr(dhseq, name), name


def test_repeated_main_calls_leave_no_argparse_cycles(capsys):
    # a parser built per call is a web of reference cycles that only a full
    # collection frees; the memory of a long-running caller creeps with it
    import gc

    run(capsys, "verify", "--check", "lemma1", "--factors", "3:1,7:1")
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(capsys, "verify", "--check", "all", "--factors", "3:1,7:1")
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def _random_period(tmp_path, n, seed):
    import random

    rng = random.Random(seed)
    f = tmp_path / f"random{n}.txt"
    f.write_text("".join(rng.choice("01") for _ in range(n)) + "\n")
    return f


def test_lincomp_all_skips_the_full_sweep_of_a_large_raw_period(tmp_path, capsys):
    # n = 8191 = 2^13 - 1: the field exists (m = 13), but a random period is
    # no union of H-orbits, so the spectral method would sweep all of Z_n
    from dhseq.lincomp import MAX_FULL_SWEEP

    f = _random_period(tmp_path, 8191, seed=11)
    code, out, err = run(capsys, "lincomp", "--sequence", str(f), "--method", "all")
    assert code == 0 and err == ""
    skip, bm, gcd = out.splitlines()
    assert skip.startswith("L[spectral] skipped: ") and f"above n={MAX_FULL_SWEEP}" in skip
    assert bm.startswith("L[bm] = ") and gcd == bm.replace("bm", "gcd")


def test_lincomp_spectral_refuses_the_full_sweep_of_a_large_raw_period(tmp_path, capsys):
    f = _random_period(tmp_path, 8191, seed=11)
    code, out, err = run(capsys, "lincomp", "--sequence", str(f), "--method", "spectral")
    assert code == 2 and out == ""
    assert err.startswith("error: the exponent set is not a union of H-orbits")


@pytest.mark.parametrize(
    "factors, extra",
    [
        ("3:1,5:1,7:1", ("--assignment", "105:110;15:11")),
        ("3:1,7:1", ("--default",)),
        ("3:2,5:1", ("--default",)),
        ("3:1,5:1", ("--all-ones-top",)),
        ("3:1,7:1", ("--degree-cap", "4")),
    ],
)
@pytest.mark.parametrize("check", ["lemma1", "lemma2", "lemma3", "lemma4", "theorem1", "corollary"])
def test_verify_one_check_prints_its_lines_of_all(capsys, factors, extra, check):
    from dhseq import theorems

    assert check in theorems.CHECKS
    argv = ("verify", "--factors", factors, *extra)
    _, all_out, _ = run(capsys, *argv, "--check", "all")
    code, out, err = run(capsys, *argv, "--check", check)
    if "--degree-cap" in extra and check in ("lemma3", "lemma4"):
        # without the field these checks would check nothing
        assert code == 2 and out == "" and "cap" in err
        return
    mine = [line for line in all_out.splitlines() if line.startswith(check)]
    assert mine and out.splitlines() == mine
    failed = any("applicable=true holds=false" in line for line in mine)
    assert code == (1 if failed else 0)
