import csv

import pytest

from dhseq import cli
from dhseq.cli import main


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


def test_parse_factors():
    assert cli.parse_factors("3:1,7:2") == [(3, 1), (7, 2)]
    assert cli.parse_factors("3,7") == [(3, 1), (7, 1)]
    with pytest.raises(Exception):
        cli.parse_factors("3:1,,7:1")


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
        r = real(*args, **kwargs)
        return type(r)(r.L + 1, r.method, r.zero_count, r.zero_set)

    return wrong


def test_survey_spectral_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.lincomp, "lincomp_spectral", _wrong_by_one(cli.lincomp.lincomp_spectral))
    out_csv = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "survey", "--max-n", "30", "--mode", "default-all", "--out", str(out_csv)
    )
    assert code == 3
    assert "spectral/GCD disagreement at n=3" in err
    assert not out_csv.exists()


def test_survey_bm_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.lincomp, "lincomp_bm", _wrong_by_one(cli.lincomp.lincomp_bm))
    out_csv = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "survey", "--max-n", "30", "--mode", "two-primes-11", "--out", str(out_csv)
    )
    assert code == 3
    assert "BM/GCD disagreement at n=15" in err


def test_method_disagreement_is_not_an_input_error():
    from dhseq.errors import DHSeqError, MethodDisagreement

    assert not issubclass(MethodDisagreement, (DHSeqError, ValueError))


def test_crt_split_check_survives_optimization(monkeypatch):
    # the defining congruence is checked by an explicit raise, not an assert
    from dhseq import theorems
    from dhseq.errors import MethodDisagreement
    from dhseq.numtheory import validate_modulus

    m = validate_modulus([(3, 1), (7, 1)])
    monkeypatch.setattr(theorems, "pow", lambda *args: 2, raising=False)
    with pytest.raises(MethodDisagreement):
        theorems.crt_split(m, 21)
