import subprocess
import sys
from pathlib import Path

import pytest

from dhseq import CheckRun, CheckVerdict, VectorAssignment, check_lemma4, generate
from dhseq.numtheory import validate_modulus
from dhseq.sequence import parse_bit_line

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_cold_start_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples: dataclasses would bring inspect, ast, dis
    # and tokenize into every CLI call's start
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from dhseq import cli\n"
        "cli.build_parser()\n"
        "print(cli.__file__)\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    where, loaded = done.stdout.splitlines()
    assert SRC in Path(where).resolve().parents
    assert loaded == "[]"


def _records():
    m = validate_modulus([(3, 1), (7, 1)])
    return [
        (m, "n"),
        (generate(m, VectorAssignment.default(m)), "packed"),
        (parse_bit_line("101\n"), "n"),
        (CheckVerdict("lemma4", True, True), "holds"),
    ]


@pytest.mark.parametrize(
    "record, field", _records(), ids=["Modulus", "generated-Period", "parsed-Period", "CheckVerdict"]
)
def test_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_modulus_equal_and_hashed_by_sorted_factors():
    a = validate_modulus([(7, 1), (3, 1)])
    b = validate_modulus([(3, 1), (7, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != validate_modulus([(3, 1), (11, 1)])


def test_record_reprs_name_every_field():
    m = validate_modulus([(7, 1), (3, 1)])
    assert repr(m) == "Modulus(factors=((3, 1), (7, 1)), n=21)"
    assert repr(check_lemma4(CheckRun(m, VectorAssignment.default(m), None))) == (
        "CheckVerdict(name='lemma4', applicable=False, holds=None, witness='field unavailable')"
    )
    assert repr(CheckVerdict("theorem1", True, True)) == (
        "CheckVerdict(name='theorem1', applicable=True, holds=True, witness=None)"
    )
